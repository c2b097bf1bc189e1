//! Byte-identity goldens for the program analyzer.
//!
//! The `.vx` goldens (`golden_vx.rs`) pin what the analyzer's decisions
//! compile to on the seven Table 3 workloads, which rarely form recursive
//! cycle webs, merge overlapping webs or discard a `static`'s web. This
//! test pins the analyzer's whole output instead: for every input below
//! and every listed configuration, the FNV-64 of the serialized
//! [`ProgramDatabase`](ipra_core::ProgramDatabase), the
//! [`AnalyzerStats`](ipra_core::AnalyzerStats) and the
//! [`WebReport`](ipra_core::WebReport) list must equal the golden. The web
//! list is ordered, so the golden also pins web numbering, which breaks
//! priority ties in coloring and names the webs in decision traces.
//!
//! Inputs: the scaled programs at 64 and 256 modules, and generated
//! programs whose shape rotates through the fuzzer's knobs (recursion,
//! aliasing mixes, function pointers in globals, pointer parameters).
//!
//! A pure performance change to `ipra-core` must leave this file alone.
//! Regenerate only when an *intentional* analyzer change lands, with:
//!
//! ```sh
//! IPRA_UPDATE_GOLDENS=1 cargo test -p ipra-workloads --test golden_analysis
//! ```

mod common;

use common::{check_golden, optimized_ir, shape, SEEDS};
use ipra_core::analyzer::{analyze, AnalyzerOptions};
use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::SourceFile;
use ipra_summary::{summarize_module, ProgramSummary};
use ipra_workloads::generator::random_program_with;
use ipra_workloads::scaled::scaled_program;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The configurations pinned: spill motion only, reserved and greedy
/// coloring, blanket promotion, and points-to eligibility.
const CONFIGS: [PaperConfig; 5] =
    [PaperConfig::A, PaperConfig::C, PaperConfig::D, PaperConfig::E, PaperConfig::P];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/analysis_fingerprints.txt")
}

/// Compiler phase 1 for every module: the summaries the analyzer reads.
fn summarize(sources: &[SourceFile]) -> ProgramSummary {
    ProgramSummary { modules: optimized_ir(sources).iter().map(summarize_module).collect() }
}

/// One golden line: the input's label and the analysis fingerprint under
/// each configuration.
fn line(label: &str, summary: &ProgramSummary) -> String {
    let mut out = label.to_string();
    for config in CONFIGS {
        let a = analyze(summary, &AnalyzerOptions::paper_config(config, None));
        let mut h = Fnv64::new();
        for json in [
            serde_json::to_string(&a.database),
            serde_json::to_string(&a.stats),
            serde_json::to_string(&a.webs),
        ] {
            h.write_str(&json.expect("analysis serialization cannot fail"));
        }
        let _ = write!(out, " {config}:{:016x}", h.finish());
    }
    out
}

fn current_fingerprints() -> String {
    let mut out = String::new();
    for n in [64, 256] {
        let _ = writeln!(out, "{}", line(&format!("scaled-{n}"), &summarize(&scaled_program(n))));
    }
    for seed in 0..SEEDS {
        let (name, cfg) = shape(seed);
        let summary = summarize(&random_program_with(seed, &cfg));
        let _ = writeln!(out, "{}", line(&format!("seed-{seed} {name}"), &summary));
    }
    out
}

#[test]
fn analyzer_output_matches_goldens() {
    check_golden(&golden_path(), &current_fingerprints(), "analyzer output");
}
