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

use cmin_ir::{lower_module, optimize_module};
use ipra_core::analyzer::{analyze, AnalyzerOptions};
use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::SourceFile;
use ipra_summary::{summarize_module, ProgramSummary};
use ipra_workloads::generator::{random_program_with, GenConfig};
use ipra_workloads::scaled::scaled_program;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The configurations pinned: spill motion only, reserved and greedy
/// coloring, blanket promotion, and points-to eligibility.
const CONFIGS: [PaperConfig; 5] =
    [PaperConfig::A, PaperConfig::C, PaperConfig::D, PaperConfig::E, PaperConfig::P];

/// Generated programs in the golden.
const SEEDS: u64 = 200;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/analysis_fingerprints.txt")
}

/// The generator shape of seed `i`: each rotation slot turns on one of the
/// fuzzer's shape knobs, and the last turns on all of them at once.
fn shape(i: u64) -> (&'static str, GenConfig) {
    let g = GenConfig::default;
    match i % 5 {
        0 => ("recursion", GenConfig { modules: 3, funcs_per_module: 6, recursion: true, ..g() }),
        1 => (
            "alias_mix",
            GenConfig { globals_per_module: 8, funcs_per_module: 5, alias_mix: true, ..g() },
        ),
        2 => ("global_fn_ptrs", GenConfig { global_fn_ptrs: true, ..g() }),
        3 => (
            "ptr_shapes",
            GenConfig { globals_per_module: 6, alias_mix: true, ptr_shapes: true, ..g() },
        ),
        _ => (
            "all",
            GenConfig {
                modules: 3,
                recursion: true,
                alias_mix: true,
                global_fn_ptrs: true,
                ptr_shapes: true,
                ..g()
            },
        ),
    }
}

/// Compiler phase 1 for every module: the summaries the analyzer reads.
fn summarize(sources: &[SourceFile]) -> ProgramSummary {
    let modules = ipra_driver::frontend(sources).expect("inputs are well-formed");
    ProgramSummary {
        modules: modules
            .iter()
            .map(|(m, info)| {
                let mut ir = lower_module(m, info);
                optimize_module(&mut ir);
                summarize_module(&ir)
            })
            .collect(),
    }
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
    let current = current_fingerprints();
    let path = golden_path();
    if std::env::var_os("IPRA_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!("golden_analysis: wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        golden_lines.len(),
        current_lines.len(),
        "input x config matrix changed; regenerate goldens deliberately"
    );
    let mut diffs = String::new();
    for (g, c) in golden_lines.iter().zip(&current_lines) {
        if g != c {
            let _ = writeln!(diffs, "  golden: {g}\n  now:    {c}");
        }
    }
    assert!(diffs.is_empty(), "analyzer output is no longer byte-identical:\n{diffs}");
}
