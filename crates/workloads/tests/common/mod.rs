//! Inputs and golden-file plumbing shared by the byte-identity goldens
//! (`golden_analysis.rs`, `golden_ir.rs`).

use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_driver::SourceFile;
use ipra_workloads::generator::GenConfig;
use std::fmt::Write as _;
use std::path::Path;

/// Generated programs in each golden.
pub const SEEDS: u64 = 200;

/// The generator shape of seed `i` ([`GenConfig::rotating`]).
pub fn shape(i: u64) -> (&'static str, GenConfig) {
    GenConfig::rotating(i)
}

/// Compiler phase 1 up to the optimized IR, for every module.
pub fn optimized_ir(sources: &[SourceFile]) -> Vec<IrModule> {
    let modules = ipra_driver::frontend(sources).expect("inputs are well-formed");
    modules
        .iter()
        .map(|(m, info)| {
            let mut ir = lower_module(m, info);
            optimize_module(&mut ir);
            ir
        })
        .collect()
}

/// Compares `current` with the golden file at `path` line by line, or
/// rewrites the file when `IPRA_UPDATE_GOLDENS` is set. `what` names the
/// pinned output in the failure message.
pub fn check_golden(path: &Path, current: &str, what: &str) {
    if std::env::var_os("IPRA_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, current).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        golden_lines.len(),
        current_lines.len(),
        "input matrix changed; regenerate goldens deliberately"
    );
    let mut diffs = String::new();
    for (g, c) in golden_lines.iter().zip(&current_lines) {
        if g != c {
            let _ = writeln!(diffs, "  golden: {g}\n  now:    {c}");
        }
    }
    assert!(diffs.is_empty(), "{what} is no longer byte-identical:\n{diffs}");
}
