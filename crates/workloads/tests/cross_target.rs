//! Cross-target acceptance for the machine-description layer: every
//! Table 3 workload under every paper configuration (the seven configs
//! plus alias-precision P) compiles for the RV32 target, comes out of
//! `ipra-verify` clean, and is observably identical to the VPR build —
//! same output, same exit code. Cycle and memory-reference counts are
//! *not* compared: the conventions differ in callee-saves capacity and
//! argument-register count, so the costs legitimately diverge while the
//! semantics may not.
//!
//! Together with the byte-identity goldens (`golden_vx.rs`, which pin
//! the VPR bytes) this is the tentpole's acceptance matrix: both targets
//! through all 8 configs, verifier-clean, behaviorally equal.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile_configured, run_program, verify_program, CompilationCache, CompileOptions,
};
use vpr::target::TargetId;

#[test]
fn workloads_verify_clean_and_agree_on_both_targets() {
    // One cache across every leg: per-target fingerprints must keep the
    // legs from contaminating each other (the oracle tests this on random
    // programs; here it runs on the real workload suite).
    let mut cache = CompilationCache::new();
    for w in ipra_workloads::all() {
        for config in PaperConfig::ALL_WITH_ALIAS {
            let mut legs = Vec::new();
            for target in TargetId::ALL {
                let mut opts = CompileOptions::paper(config);
                opts.analyzer.target = target;
                let program =
                    compile_configured(&w.sources, config, &w.training_input, &opts, &mut cache)
                        .unwrap_or_else(|e| panic!("{}/{config}/{target}: {e}", w.name))
                        .unwrap_or_else(|e| {
                            panic!("{}/{config}/{target}: training trap {e}", w.name)
                        });
                let report = verify_program(&program);
                assert!(
                    report.is_clean(),
                    "{}/{config}/{target}: verifier flagged the build:\n{report}",
                    w.name
                );
                let r = run_program(&program, &w.input)
                    .unwrap_or_else(|e| panic!("{}/{config}/{target}: trap {e}", w.name));
                legs.push(r);
            }
            let (on_vpr, on_rv32) = (&legs[0], &legs[1]);
            assert_eq!(
                on_vpr.output, on_rv32.output,
                "{}/{config}: output diverged across targets",
                w.name
            );
            assert_eq!(
                on_vpr.exit, on_rv32.exit,
                "{}/{config}: exit code diverged across targets",
                w.name
            );
        }
    }
}
