//! Differential testing: random multi-module programs must behave
//! identically under the reference interpreter and under compiled code at
//! every analyzer configuration.
//!
//! This is the repository's strongest correctness instrument: the
//! interpreter shares no code with the lowering, optimizer, analyzer, code
//! generator, linker or simulator, so any divergence pinpoints a
//! miscompile. (It caught a real one during development: promoted-global
//! copy propagation across calls.)
//!
//! Every compiled configuration additionally runs through `ipra-verify`,
//! which checks the machine code against the analyzer's own directives —
//! catching discipline violations that happen not to change this input's
//! observable behavior.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile, compile_configured, interpret_sources, run_program, CompilationCache, CompileOptions,
};
// One shared divergence-dump implementation, used here, by the fuzzer, and
// by its reducer — one format for every debugging session.
use ipra_fuzz::oracle::dump_divergence;
use ipra_workloads::generator::{random_program, random_program_with, GenConfig};

fn check_seed(sources: &[ipra_driver::SourceFile], label: &str) {
    let oracle = interpret_sources(sources, &[])
        .unwrap_or_else(|e| panic!("{label}: frontend error {e}"))
        .unwrap_or_else(|e| panic!("{label}: interpreter trap {e}"));
    let mut cache = CompilationCache::new();
    for config in PaperConfig::ALL {
        let program =
            compile_configured(sources, config, &[], &CompileOptions::default(), &mut cache)
                .unwrap_or_else(|e| panic!("{label}/{config}: compile error {e}"))
                .unwrap_or_else(|e| panic!("{label}/{config}: training trap {e}"));
        let report = ipra_driver::verify_program(&program);
        assert!(report.is_clean(), "{label}/{config} failed verification:\n{report}");
        let r = run_program(&program, &[])
            .unwrap_or_else(|e| panic!("{label}/{config}: simulator trap {e}"));
        if r.output != oracle.output || r.exit != oracle.exit {
            let dir = dump_divergence(sources, config, label);
            let text: String =
                sources.iter().map(|s| format!("// --- {} ---\n{}", s.name, s.text)).collect();
            panic!(
                "{label}/{config} diverged\n oracle: exit {} out {:?}\n sim:    exit {} out {:?}\n\
                 trace + attribution dump: {}\n{text}",
                oracle.exit,
                oracle.output,
                r.exit,
                r.output,
                dir.display()
            );
        }
    }
}

#[test]
fn random_programs_agree_across_all_configs() {
    for seed in 0..25 {
        let sources = random_program(seed);
        check_seed(&sources, &format!("seed {seed}"));
    }
}

#[test]
fn random_programs_agree_with_caller_preallocation() {
    use ipra_core::analyzer::AnalyzerOptions;
    for seed in 300..318 {
        let sources = random_program(seed);
        let oracle = interpret_sources(&sources, &[]).unwrap().unwrap();
        let opts = AnalyzerOptions { caller_preallocation: true, ..AnalyzerOptions::default() };
        let program =
            compile(&sources, &CompileOptions { analyzer: opts, ..Default::default() }).unwrap();
        let r = run_program(&program, &[]).unwrap();
        assert_eq!(r.output, oracle.output, "seed {seed} with caller preallocation");
        assert_eq!(r.exit, oracle.exit, "seed {seed} exit");
    }
}

#[test]
fn random_three_module_programs_agree() {
    let cfg = GenConfig { modules: 3, funcs_per_module: 3, ..GenConfig::default() };
    for seed in 100..112 {
        let sources = random_program_with(seed, &cfg);
        check_seed(&sources, &format!("3mod seed {seed}"));
    }
}

#[test]
fn random_global_heavy_programs_agree() {
    let cfg = GenConfig { globals_per_module: 8, funcs_per_module: 5, ..GenConfig::default() };
    for seed in 200..210 {
        let sources = random_program_with(seed, &cfg);
        check_seed(&sources, &format!("heavy seed {seed}"));
    }
}
