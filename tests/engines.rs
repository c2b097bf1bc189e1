//! Cross-engine parity suite: the fast execution engine ([`vpr::exec`])
//! must be *bit-identical* to the reference interpreter in every
//! observable, across every workload, every paper configuration, both
//! attribution modes, every step limit, and every trap — the full
//! `Result<RunResult, SimError>` is compared, so output, exit code, every
//! `RunStats` field, per-procedure attribution, and trap kind/pc/
//! symbolization all participate.
//!
//! This is the differential backbone of the fast engine: the reference
//! stays as the oracle, and any divergence here is a bug in the fast
//! engine by definition (see `docs/simulator.md`).

use ipra_core::PaperConfig;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions, SourceFile};
use vpr::{Engine, RunResult, SimError, SimOptions};

/// Runs `exe` under both engines with identical options and demands
/// bit-identical outcomes, traps included.
fn both(exe: &vpr::Executable, opts: &SimOptions, label: &str) -> Result<RunResult, SimError> {
    let fast = vpr::run_with(exe, &SimOptions { engine: Engine::Fast, ..opts.clone() });
    let reference = vpr::run_with(exe, &SimOptions { engine: Engine::Reference, ..opts.clone() });
    assert_eq!(fast, reference, "{label}: engines diverged");
    fast
}

#[test]
fn engines_agree_across_workloads_configs_and_attribution() {
    for w in ipra_workloads::all() {
        let mut cache = CompilationCache::new();
        for config in PaperConfig::ALL_WITH_ALIAS {
            let label = format!("{}/{config}", w.name);
            let program = compile_configured(
                &w.sources,
                config,
                &w.training_input,
                &CompileOptions::default(),
                &mut cache,
            )
            .unwrap_or_else(|e| panic!("{label}: compile error {e}"))
            .unwrap_or_else(|e| panic!("{label}: training trap {e}"));
            for attribute in [false, true] {
                let opts =
                    SimOptions { input: w.input.clone(), attribute, ..SimOptions::default() };
                let r = both(&program.exe, &opts, &label)
                    .unwrap_or_else(|e| panic!("{label}: simulator trap {e}"));
                assert_eq!(r.attribution.is_some(), attribute, "{label}: attribution presence");
                if let Some(attr) = &r.attribution {
                    assert!(attr.matches(&r.stats), "{label}: attribution sums diverge");
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_every_step_limit_of_a_real_workload() {
    // The StepLimit/Ok frontier must sit at exactly the same step in both
    // engines, for both attribution modes: sweep limits across the whole
    // run plus the exact boundary.
    let w = ipra_workloads::by_name("dhrystone").expect("dhrystone workload");
    let mut cache = CompilationCache::new();
    let program = compile_configured(
        &w.sources,
        PaperConfig::C,
        &w.training_input,
        &CompileOptions::default(),
        &mut cache,
    )
    .expect("compile")
    .expect("training run");
    let base = SimOptions { input: w.input.clone(), ..SimOptions::default() };
    let total = vpr::run_with(&program.exe, &base).expect("full run").stats.cycles;
    for attribute in [false, true] {
        for limit in (0..total).step_by(997).chain([total - 1, total, total + 1]) {
            let label = format!("dhrystone limit {limit} (attr {attribute})");
            let opts = SimOptions { max_steps: limit, attribute, ..base.clone() };
            let r = both(&program.exe, &opts, &label);
            assert_eq!(r.is_ok(), limit >= total, "{label}: frontier misplaced");
            if r.is_err() {
                assert_eq!(r, Err(SimError::StepLimit { limit }), "{label}: wrong trap");
            }
        }
    }
}

/// Compiles a single-module program under config C (no training needed for
/// the static configurations).
fn compile_one(src: &str) -> ipra_driver::CompiledProgram {
    let sources = vec![SourceFile::new("t", src)];
    let mut cache = CompilationCache::new();
    compile_configured(&sources, PaperConfig::C, &[], &CompileOptions::default(), &mut cache)
        .expect("compile")
        .expect("training run")
}

#[test]
fn engines_agree_on_trap_kind_pc_and_symbolization() {
    // Division by zero, driven by input so the trap survives any
    // constant folding; the symbolized location must match too.
    let program = compile_one("int main() { int x = in(); return 10 / x; }");
    for attribute in [false, true] {
        let opts = SimOptions { input: vec![0], attribute, ..SimOptions::default() };
        let err = both(&program.exe, &opts, "div-by-zero").unwrap_err();
        let SimError::DivByZero { sym, .. } = &err else {
            panic!("expected DivByZero, got {err}");
        };
        let sym = sym.as_deref().expect("trap inside a linked function must symbolize");
        assert!(sym.starts_with("main+"), "trap symbolized to `{sym}`");
    }

    // Runaway recursion: the engines must agree on which trap ends it
    // (memory fault from the descending stack or the step limit) and on
    // its full payload.
    let program = compile_one("int f(int n) { return f(n + 1); } int main() { return f(0); }");
    let opts = SimOptions { max_steps: 200_000, ..SimOptions::default() };
    let err = both(&program.exe, &opts, "runaway recursion").unwrap_err();
    assert!(
        matches!(err, SimError::MemFault { .. } | SimError::StepLimit { .. }),
        "unexpected trap {err}"
    );
}

#[test]
fn engine_selection_is_observation_equivalent_through_the_driver() {
    // The driver-level entry points must route to the requested engine and
    // agree with each other.
    let w = ipra_workloads::by_name("war").expect("war workload");
    let mut cache = CompilationCache::new();
    let program = compile_configured(
        &w.sources,
        PaperConfig::E,
        &w.training_input,
        &CompileOptions::default(),
        &mut cache,
    )
    .expect("compile")
    .expect("training run");
    let fast = ipra_driver::run_program(&program, &w.input).expect("fast run");
    let reference = vpr::run_with(
        &program.exe,
        &SimOptions { input: w.input.clone(), engine: Engine::Reference, ..SimOptions::default() },
    )
    .expect("reference run");
    assert_eq!(fast, reference);
    // And the driver's runner is the fast engine, the default.
    assert_eq!(Engine::default(), Engine::Fast);
}
