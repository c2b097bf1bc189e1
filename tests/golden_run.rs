//! Byte-identity goldens for the simulator's observables.
//!
//! Engine parity (`engines.rs`) compares the two engines with each other,
//! so it cannot notice a change both engines share — such as how they
//! derive per-procedure attribution or profiles. This test pins the runs
//! themselves: for every input below, every listed configuration and both
//! targets, the FNV-64 of the serialized [`vpr::RunResult`] must equal the
//! golden, once for an `attribute + profile` run and once for an
//! `attribute`-only run. The fingerprint covers output, exit code, every
//! [`vpr::RunStats`] field, the whole [`vpr::Attribution`] and the per-pc
//! profile; a trapping run fingerprints its error message instead.
//!
//! Inputs: the seven Table 3 workloads under all eight configurations,
//! the execution-scaled 64-module program, and generated programs whose
//! shape rotates through the fuzzer's knobs (recursion, aliasing mixes,
//! function pointers in globals, pointer parameters, all at once).
//!
//! A change to how the simulator observes a run must leave this file
//! alone. Regenerate only when an *intentional* change to a run's
//! observables lands, with:
//!
//! ```sh
//! IPRA_UPDATE_GOLDENS=1 cargo test --test golden_run
//! ```

use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions, SourceFile};
use ipra_workloads::generator::{random_program_with, GenConfig};
use ipra_workloads::scaled::scaled_sim_program;
use std::fmt::Write as _;
use std::path::PathBuf;
use vpr::target::TargetId;
use vpr::SimOptions;

/// Generated programs in the golden.
const SEEDS: u64 = 200;

/// Configurations each generated program runs under: the level-2
/// baseline, web coloring, blanket promotion and points-to eligibility.
const SEED_CONFIGS: [PaperConfig; 4] =
    [PaperConfig::L2, PaperConfig::C, PaperConfig::E, PaperConfig::P];

/// Outer-loop count of the scaled program (kept small: the point is its
/// 64-module call graph, not its run length).
const SCALED_OUTER: i64 = 3;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/run_fingerprints.txt")
}

/// The generator shape of seed `i`: each rotation slot turns on one of the
/// fuzzer's shape knobs, and the last turns on all of them at once.
fn shape(i: u64) -> (&'static str, GenConfig) {
    let g = GenConfig::default;
    match i % 5 {
        0 => ("recursion", GenConfig { modules: 3, funcs_per_module: 6, recursion: true, ..g() }),
        1 => ("global_fn_ptrs", GenConfig { global_fn_ptrs: true, ..g() }),
        2 => (
            "ptr_shapes",
            GenConfig { globals_per_module: 6, alias_mix: true, ptr_shapes: true, ..g() },
        ),
        3 => (
            "alias_mix",
            GenConfig { globals_per_module: 8, funcs_per_module: 5, alias_mix: true, ..g() },
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

/// The fingerprint of one run: the serialized result, or the trap.
fn run_fingerprint(exe: &vpr::Executable, opts: &SimOptions) -> u64 {
    let mut h = Fnv64::new();
    match vpr::run_with(exe, opts) {
        Ok(r) => h.write_str(&serde_json::to_string(&r).expect("run results serialize")),
        Err(e) => h.write_str(&format!("trap: {e}")),
    }
    h.finish()
}

/// Appends one golden line per configuration and target: the label and
/// the fingerprints of the `attribute + profile` and `attribute`-only runs.
fn lines(
    out: &mut String,
    label: &str,
    sources: &[SourceFile],
    configs: &[PaperConfig],
    training_input: &[i64],
    input: &[i64],
) {
    let mut cache = CompilationCache::new();
    for &config in configs {
        for target in TargetId::ALL {
            let opts = CompileOptions { target, ..CompileOptions::paper(config) };
            let program = compile_configured(sources, config, training_input, &opts, &mut cache)
                .unwrap_or_else(|e| panic!("{label}/{config}/{target}: compile error {e}"))
                .unwrap_or_else(|e| panic!("{label}/{config}/{target}: training trap {e}"));
            let base =
                SimOptions { input: input.to_vec(), attribute: true, ..SimOptions::default() };
            let observed =
                run_fingerprint(&program.exe, &SimOptions { profile: true, ..base.clone() });
            let attributed = run_fingerprint(&program.exe, &base);
            let _ = writeln!(
                out,
                "{label}/{config}/{target} attr+prof:{observed:016x} attr:{attributed:016x}"
            );
        }
    }
}

fn current_fingerprints() -> String {
    let mut out = String::new();
    for w in ipra_workloads::all() {
        let configs = &PaperConfig::ALL_WITH_ALIAS;
        lines(&mut out, w.name, &w.sources, configs, &w.training_input, &w.input);
    }
    let scaled = scaled_sim_program(64, SCALED_OUTER);
    lines(&mut out, "scaled-64", &scaled, &PaperConfig::ALL_WITH_ALIAS, &[], &[]);
    for seed in 0..SEEDS {
        let (name, cfg) = shape(seed);
        let sources = random_program_with(seed, &cfg);
        lines(&mut out, &format!("seed-{seed}-{name}"), &sources, &SEED_CONFIGS, &[], &[]);
    }
    out
}

#[test]
fn run_observables_match_goldens() {
    let current = current_fingerprints();
    let path = golden_path();
    if std::env::var_os("IPRA_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!("golden_run: wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        golden_lines.len(),
        current_lines.len(),
        "input x config x target matrix changed; regenerate goldens deliberately"
    );
    let mut diffs = String::new();
    for (g, c) in golden_lines.iter().zip(&current_lines) {
        if g != c {
            let _ = writeln!(diffs, "  golden: {g}\n  now:    {c}");
        }
    }
    assert!(diffs.is_empty(), "run observables are no longer byte-identical:\n{diffs}");
}
