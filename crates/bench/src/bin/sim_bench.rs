//! `sim_bench` — the simulator throughput benchmark.
//!
//! Pits the two VPR execution engines ([`vpr::Engine`]) against each other
//! on the same executables, after proving they produce bit-identical
//! [`vpr::RunResult`]s:
//!
//! * **scaled-N** — the execution-scaled variant of the compile-bench
//!   workload ([`ipra_workloads::scaled::scaled_sim_program`]): a long
//!   cross-module call chain driven millions of instructions, the
//!   dispatch-loop stress test, on both machine descriptions;
//! * a couple of the paper's Table 3 workloads, run repeatedly.
//!
//! Each workload runs plain and with exact attribution. Both engines pay
//! the same per-run setup (registers, memory image, counters); the fast
//! engine's one-time pre-decode is done once up front and reused across
//! runs, which is exactly how the driver amortizes it. Runs use the
//! default [`vpr::SimOptions`], memory size included, so a row times what
//! a caller's run costs.
//!
//! Each (workload, target, mode) gets two rows named
//! `{workload}/{target}/{plain|attributed}`, one per engine (layer `fast`
//! or `reference`). A row times `runs` repetitions, best of [`TRIALS`],
//! and counts `runs`, the FNV-64 of the engine's `RunResult`
//! (`result_fnv64`) and the simulator counters of one profiled run on that
//! engine (`sim.*`; every instruction takes one cycle, so instructions/s
//! is `sim.cycles × runs / seconds`). After one warm-up run of each
//! engine, the two engines' trials alternate, so a slow spell on a shared
//! host lands on both rather than moving their ratio. The speedup is the
//! reference row's seconds over the fast row's.
//!
//! `--check` (the CI smoke mode wired into `scripts/check.sh`) fails the
//! run unless every row's engines agreed and counted identically, and the
//! fast engine is at least [`MIN_SPEEDUP`] times the reference on plain
//! scaled-64.
//!
//! The floor is deliberately modest: after the reference interpreter's own
//! hot-path cleanup (dense counters, deduped trap paths) both engines are
//! dispatch-bound, and the fast engine's win comes from pre-decoding, not
//! from a different execution model. Both engines observe attributed runs
//! the same way (per-pc counts plus a call/return hook). (Superinstruction
//! fusion of trap-free runs was prototyped and *measured slower* — a
//! second dispatch site splits branch-predictor state without removing the
//! per-op indirect branch — see `docs/simulator.md`.)
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin sim_bench
//! cargo run --release -p ipra-bench --bin sim_bench -- --check
//! ```

use ipra_bench::harness::{differing, time, BenchArgs, Cmp, Host, Report, TRIALS};
use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::args::Args;
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_workloads::scaled::scaled_sim_program;
use std::process::ExitCode;

/// Instructions each engine leg should retire, total across repeats.
const TARGET_INSTRUCTIONS: u64 = 24_000_000;

/// Module count and `main` loop count of the scaled workload: a ~6M-cycle
/// run whose per-run setup is noise.
const SCALED_MODULES: usize = 64;
const SCALED_OUTER: i64 = 1500;

/// The gated fast/reference ratio on plain scaled-64.
const MIN_SPEEDUP: f64 = 1.2;

fn result_fnv64(r: &vpr::RunResult) -> u64 {
    let json = serde_json::to_string(r).expect("RunResult serialization cannot fail");
    let mut h = Fnv64::new();
    h.write(json.as_bytes());
    h.finish()
}

fn measure(
    report: &mut Report,
    name: &str,
    sources: &[SourceFile],
    input: &[i64],
    attributed: bool,
    target: vpr::target::TargetId,
) {
    let row =
        format!("{name}/{}/{}", target.name(), if attributed { "attributed" } else { "plain" });
    let copts = CompileOptions { target, ..CompileOptions::paper(PaperConfig::C) };
    let program = compile(sources, &copts)
        .unwrap_or_else(|e| panic!("{name}: bench workload failed to compile: {e}"));
    let exe = &program.exe;
    let decoded = vpr::decode(exe);
    let opts = vpr::SimOptions {
        input: input.to_vec(),
        attribute: attributed,
        ..vpr::SimOptions::default()
    };
    let ref_opts = vpr::SimOptions { engine: vpr::Engine::Reference, ..opts.clone() };

    // Parity first: the speedup of a wrong answer is not interesting.
    let fast = decoded.run_with(&opts);
    let reference = vpr::run_with(exe, &ref_opts);
    report.gate(
        format!("{row}.parity_mismatch"),
        f64::from(u8::from(fast != reference)),
        Cmp::Equal,
        0.0,
    );
    let fast =
        fast.unwrap_or_else(|e| panic!("{name}: bench workload trapped under fast engine: {e}"));
    let reference = reference
        .unwrap_or_else(|e| panic!("{name}: bench workload trapped under reference engine: {e}"));

    // Counters: profiled runs (outside the timed legs), twice on the fast
    // engine and once on the reference, to certify the counters are
    // identical run-to-run and across engines.
    let prof_opts = vpr::SimOptions { profile: true, ..opts.clone() };
    let prof_ref = vpr::SimOptions { engine: vpr::Engine::Reference, ..prof_opts.clone() };
    let snap = |r: Result<vpr::RunResult, vpr::SimError>| {
        let r = r.expect("profiled bench run trapped");
        r.profile.as_ref().expect("profiling was requested").sim_counters(exe, &r.stats)
    };
    let fast_counters = snap(decoded.run_with(&prof_opts));
    let ref_counters = snap(vpr::run_with(exe, &prof_ref));
    let differ = differing(&fast_counters, &snap(decoded.run_with(&prof_opts)))
        + differing(&fast_counters, &ref_counters);
    report.gate(format!("{row}.counters_differing"), differ as f64, Cmp::Equal, 0.0);

    let runs = (TARGET_INSTRUCTIONS / fast.stats.cycles.max(1)).max(1);
    let fast_run = || {
        std::hint::black_box(decoded.run_with(&opts)).ok();
    };
    let reference_run = || {
        std::hint::black_box(vpr::run_with(exe, &ref_opts)).ok();
    };
    // One warm-up run per engine pages in its code path and the
    // allocator's arenas. The legs then alternate, fast and reference, so
    // a slow spell on a shared host slows trials of both engines rather
    // than all of one engine's; each keeps its best of `TRIALS`.
    fast_run();
    reference_run();
    let (mut fast_s, mut reference_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        fast_s = fast_s.min(time(|| (0..runs).for_each(|_| fast_run())).1);
        reference_s = reference_s.min(time(|| (0..runs).for_each(|_| reference_run())).1);
    }
    for (layer, seconds, result, mut counters) in [
        ("fast", fast_s, &fast, fast_counters),
        ("reference", reference_s, &reference, ref_counters),
    ] {
        counters.insert("runs".to_string(), runs);
        counters.insert("result_fnv64".to_string(), result_fnv64(result));
        report.row(&row, layer, seconds, counters);
    }
}

fn main() -> ExitCode {
    let mut args = Args::new("sim_bench", std::env::args().skip(1));
    let bench = BenchArgs::declare(&mut args, "BENCH_sim.json");
    args.finish();

    let scaled_name = format!("scaled-{SCALED_MODULES}");
    let scaled = scaled_sim_program(SCALED_MODULES, SCALED_OUTER);
    let mut jobs: Vec<(String, Vec<SourceFile>, Vec<i64>)> =
        vec![(scaled_name.clone(), scaled, vec![])];
    for wname in ["dhrystone", "othello"] {
        let w = ipra_workloads::by_name(wname).expect("table workload");
        jobs.push((w.name.to_string(), w.sources, w.input));
    }

    // Both engines run on the calling thread.
    let mut report = Report::new("sim", Host::new(1));
    for (name, sources, input) in &jobs {
        // The scaled dispatch-loop workload runs on both machine
        // descriptions (the engines are target-parameterized; the RV32
        // rows keep the second target's throughput on the trend line);
        // the small table workloads stay VPR-only.
        let targets: &[vpr::target::TargetId] = if name == &scaled_name {
            &vpr::target::TargetId::ALL
        } else {
            &[vpr::target::TargetId::Vpr]
        };
        for &target in targets {
            for attributed in [false, true] {
                measure(&mut report, name, sources, input, attributed, target);
            }
        }
    }

    let headline = format!("{scaled_name}/vpr/plain");
    let speedup =
        report.find(&headline, "reference").seconds / report.find(&headline, "fast").seconds;
    report.gate(format!("{headline}.speedup"), speedup, Cmp::AtLeast, MIN_SPEEDUP);
    report.finish(&bench)
}
