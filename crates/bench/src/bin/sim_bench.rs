//! `sim_bench` — the simulator throughput benchmark.
//!
//! Pits the two VPR execution engines ([`vpr::Engine`]) against each other
//! on the same executables and reports instructions/sec for each, the
//! speedup, and a parity hash proving they produced bit-identical
//! [`vpr::RunResult`]s:
//!
//! * **scaled-N** — the execution-scaled variant of the compile-bench
//!   workload ([`ipra_workloads::scaled::scaled_sim_program`]): a long
//!   cross-module call chain driven millions of instructions, the
//!   dispatch-loop stress test;
//! * a couple of the paper's Table 3 workloads, run repeatedly.
//!
//! Both engines pay the same per-run setup (registers, memory image,
//! counters); the fast engine's one-time pre-decode is done once up front
//! and reused across runs, which is exactly how the driver amortizes it.
//! Memory is sized down from the 16 MiB default so the measurement is the
//! dispatch loop, not `memset` — observables never depend on memory size
//! as long as the program fits.
//!
//! Results go to `BENCH_sim.json`. `--check` (the CI smoke mode wired into
//! `scripts/check.sh`) asserts parity on every row and a minimum speedup
//! on the scaled workload, exiting nonzero otherwise.
//!
//! The default `--min-speedup` floor is deliberately modest: after the
//! reference interpreter's own hot-path cleanup (dense counters, deduped
//! trap paths) both engines are dispatch-bound, and the fast engine's win
//! comes from pre-decoding, not from a different execution model. Both
//! engines observe attributed runs the same way (per-pc counts plus a
//! call/return hook). (Superinstruction fusion of trap-free runs
//! was prototyped and *measured slower* — a second dispatch site splits
//! branch-predictor state without removing the per-op indirect branch —
//! see `docs/simulator.md`.)
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin sim_bench
//! cargo run --release -p ipra-bench --bin sim_bench -- --check --min-speedup 1.5
//! ```

use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_telemetry::CountersSnapshot;
use ipra_workloads::scaled::scaled_sim_program;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Words of simulated memory per run: far above what any bench workload
/// touches, far below the default whose zeroing would drown the dispatch
/// loop being measured.
const MEM_WORDS: usize = 1 << 16;

/// Instructions each engine leg should retire, total across repeats.
const TARGET_INSTRUCTIONS: u64 = 24_000_000;

/// Module count and `main` loop count of the scaled workload: a ~6M-cycle
/// run whose per-run setup is noise.
const SCALED_MODULES: usize = 64;
const SCALED_OUTER: i64 = 1500;

/// One engine's leg of a row.
#[derive(Debug, Serialize)]
struct EngineLeg {
    seconds: f64,
    /// Instructions (= cycles) per wall-clock second.
    ips: f64,
}

/// One (workload, attribution mode) measurement.
#[derive(Debug, Serialize)]
struct SimRow {
    workload: String,
    /// Machine description the workload was compiled for.
    target: String,
    /// Whether exact per-procedure attribution was on.
    attributed: bool,
    /// Cycles of one run (identical across engines, by parity).
    cycles_per_run: u64,
    /// Repeats per engine leg.
    runs: u64,
    fast: EngineLeg,
    reference: EngineLeg,
    /// fast ips / reference ips.
    speedup: f64,
    /// FNV-64 over the serialized `RunResult`, equal for both engines.
    parity_hash: String,
    /// Full `RunResult` equality between the engines.
    parity_ok: bool,
    /// Deterministic simulator counters of one run (cycles, memory and
    /// call traffic, instructions retired per opcode class), from a
    /// separate profiled run so the timed legs stay unperturbed.
    counters: CountersSnapshot,
    /// The counters were identical across two fast-engine runs *and* a
    /// reference-engine run (run-to-run and cross-engine identity).
    counters_ok: bool,
}

/// The whole run, as serialized to `BENCH_sim.json`.
#[derive(Debug, Serialize)]
struct SimBenchReport {
    config: String,
    mem_words: usize,
    /// Plain-mode speedup on the scaled workload (the headline number).
    scaled_speedup: f64,
    /// Attributed-mode speedup on the scaled workload.
    scaled_speedup_attributed: f64,
    /// Every row's parity held.
    parity_ok: bool,
    rows: Vec<SimRow>,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn parity_hash(r: &vpr::RunResult) -> u64 {
    let json = serde_json::to_string(r).expect("RunResult serialization cannot fail");
    let mut h = Fnv64::new();
    h.write(json.as_bytes());
    h.finish()
}

/// Times `runs` repetitions of one engine leg, best of three trials (the
/// shared benchmarking host is noisy; the minimum is the least-disturbed
/// estimate), and returns (seconds, ips).
fn time_leg(runs: u64, cycles_per_run: u64, mut one: impl FnMut()) -> EngineLeg {
    // One warmup rep: page in the code path and the allocator's arenas.
    one();
    let mut seconds = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..runs {
            one();
        }
        seconds = seconds.min(t.elapsed().as_secs_f64());
    }
    EngineLeg { seconds, ips: (cycles_per_run * runs) as f64 / seconds.max(1e-9) }
}

fn measure(
    name: &str,
    sources: &[SourceFile],
    input: &[i64],
    attributed: bool,
    target: vpr::target::TargetId,
) -> SimRow {
    let copts = CompileOptions { target, ..CompileOptions::paper(PaperConfig::C) };
    let program = compile(sources, &copts)
        .unwrap_or_else(|e| panic!("{name}: bench workload failed to compile: {e}"));
    let exe = &program.exe;
    let decoded = vpr::decode(exe);
    let opts = vpr::SimOptions {
        mem_words: MEM_WORDS,
        input: input.to_vec(),
        attribute: attributed,
        ..vpr::SimOptions::default()
    };
    let ref_opts = vpr::SimOptions { engine: vpr::Engine::Reference, ..opts.clone() };

    // Parity first: the speedup of a wrong answer is not interesting.
    let fast = decoded.run_with(&opts);
    let reference = vpr::run_with(exe, &ref_opts);
    let parity_ok = fast == reference;
    let fast =
        fast.unwrap_or_else(|e| panic!("{name}: bench workload trapped under fast engine: {e}"));

    // Counters snapshot: profiled runs (outside the timed legs), twice on
    // the fast engine and once on the reference, to certify the counters
    // are identical run-to-run and across engines.
    let prof_opts = vpr::SimOptions { profile: true, ..opts.clone() };
    let prof_ref = vpr::SimOptions { engine: vpr::Engine::Reference, ..prof_opts.clone() };
    let snap = |r: Result<vpr::RunResult, vpr::SimError>| {
        let r = r.expect("profiled bench run trapped");
        r.profile.as_ref().expect("profiling was requested").sim_counters(exe, &r.stats)
    };
    let fast_counters = snap(decoded.run_with(&prof_opts));
    let counters_ok = fast_counters == snap(decoded.run_with(&prof_opts))
        && fast_counters == snap(vpr::run_with(exe, &prof_ref));

    let cycles_per_run = fast.stats.cycles;
    let runs = (TARGET_INSTRUCTIONS / cycles_per_run.max(1)).max(1);
    let fast_leg = time_leg(runs, cycles_per_run, || {
        std::hint::black_box(decoded.run_with(&opts)).ok();
    });
    let reference_leg = time_leg(runs, cycles_per_run, || {
        std::hint::black_box(vpr::run_with(exe, &ref_opts)).ok();
    });

    SimRow {
        workload: name.to_string(),
        target: target.name().to_string(),
        attributed,
        cycles_per_run,
        runs,
        speedup: fast_leg.ips / reference_leg.ips.max(1e-9),
        fast: fast_leg,
        reference: reference_leg,
        parity_hash: format!("{:016x}", parity_hash(&fast)),
        parity_ok,
        counters: CountersSnapshot(fast_counters),
        counters_ok,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let check = args.iter().any(|a| a == "--check");
    let min_speedup: f64 = flag_value(&args, "--min-speedup")
        .map(|v| v.parse().expect("bad --min-speedup"))
        .unwrap_or(1.2);
    let config = PaperConfig::C;

    let scaled_name = format!("scaled-{SCALED_MODULES}");
    let scaled = scaled_sim_program(SCALED_MODULES, SCALED_OUTER);
    let mut jobs: Vec<(String, Vec<SourceFile>, Vec<i64>)> =
        vec![(scaled_name.clone(), scaled, vec![])];
    for wname in ["dhrystone", "othello"] {
        let w = ipra_workloads::by_name(wname).expect("table workload");
        jobs.push((w.name.to_string(), w.sources, w.input));
    }

    eprintln!("sim_bench: config {config}, {} KiB memory, both engines", MEM_WORDS * 8 / 1024);
    let mut rows = Vec::new();
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
                let row = measure(name, sources, input, attributed, target);
                eprintln!(
                    "  {:>12}{} [{:>4}]: {:>9} cycles x {:<5} fast {:>6.1}M ips, \
                     reference {:>6.1}M ips ({:.1}x){}",
                    row.workload,
                    if attributed { " +attr" } else { "      " },
                    row.target,
                    row.cycles_per_run,
                    row.runs,
                    row.fast.ips / 1e6,
                    row.reference.ips / 1e6,
                    row.speedup,
                    if row.parity_ok { "" } else { "  PARITY BROKEN" },
                );
                rows.push(row);
            }
        }
    }

    let scaled_row = |attr: bool| {
        rows.iter()
            .find(|r| r.workload == scaled_name && r.attributed == attr && r.target == "vpr")
            .expect("scaled row present")
    };
    let report = SimBenchReport {
        config: config.to_string(),
        mem_words: MEM_WORDS,
        scaled_speedup: scaled_row(false).speedup,
        scaled_speedup_attributed: scaled_row(true).speedup,
        parity_ok: rows.iter().all(|r| r.parity_ok),
        rows,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serialization cannot fail");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("sim_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("sim_bench: -> {out_path}");

    let mut failures: Vec<String> = Vec::new();
    if check {
        if !report.parity_ok {
            failures.push("engines disagreed on at least one workload".to_string());
        }
        for row in &report.rows {
            if !row.counters_ok {
                failures.push(format!(
                    "{}{}: simulator counters not identical across runs/engines",
                    row.workload,
                    if row.attributed { " +attr" } else { "" },
                ));
            }
        }
        if report.scaled_speedup < min_speedup {
            failures.push(format!(
                "scaled plain-mode speedup {:.1}x below the {min_speedup:.1}x floor",
                report.scaled_speedup
            ));
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("sim_bench: CHECK FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
