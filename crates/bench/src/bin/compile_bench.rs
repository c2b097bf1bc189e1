//! `compile_bench` — the offline compile-time benchmark.
//!
//! Times the two-pass driver over generated workloads in the regimes the
//! paper's recompilation discussion (§3) distinguishes, plus the parallel
//! fan-out. For each module count (`--modules`, default 8, 64 and 256):
//!
//! * **cold** — empty cache, serial: every phase runs everywhere;
//! * **cold_parallel** — empty cache, one worker per core (left out on a
//!   one-core host, where it would repeat the serial leg);
//! * **warm** — full cache, nothing changed: both per-module phases and
//!   the analyzer are pure cache hits (only the linker runs);
//! * **edit** — one module's leaf constant re-tuned: phase 1 re-runs for
//!   that module, the analyzer not at all (no summary moved), and phase 2
//!   only where the database slice changed;
//! * **disk_cold / disk_warm** — the persistent `--cache-dir` tier: a cold
//!   build paying the write-through cost into an empty directory, then a
//!   *fresh* cache instance over the same directory (the separate `cminc`
//!   invocation scenario) rebuilding entirely from disk.
//!
//! Every leg is timed best of [`TRIALS`] with its precondition
//! re-established before each trial (empty cache, wiped directory, fresh
//! re-tune), and every leg's executable is asserted bit-identical to a
//! fresh build. A build is written as five rows named `{regime}/{modules}`:
//! layer `build` is the trial's wall clock, and `phase1`, `analyze`,
//! `phase2` and `link` are the same build's own span timers, so a bench
//! and `--stats` cannot disagree. The phase and analyzer rows count cache
//! hits, disk hits and misses, and `phase2` the modules recompiled. A
//! build that ran phase 1 anywhere adds five more layers,
//! `phase1.parse`, `phase1.check`, `phase1.lower`, `phase1.optimize` and
//! `phase1.summarize`: each step's seconds summed over the modules it
//! compiled.
//!
//! Four more regimes follow the same row shape:
//!
//! * **scaling** — serial cold builds at [`SCALING_SIZES`] (512 to 4096
//!   modules), one row set per size per round (`scaling/{modules}/round{k}`);
//! * **long** — serial cold builds of one procedure of [`LONG_SIZES`]
//!   statements (1,000 to 8,000), round-robin like scaling
//!   (`long/{statements}/round{k}`): the series that sees how the two
//!   compiler phases grow with the length of one procedure;
//! * **target** — the 8-module workload built once per machine
//!   description, verified under that target's register convention and run
//!   (`target/{name}/8`, counting instructions and cycles);
//! * **alias** — a pointer-heavy generated program compiled under the
//!   blanket address-taken configuration C and the points-to configuration
//!   P (`alias/C`, `alias/P`, counting promoted globals, cycles and
//!   singleton memory references).
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin compile_bench   # 8/64/256, scaling to 4096, long to 8000
//! cargo run --release -p ipra-bench --bin compile_bench -- --modules 8 --check
//! ```
//!
//! `--check` fails the run unless, per size, the warm build was all hits,
//! the edit recompiled fewer modules than there are, warm and edit beat
//! cold, disk-warm beat disk-cold and was all disk hits, the analyzer ran
//! in the cold build and was a hit in the warm, edit and disk-warm ones,
//! and the counters were identical across jobs widths; no doubling of the scaling series
//! took more than [`MAX_DOUBLING_RATIO`] times as long, nor did phase 1 or
//! phase 2 over a doubling of the long series; both targets
//! verified clean with equal exit codes; and P promoted at least C's
//! globals with at most C's singleton references. This is the CI smoke
//! mode wired into `scripts/check.sh`.

use ipra_bench::harness::{
    best_of, count, counters, differing, median, time, BenchArgs, Cmp, Counters, Host, Report,
    TRIALS,
};
use ipra_core::PaperConfig;
use ipra_driver::args::Args;
use ipra_driver::{
    compile_incremental, run_program, BuildReport, CompilationCache, CompileOptions,
    CompiledProgram, PhaseStats, SourceFile,
};
use ipra_telemetry::Telemetry;
use ipra_workloads::generator::{random_program_with, GenConfig};
use ipra_workloads::scaled::{long_program, perturb, scaled_program};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Module counts of the scaling series: each doubles the previous one.
const SCALING_SIZES: [usize; 4] = [512, 1024, 2048, 4096];

/// Statement counts of the long series: each doubles the previous one.
const LONG_SIZES: [usize; 4] = [1000, 2000, 4000, 8000];

/// The scaling gate: the most a doubling of the module count may multiply
/// the cold build time by, and a doubling of the long series' statements
/// phase 1's or phase 2's time. Linear work doubles; the analyzer's
/// node × global reference bitsets and cache effects add some on top; a
/// quadratic scan would not fit.
const MAX_DOUBLING_RATIO: f64 = 2.5;

/// Worker width of the parallel legs: 0 is one worker per core.
const JOBS: usize = 0;

/// Module count of the target regime's workload.
const TARGET_MODULES: usize = 8;

/// Generator seed of the alias regime: fixed, so the regime is a trend
/// line, not a lottery.
const ALIAS_SEED: u64 = 57;

/// One build through `cache`, handed back with the cache so that dropping
/// it stays outside a timed trial.
fn build(
    sources: &[SourceFile],
    opts: &CompileOptions,
    mut cache: CompilationCache,
) -> (CompilationCache, CompiledProgram) {
    let program = compile_incremental(sources, opts, &mut cache).expect("bench workload compiles");
    (cache, program)
}

/// Adds one build's rows: `build` over the trial's `seconds` (counting
/// `work`), then its four layers as the build's own spans timed them.
fn build_rows(report: &mut Report, name: &str, seconds: f64, p: &CompiledProgram, work: Counters) {
    let b = &p.build;
    let phase = |s: &PhaseStats| {
        counters([
            ("hits", s.hits as u64),
            ("disk_hits", s.disk_hits as u64),
            ("misses", s.misses as u64),
        ])
    };
    let mut phase2 = phase(&b.phase2);
    phase2.insert("recompiled".to_string(), b.recompiled.len() as u64);
    report.row(name, "build", seconds, work);
    report.row(name, "phase1", b.phase1.seconds, phase(&b.phase1));
    if b.phase1.misses > 0 {
        for (step, seconds) in b.phase1_steps.named() {
            report.row(name, &format!("phase1.{step}"), seconds, Counters::new());
        }
    }
    report.row(name, "analyze", b.analyze.seconds, phase(&b.analyze));
    report.row(name, "phase2", b.phase2.seconds, phase2);
    report.row(name, "link", b.link_seconds, Counters::new());
}

fn measure_size(report: &mut Report, n: usize, jobs: usize, config: PaperConfig) {
    let opts = CompileOptions::paper(config);
    let par_opts = CompileOptions { jobs, ..CompileOptions::paper(config) };
    let sources = scaled_program(n);
    let nf = n as f64;

    // Cold, serial: every trial starts from an empty cache; the kept
    // trial's (now fully populated) cache feeds the warm and edit legs.
    let ((mut cache, cold), cold_s) = best_of(CompilationCache::new, |c| build(&sources, &opts, c));

    // Pipeline counters of two untimed cold builds with a collector
    // attached, serial then parallel: the counted work must not depend on
    // the worker-pool width.
    let counted = |opts: &CompileOptions| {
        let tele = Telemetry::new();
        let opts = CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() };
        build(&sources, &opts, CompilationCache::new());
        tele.counters()
    };
    let serial = counted(&opts);
    let across_jobs = differing(&serial, &counted(&par_opts));
    build_rows(report, &format!("cold/{n}"), cold_s, &cold, serial);

    if jobs > 1 {
        let ((_, par), par_s) = best_of(CompilationCache::new, |c| build(&sources, &par_opts, c));
        assert_eq!(par.exe, cold.exe, "parallel build must be bit-identical to serial");
        build_rows(report, &format!("cold_parallel/{n}"), par_s, &par, Counters::new());
    }

    // Warm: unchanged rebuilds through the populated cache (each trial
    // leaves the cache exactly as warm as it found it).
    let (warm, warm_s) =
        best_of(|| (), |()| compile_incremental(&sources, &opts, &mut cache).expect("warm build"));
    assert_eq!(warm.exe, cold.exe, "warm build must be bit-identical to cold");
    build_rows(report, &format!("warm/{n}"), warm_s, &warm, Counters::new());

    // Disk cold: write-through into a directory wiped before every trial.
    let dir = std::env::temp_dir().join(format!("ipra-compile-bench-{}-{n}", std::process::id()));
    let disk = || CompilationCache::with_disk(&dir).expect("cache dir");
    let ((disk_cache, disk_cold), disk_cold_s) = best_of(
        || {
            let _ = std::fs::remove_dir_all(&dir);
            disk()
        },
        |c| build(&sources, &opts, c),
    );
    assert_eq!(disk_cold.exe, cold.exe, "write-through build must be bit-identical to cold");
    build_rows(report, &format!("disk_cold/{n}"), disk_cold_s, &disk_cold, Counters::new());

    // Disk warm: a fresh cache instance (empty memory tier) over the now
    // populated directory — the second `cminc` invocation.
    drop(disk_cache);
    let ((_, disk_warm), disk_warm_s) = best_of(disk, |c| build(&sources, &opts, c));
    assert_eq!(disk_warm.exe, cold.exe, "disk-served build must be bit-identical to cold");
    let _ = std::fs::remove_dir_all(&dir);
    build_rows(report, &format!("disk_warm/{n}"), disk_warm_s, &disk_warm, Counters::new());

    // One edit: each trial re-tunes the middle module to a new value, so
    // exactly one module is stale every time.
    let mut tune = 0;
    let ((edited_sources, edited), edit_s) = best_of(
        || {
            tune += 1;
            let mut edited = sources.clone();
            perturb(&mut edited, n / 2, tune);
            edited
        },
        |edited| {
            let p = compile_incremental(&edited, &opts, &mut cache).expect("edit build");
            (edited, p)
        },
    );
    let (_, fresh) = build(&edited_sources, &opts, CompilationCache::new());
    assert_eq!(edited.exe, fresh.exe, "incremental edit build must match a fresh build");
    build_rows(report, &format!("edit/{n}"), edit_s, &edited, Counters::new());

    report.gate(format!("warm/{n}.phase1_hits"), warm.build.phase1.hits as f64, Cmp::Equal, nf);
    report.gate(format!("warm/{n}.phase2_hits"), warm.build.phase2.hits as f64, Cmp::Equal, nf);
    report.gate(format!("warm/{n}.seconds"), warm_s, Cmp::Below, cold_s);
    report.gate(
        format!("edit/{n}.recompiled"),
        edited.build.recompiled.len() as f64,
        Cmp::Below,
        nf,
    );
    report.gate(format!("edit/{n}.seconds"), edit_s, Cmp::Below, cold_s);
    // The disk tier must win on wall clock too: with binary cache frames,
    // a disk-served rebuild beats the cold build that had to compile *and*
    // write every frame. (Against the plain cold build the margin is real
    // but only a few percent at the large sizes — decoding a frame of a
    // tiny module costs about what compiling it does — so the gate uses
    // the wide-margin comparison and the rows record both.)
    report.gate(format!("disk_warm/{n}.seconds"), disk_warm_s, Cmp::Below, disk_cold_s);
    report.gate(
        format!("disk_warm/{n}.phase1_disk_hits"),
        disk_warm.build.phase1.disk_hits as f64,
        Cmp::Equal,
        nf,
    );
    report.gate(
        format!("disk_warm/{n}.phase2_disk_hits"),
        disk_warm.build.phase2.disk_hits as f64,
        Cmp::Equal,
        nf,
    );
    report.gate(
        format!("cold/{n}.counters_differing_across_jobs"),
        across_jobs as f64,
        Cmp::Equal,
        0.0,
    );
    // The analyzer runs once where its inputs are new and never where they
    // repeat: the edit moves no summary.
    let analyze_gates = [
        ("cold", "analyze_misses", cold.build.analyze.misses),
        ("warm", "analyze_hits", warm.build.analyze.hits),
        ("edit", "analyze_hits", edited.build.analyze.hits),
        ("disk_warm", "analyze_disk_hits", disk_warm.build.analyze.disk_hits),
    ];
    for (regime, counter, value) in analyze_gates {
        report.gate(format!("{regime}/{n}.{counter}"), value as f64, Cmp::Equal, 1.0);
    }
}

/// A time of one build, from its wall clock and its report.
type TimeOf = fn(f64, &BuildReport) -> f64;

/// A doubling series: serial cold builds of each of `programs`, whose
/// sizes (modules or statements) are `sizes`, and the growth of each over
/// the previous one.
///
/// A shared host's speed drifts by a third within seconds, more than the
/// gap between linear and quadratic growth over one doubling. So each
/// round builds every size in turn (rows `{series}/{size}/round{k}`), and
/// a doubling's ratio is the median, over the rounds, of one size's time
/// over the previous size's in the same round: the two builds ran back to
/// back, on about the same host. An untimed build of the largest size
/// first grows the heap to the series' need, so no size pays for page
/// faults that a larger size, run just before, spared another. Each of
/// `gates` names a time of a build (its seconds and report) and gates its
/// ratios as `{series}/{size}.{name}`.
fn measure_doubling<const N: usize>(
    report: &mut Report,
    series: &str,
    sizes: [usize; N],
    programs: [Vec<SourceFile>; N],
    config: PaperConfig,
    gates: &[(&str, TimeOf)],
) {
    let opts = CompileOptions::paper(config);
    let cold = |sources: &[SourceFile]| {
        let cache = CompilationCache::new();
        let ((_, p), seconds) = time(|| build(sources, &opts, cache));
        (p, seconds)
    };
    if let Some(largest) = programs.last() {
        cold(largest);
    }
    let mut rounds: Vec<[(f64, BuildReport); N]> = Vec::new();
    for round in 1..=TRIALS {
        let builds = std::array::from_fn(|i| {
            let (p, s) = cold(&programs[i]);
            let name = format!("{series}/{}/round{round}", sizes[i]);
            build_rows(report, &name, s, &p, Counters::new());
            (s, p.build)
        });
        rounds.push(builds);
    }
    for (i, size) in sizes.iter().enumerate().skip(1) {
        for (name, time_of) in gates {
            let ratios = rounds
                .iter()
                .map(|r| time_of(r[i].0, &r[i].1) / time_of(r[i - 1].0, &r[i - 1].1))
                .collect();
            let gate = format!("{series}/{size}.{name}");
            report.gate(gate, median(ratios), Cmp::AtMost, MAX_DOUBLING_RATIO);
        }
    }
}

/// The target regime: one cold build of the scaled workload per machine
/// description, each verified under its own convention and run once. The
/// exit codes must agree — register conventions differ, observable
/// semantics must not.
fn measure_targets(report: &mut Report, config: PaperConfig) {
    let sources = scaled_program(TARGET_MODULES);
    let mut first_exit = None;
    for &target in &vpr::target::TargetId::ALL {
        let opts = CompileOptions { target, ..CompileOptions::paper(config) };
        let ((_, program), seconds) = best_of(CompilationCache::new, |c| build(&sources, &opts, c));
        let diagnostics = ipra_driver::verify_program(&program).diagnostics.len();
        let r = run_program(&program, &[]).expect("target regime run");
        let name = format!("target/{}/{TARGET_MODULES}", target.name());
        let work =
            counters([("instructions", program.exe.code_len() as u64), ("cycles", r.stats.cycles)]);
        build_rows(report, &name, seconds, &program, work);
        report.gate(format!("{name}.verify_diagnostics"), diagnostics as f64, Cmp::Equal, 0.0);
        let first = *first_exit.get_or_insert(r.exit);
        report.gate(format!("{name}.exit"), r.exit as f64, Cmp::Equal, first as f64);
    }
}

/// Distinct globals promoted anywhere in the program database.
fn promoted_globals(p: &CompiledProgram) -> usize {
    let syms: BTreeSet<&str> =
        p.database.iter().flat_map(|d| d.promotions.iter().map(|q| q.sym.as_str())).collect();
    syms.len()
}

/// The alias-precision regime: the pointer-heavy generator program under C
/// and P, comparing promotion counts and run-time cost.
fn measure_alias(report: &mut Report) {
    let sources = random_program_with(
        ALIAS_SEED,
        &GenConfig {
            globals_per_module: 6,
            alias_mix: true,
            ptr_shapes: true,
            ..GenConfig::default()
        },
    );
    let measure = |config: PaperConfig| {
        let opts = CompileOptions::paper(config);
        let ((_, p), seconds) = best_of(CompilationCache::new, |c| build(&sources, &opts, c));
        let r = run_program(&p, &[]).expect("alias regime run");
        (p, seconds, r)
    };
    let (c, c_s, rc) = measure(PaperConfig::C);
    let (p, p_s, rp) = measure(PaperConfig::P);
    assert_eq!(rc.output, rp.output, "C and P diverged on the alias regime program");
    assert_eq!(rc.exit, rp.exit, "C and P exit codes diverged on the alias regime program");
    for (config, program, seconds, r) in [("C", &c, c_s, &rc), ("P", &p, p_s, &rp)] {
        let work = counters([
            ("promoted_globals", promoted_globals(program) as u64),
            ("cycles", r.stats.cycles),
            ("singleton_refs", r.stats.singleton_refs()),
        ]);
        build_rows(report, &format!("alias/{config}"), seconds, program, work);
    }
    report.gate(
        "alias/P.promoted_globals",
        promoted_globals(&p) as f64,
        Cmp::AtLeast,
        promoted_globals(&c) as f64,
    );
    report.gate(
        "alias/P.singleton_refs",
        rp.stats.singleton_refs() as f64,
        Cmp::AtMost,
        rc.stats.singleton_refs() as f64,
    );
}

fn main() -> ExitCode {
    let mut args = Args::new("compile_bench", std::env::args().skip(1));
    let sizes = args
        .value("--modules", "N,N,...", |v| v.split(',').map(count).collect())
        .unwrap_or_else(|| vec![8, 64, 256]);
    let bench = BenchArgs::declare(&mut args, "BENCH_compile.json");
    args.finish();

    let config = PaperConfig::C;
    let jobs = CompileOptions { jobs: JOBS, ..CompileOptions::default() }.effective_jobs();
    let mut report = Report::new("compile", Host::new(jobs));
    measure_alias(&mut report);
    measure_targets(&mut report, config);
    for &n in &sizes {
        measure_size(&mut report, n, jobs, config);
    }
    let scaling = SCALING_SIZES.map(scaled_program);
    let gates: [(&str, TimeOf); 1] = [("doubling_ratio", |seconds, _| seconds)];
    measure_doubling(&mut report, "scaling", SCALING_SIZES, scaling, config, &gates);
    let long = LONG_SIZES.map(long_program);
    let gates: [(&str, TimeOf); 2] = [
        ("phase1_doubling_ratio", |_, b| b.phase1.seconds),
        ("phase2_doubling_ratio", |_, b| b.phase2.seconds),
    ];
    measure_doubling(&mut report, "long", LONG_SIZES, long, config, &gates);
    report.finish(&bench)
}
