//! The four workloads. Each draws its inputs from the seed, sets up five
//! times, runs closed-loop ops until its window closes, checks every op's
//! output (untimed), and reports the end-to-end metrics — or, traced,
//! replays each op layer by layer and reports the per-layer metrics.

use crate::harness::{guarded, peak_rss_mib, timed, Budget, Outcome, RunConfig, Spec, Tracer};
use crate::host::Interval;
use crate::replay::{self, Counts, ModuleCache, Phase2};
use crate::stats::{geomean_ratio, Rng, Summary};
use ipra_core::analyzer::{solve_alias, AnalyzerOptions, PaperConfig};
use ipra_daemon::protocol::{executable_artifact, BuildRequest, WireSource};
use ipra_daemon::{Client, Counter, Server, ServerOptions};
use ipra_driver::{
    compile, compile_configured, compile_incremental, interpret_sources, run_program,
    run_program_attributed, CompilationCache, CompileOptions, CompiledProgram, SourceFile,
};
use ipra_workloads::scaled::{perturb, scaled_module, scaled_program};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Program sizes, in modules, that `cold-build` and `edit-loop` ops rotate
/// through: the analyzer's cost is superlinear in the module count, so
/// the tail is the large programs rather than the host's noise.
const SIZES: [usize; 3] = [128, 256, 384];
/// Modules per branch in `daemon-mix`.
const DAEMON_MODULES: usize = 64;
/// Branches of the `daemon-mix` project.
const BRANCHES: usize = 4;
/// The seed of the `daemon-mix` project's branches, the same for every
/// run: `--seed` draws the request mix, the edits and the never-seen
/// programs. Branches that land on one cache shard evict each other's
/// per-module entries, so seed-drawn branches made hit latency depend on
/// how many of them happened to share a shard.
const PROJECT: u64 = 0x0b5e_55ed;
/// Cache shards of the `daemon-mix` daemon.
const SHARDS: usize = 4;
/// Concurrent `daemon-mix` clients (one per core of the reference host).
pub const CLIENTS: usize = 2;
/// Worker threads per build in untraced `cold-build`, `edit-loop` and
/// `daemon-mix` runs (traced runs and `paper-sweep` use 1).
pub const JOBS: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (a build or the daemon refusing to start). Failed ops
/// are not errors: they are counted in [`Outcome::tally`].
pub fn run(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(err)?;
    let result = match cfg.workload.as_str() {
        "cold-build" => cold(cfg, spec),
        "edit-loop" => edit(cfg, spec),
        "paper-sweep" => sweep(cfg, spec),
        "daemon-mix" => daemon(cfg, spec),
        other => Err(format!("unknown workload `{other}` (expected one of {:?})", spec.workloads)),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

fn options(config: PaperConfig, jobs: usize) -> CompileOptions {
    CompileOptions { jobs, ..CompileOptions::paper(config) }
}

fn jobs(cfg: &RunConfig) -> usize {
    if cfg.trace {
        1
    } else {
        JOBS
    }
}

/// A scaled program whose module `i` carries tune `tunes[i]`.
fn scaled(tunes: &[i64]) -> Vec<SourceFile> {
    let n = tunes.len();
    tunes.iter().enumerate().map(|(i, &t)| scaled_module(i, n, t)).collect()
}

/// `n` tune values of stream `stream`: a program no other stream builds.
fn tunes(seed: u64, stream: u64, n: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.below(1_000_000) as i64).collect()
}

fn vx(exe: &vpr::program::Executable) -> String {
    executable_artifact(exe).0
}

/// The program's output and exit must equal the reference interpreter's.
fn check_against_interpreter(
    sources: &[SourceFile],
    input: &[i64],
    output: &[i64],
    exit: i64,
) -> Result<(), String> {
    let oracle = interpret_sources(sources, input)
        .map_err(err)?
        .map_err(|e| format!("interpreter trap: {e:?}"))?;
    if oracle.output == output && oracle.exit == exit {
        Ok(())
    } else {
        Err(format!("output differs from the interpreter (exit {exit} vs {})", oracle.exit))
    }
}

fn check_program(sources: &[SourceFile], p: &CompiledProgram) -> Result<(), String> {
    let r = run_program(p, &[]).map_err(err)?;
    check_against_interpreter(sources, &[], &r.output, r.exit)
}

/// The paper's quality figures for `programs` (each run on `input`):
/// geometric-mean C/L2 ratios of cycles and singleton references, and the
/// summed size of the C executables.
fn quality(programs: &[(&[SourceFile], &[i64])], out: &mut Outcome) -> Result<(), String> {
    let (mut c_cyc, mut l2_cyc, mut c_single, mut l2_single, mut words) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0usize);
    for &(sources, input) in programs {
        let l2 = compile(sources, &CompileOptions::paper(PaperConfig::L2)).map_err(err)?;
        let c = compile(sources, &CompileOptions::paper(PaperConfig::C)).map_err(err)?;
        let rl2 = run_program(&l2, input).map_err(err)?;
        let rc = run_program(&c, input).map_err(err)?;
        if rl2.output != rc.output {
            return Err("L2 and C builds disagree on output".to_string());
        }
        l2_cyc.push(rl2.stats.cycles as f64);
        c_cyc.push(rc.stats.cycles as f64);
        l2_single.push(rl2.stats.singleton_refs() as f64);
        c_single.push(rc.stats.singleton_refs() as f64);
        words += c.exe.code_len();
    }
    let ratio = |c: &[f64], l2: &[f64]| {
        geomean_ratio(c, l2).ok_or_else(|| "quality ratio over no programs".to_string())
    };
    out.single("cycles_ratio_C", ratio(&c_cyc, &l2_cyc)?);
    out.single("singleton_ratio_C", ratio(&c_single, &l2_single)?);
    out.single("code_words_C", words as f64);
    Ok(())
}

/// The end-to-end figures every workload reports the same way, from the
/// set-ups' and ops' intervals scaled to the reference host's speed. The
/// raw figures and the reference work's median time go to the extras.
/// `rss` is the peak resident set, read before any post-window
/// verification could raise it.
fn finish_e2e(out: &mut Outcome, budget: &Budget, setups: &[Interval], ops: &[Interval], rss: f64) {
    out.median("setup_s", &budget.host.scaled(setups));
    out.latencies(&budget.host.scaled(ops));
    out.single("peak_rss_mib", rss);
    let raw = |ivs: &[Interval]| ivs.iter().map(|iv| iv.secs).collect::<Vec<_>>();
    let mut unscaled = Outcome::default();
    unscaled.median("setup_s", &raw(setups));
    unscaled.latencies(&raw(ops));
    for (name, s) in unscaled.metrics.into_iter().chain(unscaled.extra) {
        out.extra.insert(format!("raw.{name}"), s);
    }
    if let Some(r) = budget.host.reference_median() {
        out.extra.insert("host.reference_s".to_string(), Summary::single(r));
    }
}

/// Layer probes every traced run takes once, independent of its ops:
/// `sim.setup_s` (runs of a trivial executable with default options) and
/// `core.doubling_ratio` (analyzer time at 512 modules over 256).
fn probes(t: &mut Tracer) -> Result<(), String> {
    let trivial = [SourceFile::new("main", "int main() { return 0; }")];
    let p = compile(&trivial, &CompileOptions::default()).map_err(err)?;
    for _ in 0..50 {
        let start = Instant::now();
        run_program(&p, &[]).map_err(err)?;
        t.sample("sim.setup_s", start.elapsed().as_secs_f64());
    }
    let opts = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let small =
        compile(&scaled_program(256), &CompileOptions::paper(PaperConfig::C)).map_err(err)?;
    let large =
        compile(&scaled_program(512), &CompileOptions::paper(PaperConfig::C)).map_err(err)?;
    let time_analyze = |summary| {
        let start = Instant::now();
        std::hint::black_box(ipra_core::analyze(summary, &opts));
        start.elapsed().as_secs_f64()
    };
    let (mut at_small, mut at_large) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        at_small.push(time_analyze(&small.summary));
        at_large.push(time_analyze(&large.summary));
    }
    let ratio = crate::stats::median(&at_large).unwrap_or(0.0)
        / crate::stats::median(&at_small).unwrap_or(1.0);
    t.sample("core.doubling_ratio", ratio);
    Ok(())
}

/// `ipra_driver`'s accounting of one build, as per-layer ratios.
fn driver_ratios(t: &mut Tracer, p: &CompiledProgram) {
    let b = &p.build;
    let lookups = |s: &ipra_driver::PhaseStats| (s.hits + s.misses) as f64;
    t.ratio("driver.p1_hit_ratio", b.phase1.hits as f64, lookups(&b.phase1));
    t.ratio("driver.p2_hit_ratio", b.phase2.hits as f64, lookups(&b.phase2));
    t.ratio(
        "driver.disk_hit_ratio",
        (b.phase1.disk_hits + b.phase2.disk_hits) as f64,
        lookups(&b.phase1) + lookups(&b.phase2),
    );
    t.sample("driver.recompiled", b.recompiled.len() as f64);
}

/// One traced build op: `ipra_driver`'s build at width 1 (the untraced op),
/// its layer-by-layer replay under the op root, the byte-identity check,
/// then — outside the root — a spanned verification run and an alias-solve
/// probe. Returns the compiled program.
fn traced_build(
    t: &mut Tracer,
    op: usize,
    sources: &[SourceFile],
    cache: &mut ModuleCache,
    build: impl FnOnce() -> Result<CompiledProgram, String>,
) -> Result<CompiledProgram, String> {
    let (p, build_s) = timed(build)?;
    let recompiled = p.build.recompiled.clone();
    let phase2 = if recompiled.len() == sources.len() {
        Phase2::All
    } else {
        Phase2::Only { names: &recompiled, reuse: p.objects.clone() }
    };
    let opts = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let mut counts = Counts::default();
    t.begin_op(op as u64);
    let built =
        guarded(|| t.replay(|rec| replay::build(rec, cache, sources, &opts, phase2, &mut counts)))?;
    same_build(&built, &p)?;
    analyzer_steps(t, &built)?;
    let fe = t.frontend_time();
    t.counts(&counts, fe);
    let r = replay::run(&mut t.rec, &p.exe, &[], true)?;
    t.rec.span("alias.solve", |_| solve_alias(&p.summary));
    t.end_op(build_s, build_s, Some(r.stats.cycles));
    check_against_interpreter(sources, &[], &r.output, r.exit)?;
    Ok(p)
}

/// Splits each analyzer run of the op's replay by sub-step (outside the
/// op's root span).
fn analyzer_steps(t: &mut Tracer, built: &replay::Built) -> Result<(), String> {
    for (opts, stats) in &built.analyses {
        guarded(|| replay::analyzer_steps(&mut t.rec, &built.summary, opts, stats))?;
    }
    Ok(())
}

/// The replay must reproduce the compiled program byte for byte.
fn same_build(built: &replay::Built, p: &CompiledProgram) -> Result<(), String> {
    if built.database != p.database || built.objects != p.objects || vx(&built.exe) != vx(&p.exe) {
        Err("layer replay is not byte-identical to the compiled program".to_string())
    } else {
        Ok(())
    }
}

// -------------------------------------------------------------- cold-build

/// The seed's base program of each size in [`SIZES`]: what set-up builds
/// and what the quality pass measures.
fn bases(seed: u64) -> Vec<Vec<SourceFile>> {
    SIZES.iter().map(|&n| scaled(&tunes(seed, n as u64, n))).collect()
}

fn quality_of_bases(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let bases = bases(seed);
    let programs: Vec<(&[SourceFile], &[i64])> = bases.iter().map(|s| (&s[..], &[][..])).collect();
    quality(&programs, out)
}

/// `cold-build`: every op a cold build (fresh in-memory cache) of a
/// never-seen program, its output checked against the interpreter. Ops
/// rotate through the sizes in [`SIZES`], so the median is a mid-size
/// build and the tail a large one. No cache is ever reused, so this is
/// the analyzer's and the per-module phases' full cost.
fn cold(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let opts = options(PaperConfig::C, jobs(cfg));
    let bases = bases(cfg.seed);
    let mut budget = Budget::new(cfg);
    let (_, setups) = budget
        .setup(cfg, || bases.iter().try_for_each(|b| compile(b, &opts).map(drop).map_err(err)))?;
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut lat = Vec::new();
    budget.open();
    let mut k = 0;
    while budget.more(k) {
        let sources = scaled(&tunes(cfg.seed, 1000 + k as u64, SIZES[k % SIZES.len()]));
        let result = match &mut tracer {
            None => {
                budget.host.time(|| compile(&sources, &opts).map_err(err)).and_then(|(p, iv)| {
                    lat.push(iv);
                    check_program(&sources, &p)
                })
            }
            Some(t) => {
                let build = || compile(&sources, &opts).map_err(err);
                traced_build(t, k, &sources, &mut ModuleCache::default(), build).map(|p| {
                    driver_ratios(t, &p);
                })
            }
        };
        out.tally.record(result);
        k += 1;
    }
    match tracer {
        Some(mut t) => {
            probes(&mut t)?;
            t.finish(spec, &mut out);
        }
        None => {
            finish_e2e(&mut out, &budget, &setups, &lat, peak_rss_mib()?);
            quality_of_bases(cfg.seed, &mut out)?;
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- edit-loop

/// One project of the edit loop: its current sources, its cache
/// directory, and (traced) the replay's phase-1 cache mirroring it.
struct Project {
    sources: Vec<SourceFile>,
    dir: std::path::PathBuf,
    replay_cache: ModuleCache,
}

/// `edit-loop`: the edit loop of developers running `cminc --cache-dir`
/// on one project of each size in [`SIZES`], in rotation. Each op opens a
/// fresh disk-backed cache (a new process), re-tunes one seed-chosen
/// module and rebuilds. The summary never changes, so phases 1 and 2 redo
/// one module and the analyzer redoes everything.
fn edit(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let opts = options(PaperConfig::C, jobs(cfg));
    let bases = bases(cfg.seed);
    // Each set-up writes into fresh directories (the run's scratch space
    // is removed at the end), so no set-up pays to delete the last one's.
    let mut round = 0;
    let mut budget = Budget::new(cfg);
    let (dirs, setups) = budget.setup(cfg, || {
        round += 1;
        bases
            .iter()
            .map(|sources| {
                let dir = cfg.work_dir.join(format!("cache-{}-{round}", sources.len()));
                let mut cache = CompilationCache::with_disk(&dir).map_err(err)?;
                compile_incremental(sources, &opts, &mut cache).map_err(err)?;
                Ok(dir)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut projects: Vec<Project> = bases
        .into_iter()
        .zip(dirs)
        .map(|(sources, dir)| Project { sources, dir, replay_cache: ModuleCache::default() })
        .collect();
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(Tracer::default);
    if cfg.trace {
        // The replay's phase-1 caches start where the disk caches do.
        let opts = AnalyzerOptions::paper_config(PaperConfig::C, None);
        for p in &mut projects {
            let mut scratch = crate::trace::Recorder::new();
            let counts = &mut Counts::default();
            replay::build(
                &mut scratch,
                &mut p.replay_cache,
                &p.sources,
                &opts,
                Phase2::All,
                counts,
            )?;
        }
    }
    let mut rng = Rng::new(cfg.seed, 1);
    let mut lat = Vec::new();
    budget.open();
    let mut k = 0;
    while budget.more(k) {
        let p = &mut projects[k % SIZES.len()];
        let module = rng.below(p.sources.len() as u64) as usize;
        perturb(&mut p.sources, module, 1_000_000 + k as i64);
        let (sources, dir) = (&p.sources, &p.dir);
        let build = || {
            let mut cache = CompilationCache::with_disk(dir).map_err(err)?;
            compile_incremental(sources, &opts, &mut cache).map_err(err)
        };
        let result = match &mut tracer {
            None => budget.host.time(build).and_then(|(program, iv)| {
                lat.push(iv);
                check_program(sources, &program)
            }),
            Some(t) => traced_build(t, k, sources, &mut p.replay_cache, build).map(|program| {
                driver_ratios(t, &program);
            }),
        };
        out.tally.record(result);
        k += 1;
    }
    match tracer {
        Some(mut t) => {
            probes(&mut t)?;
            t.finish(spec, &mut out);
        }
        None => {
            finish_e2e(&mut out, &budget, &setups, &lat, peak_rss_mib()?);
            quality_of_bases(cfg.seed, &mut out)?;
        }
    }
    Ok(out)
}

// ------------------------------------------------------------- paper-sweep

/// The exact, deterministic figures of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
struct CellFigures {
    cycles: u64,
    singleton_refs: u64,
    code_words: usize,
    analyzer: ipra_core::AnalyzerStats,
}

/// `paper-sweep`: the paper's Table 4/5 sweep, repeated. One op is one
/// (workload, configuration) cell in seed-shuffled order: the configured
/// build (with the training run for B and F), a run on the full input,
/// and for L2 and C the attributed run `cminc report` makes. Only whole
/// sweeps run, so every sweep has the same cells, and each sweep's exact
/// figures must equal the first's.
fn sweep(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let workloads = ipra_workloads::all();
    let oracles = workloads
        .iter()
        .map(|w| {
            interpret_sources(&w.sources, &w.input)
                .map_err(err)?
                .map_err(|e| format!("{}: interpreter trap: {e:?}", w.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Serial builds, as the `tables` harness makes them: these programs
    // have 2-4 modules, and per-phase worker threads only add arena churn
    // that makes peak RSS differ by a whole simulated memory between runs.
    let opts = options(PaperConfig::L2, 1);
    let mut budget = Budget::new(cfg);
    let (_, setups) = budget.setup(cfg, || {
        for w in &workloads {
            let p = compile(&w.sources, &opts).map_err(err)?;
            run_program(&p, &w.training_input).map_err(err)?;
        }
        Ok(())
    })?;

    let cells: Vec<(usize, PaperConfig)> = (0..workloads.len())
        .flat_map(|w| PaperConfig::ALL_WITH_ALIAS.into_iter().map(move |c| (w, c)))
        .collect();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut first: Option<BTreeMap<(usize, &str), CellFigures>> = None;
    // Each sweep's cells are a range of `lat`.
    let (mut lat, mut sweeps) = (Vec::new(), Vec::new());
    budget.open();
    let mut k = 0;
    while budget.more(k) {
        let mut order = cells.clone();
        rng.shuffle(&mut order);
        let mut figures = BTreeMap::new();
        let first_cell = lat.len();
        for (wi, config) in order {
            budget.host.sample();
            let w = &workloads[wi];
            let attributed = matches!(config, PaperConfig::L2 | PaperConfig::C);
            let cell = || -> Result<_, String> {
                let mut cache = CompilationCache::new();
                let start = Instant::now();
                let p =
                    compile_configured(&w.sources, config, &w.training_input, &opts, &mut cache)
                        .map_err(err)?
                        .map_err(|e| format!("training run: {e}"))?;
                let build_s = start.elapsed().as_secs_f64();
                let r = run_program(&p, &w.input).map_err(err)?;
                let a = attributed.then(|| run_program_attributed(&p, &w.input)).transpose();
                Ok((p, r, a.map_err(err)?, build_s))
            };
            let result = budget.host.time(cell).and_then(|((p, r, a, build_s), iv)| {
                let secs = iv.secs;
                match &mut tracer {
                    None => lat.push(iv),
                    Some(t) => {
                        let mut counts = Counts::default();
                        t.begin_op(k as u64);
                        let (built, rr) = guarded(|| {
                            t.replay(|rec| {
                                let b = replay::configured(
                                    rec,
                                    &w.sources,
                                    config,
                                    &w.training_input,
                                    &p.build.recompiled,
                                    &mut counts,
                                )?;
                                let rr = replay::run(rec, &b.exe, &w.input, attributed)?;
                                Ok((b, rr))
                            })
                        })?;
                        same_build(&built, &p)?;
                        if rr.output != r.output || rr.stats != r.stats {
                            return Err("replayed run differs from the op's run".to_string());
                        }
                        analyzer_steps(t, &built)?;
                        let fe = t.frontend_time();
                        t.counts(&counts, fe);
                        driver_ratios(t, &p);
                        t.end_op(secs, build_s, Some(r.stats.cycles));
                    }
                }
                let o = &oracles[wi];
                if r.output != o.output || r.exit != o.exit {
                    return Err(format!(
                        "{}/{config}: output differs from the interpreter",
                        w.name
                    ));
                }
                if let Some(a) = a {
                    let exact = a.attribution.as_ref().is_some_and(|t| t.matches(&a.stats));
                    if a.output != r.output || a.stats != r.stats || !exact {
                        return Err(format!("{}/{config}: attributed run disagrees", w.name));
                    }
                }
                figures.insert(
                    (wi, config.label()),
                    CellFigures {
                        cycles: r.stats.cycles,
                        singleton_refs: r.stats.singleton_refs(),
                        code_words: p.exe.code_len(),
                        analyzer: p.stats.clone(),
                    },
                );
                Ok(())
            });
            out.tally.record(result);
            k += 1;
        }
        // Determinism guard: a cell whose exact figures moved between
        // sweeps of one run is a failed op.
        match &first {
            None => first = Some(figures),
            Some(base) => {
                for (cell, f) in &figures {
                    if base.get(cell).is_some_and(|b| b != f) {
                        out.tally.fail(format!("{cell:?}: exact figures changed between sweeps"));
                    }
                }
            }
        }
        sweeps.push(first_cell..lat.len());
    }
    match tracer {
        Some(mut t) => {
            probes(&mut t)?;
            t.finish(spec, &mut out);
        }
        None => {
            finish_e2e(&mut out, &budget, &setups, &lat, peak_rss_mib()?);
            let cells = budget.host.scaled(&lat);
            let sweep_s: Vec<f64> = sweeps.into_iter().map(|r| cells[r].iter().sum()).collect();
            if let Some(s) = Summary::of(&sweep_s) {
                out.extra.insert("sweep_s.p50".to_string(), s);
            }
            let programs: Vec<(&[SourceFile], &[i64])> =
                workloads.iter().map(|w| (&w.sources[..], &w.input[..])).collect();
            quality(&programs, &mut out)?;
        }
    }
    Ok(out)
}

// -------------------------------------------------------------- daemon-mix

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Rebuild an unchanged branch.
    Hit,
    /// Rebuild a branch with one module freshly re-tuned.
    Edit,
    /// Build a never-seen program.
    Cold,
}

/// One daemon request and what came back.
#[derive(Debug)]
struct Request {
    class: Class,
    branch: usize,
    module: usize,
    tune: i64,
    latency: Interval,
    /// `.vx` fingerprint and recompiled-module count, or the error.
    response: Result<(u64, usize), String>,
}

struct Live {
    // Field order is drop order: clients disconnect before the server drains.
    clients: Vec<Client>,
    server: Server,
}

fn request_for(sources: &[SourceFile]) -> BuildRequest {
    BuildRequest {
        config: "C".to_string(),
        optimize: true,
        sources: sources
            .iter()
            .map(|s| WireSource { name: s.name.clone(), text: s.text.clone() })
            .collect(),
        training_input: Vec::new(),
    }
}

fn counter(counters: &[Counter], name: &str) -> u64 {
    counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
}

fn counter_sum(counters: &[Counter], suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|c| c.name.starts_with("daemon.shard") && c.name.ends_with(suffix))
        .map(|c| c.value)
        .sum()
}

/// `daemon-mix`: an in-process daemon (2 build workers, 4 cache shards, a
/// 30 s request timeout) serving 2 closed-loop clients. Requests mix, by
/// the seed, 70% rebuilds of one of 4 unchanged 64-module branches, 25%
/// rebuilds of a branch with one module freshly re-tuned, and 5%
/// never-seen programs. Every response is compared with an independent
/// `compile()`: branch responses byte for byte, the others by `.vx`
/// fingerprint after the window closes.
fn daemon(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let n = DAEMON_MODULES;
    let branches: Vec<Vec<SourceFile>> =
        (0..BRANCHES).map(|b| scaled(&tunes(PROJECT, b as u64, n))).collect();
    let oracle_opts = CompileOptions::paper(PaperConfig::C);
    let oracles: Vec<String> = branches
        .iter()
        .map(|s| compile(s, &oracle_opts).map(|p| vx(&p.exe)).map_err(err))
        .collect::<Result<_, _>>()?;
    let socket = cfg.work_dir.join("cmind.sock");
    let mut budget = Budget::new(cfg);
    let (live, setups) = budget.setup(cfg, || {
        let opts = ServerOptions {
            jobs: jobs(cfg),
            shards: SHARDS,
            request_timeout: Some(Duration::from_secs(30)),
            ..ServerOptions::new(&socket)
        };
        let server = Server::start(opts).map_err(err)?;
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(&socket).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        for (b, sources) in branches.iter().enumerate() {
            let built = clients[0].build(&request_for(sources)).map_err(err)?;
            if built.vx != oracles[b] {
                return Err("priming build differs from an independent compile".to_string());
            }
        }
        Ok(Live { clients, server })
    })?;
    let Live { mut clients, server } = live;
    let before = clients[0].stats().map_err(err)?;

    budget.open();
    let (issued, served) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let rss_at = std::sync::OnceLock::new();
    let (requests, pings, mut clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (budget, issued, branches, oracles) = (&budget, &issued, &branches, &oracles);
                let (served, rss_at) = (&served, &rss_at);
                scope.spawn(move || {
                    let mut rng = Rng::new(cfg.seed, 100 + c as u64);
                    let (mut log, mut pings) = (Vec::new(), Vec::new());
                    for k in 0.. {
                        if !budget.more(issued.fetch_add(1, Ordering::SeqCst)) {
                            break;
                        }
                        let class = match rng.below(100) {
                            0..=69 => Class::Hit,
                            70..=94 => Class::Edit,
                            _ => Class::Cold,
                        };
                        let branch = rng.below(BRANCHES as u64) as usize;
                        let module = rng.below(n as u64) as usize;
                        let tune = 1_000_000_000 * (c as i64 + 1) + k;
                        let sources = daemon_sources(class, &branches[branch], module, tune);
                        let req = request_for(&sources);
                        let host = &budget.host;
                        if k % 20 == 0 {
                            let start = host.now();
                            if client.ping().is_ok() {
                                pings.push(Interval { start, secs: host.now() - start });
                            }
                        }
                        let start = host.now();
                        let built = client.build(&req);
                        let latency = Interval { start, secs: host.now() - start };
                        let response = match built {
                            Ok(b) if class == Class::Hit && b.vx != oracles[branch] => {
                                Err("branch rebuild differs from an independent compile".into())
                            }
                            Ok(b) => Ok((b.fingerprint, b.recompiled.len())),
                            Err(e) => Err(e.to_string()),
                        };
                        log.push(Request { class, branch, module, tune, latency, response });
                        if served.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_REQUEST {
                            let _ = rss_at.set(peak_rss_mib());
                        }
                    }
                    (log, pings, client)
                })
            })
            .collect();
        let mut all = (Vec::new(), Vec::new(), Vec::new());
        for h in handles {
            let (log, pings, client) = h.join().expect("daemon-mix client thread");
            all.0.extend(log);
            all.1.extend(pings);
            all.2.push(client);
        }
        all
    });
    let window = budget.window();
    let rss = rss_at.into_inner().unwrap_or_else(peak_rss_mib)?;
    let after = clients[0].stats().map_err(err)?;
    drop(clients);
    server.stop();

    // Fingerprints of independent compiles, for the responses not already
    // byte-compared; a traced run replays the first few layer by layer.
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(Tracer::default);
    let to_check: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].class != Class::Hit && requests[i].response.is_ok())
        .collect();
    let mut expected: BTreeMap<usize, Result<u64, String>> = BTreeMap::new();
    if let Some(t) = &mut tracer {
        for (op, &i) in to_check.iter().take(TRACED_REPLAYS).enumerate() {
            let r = &requests[i];
            let sources = daemon_sources(r.class, &branches[r.branch], r.module, r.tune);
            let build = || compile(&sources, &options(PaperConfig::C, 1)).map_err(err);
            let fp = traced_build(t, op, &sources, &mut ModuleCache::default(), build)
                .map(|p| executable_artifact(&p.exe).1);
            expected.insert(i, fp);
        }
    }
    let rest: Vec<usize> = to_check.iter().copied().filter(|i| !expected.contains_key(i)).collect();
    let fingerprints = std::thread::scope(|scope| {
        let chunks: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let (rest, requests, branches) = (&rest, &requests, &branches);
                scope.spawn(move || {
                    rest.iter()
                        .skip(w)
                        .step_by(CLIENTS)
                        .map(|&i| {
                            let r = &requests[i];
                            let sources =
                                daemon_sources(r.class, &branches[r.branch], r.module, r.tune);
                            let fp = compile(&sources, &CompileOptions::paper(PaperConfig::C))
                                .map(|p| executable_artifact(&p.exe).1)
                                .map_err(err);
                            (i, fp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks.into_iter().flat_map(|h| h.join().expect("verification worker")).collect::<Vec<_>>()
    });
    expected.extend(fingerprints);

    let scaled = budget.host.scaled(&requests.iter().map(|r| r.latency).collect::<Vec<_>>());
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut lat = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let verdict = match (&r.response, expected.get(&i)) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Some(Err(e))) => Err(format!("verification build failed: {e}")),
            (Ok((fp, _)), Some(Ok(want))) if fp != want => {
                Err("response differs from an independent compile".to_string())
            }
            (Ok(_), _) => Ok(()),
        };
        if r.response.is_ok() {
            lat.push(r.latency);
            let name = match r.class {
                Class::Hit => "daemon.hit_s.p50",
                Class::Edit => "daemon.edit_s.p50",
                Class::Cold => "daemon.cold_s.p50",
            };
            by_class.entry(name).or_default().push(scaled[i]);
        }
        out.tally.record(verdict);
    }
    by_class.insert("daemon.ping_s.p50", budget.host.scaled(&pings));
    for (name, samples) in &by_class {
        if let Some(s) = Summary::of(samples) {
            out.extra.insert(name.to_string(), s);
        }
    }
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name)) as f64;
    let shard_delta = |suffix: &str| {
        counter_sum(&after, suffix).saturating_sub(counter_sum(&before, suffix)) as f64
    };
    let total = requests.len().max(1) as f64;
    let daemon_ratios = [
        ("daemon.coalesced_frac", delta("daemon.dedup.coalesced") / total),
        ("daemon.builds_per_request", delta("daemon.builds") / total),
    ];
    match tracer {
        Some(mut t) => {
            let (p1h, p1m) = (shard_delta(".p1.hits"), shard_delta(".p1.misses"));
            let (p2h, p2m) = (shard_delta(".p2.hits"), shard_delta(".p2.misses"));
            t.ratio("driver.p1_hit_ratio", p1h, p1h + p1m);
            t.ratio("driver.p2_hit_ratio", p2h, p2h + p2m);
            t.ratio("driver.disk_hit_ratio", 0.0, p1h + p1m + p2h + p2m);
            for r in &requests {
                if let Ok((_, recompiled)) = r.response {
                    t.sample("driver.recompiled", recompiled as f64);
                }
            }
            for (name, v) in daemon_ratios {
                out.single(name, v);
            }
            probes(&mut t)?;
            t.finish(spec, &mut out);
        }
        None => {
            for (name, v) in daemon_ratios {
                out.extra.insert(name.to_string(), Summary::single(v));
            }
            finish_e2e(&mut out, &budget, &setups, &lat, rss);
            // Served per second of window (two clients share it), not per
            // second of busy time.
            let served = lat.len() as f64;
            out.single("throughput_ops", served / budget.host.scaled(&[window])[0]);
            out.extra
                .insert("raw.throughput_ops".to_string(), Summary::single(served / window.secs));
            let programs: Vec<(&[SourceFile], &[i64])> =
                branches.iter().map(|s| (&s[..], &[][..])).collect();
            quality(&programs, &mut out)?;
        }
    }
    Ok(out)
}

/// `daemon-mix` reads its peak resident set when this many requests have
/// been served (or when the window closes, if sooner). The daemon's memory
/// grows with the requests it has served, so reading it at the window's
/// close would make it follow host speed.
const RSS_AT_REQUEST: usize = 1200;

/// Non-hit requests a traced `daemon-mix` run replays layer by layer.
const TRACED_REPLAYS: usize = 32;

fn daemon_sources(
    class: Class,
    branch: &[SourceFile],
    module: usize,
    tune: i64,
) -> Vec<SourceFile> {
    match class {
        Class::Hit => branch.to_vec(),
        Class::Edit => {
            let mut s = branch.to_vec();
            perturb(&mut s, module, tune);
            s
        }
        Class::Cold => scaled(&vec![tune; branch.len()]),
    }
}
