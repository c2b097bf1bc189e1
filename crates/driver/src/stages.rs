//! The pipeline steps and the worker pool they fan out on.
//!
//! Each computing step exists once, as a routine over the modules it is
//! handed: [`run_phase1`] (parse → check → lower → optimize → summarize),
//! [`run_analyzer`] and [`run_phase2`] (register allocation and emission).
//! The two per-module routines fan out on the worker pool through one
//! helper, which opens each module's task span and applies the one error
//! rule (the lowest-index diagnostic wins). [`crate::compile`] calls the
//! routines on every module, with no cache at all.
//!
//! The cache is a layer around them. [`phase1`], [`analyze`] and
//! [`phase2`] probe the [cache](crate::CompilationCache), call the routine
//! on the misses, store the results, and count hits, disk hits and misses
//! into a [`BuildReport`]. They are the driver's only cached steps:
//! [`crate::compile_incremental`], [`crate::compile_artifact`],
//! [`crate::separate::build_module_for`] (`cminc c`) and the staged
//! artifact build all go through them, so a cache key cannot drift
//! between the in-memory and the file-based pipelines. The analyzer's key
//! is [`analysis_key`]. [`phase2`] is [`phase2_keys`], [`probe_phase2`]
//! and [`phase2_objects`] in turn; `compile_artifact` calls them one by
//! one, and with the probe asks the `.vx` tier for the text linked from
//! the objects under those keys ([`link_key`]).
//!
//! Each cached step is probe → compute → store, and a build reaches its
//! cache through a [`BuildCache`]: the step holds the cache for its lookup
//! batch and its store batch only ([`BuildCache::batch`]), and hashes
//! keys and runs the front end, the analyzer and codegen with it
//! released. On a [`Shard::Shared`] cache, which `cmind`'s builds share,
//! other builds' batches run in between; on a [`Shard::Own`] one, as
//! [`crate::compile_incremental`] passes, nothing does. Either way a
//! build performs the same cache operations in the same order, and keeps
//! what its lookups returned (`Arc`s) rather than reading the cache again.

use crate::cache::{AnalysisEntry, Io, Phase1Entry, Phase1Head, Phase1Steps};
use crate::{BuildReport, CompilationCache, CompileOptions, SourceFile};
use cmin_frontend::{analyze as check_module, parse_module, CompileError};
use cmin_ir::ir::{Callee, Inst as IrInst};
use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_artifact::ObjectArtifact;
use ipra_core::analyzer::{analyze_traced, Analysis, AnalyzerOptions};
use ipra_core::fingerprint::Fnv64;
use ipra_core::trace::AnalyzerTrace;
use ipra_core::ProgramDatabase;
use ipra_summary::{ModuleSummary, ProgramSummary};
use ipra_telemetry::{SpanTimer, Telemetry};
use serde::BinSerialize;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;
use vpr::program::ObjectModule;
use vpr::target::TargetId;

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// preserving item order in the result. Work is pulled from a shared
/// index so uneven module sizes balance automatically.
pub(crate) fn parallel_map<'a, T: Sync, R: Send>(
    items: &'a [T],
    jobs: usize,
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs.min(n) {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || {
                // Lane 0 is the main thread; workers are lanes 1..=jobs.
                // Telemetry spans recorded inside `f` carry this lane as
                // their trace `tid`, making pool utilization visible.
                ipra_telemetry::set_lane(w as u64 + 1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    *slots[i].lock().expect("worker result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner().expect("worker result slot poisoned").expect("worker result missing")
        })
        .collect()
}

/// What the per-module routines of one build share: the worker-pool width
/// and the build's collector, which records each module's task span.
#[derive(Clone, Copy)]
pub(crate) struct Pool<'t> {
    pub(crate) jobs: usize,
    pub(crate) tele: Option<&'t Telemetry>,
}

/// Runs `task` on each of `items` on the pool, each in a span
/// `{phase}:{name}`, and hands each success to `keep` on the calling
/// thread, in item order.
///
/// # Errors
///
/// The first failing item's error, the one a serial left-to-right run
/// would have stopped at, once every success has been kept.
fn fan_out<'a, T: Sync, R: Send>(
    pool: Pool<'_>,
    phase: &str,
    items: &'a [T],
    name: impl Fn(&'a T) -> &'a str + Sync,
    task: impl Fn(&'a T) -> Result<R, CompileError> + Sync,
    mut keep: impl FnMut(&'a T, R),
) -> Result<(), CompileError> {
    let results = parallel_map(items, pool.jobs, |item| {
        let _task = task_span(pool.tele, phase, name(item));
        task(item)
    });
    let mut first_error = None;
    for (item, result) in items.iter().zip(results) {
        match result {
            Ok(r) => keep(item, r),
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    first_error.map_or(Ok(()), Err)
}

/// The compiler first phase proper (parse → check → lower → optimize →
/// summarize) of `sources[i]` for each `i` of `indices`, on the pool.
/// `finish` runs on each module's worker, on its summary and IR; `keep`
/// gets what it returned on the calling thread, in `indices` order, and
/// each compiled module's step times go into `steps`.
///
/// # Errors
///
/// The lowest-index module's diagnostic, once every module that did
/// compile has been kept.
pub(crate) fn run_phase1<R: Send>(
    pool: Pool<'_>,
    sources: &[SourceFile],
    indices: &[usize],
    optimize: bool,
    steps: &mut Phase1Steps,
    finish: impl Fn(usize, ModuleSummary, IrModule) -> R + Sync,
    mut keep: impl FnMut(usize, R),
) -> Result<(), CompileError> {
    let task = |&i: &usize| {
        let mut module_steps = Phase1Steps::default();
        let (summary, ir) = front_end(&sources[i], optimize, &mut module_steps)?;
        Ok((finish(i, summary, ir), module_steps))
    };
    fan_out(
        pool,
        "phase1",
        indices,
        |&i| &sources[i].name,
        task,
        |&i, (r, module_steps)| {
            steps.add(&module_steps);
            keep(i, r);
        },
    )
}

/// The program analyzer proper over `summary` under `opts`, recording its
/// decisions when `trace` is set.
pub(crate) fn run_analyzer(
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
    trace: bool,
) -> (Analysis, Option<AnalyzerTrace>) {
    if trace {
        let (analysis, trace) = analyze_traced(summary, opts);
        (analysis, Some(trace))
    } else {
        (ipra_core::analyze(summary, opts), None)
    }
}

/// The compiler second phase proper (register allocation and emission
/// under `database` for `target`) of each of `modules`, on the pool, each
/// module's task span named by `name`. `ir` yields a module's IR on its
/// worker, as a reference or an owned value; `keep` gets each object with
/// that IR on the calling thread, in module order.
///
/// # Errors
///
/// The first error `ir` returned, once every object has been kept.
pub(crate) fn run_phase2<'a, T: Sync, M: Borrow<IrModule> + Send>(
    pool: Pool<'_>,
    modules: &'a [T],
    name: impl Fn(&'a T) -> &'a str + Sync,
    database: &ProgramDatabase,
    target: TargetId,
    ir: impl Fn(&'a T) -> Result<M, CompileError> + Sync,
    mut keep: impl FnMut(&'a T, ObjectModule, M),
) -> Result<(), CompileError> {
    let task = |module: &'a T| {
        let ir = ir(module)?;
        Ok((cmin_codegen::compile_module_for(ir.borrow(), database, target), ir))
    };
    fan_out(pool, "phase2", modules, name, task, |module, (object, ir)| keep(module, object, ir))
}

/// The cache a cached build goes through.
pub(crate) enum Shard<'c> {
    /// A cache the build has to itself for its whole run.
    Own(&'c mut CompilationCache),
    /// A cache other builds share (a `cmind` shard), which the build locks
    /// around each batch of cache operations only.
    Shared(&'c Mutex<CompilationCache>),
}

impl Shard<'_> {
    /// The same cache, for one more build.
    pub(crate) fn reborrow(&mut self) -> Shard<'_> {
        match self {
            Shard::Own(cache) => Shard::Own(cache),
            Shard::Shared(shard) => Shard::Shared(shard),
        }
    }
}

/// One cached build's hold on its cache: the [`Shard`], and the build's
/// own side of the disk tier's work ([`Io`]: its collector and its disk
/// seconds), which travels with the build rather than living on a cache
/// other builds share.
pub(crate) struct BuildCache<'c> {
    shard: Shard<'c>,
    io: Io,
}

impl<'c> BuildCache<'c> {
    /// A build through `shard` that records into `tele`.
    pub(crate) fn new(shard: Shard<'c>, tele: Option<Telemetry>) -> BuildCache<'c> {
        BuildCache { shard, io: Io { tele, seconds: 0.0 } }
    }

    /// The build's collector.
    pub(crate) fn tele(&self) -> Option<&Telemetry> {
        self.io.tele.as_ref()
    }

    /// Runs `ops`, one batch of cache operations, on the cache and the
    /// build's [`Io`]. A shared shard is locked for the batch alone; an
    /// acquisition that finds it held records its wait as a `shard_wait`
    /// span in the build's collector.
    pub(crate) fn batch<R>(&mut self, ops: impl FnOnce(&mut CompilationCache, &mut Io) -> R) -> R {
        match &mut self.shard {
            Shard::Own(cache) => ops(cache, &mut self.io),
            Shard::Shared(shard) => {
                let guard = shard.try_lock().or_else(|e| match e {
                    TryLockError::WouldBlock => {
                        let tele = self.io.tele.as_ref();
                        let _wait = ipra_telemetry::span(tele, "cache", "shard_wait");
                        shard.lock()
                    }
                    TryLockError::Poisoned(poisoned) => Err(poisoned),
                });
                ops(&mut guard.expect("shard lock"), &mut self.io)
            }
        }
    }
}

/// Phase-1 cache key: module name + source text + optimize flag.
fn phase1_key(src: &SourceFile, optimize: bool) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&src.name);
    h.write_str(&src.text);
    h.write_u64(u64::from(optimize));
    h.finish()
}

/// Mixes the build target into a phase-2 cache key so cached VPR objects
/// are never served to an RV32 build (and vice versa). VPR mixes nothing,
/// keeping every pre-machine-description fingerprint — and on-disk cache
/// entry — valid.
fn mix_target(fp: u64, target: vpr::target::TargetId) -> u64 {
    match target {
        vpr::target::TargetId::Vpr => fp,
        t => {
            let mut h = Fnv64::new();
            h.write_u64(fp);
            h.write_str(t.name());
            h.finish()
        }
    }
}

/// Every direct callee named anywhere in the module's IR, sorted and
/// deduplicated: the procedures whose `safe_caller_across` sets codegen
/// reads at call sites.
fn direct_callees(ir: &IrModule) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for f in &ir.functions {
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                if let IrInst::Call { callee: Callee::Direct(name), .. } = inst {
                    out.push(name.clone());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// What the cache records about a module whose phase 1 ran under `key`,
/// besides its IR: the fingerprints and callees its later lookups read.
fn phase1_head(key: u64, summary: ModuleSummary, ir: &IrModule) -> Phase1Head {
    let summary_fp = bin_fingerprint(&summary);
    Phase1Head { key, ir_fp: bin_fingerprint(ir), callees: direct_callees(ir), summary, summary_fp }
}

/// The compiler first phase over `sources`, through `cache`: returns one
/// entry per source, in order, and fills `report.phase1` and
/// `report.phase1_steps`. The misses run [`run_phase1`], fingerprinting
/// each module on its worker.
///
/// # Errors
///
/// The lowest-index module's diagnostic. Entries of the modules that did
/// compile are stored anyway, so a fixed-up rebuild stays incremental.
pub(crate) fn phase1(
    sources: &[SourceFile],
    optimize: bool,
    jobs: usize,
    cache: &mut BuildCache<'_>,
    report: &mut BuildReport,
) -> Result<Vec<Arc<Phase1Entry>>, CompileError> {
    let keys: Vec<u64> = sources.iter().map(|s| phase1_key(s, optimize)).collect();
    let found: Vec<_> =
        cache.batch(|c, io| keys.iter().map(|&key| c.lookup_phase1(key, io)).collect());
    let mut entries: Vec<Option<Arc<Phase1Entry>>> = Vec::with_capacity(sources.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    for (i, found) in found.into_iter().enumerate() {
        match found {
            Some((e, from_disk)) => {
                report.phase1.hits += 1;
                report.phase1.disk_hits += usize::from(from_disk);
                entries.push(Some(e));
            }
            None => {
                report.phase1.misses += 1;
                miss_idx.push(i);
                entries.push(None);
            }
        }
    }
    let pool = Pool { jobs, tele: cache.tele() };
    let finish = |i: usize, summary, ir: IrModule| (phase1_head(keys[i], summary, &ir), ir);
    let mut compiled = Vec::with_capacity(miss_idx.len());
    let steps = &mut report.phase1_steps;
    let ran = run_phase1(pool, sources, &miss_idx, optimize, steps, finish, |i, module| {
        compiled.push((i, module));
    });
    if !compiled.is_empty() {
        cache.batch(|c, io| {
            for (i, (head, ir)) in compiled {
                entries[i] = Some(c.store_phase1(head, ir, io));
            }
        });
    }
    ran?;
    Ok(entries.into_iter().map(|e| e.expect("all phase-1 slots filled")).collect())
}

/// The analysis cache key: FNV-64 over the module count, each module's
/// `summary_fp` in source order, and the binary encoding of the resolved
/// `opts`. The analyzer reads nothing but the summaries and its options, so
/// a repeated key certifies an identical analysis; every option field is
/// in the encoding by construction, and a profile encodes its edges sorted.
pub(crate) fn analysis_key(summary_fps: &[u64], opts: &AnalyzerOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(summary_fps.len() as u64);
    for &fp in summary_fps {
        h.write_u64(fp);
    }
    let mut encoded = Vec::new();
    opts.bin_serialize(&mut encoded);
    h.write(&encoded);
    h.finish()
}

/// The program summary of phase-1 `entries`, in order, once the build
/// is done with them: the summary of an entry the build alone holds (one
/// a first disk hit decoded for it) moves, and one memory shares is
/// copied.
pub(crate) fn program_summary(entries: Vec<Arc<Phase1Entry>>) -> ProgramSummary {
    let summary = |e: Arc<Phase1Entry>| match Arc::try_unwrap(e) {
        Ok(alone) => alone.head.summary,
        Err(shared) => shared.head.summary.clone(),
    };
    ProgramSummary { modules: entries.into_iter().map(summary).collect() }
}

/// The program analyzer over phase-1 `entries` under `options`' analyzer
/// settings, through `cache`'s analysis tier, and fills `report.analyze`.
/// Returns the analysis, the program summary the analyzer ran on (`None`
/// on a hit, which reads none) and the decision trace. A traced build
/// always runs the analyzer, to record its decisions, and stores the
/// result like any miss.
pub(crate) fn analyze(
    entries: &[Arc<Phase1Entry>],
    options: &CompileOptions,
    cache: &mut BuildCache<'_>,
    report: &mut BuildReport,
) -> (Arc<AnalysisEntry>, Option<ProgramSummary>, Option<AnalyzerTrace>) {
    let opts = analyzer_options(options);
    let fps: Vec<u64> = entries.iter().map(|e| e.head.summary_fp).collect();
    let key = analysis_key(&fps, &opts);
    if !options.trace {
        if let Some((entry, from_disk)) = cache.batch(|c, io| c.lookup_analysis(key, io)) {
            report.analyze.hits = 1;
            report.analyze.disk_hits = usize::from(from_disk);
            return (entry, None, None);
        }
    }
    report.analyze.misses = 1;
    // Phase 2 still reads the entries, so the summaries are copied.
    let summary =
        ProgramSummary { modules: entries.iter().map(|e| e.head.summary.clone()).collect() };
    let (analysis, trace) = run_analyzer(&summary, &opts, options.trace);
    let entry = AnalysisEntry { key, database: analysis.database, stats: analysis.stats };
    (cache.batch(|c, io| c.store_analysis(entry, io)), Some(summary), trace)
}

/// The IR a cached second phase recompiles a module from: the phase-1
/// entry's, or, when that did not decode, phase 1 re-run from source
/// with the head that replaces the entry.
enum StaleIr<'a> {
    Cached(&'a IrModule),
    Redone(Phase1Head, IrModule),
}

impl Borrow<IrModule> for StaleIr<'_> {
    fn borrow(&self) -> &IrModule {
        match self {
            StaleIr::Cached(ir) => ir,
            StaleIr::Redone(_, ir) => ir,
        }
    }
}

/// The phase-2 cache keys `(ir_fp, db_fp)` of phase-1 `entries` under
/// `database` for `target`, in order: the key of (IR, database slice,
/// target) that a module's object is a function of, and so, as a list,
/// what a link of the objects is a function of.
pub(crate) fn phase2_keys(
    entries: &[Arc<Phase1Entry>],
    database: &ProgramDatabase,
    target: TargetId,
) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|e| {
            let fp = database.module_slice_fingerprint(
                e.head.summary.procs.iter().map(|p| p.name.as_str()),
                e.head.callees.iter().map(|s| s.as_str()),
            );
            (e.head.ir_fp, mix_target(fp, target))
        })
        .collect()
}

/// The `.vx` tier's key for the objects under phase-2 `keys`, linked for
/// `target`: FNV-64 over the target's name and every key in order.
pub(crate) fn link_key(keys: &[(u64, u64)], target: TargetId) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(target.name());
    h.write_u64(keys.len() as u64);
    for &(ir_fp, db_fp) in keys {
        h.write_u64(ir_fp);
        h.write_u64(db_fp);
    }
    h.finish()
}

/// What [`probe_phase2`] found for a build's modules.
pub(crate) struct Probe {
    /// The indices of the modules that missed.
    pub(crate) stale: Vec<usize>,
    /// Each hit module's object as the cache handed it out: shared with
    /// memory for a memory hit, the build's alone for a disk hit (memory
    /// kept the frame). `None` for a miss.
    objects: Vec<Option<Arc<ObjectModule>>>,
}

/// Looks every module's phase-2 key up in `cache`, one batch of cache
/// operations, counting hits, disk hits and misses into `report.phase2`.
/// The build keeps each hit's object from here on, whatever the cache
/// does with the entry meanwhile.
pub(crate) fn probe_phase2(
    keys: &[(u64, u64)],
    cache: &mut CompilationCache,
    io: &mut Io,
    report: &mut BuildReport,
) -> Probe {
    let mut probe = Probe { stale: Vec::new(), objects: Vec::with_capacity(keys.len()) };
    for (i, &key) in keys.iter().enumerate() {
        let object = cache.lookup_phase2(key, io);
        match &object {
            Some((_, from_disk)) => {
                report.phase2.hits += 1;
                report.phase2.disk_hits += usize::from(*from_disk);
            }
            None => {
                report.phase2.misses += 1;
                probe.stale.push(i);
            }
        }
        probe.objects.push(object.map(|(object, _)| object));
    }
    probe
}

/// The compiler second phase over phase-1 `entries` under `database`,
/// through `cache`, keyed on (IR, database slice, target). Returns each
/// module's object with the fingerprints codegen consumed (the `.vo`
/// payload), in order, and fills `report.phase2` and `report.recompiled`.
/// It is [`phase2_keys`], [`probe_phase2`] and [`phase2_objects`] in turn.
///
/// # Errors
///
/// As [`phase2_objects`].
#[allow(clippy::too_many_arguments)] // phase 1's inputs ride along for the fallback
pub(crate) fn phase2(
    sources: &[SourceFile],
    optimize: bool,
    entries: &[Arc<Phase1Entry>],
    database: &ProgramDatabase,
    target: TargetId,
    jobs: usize,
    cache: &mut BuildCache<'_>,
    report: &mut BuildReport,
) -> Result<Vec<ObjectArtifact>, CompileError> {
    let keys = phase2_keys(entries, database, target);
    let probe = cache.batch(|c, io| probe_phase2(&keys, c, io, report));
    let objects = phase2_objects(
        sources, optimize, entries, &keys, probe, database, target, jobs, cache, report,
    )?;
    // What the build alone holds (a disk hit's object) moves in; what it
    // shares with memory is copied.
    let artifacts = keys.iter().zip(objects).map(|(&(ir_fp, db_fp), object)| ObjectArtifact {
        object: Arc::unwrap_or_clone(object),
        ir_fp,
        dir_fp: db_fp,
    });
    Ok(artifacts.collect())
}

/// The rest of the second phase once [`probe_phase2`] has probed `keys`:
/// runs [`run_phase2`] on the probe's misses, stores their objects in one
/// batch and names them in `report.recompiled`, and returns every
/// module's object, in order, as the build holds it: shared with memory,
/// or its own (a disk hit's).
///
/// Only the modules it recompiles decode their IR. One whose cached IR
/// does not decode re-runs phase 1 from its source (`sources` and
/// `optimize` are what [`phase1`] was given) and replaces the cached entry;
/// the frame counts as corrupt, while `report.phase1` keeps the lookup's
/// hit, since the head was served.
///
/// # Errors
///
/// The lowest-index diagnostic of such a re-run.
#[allow(clippy::too_many_arguments)] // phase 1's inputs ride along for the fallback
pub(crate) fn phase2_objects(
    sources: &[SourceFile],
    optimize: bool,
    entries: &[Arc<Phase1Entry>],
    keys: &[(u64, u64)],
    probe: Probe,
    database: &ProgramDatabase,
    target: TargetId,
    jobs: usize,
    cache: &mut BuildCache<'_>,
    report: &mut BuildReport,
) -> Result<Vec<Arc<ObjectModule>>, CompileError> {
    let Probe { stale, mut objects } = probe;
    let pool = Pool { jobs, tele: cache.tele() };
    let ir = |&i: &usize| match entries[i].ir() {
        Some(ir) => Ok(StaleIr::Cached(ir)),
        None => {
            let _redo = task_span(pool.tele, "phase1", &sources[i].name);
            let mut steps = Phase1Steps::default();
            let (summary, ir) = front_end(&sources[i], optimize, &mut steps)?;
            Ok(StaleIr::Redone(phase1_head(entries[i].head.key, summary, &ir), ir))
        }
    };
    let name = |&i: &usize| entries[i].head.summary.module.as_str();
    let mut compiled = Vec::with_capacity(stale.len());
    let ran = run_phase2(pool, &stale, name, database, target, ir, |&i, object, ir| {
        let redone = match ir {
            StaleIr::Redone(head, ir) => Some((head, ir)),
            StaleIr::Cached(_) => None,
        };
        report.recompiled.push(entries[i].head.summary.module.clone());
        compiled.push((i, Arc::new(object), redone));
    });
    if !compiled.is_empty() {
        cache.batch(|c, io| {
            for (i, object, redone) in compiled {
                if let Some((head, ir)) = redone {
                    c.repair_phase1(head, ir, io);
                }
                c.store_phase2(keys[i], Arc::clone(&object), io);
                objects[i] = Some(object);
            }
        });
    }
    ran?;
    Ok(objects.into_iter().map(|object| object.expect("every module has its object")).collect())
}

/// The span of one module's task in `phase` ("phase1:NAME"), recorded
/// only when a collector is attached: without one, no name is built.
fn task_span(tele: Option<&Telemetry>, phase: &str, module: &str) -> Option<SpanTimer> {
    tele.map(|t| t.span(phase, &format!("{phase}:{module}")))
}

/// Runs `f`, adding its wall-clock seconds to `seconds`.
fn timed<T>(seconds: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *seconds += start.elapsed().as_secs_f64();
    out
}

/// Runs the full first phase for one module, adding each step's time to
/// `steps`: its summary record and optimized IR.
fn front_end(
    src: &SourceFile,
    optimize: bool,
    steps: &mut Phase1Steps,
) -> Result<(ModuleSummary, IrModule), CompileError> {
    let m = timed(&mut steps.parse, || parse_module(&src.name, &src.text))?;
    let info = timed(&mut steps.check, || check_module(&m))?;
    let mut ir = timed(&mut steps.lower, || lower_module(&m, &info));
    if optimize {
        timed(&mut steps.optimize, || optimize_module(&mut ir));
    }
    let summary = timed(&mut steps.summarize, || ipra_summary::summarize_module(&ir));
    Ok((summary, ir))
}

/// FNV-64 over `value`'s binary encoding.
fn bin_fingerprint(value: &impl BinSerialize) -> u64 {
    let mut encoded = Vec::new();
    value.bin_serialize(&mut encoded);
    let mut h = Fnv64::new();
    h.write(&encoded);
    h.finish()
}

/// The analyzer options a build runs under: [`CompileOptions::analyzer`]
/// with the build's target.
pub(crate) fn analyzer_options(options: &CompileOptions) -> AnalyzerOptions {
    AnalyzerOptions { target: options.target, ..options.analyzer.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_core::{PaperConfig, ProfileData};

    #[test]
    fn profile_recording_order_does_not_move_the_analysis_key() {
        let edges = [("main", "a", 3), ("a", "b", 40), ("main", "b", 1), ("b", "c", 7)];
        let mut forward = ProfileData::new();
        for (caller, callee, n) in edges {
            forward.record_edge(caller, callee, n);
        }
        let mut backward = ProfileData::new();
        for (caller, callee, n) in edges.into_iter().rev() {
            backward.record_edge(caller, callee, n);
        }
        let opts = |p: &ProfileData| AnalyzerOptions::paper_config(PaperConfig::F, Some(p.clone()));
        let fps = [1, 2, 3];
        assert_eq!(analysis_key(&fps, &opts(&forward)), analysis_key(&fps, &opts(&backward)));

        // Whereas another count, another option or another summary does.
        let mut other = forward.clone();
        other.record_edge("a", "b", 1);
        let base = analysis_key(&fps, &opts(&forward));
        assert_ne!(analysis_key(&fps, &opts(&other)), base);
        let mut tweaked = opts(&forward);
        tweaked.discard.min_lref_ratio += 0.125;
        assert_ne!(analysis_key(&fps, &tweaked), base);
        assert_ne!(analysis_key(&[1, 3, 2], &opts(&forward)), base);
        assert_ne!(analysis_key(&fps[..2], &opts(&forward)), base);
    }
}
