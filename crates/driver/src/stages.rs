//! The pipeline's steps, the worker pool they fan out on, and a build's
//! hold on its cache.
//!
//! Each step exists once, for a build with a cache and one without:
//! [`phase1`] (parse → check → lower → optimize → summarize), [`analyze`]
//! and, for the second phase, [`probe_phase2`] and [`phase2`] (register
//! allocation and emission). The per-module steps fan out on the worker
//! pool through one helper, which opens each module's task span and
//! applies the one error rule (the lowest-index diagnostic wins). The
//! driver's one build routine in `lib.rs`, behind every `compile*` entry
//! point, calls them in order; [`crate::separate::build_module_for`]
//! (`cminc c`) and the staged artifact build call the per-module steps, so
//! a cache key cannot drift between the in-memory and the file-based
//! pipelines.
//!
//! Through a cache, each step is probe → compute → store: it asks the
//! [cache](crate::CompilationCache) for every module in one batch, runs
//! on the misses, stores what it computed in a second batch, and counts
//! hits, disk hits and misses into a [`BuildReport`]. A build reaches its
//! cache through a [`BuildCache`], which locks the shard for each batch
//! only ([`BuildCache::batch`]): keys are hashed, and the front end, the
//! analyzer and codegen run, with it released. A `cmind` shard is shared
//! by builds, whose batches interleave; a caller's own cache is lent
//! ([`lend`]) into a shard no other build takes. Either way a build performs the
//! same cache operations in the same order, and keeps what its lookups
//! returned (`Arc`s) rather than reading the cache again.
//!
//! With no cache, phase 1 hands the rest of the build its products as the
//! build's own ([`Front::Owned`]): no step computes a key or fingerprint,
//! stores anything or copies a product, and each product moves into the
//! next step and the result.

use crate::cache::{AnalysisEntry, Io, Linked, Phase1Entry, Phase1Head, Phase1Steps};
use crate::{BuildReport, CompilationCache, CompileOptions, SourceFile};
use cmin_frontend::{analyze as check_module, parse_module, CompileError};
use cmin_ir::ir::{Callee, Inst as IrInst};
use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_core::analyzer::{analyze_traced, AnalyzerOptions};
use ipra_core::fingerprint::Fnv64;
use ipra_core::trace::AnalyzerTrace;
use ipra_core::ProgramDatabase;
use ipra_summary::{ModuleSummary, ProgramSummary};
use ipra_telemetry::{SpanTimer, Telemetry};
use serde::BinSerialize;
use std::borrow::{Borrow, Cow};
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

/// A build's hold on the cache it goes through: the shard, which other
/// builds may share and which the build locks around each batch of cache
/// operations only ([`BuildCache::batch`]), and the build's own side of
/// the disk tier's work ([`Io`]: its collector and its disk seconds),
/// which travels with the build rather than living on a cache other
/// builds share.
pub(crate) struct BuildCache<'c> {
    shard: &'c Mutex<CompilationCache>,
    io: Io,
}

impl<'c> BuildCache<'c> {
    /// A build through `shard` that records into `tele`.
    pub(crate) fn new(
        shard: &'c Mutex<CompilationCache>,
        tele: Option<Telemetry>,
    ) -> BuildCache<'c> {
        BuildCache { shard, io: Io { tele, seconds: 0.0 } }
    }

    /// Runs `ops`, one batch of cache operations, on the cache and the
    /// build's [`Io`], with the shard locked for the batch alone. An
    /// acquisition that finds it held records its wait as a `shard_wait`
    /// span in the build's collector.
    pub(crate) fn batch<R>(&mut self, ops: impl FnOnce(&mut CompilationCache, &mut Io) -> R) -> R {
        let guard = self.shard.try_lock().or_else(|e| match e {
            TryLockError::WouldBlock => {
                let _wait = ipra_telemetry::span(self.io.tele.as_ref(), "cache", "shard_wait");
                self.shard.lock()
            }
            TryLockError::Poisoned(poisoned) => Err(poisoned),
        });
        ops(&mut guard.expect("shard lock"), &mut self.io)
    }
}

/// Runs `build` on `cache` lent into a `Mutex`, the one way a build
/// reaches a cache: one the caller has to itself is a shard no other
/// build takes, so its batches never wait.
pub(crate) fn lend<R>(
    cache: &mut CompilationCache,
    build: impl FnOnce(&Mutex<CompilationCache>) -> R,
) -> R {
    let shard = Mutex::new(std::mem::take(cache));
    let out = build(&shard);
    *cache = shard.into_inner().expect("a build that panicked holding the shard did not return");
    out
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
/// With no key, in a build with no cache, it is the summary alone: nothing
/// is fingerprinted, and nothing reads a fingerprint.
fn phase1_head(key: Option<u64>, summary: ModuleSummary, ir: &IrModule) -> Phase1Head {
    let Some(key) = key else {
        return Phase1Head { key: 0, ir_fp: 0, callees: Vec::new(), summary, summary_fp: 0 };
    };
    let summary_fp = bin_fingerprint(&summary);
    Phase1Head { key, ir_fp: bin_fingerprint(ir), callees: direct_callees(ir), summary, summary_fp }
}

/// Phase 1's products, as the rest of a build reads them.
pub(crate) enum Front {
    /// The entries a cache handed out or stored, in source order.
    Cached(Vec<Arc<Phase1Entry>>),
    /// With no cache: the program summary and each module's IR, which the
    /// build alone holds.
    Owned(ProgramSummary, Vec<IrModule>),
}

impl Front {
    /// The entries a cache handed out or stored (none with no cache).
    pub(crate) fn entries(&self) -> &[Arc<Phase1Entry>] {
        match self {
            Front::Cached(entries) => entries,
            Front::Owned(..) => &[],
        }
    }

    /// What the analyzer reads: the build's own summary, or a copy of the
    /// entries' summaries, since phase 2 still reads the entries.
    fn summary(&self) -> Cow<'_, ProgramSummary> {
        match self {
            Front::Owned(summary, _) => Cow::Borrowed(summary),
            Front::Cached(entries) => {
                let modules = entries.iter().map(|e| e.head.summary.clone()).collect();
                Cow::Owned(ProgramSummary { modules })
            }
        }
    }

    /// Module `i`'s IR: the build's own, or its entry's, decoded on first
    /// use (`None` when that does not decode).
    fn ir(&self, i: usize) -> Option<&IrModule> {
        match self {
            Front::Owned(_, irs) => Some(&irs[i]),
            Front::Cached(entries) => entries[i].ir(),
        }
    }

    /// The program summary, once the build is done with phase 1's
    /// products: the build's own, or the entries' summaries, of which an
    /// entry the build alone holds (one a first disk hit decoded for it)
    /// gives up its own and one memory shares is copied.
    pub(crate) fn into_summary(self) -> ProgramSummary {
        let entries = match self {
            Front::Owned(summary, _) => return summary,
            Front::Cached(entries) => entries,
        };
        let summary = |e: Arc<Phase1Entry>| match Arc::try_unwrap(e) {
            Ok(alone) => alone.head.summary,
            Err(shared) => shared.head.summary.clone(),
        };
        ProgramSummary { modules: entries.into_iter().map(summary).collect() }
    }
}

/// The compiler first phase over `sources`, through `cache` when the build
/// has one: returns every module's products, in order, and fills
/// `report.phase1` and `report.phase1_steps`. A cache is asked for every
/// module in one batch, and the misses, each fingerprinted on its worker
/// as it compiles on the pool, are stored in a second. With no cache every
/// module compiles, and none is keyed or fingerprinted.
///
/// # Errors
///
/// The lowest-index module's diagnostic, once every module that did
/// compile has been kept: a cache stores their entries, so a fixed-up
/// rebuild stays incremental.
pub(crate) fn phase1(
    sources: &[SourceFile],
    optimize: bool,
    pool: Pool<'_>,
    mut cache: Option<&mut BuildCache<'_>>,
    report: &mut BuildReport,
) -> Result<Front, CompileError> {
    let (keys, found) = match &mut cache {
        Some(c) => {
            let keys: Vec<u64> = sources.iter().map(|s| phase1_key(s, optimize)).collect();
            let found: Vec<_> =
                c.batch(|c, io| keys.iter().map(|&key| c.lookup_phase1(key, io)).collect());
            (keys, found)
        }
        None => (Vec::new(), vec![None; sources.len()]),
    };
    let mut entries = Vec::with_capacity(sources.len());
    let mut misses = Vec::new();
    for (i, found) in found.into_iter().enumerate() {
        match found {
            Some((entry, from_disk)) => {
                report.phase1.hits += 1;
                report.phase1.disk_hits += usize::from(from_disk);
                entries.push(Some(entry));
            }
            None => {
                report.phase1.misses += 1;
                misses.push(i);
                entries.push(None);
            }
        }
    }
    let task = |&i: &usize| {
        let mut steps = Phase1Steps::default();
        let (summary, ir) = front_end(&sources[i], optimize, &mut steps)?;
        Ok((phase1_head(keys.get(i).copied(), summary, &ir), ir, steps))
    };
    let mut compiled = Vec::with_capacity(misses.len());
    let name = |&i: &usize| sources[i].name.as_str();
    let ran = fan_out(pool, "phase1", &misses, name, task, |&i, (head, ir, steps)| {
        report.phase1_steps.add(&steps);
        compiled.push((i, head, ir));
    });
    let Some(c) = cache else {
        ran?;
        let (modules, irs) = compiled.into_iter().map(|(_, head, ir)| (head.summary, ir)).unzip();
        return Ok(Front::Owned(ProgramSummary { modules }, irs));
    };
    if !compiled.is_empty() {
        c.batch(|c, io| {
            for (i, head, ir) in compiled {
                entries[i] = Some(c.store_phase1(head, ir, io));
            }
        });
    }
    ran?;
    Ok(Front::Cached(entries.into_iter().map(|e| e.expect("all phase-1 slots filled")).collect()))
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

/// The program analyzer over phase 1's `front` under `options`' analyzer
/// settings, through `cache`'s analysis tier when the build has a cache,
/// and fills `report.analyze`. Returns the analysis, the summary the
/// analyzer ran on when it copied one (see [`Front`]), and the decision
/// trace. A traced build always runs the analyzer, to record its
/// decisions, and stores the result like any miss. With no cache the
/// analyzer runs on the build's own summary, nothing is keyed (the
/// entry's key is zero) and nothing is stored.
pub(crate) fn analyze(
    front: &Front,
    options: &CompileOptions,
    mut cache: Option<&mut BuildCache<'_>>,
    report: &mut BuildReport,
) -> (Arc<AnalysisEntry>, Option<ProgramSummary>, Option<AnalyzerTrace>) {
    let mut key = 0;
    if let Some(c) = &mut cache {
        let fps: Vec<u64> = front.entries().iter().map(|e| e.head.summary_fp).collect();
        key = analysis_key(&fps, &options.analyzer);
        if !options.trace {
            if let Some((entry, from_disk)) = c.batch(|c, io| c.lookup_analysis(key, io)) {
                report.analyze.hits = 1;
                report.analyze.disk_hits = usize::from(from_disk);
                return (entry, None, None);
            }
        }
    }
    report.analyze.misses = 1;
    let summary = front.summary();
    let (analysis, trace) = if options.trace {
        let (analysis, trace) = analyze_traced(&summary, &options.analyzer);
        (analysis, Some(trace))
    } else {
        (ipra_core::analyze(&summary, &options.analyzer), None)
    };
    let entry = AnalysisEntry { key, database: analysis.database, stats: analysis.stats };
    let entry = match cache {
        Some(c) => c.batch(|c, io| c.store_analysis(entry, io)),
        None => Arc::new(entry),
    };
    let copy = match summary {
        Cow::Owned(copy) => Some(copy),
        Cow::Borrowed(_) => None,
    };
    (entry, copy, trace)
}

/// The IR a second phase compiles a module from: the build's own or a
/// cache entry's, or, when the entry's does not decode, phase 1 re-run
/// from source with the head that replaces the entry.
enum Ir<'a> {
    Held(&'a IrModule),
    Redone(Phase1Head, IrModule),
}

impl Borrow<IrModule> for Ir<'_> {
    fn borrow(&self) -> &IrModule {
        match self {
            Ir::Held(ir) => ir,
            Ir::Redone(_, ir) => ir,
        }
    }
}

/// The phase-2 cache keys `(ir_fp, db_fp)` of phase-1 `entries` under
/// `database` for `target`, in order: the key of (IR, database slice,
/// target) that a module's object is a function of, and so, as a list,
/// what a link of the objects is a function of.
fn phase2_keys(
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
fn link_key(keys: &[(u64, u64)], target: TargetId) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(target.name());
    h.write_u64(keys.len() as u64);
    for &(ir_fp, db_fp) in keys {
        h.write_u64(ir_fp);
        h.write_u64(db_fp);
    }
    h.finish()
}

/// What a build's phase-2 lookups found ([`probe_phase2`]).
pub(crate) struct Probe {
    /// Each module's phase-2 key, in order; none with no cache.
    pub(crate) keys: Vec<(u64, u64)>,
    /// Each hit module's object as the cache handed it out: shared with
    /// memory for a memory hit, the build's alone for a disk hit (memory
    /// kept the frame). `None` for a miss; empty with no cache.
    pub(crate) objects: Vec<Option<Arc<ObjectModule>>>,
    /// The `.vx` tier's key for the objects' link, when the build wants
    /// the text and has a cache.
    pub(crate) link_key: Option<u64>,
    /// The text the tier held for that link, asked for once every object
    /// hit.
    pub(crate) served: Option<Arc<Linked>>,
}

/// Phase 2's lookups for phase 1's `front` under `database` for `target`,
/// one batch through `cache` when the build has one, counting hits and
/// disk hits into `report.phase2`. When `vx` is set and every object hits,
/// the batch also asks the `.vx` tier for the text linked from those
/// objects. With no cache nothing is keyed or looked up. The build keeps
/// each hit's object from here on, whatever the cache does with the entry
/// meanwhile.
pub(crate) fn probe_phase2(
    front: &Front,
    database: &ProgramDatabase,
    target: TargetId,
    vx: bool,
    cache: Option<&mut BuildCache<'_>>,
    report: &mut BuildReport,
) -> Probe {
    let Some(c) = cache else {
        return Probe { keys: Vec::new(), objects: Vec::new(), link_key: None, served: None };
    };
    let keys = phase2_keys(front.entries(), database, target);
    let link_key = vx.then(|| link_key(&keys, target));
    let (objects, served) = c.batch(|c, io| {
        let objects: Vec<_> = keys.iter().map(|&key| c.lookup_phase2(key, io)).collect();
        let every_hit = objects.iter().all(Option::is_some);
        (objects, link_key.filter(|_| every_hit).and_then(|link| c.lookup_vx(link, &keys)))
    });
    for (_, from_disk) in objects.iter().flatten() {
        report.phase2.hits += 1;
        report.phase2.disk_hits += usize::from(*from_disk);
    }
    let objects = objects.into_iter().map(|found| found.map(|(object, _)| object)).collect();
    Probe { keys, objects, link_key, served }
}

/// The rest of the second phase once [`probe_phase2`] has looked `front`'s
/// modules up (`keys` and `objects` are its findings): compiles the misses
/// on the pool under `database` for `target`, stores their objects in one
/// batch through `cache` when the build has one, counts them into
/// `report.phase2` and names them in `report.recompiled`, and returns
/// every module's object, in order, as the build holds it: shared with
/// memory, or its own (a disk hit's, or one it compiled).
///
/// Only the modules it compiles read their IR. A cache entry whose IR does
/// not decode re-runs phase 1 from its source (`sources` and `optimize`
/// are what [`phase1`] was given) and replaces the cached entry; the frame
/// counts as corrupt, while `report.phase1` keeps the lookup's hit, since
/// the head was served.
///
/// # Errors
///
/// The lowest-index diagnostic of such a re-run, once every object has
/// been kept.
#[allow(clippy::too_many_arguments)] // phase 1's inputs ride along for the fallback
pub(crate) fn phase2(
    sources: &[SourceFile],
    optimize: bool,
    front: &Front,
    keys: &[(u64, u64)],
    mut objects: Vec<Option<Arc<ObjectModule>>>,
    database: &ProgramDatabase,
    target: TargetId,
    pool: Pool<'_>,
    cache: Option<&mut BuildCache<'_>>,
    report: &mut BuildReport,
) -> Result<Vec<Arc<ObjectModule>>, CompileError> {
    // With no cache the probe found nothing: every module compiles.
    objects.resize(sources.len(), None);
    let stale: Vec<usize> = (0..objects.len()).filter(|&i| objects[i].is_none()).collect();
    report.phase2.misses += stale.len();
    let task = |&i: &usize| {
        let ir = match front.ir(i) {
            Some(ir) => Ir::Held(ir),
            None => {
                let _redo = task_span(pool.tele, "phase1", &sources[i].name);
                let (summary, ir) = front_end(&sources[i], optimize, &mut Phase1Steps::default())?;
                let key = front.entries()[i].head.key;
                Ir::Redone(phase1_head(Some(key), summary, &ir), ir)
            }
        };
        let object = cmin_codegen::compile_module_for(ir.borrow(), database, target);
        Ok((Arc::new(object), ir))
    };
    let mut compiled = Vec::with_capacity(stale.len());
    let name = |&i: &usize| sources[i].name.as_str();
    let ran = fan_out(pool, "phase2", &stale, name, task, |&i, (object, ir)| {
        report.recompiled.push(sources[i].name.clone());
        let redone = match ir {
            Ir::Redone(head, ir) => Some((head, ir)),
            Ir::Held(_) => None,
        };
        compiled.push((i, object, redone));
    });
    match cache {
        Some(c) if !compiled.is_empty() => c.batch(|c, io| {
            for (i, object, redone) in compiled {
                if let Some((head, ir)) = redone {
                    c.repair_phase1(head, ir, io);
                }
                c.store_phase2(keys[i], Arc::clone(&object), io);
                objects[i] = Some(object);
            }
        }),
        _ => compiled.into_iter().for_each(|(i, object, _)| objects[i] = Some(object)),
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
