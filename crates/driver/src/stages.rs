//! The pipeline steps and the worker pool they fan out on.
//!
//! [`phase1`] and [`phase2`] are the paper's two per-module compiler
//! phases as cached steps: probe the [cache](crate::CompilationCache),
//! compute the misses on the worker pool, store the results, and count
//! hits, disk hits and misses into a [`BuildReport`]. They are the driver's
//! only place either phase runs: [`crate::compile_incremental`],
//! [`crate::separate::build_module_for`] (`cminc c`) and the staged
//! artifact build all go through them, so a cache key cannot drift
//! between the in-memory and the file-based pipelines. [`analyze`] is the
//! program analyzer as the same kind of step, keyed on
//! [`analysis_key`].

use crate::cache::{AnalysisEntry, Phase1Entry, Phase1Head, Phase2Entry};
use crate::{BuildReport, CompilationCache, CompileOptions, SourceFile};
use cmin_frontend::{analyze as check_module, parse_module, CompileError};
use cmin_ir::ir::{Callee, Inst as IrInst};
use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_artifact::ObjectArtifact;
use ipra_core::analyzer::{analyze_traced, AnalyzerOptions, PaperConfig};
use ipra_core::fingerprint::Fnv64;
use ipra_core::trace::AnalyzerTrace;
use ipra_core::ProgramDatabase;
use ipra_summary::ProgramSummary;
use ipra_telemetry::{SpanTimer, Telemetry};
use serde::BinSerialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vpr::target::TargetId;

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// preserving item order in the result. Work is pulled from a shared
/// index so uneven module sizes balance automatically.
pub(crate) fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
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

/// The compiler first phase over `sources`, through `cache`: returns one
/// entry per source, in order, and fills `report.phase1`.
///
/// # Errors
///
/// The lowest-index module's diagnostic — the one a serial left-to-right
/// compile would have reported first. Entries of the modules that did
/// compile are stored anyway, so a fixed-up rebuild stays incremental.
pub(crate) fn phase1(
    sources: &[SourceFile],
    optimize: bool,
    jobs: usize,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Result<Vec<Arc<Phase1Entry>>, CompileError> {
    let tele = cache.telemetry().cloned();
    let evictions_before = cache.stats.phase1_evictions;
    let keys: Vec<u64> = sources.iter().map(|s| phase1_key(s, optimize)).collect();
    let mut entries: Vec<Option<Arc<Phase1Entry>>> = Vec::with_capacity(sources.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match cache.lookup_phase1(key) {
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
    let computed = parallel_map(&miss_idx, jobs, |&i| {
        let _task = task_span(tele.as_ref(), "phase1", &sources[i].name);
        run_phase1(&sources[i], optimize, keys[i])
    });
    let mut first_error: Option<CompileError> = None;
    for (&i, result) in miss_idx.iter().zip(computed) {
        match result {
            Ok((head, ir)) => entries[i] = Some(cache.store_phase1(head, ir)),
            // `miss_idx` ascends, so the first error kept is the lowest-index one.
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    cache.stats.phase1_hits += report.phase1.hits as u64;
    cache.stats.phase1_misses += report.phase1.misses as u64;
    report.phase1.evictions = (cache.stats.phase1_evictions - evictions_before) as usize;
    if let Some(e) = first_error {
        return Err(e);
    }
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

/// The program analyzer over phase-1 `entries` (whose summaries make up
/// `summary`) under `options`' analyzer settings, through `cache`'s
/// analysis tier, and fills `report.analyze`. A traced build always runs
/// the analyzer, to record its decisions, and stores the result like any
/// miss.
pub(crate) fn analyze(
    entries: &[Arc<Phase1Entry>],
    summary: &ProgramSummary,
    options: &CompileOptions,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> (Arc<AnalysisEntry>, Option<AnalyzerTrace>) {
    let opts = analyzer_options(options);
    let fps: Vec<u64> = entries.iter().map(|e| e.head.summary_fp).collect();
    let key = analysis_key(&fps, &opts);
    if !options.trace {
        if let Some((entry, from_disk)) = cache.lookup_analysis(key) {
            report.analyze.hits = 1;
            report.analyze.disk_hits = usize::from(from_disk);
            return (entry, None);
        }
    }
    report.analyze.misses = 1;
    let (analysis, trace) = if options.trace {
        let (a, t) = analyze_traced(summary, &opts);
        (a, Some(t))
    } else {
        (ipra_core::analyze(summary, &opts), None)
    };
    let entry = AnalysisEntry { key, database: analysis.database, stats: analysis.stats };
    (cache.store_analysis(entry), trace)
}

/// The compiler second phase over phase-1 `entries` under `database`,
/// through `cache`, keyed on (IR, database slice, target). Returns each
/// module's object with the fingerprints codegen consumed (the `.vo`
/// payload), in order, and fills `report.phase2` and `report.recompiled`.
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
pub(crate) fn phase2(
    sources: &[SourceFile],
    optimize: bool,
    entries: &[Arc<Phase1Entry>],
    database: &ProgramDatabase,
    target: TargetId,
    jobs: usize,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Result<Vec<ObjectArtifact>, CompileError> {
    let tele = cache.telemetry().cloned();
    let evictions_before = cache.stats.phase2_evictions;
    let db_fps: Vec<u64> = entries
        .iter()
        .map(|e| {
            let fp = database.module_slice_fingerprint(
                e.head.summary.procs.iter().map(|p| p.name.as_str()),
                e.head.callees.iter().map(|s| s.as_str()),
            );
            mix_target(fp, target)
        })
        .collect();
    let mut objects: Vec<Option<ObjectArtifact>> = Vec::with_capacity(entries.len());
    let mut stale_idx: Vec<usize> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let ir_fp = e.head.ir_fp;
        match cache.lookup_phase2(ir_fp, db_fps[i]) {
            Some((object, from_disk)) => {
                report.phase2.hits += 1;
                report.phase2.disk_hits += usize::from(from_disk);
                objects.push(Some(ObjectArtifact { object, ir_fp, dir_fp: db_fps[i] }));
            }
            None => {
                report.phase2.misses += 1;
                stale_idx.push(i);
                objects.push(None);
            }
        }
    }
    let compiled = parallel_map(&stale_idx, jobs, |&i| {
        let e = &entries[i];
        let _task = task_span(tele.as_ref(), "phase2", &e.head.summary.module);
        match e.ir() {
            Some(ir) => Ok((cmin_codegen::compile_module_for(ir, database, target), None)),
            None => {
                let _redo = task_span(tele.as_ref(), "phase1", &sources[i].name);
                let (head, ir) = run_phase1(&sources[i], optimize, e.head.key)?;
                let object = cmin_codegen::compile_module_for(&ir, database, target);
                Ok((object, Some((head, ir))))
            }
        }
    });
    for (&i, result) in stale_idx.iter().zip(compiled) {
        let (object, redone) = result?;
        let (e, db_fp) = (&entries[i], db_fps[i]);
        if let Some((head, ir)) = redone {
            cache.repair_phase1(head, ir);
        }
        report.recompiled.push(e.head.summary.module.clone());
        let ir_fp = e.head.ir_fp;
        cache.store_phase2(Phase2Entry { ir_fp, db_fp, object: object.clone() });
        objects[i] = Some(ObjectArtifact { object, ir_fp, dir_fp: db_fp });
    }
    cache.stats.phase2_hits += report.phase2.hits as u64;
    cache.stats.phase2_misses += report.phase2.misses as u64;
    report.phase2.evictions = (cache.stats.phase2_evictions - evictions_before) as usize;
    Ok(objects.into_iter().map(|o| o.expect("all phase-2 slots filled")).collect())
}

/// The span of one module's task in `phase` ("phase1:NAME"), recorded
/// only when a collector is attached: without one, no name is built.
fn task_span(tele: Option<&Telemetry>, phase: &str, module: &str) -> Option<SpanTimer> {
    tele.map(|t| t.span(phase, &format!("{phase}:{module}")))
}

/// Runs the full first phase for one module.
fn run_phase1(
    src: &SourceFile,
    optimize: bool,
    key: u64,
) -> Result<(Phase1Head, IrModule), CompileError> {
    let m = parse_module(&src.name, &src.text)?;
    let info = check_module(&m)?;
    let mut ir = lower_module(&m, &info);
    if optimize {
        optimize_module(&mut ir);
    }
    let summary = ipra_summary::summarize_module(&ir);
    let summary_fp = bin_fingerprint(&summary);
    let ir_fp = bin_fingerprint(&ir);
    let callees = direct_callees(&ir);
    Ok((Phase1Head { key, ir_fp, callees, summary, summary_fp }, ir))
}

/// FNV-64 over `value`'s binary encoding.
fn bin_fingerprint(value: &impl BinSerialize) -> u64 {
    let mut encoded = Vec::new();
    value.bin_serialize(&mut encoded);
    let mut h = Fnv64::new();
    h.write(&encoded);
    h.finish()
}

/// Resolves the analyzer options a build will run under: explicit
/// [`CompileOptions::analyzer`] wins, then `config`+`profile`, then plain
/// level-2. The build's target is threaded in either way.
fn analyzer_options(options: &CompileOptions) -> AnalyzerOptions {
    let mut opts = match (&options.analyzer, options.config) {
        (Some(a), _) => a.clone(),
        (None, Some(c)) => AnalyzerOptions::paper_config(c, options.profile.clone()),
        (None, None) => AnalyzerOptions::paper_config(PaperConfig::L2, None),
    };
    opts.target = options.target;
    opts
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_core::ProfileData;

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
