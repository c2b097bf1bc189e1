//! The two-pass pipeline driven layer by layer through each crate's public
//! functions, with a span around every call — the traced run's view of an
//! op.
//!
//! A replay redoes exactly the work `ipra_driver`'s build of the same op did:
//! phase 1 for modules whose text it has not seen, the analyzer
//! (`ipra_core::analyze`, timed whole), phase 2 for the modules the build
//! recompiled, and the link. The caller asserts that the replay's
//! executable is byte-identical to `ipra_driver`'s; that check is what keeps
//! this copy of the pipeline honest when the toolchain changes.
//!
//! `ipra_core` records no spans of its own, so [`analyzer_steps`] re-runs
//! the analyzer's public sub-steps afterwards, outside the op, to split its
//! time by step.

use crate::trace::Recorder;
use cmin_ir::{lower_module, optimize_module, IrModule};
use ipra_core::analyzer::{solve_alias, AnalyzerOptions, PaperConfig, PromotionMode};
use ipra_core::cluster::{identify_clusters, Clustering};
use ipra_core::color::{
    blanket_webs, color_webs_for, prioritize, Coloring, ColoringStrategy, Prioritization,
    PrioritizedWeb,
};
use ipra_core::dataflow::{Eligibility, RefSets};
use ipra_core::regsets::compute_register_sets_for;
use ipra_core::webs::identify_webs;
use ipra_core::{AnalyzerStats, CallGraph, ProgramDatabase};
use ipra_driver::{collect_profile_from, SourceFile};
use ipra_summary::{summarize_module, ModuleSummary, ProgramSummary};
use std::collections::HashMap;
use std::rc::Rc;
use vpr::program::{link, Executable, ObjectModule};
use vpr::regs::RegSet;
use vpr::sim::{run_with, RunResult, SimOptions};
use vpr::target::TargetId;

/// The products of phase 1 for one module.
#[derive(Debug)]
pub struct Phase1 {
    /// Optimized IR.
    pub ir: IrModule,
    /// The module's summary record.
    pub summary: ModuleSummary,
}

/// Phase-1 products by module name, valid while the module's text is
/// unchanged: the replay's counterpart of `CompilationCache`'s phase-1 tier.
#[derive(Debug, Default)]
pub struct ModuleCache {
    entries: HashMap<String, (String, Rc<Phase1>)>,
}

/// Work counts of one replay, the per-layer counters of the traced run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Source bytes that went through the frontend.
    pub src_bytes: usize,
    /// IR instructions after optimization, over the modules phase 1 ran on.
    pub ir_insts: usize,
    /// What the last analyzer run found: call graph, eligible globals,
    /// webs, colored webs and clusters.
    pub analyzer: AnalyzerStats,
    /// Modules phase 2 compiled, and the machine instructions it emitted.
    pub codegen_modules: usize,
    /// See [`Counts::codegen_modules`].
    pub codegen_insts: usize,
    /// Instructions in the linked executable.
    pub link_insts: usize,
}

/// A replayed build.
#[derive(Debug)]
pub struct Built {
    /// The linked executable.
    pub exe: Executable,
    /// The analyzer's database.
    pub database: ProgramDatabase,
    /// Per-module objects, in source order.
    pub objects: Vec<ObjectModule>,
    /// The program summary the analyzer read.
    pub summary: ProgramSummary,
    /// Every analyzer run of the build, in order: its options and what it
    /// found.
    pub analyses: Vec<(AnalyzerOptions, AnalyzerStats)>,
}

/// Which modules phase 2 compiles.
#[derive(Debug)]
pub enum Phase2<'a> {
    /// Every module (a cold build).
    All,
    /// Only the named modules; the rest are taken from `reuse`, indexed
    /// like the sources (an incremental build).
    Only {
        /// Modules to compile.
        names: &'a [String],
        /// Objects for every other module.
        reuse: Vec<ObjectModule>,
    },
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Phase 1 for one module: parse, check, lower, optimize, summarize.
fn phase1(rec: &mut Recorder, src: &SourceFile, counts: &mut Counts) -> Result<Phase1, String> {
    let module = rec
        .span("frontend.parse", |_| cmin_frontend::parse_module(&src.name, &src.text))
        .map_err(err)?;
    let info = rec.span("frontend.check", |_| cmin_frontend::analyze(&module)).map_err(err)?;
    let mut ir = rec.span("ir.lower", |_| lower_module(&module, &info));
    rec.span("ir.optimize", |_| optimize_module(&mut ir));
    let summary = rec.span("summary.summarize", |_| summarize_module(&ir));
    counts.src_bytes += src.text.len();
    counts.ir_insts += ir
        .functions
        .iter()
        .map(|f| f.block_ids().map(|b| f.block(b).insts.len()).sum::<usize>())
        .sum::<usize>();
    Ok(Phase1 { ir, summary })
}

/// The analyzer's sub-steps, one span each under `core.steps`: the public
/// calls `ipra_core::analyze` makes, in its order. The build times the
/// analyzer itself, whole (`core.analyze`); this second pass only splits
/// that time by step. It skips the database assembly, caller
/// preallocation and reporting, which `core.rest_s` (the whole minus the
/// steps) covers. It must find what the analyzer found (`stats`), or the
/// split no longer describes the analyzer.
pub fn analyzer_steps(
    rec: &mut Recorder,
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
    stats: &AnalyzerStats,
) -> Result<(), String> {
    rec.span("core.steps", |rec| {
        let desc = opts.target.desc();
        let graph =
            rec.span("core.callgraph", |_| CallGraph::build(summary, opts.profile.as_ref()));
        let solution =
            opts.alias_precision.then(|| rec.span("alias.solve", |_| solve_alias(summary)));
        let elig = rec.span("core.eligibility", |_| {
            Eligibility::compute_with_alias(&graph, summary, solution.as_ref())
        });
        let refs = rec.span("core.refsets", |_| RefSets::compute(&graph, &elig));

        let (webs, coloring, webs_total) = match opts.promotion {
            PromotionMode::Off => (Vec::new(), Coloring::default(), 0),
            PromotionMode::Coloring { .. } | PromotionMode::Greedy => {
                let (webs, wstats) = rec.span("core.webs", |_| identify_webs(&graph, &elig, &refs));
                let prio = rec
                    .span("core.prioritize", |_| prioritize(&webs, &graph, &elig, &opts.discard));
                let strategy = match opts.promotion {
                    PromotionMode::Coloring { registers } => {
                        ColoringStrategy::Reserved { count: registers }
                    }
                    _ => ColoringStrategy::Greedy,
                };
                let coloring = rec
                    .span("core.color", |_| color_webs_for(&webs, &prio, strategy, &graph, desc));
                (webs, coloring, wstats.webs_total)
            }
            PromotionMode::Blanket { count } => {
                let webs = rec.span("core.webs", |_| blanket_webs(&graph, &elig, count));
                let prio = Prioritization {
                    considered: (0..webs.len())
                        .map(|i| PrioritizedWeb { web: i, priority: 0 })
                        .collect(),
                    ..Prioritization::default()
                };
                let strategy = ColoringStrategy::Reserved { count: webs.len() as u32 };
                let coloring = rec
                    .span("core.color", |_| color_webs_for(&webs, &prio, strategy, &graph, desc));
                let total = webs.len();
                (webs, coloring, total)
            }
        };

        let mut web_regs: Vec<RegSet> = vec![RegSet::new(); graph.len()];
        for (w, reg) in webs.iter().zip(&coloring.assignment) {
            if let Some(r) = reg {
                for &n in &w.nodes {
                    web_regs[n.index()].insert(*r);
                }
            }
        }
        let clustering = if opts.spill_motion {
            rec.span("core.clusters", |_| identify_clusters(&graph, &opts.cluster))
        } else {
            Clustering::default()
        };
        rec.span("core.regsets", |_| {
            std::hint::black_box(compute_register_sets_for(
                &graph,
                &clustering,
                &web_regs,
                opts.precise_web_cluster_interaction,
                desc,
            ))
        });
        let found = [
            graph.len(),
            graph.edges().len(),
            elig.len(),
            webs_total,
            coloring.colored,
            clustering.clusters.len(),
        ];
        let want = [
            stats.nodes,
            stats.edges,
            stats.eligible_globals,
            stats.webs_total,
            stats.webs_colored,
            stats.clusters,
        ];
        if found == want {
            Ok(())
        } else {
            Err(format!("analyzer steps found {found:?}, the analyzer {want:?}"))
        }
    })
}

/// One build: phase 1 where `cache` has not seen the text, the analyzer,
/// phase 2 as `phase2` says, and the link.
pub fn build(
    rec: &mut Recorder,
    cache: &mut ModuleCache,
    sources: &[SourceFile],
    opts: &AnalyzerOptions,
    phase2: Phase2<'_>,
    counts: &mut Counts,
) -> Result<Built, String> {
    let mut entries = Vec::with_capacity(sources.len());
    for src in sources {
        let cached = cache.entries.get(&src.name).filter(|(text, _)| *text == src.text);
        let entry = match cached {
            Some((_, e)) => Rc::clone(e),
            None => {
                let e = Rc::new(phase1(rec, src, counts)?);
                cache.entries.insert(src.name.clone(), (src.text.clone(), Rc::clone(&e)));
                e
            }
        };
        entries.push(entry);
    }
    let summary = ProgramSummary { modules: entries.iter().map(|e| e.summary.clone()).collect() };
    let analysis = rec.span("core.analyze", |_| ipra_core::analyze(&summary, opts));
    let database = analysis.database;
    counts.analyzer = analysis.stats.clone();
    let mut codegen = |rec: &mut Recorder, ir: &IrModule| {
        let object = rec.span("codegen.module", |_| {
            cmin_codegen::compile_module_for(ir, &database, TargetId::Vpr)
        });
        counts.codegen_modules += 1;
        counts.codegen_insts += object.functions.iter().map(|f| f.insts().len()).sum::<usize>();
        object
    };
    let objects = match phase2 {
        Phase2::All => entries.iter().map(|e| codegen(rec, &e.ir)).collect(),
        Phase2::Only { names, mut reuse } => {
            for (slot, e) in reuse.iter_mut().zip(&entries) {
                if names.contains(&e.ir.name) {
                    *slot = codegen(rec, &e.ir);
                }
            }
            reuse
        }
    };
    let exe = rec.span("link", |_| link(&objects)).map_err(err)?;
    counts.link_insts = exe.code_len();
    let analyses = vec![(opts.clone(), analysis.stats)];
    Ok(Built { exe, database, objects, summary, analyses })
}

/// `compile_configured` replayed: a plain build, or for the profile-fed
/// configurations an L2 build, a training run and a profile-fed rebuild
/// sharing one module cache. `recompiled` names the modules `compile_configured`'s
/// final build recompiled (the rest reuse the L2 build's objects, as the
/// driver's shared cache does).
pub fn configured(
    rec: &mut Recorder,
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    recompiled: &[String],
    counts: &mut Counts,
) -> Result<Built, String> {
    let mut cache = ModuleCache::default();
    if !config.wants_profile() {
        let opts = AnalyzerOptions::paper_config(config, None);
        return build(rec, &mut cache, sources, &opts, Phase2::All, counts);
    }
    let l2 = AnalyzerOptions::paper_config(PaperConfig::L2, None);
    let base = build(rec, &mut cache, sources, &l2, Phase2::All, counts)?;
    let training_opts = SimOptions { input: training_input.to_vec(), ..SimOptions::default() };
    let training = rec.span("sim.train", |_| run_with(&base.exe, &training_opts)).map_err(err)?;
    let profile = collect_profile_from(&base.exe, &training);
    let opts = AnalyzerOptions::paper_config(config, Some(profile));
    let phase2 = Phase2::Only { names: recompiled, reuse: base.objects };
    let mut built = build(rec, &mut cache, sources, &opts, phase2, counts)?;
    built.analyses.splice(0..0, base.analyses);
    Ok(built)
}

/// Runs `exe` on `input` as decode + execute spans, plus an attributed
/// run when `attributed` (checked to agree with the plain run).
pub fn run(
    rec: &mut Recorder,
    exe: &Executable,
    input: &[i64],
    attributed: bool,
) -> Result<RunResult, String> {
    let opts = SimOptions { input: input.to_vec(), ..SimOptions::default() };
    let decoded = rec.span("sim.decode", |_| vpr::decode(exe));
    let result = rec.span("sim.run", |_| decoded.run_with(&opts)).map_err(err)?;
    if attributed {
        let attr_opts = SimOptions { attribute: true, ..opts };
        let a = rec.span("sim.attr_run", |_| run_with(exe, &attr_opts)).map_err(err)?;
        let sums_match = a.attribution.as_ref().is_some_and(|t| t.matches(&a.stats));
        if a.output != result.output || a.stats != result.stats || !sums_match {
            return Err("attributed run disagrees with the plain run".to_string());
        }
    }
    Ok(result)
}
