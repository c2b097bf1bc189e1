//! The program analyzer (paper §4): orchestrates call graph construction,
//! global variable promotion, spill code motion, and program database
//! generation.

use crate::callgraph::{CallGraph, NodeId};
use crate::cluster::{identify_clusters, ClusterHeuristics, Clustering};
use crate::color::{
    blanket_webs, color_webs_for, prioritize, web_benefit, web_entry_cost, Coloring,
    ColoringStrategy, DiscardHeuristics, Prioritization, WebOutcome,
};
use crate::database::{ProcDirectives, ProgramDatabase, Promotion};
use crate::dataflow::{Eligibility, RefSets};
use crate::profile::ProfileData;
use crate::regsets::{compute_register_sets_for, RegUsage};
use crate::trace::{AnalyzerTrace, DiscardReason, TraceEvent};
use crate::webs::{identify_webs, Web, WebStats};
use ipra_summary::ProgramSummary;
use serde::{Deserialize, Serialize};
use vpr::regs::RegSet;

/// How (and whether) global variables are promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PromotionMode {
    /// No interprocedural promotion.
    Off,
    /// Web coloring with `registers` reserved callee-saves registers
    /// (Table 4 columns C/F; the paper reserves 6).
    Coloring {
        /// Reserved register count.
        registers: u32,
    },
    /// Greedy coloring: any callee-saves register not needed locally by a
    /// member procedure (column D).
    Greedy,
    /// Blanket promotion of the `count` hottest globals program-wide, the
    /// [Wall 86] baseline (column E).
    Blanket {
        /// Number of globals promoted program-wide.
        count: usize,
    },
}

/// The paper's measured configurations (Table 4 legend). `L2` is the
/// baseline: level-2 optimization with no interprocedural allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperConfig {
    /// Baseline: no interprocedural register allocation.
    L2,
    /// Spill code motion only.
    A,
    /// Spill code motion with profile data.
    B,
    /// Spill motion + web coloring with 6 reserved registers.
    C,
    /// Spill motion + greedy coloring.
    D,
    /// Spill motion + blanket promotion of the 6 hottest globals.
    E,
    /// Configuration C with profile data.
    F,
    /// Configuration C with interprocedural alias analysis replacing the
    /// blanket address-taken rejection (not in the paper's table; the
    /// extension this reproduction adds).
    P,
}

impl PaperConfig {
    /// The paper's measured configurations, in table order.
    pub const ALL: [PaperConfig; 7] = [
        PaperConfig::L2,
        PaperConfig::A,
        PaperConfig::B,
        PaperConfig::C,
        PaperConfig::D,
        PaperConfig::E,
        PaperConfig::F,
    ];

    /// The paper's configurations plus the alias-precision extension.
    pub const ALL_WITH_ALIAS: [PaperConfig; 8] = [
        PaperConfig::L2,
        PaperConfig::A,
        PaperConfig::B,
        PaperConfig::C,
        PaperConfig::D,
        PaperConfig::E,
        PaperConfig::F,
        PaperConfig::P,
    ];

    /// Does this configuration consume profile data?
    pub fn wants_profile(self) -> bool {
        matches!(self, PaperConfig::B | PaperConfig::F)
    }

    /// The table column label.
    pub fn label(self) -> &'static str {
        match self {
            PaperConfig::L2 => "L2",
            PaperConfig::A => "A",
            PaperConfig::B => "B",
            PaperConfig::C => "C",
            PaperConfig::D => "D",
            PaperConfig::E => "E",
            PaperConfig::F => "F",
            PaperConfig::P => "P",
        }
    }

    /// Parses a configuration label (the inverse of [`label`](Self::label)).
    pub fn parse(s: &str) -> Option<PaperConfig> {
        PaperConfig::ALL_WITH_ALIAS.into_iter().find(|c| c.label() == s)
    }
}

impl std::fmt::Display for PaperConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Analyzer options.
///
/// Every field is part of the serialized form, so the driver's analysis
/// cache, keyed on the binary encoding, sees every option by construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzerOptions {
    /// Perform spill code motion (clusters + register usage sets)?
    pub spill_motion: bool,
    /// Promotion strategy.
    pub promotion: PromotionMode,
    /// Profile data (configurations B/F); `None` = heuristic counts.
    pub profile: Option<ProfileData>,
    /// Web discard thresholds.
    pub discard: DiscardHeuristics,
    /// Cluster root selection thresholds.
    pub cluster: ClusterHeuristics,
    /// Use the §7.6.2 refinement for web/cluster register interaction.
    pub precise_web_cluster_interaction: bool,
    /// Enable the §7.6.2 caller-saves preallocation extension ([Chow 88]
    /// style bottom-up claim propagation).
    pub caller_preallocation: bool,
    /// Replace the blanket address-taken rejection with the interprocedural
    /// points-to/mod-ref analysis (configuration P).
    pub alias_precision: bool,
    /// The target convention the directives are expressed over. The
    /// analysis itself is target-independent (§2); only the concrete
    /// register names drawn for webs, clusters and claims depend on this.
    pub target: vpr::target::TargetId,
}

impl Default for AnalyzerOptions {
    fn default() -> AnalyzerOptions {
        AnalyzerOptions {
            spill_motion: true,
            promotion: PromotionMode::Coloring { registers: 6 },
            profile: None,
            discard: DiscardHeuristics::default(),
            cluster: ClusterHeuristics::default(),
            precise_web_cluster_interaction: false,
            caller_preallocation: false,
            alias_precision: false,
            target: vpr::target::TargetId::Vpr,
        }
    }
}

impl AnalyzerOptions {
    /// Options matching one of the paper's measured configurations.
    /// Configurations B and F require `profile` to be supplied.
    pub fn paper_config(config: PaperConfig, profile: Option<ProfileData>) -> AnalyzerOptions {
        let base = AnalyzerOptions::default();
        match config {
            PaperConfig::L2 => AnalyzerOptions {
                spill_motion: false,
                promotion: PromotionMode::Off,
                profile: None,
                ..base
            },
            PaperConfig::A => {
                AnalyzerOptions { promotion: PromotionMode::Off, profile: None, ..base }
            }
            PaperConfig::B => AnalyzerOptions { promotion: PromotionMode::Off, profile, ..base },
            PaperConfig::C => AnalyzerOptions {
                promotion: PromotionMode::Coloring { registers: 6 },
                profile: None,
                ..base
            },
            PaperConfig::D => {
                AnalyzerOptions { promotion: PromotionMode::Greedy, profile: None, ..base }
            }
            PaperConfig::E => AnalyzerOptions {
                promotion: PromotionMode::Blanket { count: 6 },
                profile: None,
                ..base
            },
            PaperConfig::F => AnalyzerOptions {
                promotion: PromotionMode::Coloring { registers: 6 },
                profile,
                ..base
            },
            PaperConfig::P => AnalyzerOptions {
                promotion: PromotionMode::Coloring { registers: 6 },
                profile: None,
                alias_precision: true,
                ..base
            },
        }
    }
}

/// Statistics from one analyzer run (the paper's §6.2 reporting).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerStats {
    /// Call graph nodes.
    pub nodes: usize,
    /// Call graph edges.
    pub edges: usize,
    /// Eligible globals.
    pub eligible_globals: usize,
    /// Webs identified.
    pub webs_total: usize,
    /// Webs surviving the discard heuristics.
    pub webs_considered: usize,
    /// Webs successfully colored.
    pub webs_colored: usize,
    /// Webs discarded as sparse.
    pub discarded_sparse: usize,
    /// Webs discarded as trivial singletons.
    pub discarded_trivial: usize,
    /// Webs discarded as unprofitable.
    pub discarded_unprofitable: usize,
    /// Webs discarded for crossing a static's module boundary.
    pub discarded_static: usize,
    /// Clusters identified.
    pub clusters: usize,
    /// Average cluster size (root + members).
    pub avg_cluster_size: f64,
}

/// A human-readable record of one identified web (reporting only; the
/// second phase works from the [`ProgramDatabase`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WebReport {
    /// The promoted global's link name.
    pub sym: String,
    /// Member procedure names, ascending by call-graph id.
    pub nodes: Vec<String>,
    /// Entry procedure names.
    pub entries: Vec<String>,
    /// The register the web was colored to, if any.
    pub reg: Option<vpr::regs::Reg>,
    /// Does any member write the global?
    pub written: bool,
}

/// The analyzer result: the database the second phase consumes plus the
/// run's statistics and reporting.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-procedure directives.
    pub database: ProgramDatabase,
    /// Reporting statistics.
    pub stats: AnalyzerStats,
    /// The identified webs with their coloring (empty when promotion is
    /// off; covers discarded/uncolored webs too, with `reg: None`).
    pub webs: Vec<WebReport>,
}

/// Runs the program analyzer over a program's summary files.
pub fn analyze(summary: &ProgramSummary, opts: &AnalyzerOptions) -> Analysis {
    analyze_impl(summary, opts, None)
}

/// Runs the analyzer while recording its [decision trace](crate::trace).
///
/// The returned [`Analysis`] is identical to what [`analyze`] produces for
/// the same inputs; tracing is observation only.
pub fn analyze_traced(
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
) -> (Analysis, AnalyzerTrace) {
    let mut trace = AnalyzerTrace { target: opts.target, ..AnalyzerTrace::default() };
    let analysis = analyze_impl(summary, opts, Some(&mut trace));
    (analysis, trace)
}

/// Runs the interprocedural alias analysis over the summaries' embedded
/// constraint records. Roots: `main` when defined (a closed-world
/// executable, so uncalled procedures are dead code); otherwise every
/// procedure (the open-world stance for partial programs, §7.2).
pub fn solve_alias(summary: &ProgramSummary) -> ipra_alias::Solution {
    let procs: std::collections::BTreeMap<String, &ipra_alias::ProcConstraints> =
        summary.procs().map(|p| (p.name.clone(), &p.alias)).collect();
    let roots: Vec<String> =
        if procs.contains_key("main") { vec!["main".to_string()] } else { Vec::new() };
    ipra_alias::solve(&procs, &roots)
}

fn analyze_impl(
    summary: &ProgramSummary,
    opts: &AnalyzerOptions,
    mut trace: Option<&mut AnalyzerTrace>,
) -> Analysis {
    let desc = opts.target.desc();
    let graph = CallGraph::build(summary, opts.profile.as_ref());
    let alias_solution = if opts.alias_precision { Some(solve_alias(summary)) } else { None };
    let elig = Eligibility::compute_with_alias(&graph, summary, alias_solution.as_ref());
    let refs = RefSets::compute(&graph, &elig);

    if let (Some(t), Some(sol)) = (trace.as_deref_mut(), alias_solution.as_ref()) {
        emit_alias_events(t, &graph, summary, sol);
    }

    let mut stats = AnalyzerStats {
        nodes: graph.len(),
        edges: graph.edges().len(),
        eligible_globals: elig.len(),
        ..AnalyzerStats::default()
    };

    // --- Global variable promotion (§4.1) ---
    let mut wstats_opt: Option<WebStats> = None;
    let mut prio_opt: Option<Prioritization> = None;
    let (webs, coloring): (Vec<Web>, Coloring) = match opts.promotion {
        PromotionMode::Off => (Vec::new(), Coloring::default()),
        PromotionMode::Coloring { registers } => {
            let (webs, wstats) = identify_webs(&graph, &elig, &refs);
            let prio = prioritize(&webs, &graph, &elig, &opts.discard);
            record_web_stats(&mut stats, &wstats, &prio);
            let coloring = color_webs_for(
                &webs,
                &prio,
                ColoringStrategy::Reserved { count: registers },
                &graph,
                desc,
            );
            stats.webs_colored = coloring.colored;
            wstats_opt = Some(wstats);
            prio_opt = Some(prio);
            (webs, coloring)
        }
        PromotionMode::Greedy => {
            let (webs, wstats) = identify_webs(&graph, &elig, &refs);
            let prio = prioritize(&webs, &graph, &elig, &opts.discard);
            record_web_stats(&mut stats, &wstats, &prio);
            let coloring = color_webs_for(&webs, &prio, ColoringStrategy::Greedy, &graph, desc);
            stats.webs_colored = coloring.colored;
            wstats_opt = Some(wstats);
            prio_opt = Some(prio);
            (webs, coloring)
        }
        PromotionMode::Blanket { count } => {
            let webs = blanket_webs(&graph, &elig, count);
            stats.webs_total = webs.len();
            stats.webs_considered = webs.len();
            // Blanket webs all interfere pairwise; reserving one register
            // per web colors them deterministically.
            let prio = Prioritization {
                considered: (0..webs.len())
                    .map(|i| crate::color::PrioritizedWeb { web: i, priority: 0 })
                    .collect(),
                ..Prioritization::default()
            };
            let coloring = color_webs_for(
                &webs,
                &prio,
                ColoringStrategy::Reserved { count: webs.len() as u32 },
                &graph,
                desc,
            );
            stats.webs_colored = coloring.colored;
            (webs, coloring)
        }
    };

    if let Some(t) = trace.as_deref_mut() {
        emit_web_events(t, &graph, &elig, &webs, &coloring, &wstats_opt, &prio_opt);
    }

    // Registers dedicated to promoted globals, per node.
    let mut web_regs: Vec<RegSet> = vec![RegSet::new(); graph.len()];
    for (w, reg) in webs.iter().zip(&coloring.assignment) {
        if let Some(r) = reg {
            for &n in &w.nodes {
                web_regs[n.index()].insert(*r);
            }
        }
    }
    let web_reports: Vec<WebReport> = webs
        .iter()
        .zip(&coloring.assignment)
        .map(|(w, reg)| WebReport {
            sym: elig.global(w.global).sym.clone(),
            nodes: w.nodes.iter().map(|&n| graph.node(n).name.clone()).collect(),
            entries: w.entries.iter().map(|&n| graph.node(n).name.clone()).collect(),
            reg: *reg,
            written: w.written,
        })
        .collect();

    // --- Spill code motion (§4.2) ---
    let clustering = if opts.spill_motion {
        identify_clusters(&graph, &opts.cluster)
    } else {
        Clustering::default()
    };
    stats.clusters = clustering.clusters.len();
    stats.avg_cluster_size = clustering.average_size();

    let usage = compute_register_sets_for(
        &graph,
        &clustering,
        &web_regs,
        opts.precise_web_cluster_interaction,
        desc,
    );

    if let Some(t) = trace.as_deref_mut() {
        emit_cluster_events(t, &graph, &clustering, &usage);
    }

    // --- Caller-saves preallocation (§7.6.2 extension) ---
    let tree_caller = if opts.caller_preallocation {
        Some(crate::caller_prealloc::compute_tree_caller_for(&graph, desc))
    } else {
        None
    };
    if let (Some(t), Some(tree)) = (trace, &tree_caller) {
        for n in graph.node_ids() {
            if !graph.node(n).defined {
                continue;
            }
            t.push(TraceEvent::CallerClaimGranted {
                proc: graph.node(n).name.clone(),
                claimed: crate::caller_prealloc::own_claim_for(&graph, n, desc),
                safe_across: desc.claim_pool_set() - tree[n.index()],
            });
        }
    }

    // --- Program database (§4.3) ---
    // Each colored web's promotion at each member, gathered per node in
    // web order.
    let mut promotions_at: Vec<Vec<Promotion>> = vec![Vec::new(); graph.len()];
    for (w, reg) in webs.iter().zip(&coloring.assignment) {
        let Some(r) = reg else { continue };
        for &n in &w.nodes {
            let is_entry = w.is_entry(n);
            promotions_at[n.index()].push(Promotion {
                sym: elig.global(w.global).sym.clone(),
                reg: *r,
                is_entry,
                store_at_exit: is_entry && w.written,
            });
        }
    }
    let mut database = ProgramDatabase::new();
    for n in graph.node_ids() {
        if !graph.node(n).defined {
            continue;
        }
        let mut promotions = std::mem::take(&mut promotions_at[n.index()]);
        promotions.sort_by(|a, b| a.sym.cmp(&b.sym));
        let (claimed_caller, safe_caller_across) = match &tree_caller {
            Some(tree) => (
                crate::caller_prealloc::own_claim_for(&graph, n, desc),
                desc.claim_pool_set() - tree[n.index()],
            ),
            None => (desc.claim_pool_set(), vpr::regs::RegSet::new()),
        };
        database.insert(ProcDirectives {
            name: graph.node(n).name.clone(),
            promotions,
            usage: usage[n.index()],
            is_cluster_root: clustering.is_root(n),
            claimed_caller,
            safe_caller_across,
        });
    }
    Analysis { database, stats, webs: web_reports }
}

/// Records the alias-precision verdict for every address-taken global: an
/// `AliasPromotable` event when the points-to analysis keeps a global the
/// blanket rule would demote, an `AliasDemoted` event (with the witnessing
/// procedure) when memory residence is confirmed. Emitted in symbol order,
/// before the web events, since eligibility precedes web formation.
fn emit_alias_events(
    t: &mut AnalyzerTrace,
    graph: &CallGraph,
    summary: &ProgramSummary,
    sol: &ipra_alias::Solution,
) {
    let mut blanket = Eligibility::blanket_aliased(summary);
    blanket.sort();
    let demoted = Eligibility::alias_aliased(graph, summary, sol);
    for sym in &blanket {
        if demoted.contains(sym) {
            continue;
        }
        let justification = match sol.ind_ref_witness(sym) {
            Some(w) => {
                format!("only read through pointers (e.g. in {w}); never written in reachable code")
            }
            None => "address never dereferenced or leaked in reachable code".to_string(),
        };
        t.push(TraceEvent::AliasPromotable { sym: sym.clone(), justification });
    }
    for sym in &demoted {
        let justification = if sol.is_escaped(sym) {
            match sol.escape_witness.get(sym) {
                Some(w) => format!("address escapes to unknown code (leaked in {w})"),
                None => "address escapes to unknown code".to_string(),
            }
        } else if let Some(w) = sol.ind_mod_witness(sym) {
            format!("may be written through a pointer in {w}")
        } else if let Some(w) = sol.ind_ref_witness(sym) {
            format!("read through a pointer in {w} while also written directly")
        } else {
            // Demoted by the call-graph/points-to reachability gap: the
            // pointer access sits in code only the §7.3 indirect-call rule
            // can reach, but that code is emitted and checked.
            "accessed through a pointer in emitted code the points-to solve cannot prove live"
                .to_string()
        };
        t.push(TraceEvent::AliasDemoted { sym: sym.clone(), justification });
    }
}

/// Records the promotion decisions: one `WebFormed` per identified web (in
/// web-index order) followed by its fate — discarded (with the heuristic
/// that fired), colored (plus `ExitStoreSuppressed` for read-only webs), or
/// uncolored. §7.4 static discards come first; they never enter the web
/// list.
fn emit_web_events(
    t: &mut AnalyzerTrace,
    graph: &CallGraph,
    elig: &Eligibility,
    webs: &[Web],
    coloring: &Coloring,
    wstats: &Option<WebStats>,
    prio: &Option<Prioritization>,
) {
    let names =
        |ns: &[NodeId]| -> Vec<String> { ns.iter().map(|&n| graph.node(n).name.clone()).collect() };
    if let Some(ws) = wstats {
        for (sym, nodes) in &ws.static_discards {
            t.push(TraceEvent::WebDiscarded {
                web: None,
                sym: sym.clone(),
                nodes: nodes.clone(),
                reason: DiscardReason::StaticCrossModule,
                benefit: 0,
                entry_cost: 0,
            });
        }
    }
    for (i, w) in webs.iter().enumerate() {
        let sym = elig.global(w.global).sym.clone();
        let outcome = prio.as_ref().map(|p| p.outcomes[i]);
        let (benefit, entry_cost) = match outcome {
            Some(oc) => (oc.benefit(), oc.cost()),
            // Blanket webs bypass prioritization; measure directly.
            None => (web_benefit(w, graph, elig), web_entry_cost(w, graph)),
        };
        t.push(TraceEvent::WebFormed {
            web: i,
            sym: sym.clone(),
            nodes: names(&w.nodes),
            entries: names(&w.entries),
            written: w.written,
            benefit,
            entry_cost,
        });
        let discard = match outcome {
            Some(WebOutcome::Sparse { .. }) => Some(DiscardReason::Sparse),
            Some(WebOutcome::Trivial { .. }) => Some(DiscardReason::Trivial),
            Some(WebOutcome::Unprofitable { .. }) => Some(DiscardReason::Unprofitable),
            Some(WebOutcome::Considered { .. }) | None => None,
        };
        if let Some(reason) = discard {
            t.push(TraceEvent::WebDiscarded {
                web: Some(i),
                sym,
                nodes: names(&w.nodes),
                reason,
                benefit,
                entry_cost,
            });
            continue;
        }
        let priority = match outcome {
            Some(WebOutcome::Considered { priority, .. }) => priority,
            _ => 0,
        };
        match coloring.assignment[i] {
            Some(reg) => {
                t.push(TraceEvent::WebColored {
                    web: i,
                    sym: sym.clone(),
                    nodes: names(&w.nodes),
                    entries: names(&w.entries),
                    reg,
                    priority,
                });
                if !w.written {
                    t.push(TraceEvent::ExitStoreSuppressed {
                        web: i,
                        sym,
                        entries: names(&w.entries),
                    });
                }
            }
            None => {
                t.push(TraceEvent::WebUncolored { web: i, sym, nodes: names(&w.nodes) });
            }
        }
    }
}

/// Records spill-motion decisions: each cluster, the MSPILL set hoisted to
/// its root, and every FREE grant a member received.
fn emit_cluster_events(
    t: &mut AnalyzerTrace,
    graph: &CallGraph,
    clustering: &Clustering,
    usage: &[RegUsage],
) {
    let name = |n: NodeId| graph.node(n).name.clone();
    for c in &clustering.clusters {
        let members: Vec<String> = c.members.iter().map(|&m| name(m)).collect();
        t.push(TraceEvent::ClusterFormed { root: name(c.root), members: members.clone() });
        let mspill = usage[c.root.index()].mspill;
        if !mspill.is_empty() {
            t.push(TraceEvent::SpillHoisted { root: name(c.root), regs: mspill, members });
        }
    }
    for n in graph.node_ids() {
        if graph.node(n).defined && !usage[n.index()].free.is_empty() {
            t.push(TraceEvent::FreeRegsGranted { proc: name(n), regs: usage[n.index()].free });
        }
    }
}

fn record_web_stats(stats: &mut AnalyzerStats, wstats: &WebStats, prio: &Prioritization) {
    stats.webs_total = wstats.webs_total;
    stats.discarded_static = wstats.discarded_static;
    stats.webs_considered = prio.considered.len();
    stats.discarded_sparse = prio.discarded_sparse;
    stats.discarded_trivial = prio.discarded_trivial;
    stats.discarded_unprofitable = prio.discarded_unprofitable;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::testutil::{figure3, summary};
    use vpr::regs::Reg;
    use vpr::target::TargetId;

    #[test]
    fn figure3_full_analysis_matches_table2() {
        let s = figure3();
        let analysis = analyze(&s, &AnalyzerOptions::default());
        let st = &analysis.stats;
        assert_eq!(st.eligible_globals, 3);
        assert_eq!(st.webs_total, 4);
        assert_eq!(st.webs_colored, 4);

        let db = &analysis.database;
        // B is an entry of g1's web (Table 2 commentary).
        let b = db.lookup_for("B", TargetId::Vpr);
        let g1 = b.promotions.iter().find(|p| p.sym == "g1").unwrap();
        assert!(g1.is_entry);
        assert!(g1.store_at_exit);
        // D holds g1 in the same register, not as an entry.
        let d = db.lookup_for("D", TargetId::Vpr);
        let g1d = d.promotions.iter().find(|p| p.sym == "g1").unwrap();
        assert_eq!(g1d.reg, g1.reg);
        assert!(!g1d.is_entry);
        // C carries both g3 and g2 in different registers.
        let c = db.lookup_for("C", TargetId::Vpr);
        assert_eq!(c.promotions.len(), 2);
        assert_ne!(c.promotions[0].reg, c.promotions[1].reg);
        // H has no promotions.
        assert!(db.lookup_for("H", TargetId::Vpr).promotions.is_empty());
        // Web registers are excluded from the node's usage sets.
        for p in &c.promotions {
            assert!(!c.usage.callee.contains(p.reg));
            assert!(!c.usage.caller.contains(p.reg));
            assert!(!c.usage.free.contains(p.reg));
        }
    }

    #[test]
    fn l2_config_produces_standard_directives() {
        let s = figure3();
        let analysis = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::L2, None));
        for d in analysis.database.iter() {
            assert!(d.promotions.is_empty());
            assert!(!d.is_cluster_root);
            assert_eq!(d.usage, crate::regsets::RegUsage::standard_for(&vpr::target::VPR));
        }
        assert_eq!(analysis.stats.webs_total, 0);
        assert_eq!(analysis.stats.clusters, 0);
    }

    #[test]
    fn spill_only_config_has_no_promotions() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &["g"]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[], &["g"]),
                ("t", &[], &[]),
            ],
            &["g"],
        );
        let analysis = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::A, None));
        assert_eq!(analysis.stats.webs_total, 0);
        assert!(analysis.stats.clusters >= 1);
        let r = analysis.database.lookup_for("r", TargetId::Vpr);
        assert!(r.is_cluster_root);
        assert!(!r.usage.mspill.is_empty());
        let s_ = analysis.database.lookup_for("s", TargetId::Vpr);
        assert!(!s_.usage.free.is_empty());
        assert!(s_.promotions.is_empty());
    }

    #[test]
    fn blanket_config_promotes_program_wide() {
        let s = figure3();
        let analysis = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::E, None));
        assert_eq!(analysis.stats.webs_colored, 3); // g1, g2, g3
                                                    // Every defined node carries all three promotions.
        for name in ["A", "B", "C", "D", "E", "F", "G", "H"] {
            let d = analysis.database.lookup_for(name, TargetId::Vpr);
            assert_eq!(d.promotions.len(), 3, "{name}: {:?}", d.promotions);
            // Only the start node A is an entry.
            for p in &d.promotions {
                assert_eq!(p.is_entry, name == "A");
            }
        }
        // Three distinct registers.
        let a = analysis.database.lookup_for("A", TargetId::Vpr);
        let regs: std::collections::HashSet<Reg> = a.promotions.iter().map(|p| p.reg).collect();
        assert_eq!(regs.len(), 3);
    }

    /// The paper's directives are target-independent *structure* (§2):
    /// which globals form webs over which nodes, and where clusters root,
    /// are properties of the call graph and reference sets — only the
    /// concrete registers the structure is colored onto belong to the
    /// machine description. Figure 3 must therefore produce the same
    /// webs/clusters shape on both targets.
    #[test]
    fn figure3_directives_are_structurally_portable_across_targets() {
        let s = figure3();
        let on = |target| {
            analyze(
                &s,
                &AnalyzerOptions { target, ..AnalyzerOptions::paper_config(PaperConfig::C, None) },
            )
        };
        let v = on(TargetId::Vpr);
        let r = on(TargetId::Rv32);

        // Same web/cluster structure in the aggregate...
        assert_eq!(v.stats.webs_total, r.stats.webs_total);
        assert_eq!(v.stats.webs_colored, r.stats.webs_colored);
        assert_eq!(v.stats.clusters, r.stats.clusters);
        assert_eq!(v.stats.eligible_globals, r.stats.eligible_globals);

        // ...and web by web: same globals over the same nodes with the
        // same entries, both colored — onto each target's own registers.
        assert_eq!(v.webs.len(), r.webs.len());
        for (wv, wr) in v.webs.iter().zip(&r.webs) {
            assert_eq!(wv.sym, wr.sym);
            assert_eq!(wv.nodes, wr.nodes);
            assert_eq!(wv.entries, wr.entries);
            assert_eq!(wv.reg.is_some(), wr.reg.is_some(), "web {}", wv.sym);
            if let Some(reg) = wv.reg {
                assert!(vpr::target::VPR.callee_saves.contains(reg));
            }
            if let Some(reg) = wr.reg {
                assert!(vpr::target::RV32.callee_saves.contains(reg));
            }
        }

        // Per-procedure: identical promotion and cluster structure.
        for d in v.database.iter() {
            let other = r.database.lookup_for(&d.name, TargetId::Rv32);
            assert_eq!(d.is_cluster_root, other.is_cluster_root, "{}", d.name);
            let shape = |p: &crate::database::ProcDirectives| {
                p.promotions
                    .iter()
                    .map(|x| (x.sym.clone(), x.is_entry, x.store_at_exit))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(d), shape(&other), "{}", d.name);
        }
    }

    #[test]
    fn greedy_config_runs() {
        let s = figure3();
        let analysis = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::D, None));
        assert_eq!(analysis.stats.webs_total, 4);
        assert!(analysis.stats.webs_colored >= 1);
    }

    #[test]
    fn paper_config_labels_parse_back() {
        for c in PaperConfig::ALL_WITH_ALIAS {
            assert_eq!(PaperConfig::parse(c.label()), Some(c));
        }
        assert_eq!(PaperConfig::parse("G"), None);
        assert_eq!(PaperConfig::parse("l2"), None);
    }

    #[test]
    fn paper_config_profile_plumbing() {
        assert!(PaperConfig::B.wants_profile());
        assert!(PaperConfig::F.wants_profile());
        assert!(!PaperConfig::C.wants_profile());
        let mut p = ProfileData::new();
        p.record_edge("A", "B", 42);
        let opts = AnalyzerOptions::paper_config(PaperConfig::F, Some(p.clone()));
        assert_eq!(opts.profile, Some(p));
        let opts = AnalyzerOptions::paper_config(PaperConfig::C, Some(ProfileData::new()));
        assert_eq!(opts.profile, None, "C must ignore profile data");
    }

    #[test]
    fn database_covers_only_defined_procs() {
        let s = summary(&[("main", &[("libc_read", 5)], &["g"])], &["g"]);
        let analysis = analyze(&s, &AnalyzerOptions::default());
        assert!(analysis.database.get("main").is_some());
        assert!(analysis.database.get("libc_read").is_none());
    }

    #[test]
    fn web_reports_cover_all_webs() {
        let s = figure3();
        let analysis = analyze(&s, &AnalyzerOptions::default());
        assert_eq!(analysis.webs.len(), 4);
        let g3 = analysis.webs.iter().find(|w| w.sym == "g3").unwrap();
        assert_eq!(g3.nodes, vec!["A", "B", "C"]);
        assert_eq!(g3.entries, vec!["A"]);
        assert!(g3.reg.is_some());
        assert!(g3.written);
        // Promotion off: no reports.
        let analysis = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::A, None));
        assert!(analysis.webs.is_empty());
    }

    #[test]
    fn traced_analysis_is_identical_and_records_decisions() {
        let s = figure3();
        let plain = analyze(&s, &AnalyzerOptions::default());
        let (traced, trace) = analyze_traced(&s, &AnalyzerOptions::default());
        // Tracing is observation only.
        assert_eq!(plain.database, traced.database);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.webs, traced.webs);

        let formed =
            trace.events.iter().filter(|e| matches!(e, TraceEvent::WebFormed { .. })).count();
        let colored =
            trace.events.iter().filter(|e| matches!(e, TraceEvent::WebColored { .. })).count();
        assert_eq!(formed, 4, "{trace:?}");
        assert_eq!(colored, 4);
        // Web events carry positive measured benefit on this example.
        for e in &trace.events {
            if let TraceEvent::WebFormed { benefit, .. } = e {
                assert!(*benefit > 0);
            }
        }
        // The causal chain for g1 mentions its entry node B.
        assert!(trace.for_symbol("g1").iter().any(|e| e.mentions("B")));
        // Clusters/hoists recorded for the spill-motion side.
        let has_cluster =
            trace.events.iter().any(|e| matches!(e, TraceEvent::ClusterFormed { .. }));
        assert_eq!(has_cluster, plain.stats.clusters > 0);
    }

    #[test]
    fn traced_analysis_records_discards_with_reasons() {
        // Long chain with refs only at the ends: the single web is sparse
        // under a 0.5 ratio threshold.
        let s = summary(
            &[
                ("main", &[("c1", 1)], &["g"]),
                ("c1", &[("c2", 1)], &[]),
                ("c2", &[("c3", 1)], &[]),
                ("c3", &[("end", 1)], &[]),
                ("end", &[], &["g"]),
            ],
            &["g"],
        );
        let opts = AnalyzerOptions {
            discard: DiscardHeuristics { min_lref_ratio: 0.5, min_singleton_refs: 0 },
            ..AnalyzerOptions::default()
        };
        let (analysis, trace) = analyze_traced(&s, &opts);
        assert_eq!(analysis.stats.discarded_sparse, 1);
        let discard = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::WebDiscarded { reason, benefit, .. } => Some((*reason, *benefit)),
                _ => None,
            })
            .expect("discard event");
        assert_eq!(discard.0, DiscardReason::Sparse);
        assert!(discard.1 > 0, "benefit estimate recorded at discard time");
        // Discarded webs are never colored.
        assert!(!trace.events.iter().any(|e| matches!(e, TraceEvent::WebColored { .. })));
    }

    #[test]
    fn traced_analysis_records_caller_claims() {
        let s = figure3();
        let opts = AnalyzerOptions { caller_preallocation: true, ..AnalyzerOptions::default() };
        let (plain_like, trace) = analyze_traced(&s, &opts);
        let claims: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CallerClaimGranted { .. }))
            .collect();
        assert_eq!(claims.len(), 8); // one per defined procedure A..H
        let plain = analyze(&s, &opts);
        assert_eq!(plain.database, plain_like.database);
    }

    #[test]
    fn stats_config_labels() {
        assert_eq!(PaperConfig::ALL.len(), 7);
        assert_eq!(PaperConfig::ALL_WITH_ALIAS.len(), 8);
        assert!(!PaperConfig::ALL.contains(&PaperConfig::P));
        assert_eq!(PaperConfig::ALL_WITH_ALIAS[7], PaperConfig::P);
        assert_eq!(PaperConfig::C.to_string(), "C");
        assert_eq!(PaperConfig::L2.to_string(), "L2");
        assert_eq!(PaperConfig::P.to_string(), "P");
        assert!(!PaperConfig::P.wants_profile());
    }

    #[test]
    fn alias_precision_config_promotes_read_only_aliased_global() {
        use ipra_alias::{Constraint, Node, ProcConstraints};
        let mut s = summary(&[("main", &[], &["g"])], &["g"]);
        // main reads g through a pointer and never writes it at all.
        s.modules[0].procs[0].global_refs[0].written = false;
        s.modules[0].procs[0].global_refs[0].ptr_ref = true;
        s.modules[0].procs[0].alias = ProcConstraints {
            params: 0,
            constraints: vec![
                Constraint::AddrGlobal { dst: Node::Var(0), sym: "g".into() },
                Constraint::Load { dst: Node::Var(1), addr: Node::Var(0) },
            ],
        };
        let blanket = analyze(&s, &AnalyzerOptions::paper_config(PaperConfig::C, None));
        assert_eq!(blanket.stats.eligible_globals, 0);
        let (precise, trace) =
            analyze_traced(&s, &AnalyzerOptions::paper_config(PaperConfig::P, None));
        assert_eq!(precise.stats.eligible_globals, 1);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::AliasPromotable { sym, .. } if sym == "g")));
        // With a direct write added, the register copy a pointer read sees
        // would go stale: config P must demote again, with a witness.
        s.modules[0].procs[0].global_refs[0].written = true;
        let (demoted, trace) =
            analyze_traced(&s, &AnalyzerOptions::paper_config(PaperConfig::P, None));
        assert_eq!(demoted.stats.eligible_globals, 0);
        assert!(trace.events.iter().any(|e| matches!(
            e,
            TraceEvent::AliasDemoted { sym, justification } if sym == "g" && justification.contains("main")
        )));
    }

    #[test]
    fn alias_events_do_not_perturb_the_database() {
        use ipra_alias::{Constraint, Node, ProcConstraints};
        let mut s = figure3();
        s.modules[0].procs[1].alias = ProcConstraints {
            params: 0,
            constraints: vec![
                Constraint::AddrGlobal { dst: Node::Var(0), sym: "g1".into() },
                Constraint::Store { addr: Node::Var(0), src: None },
            ],
        };
        s.modules[0].procs[1].global_refs[0].ptr_mod = true;
        let opts = AnalyzerOptions::paper_config(PaperConfig::P, None);
        let plain = analyze(&s, &opts);
        let (traced, trace) = analyze_traced(&s, &opts);
        assert_eq!(plain.database, traced.database);
        // g1 is pointer-written in B (reachable from the start node A? A is
        // the only start; B is called by A): demoted under P as well.
        assert_eq!(plain.stats.eligible_globals, 2);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::AliasDemoted { sym, .. } if sym == "g1")));
    }
}
