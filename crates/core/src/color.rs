//! Web prioritization and coloring (paper §4.1.3 and §6's variants).
//!
//! The web interference graph connects webs that share a call-graph node;
//! interfering webs cannot be promoted to the same register. Webs are sorted
//! by a priority heuristic — estimated dynamic references saved inside the
//! web minus the load/store cost paid at web entry invocations — after
//! discarding unprofitable webs (§6.2: "too sparse", or single-node with an
//! infrequently accessed global).
//!
//! Three promotion strategies from the evaluation:
//!
//! * **Reserved-K coloring** (Table 4 columns C/F): a fixed subset of K
//!   callee-saves registers is set aside for webs program-wide.
//! * **Greedy coloring** (column D): no reserved subset; a web may use any
//!   callee-saves register that none of its member procedures need for
//!   local values.
//! * **Blanket promotion** (column E, the [Wall 86] baseline): the N hottest
//!   globals each get a register dedicated across the *entire* program.

use crate::callgraph::{CallGraph, NodeId};
use crate::dataflow::{Eligibility, GlobalId};
use crate::webs::Web;
use serde::{Deserialize, Serialize};
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetDesc;

/// Promotion strategy (Table 4 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColoringStrategy {
    /// Reserve `count` callee-saves registers for web coloring.
    Reserved {
        /// Number of registers set aside (the paper uses 6).
        count: u32,
    },
    /// Use any callee-saves register not needed locally by a member
    /// procedure.
    Greedy,
}

/// Tunable discard thresholds (§6.2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiscardHeuristics {
    /// Discard webs whose fraction of `L_REF` members is below this.
    pub min_lref_ratio: f64,
    /// Discard single-node webs whose weighted reference count is below
    /// this.
    pub min_singleton_refs: u64,
}

impl Default for DiscardHeuristics {
    fn default() -> DiscardHeuristics {
        DiscardHeuristics { min_lref_ratio: 0.25, min_singleton_refs: 8 }
    }
}

/// A web with its computed priority.
#[derive(Debug, Clone)]
pub struct PrioritizedWeb {
    /// Index into the original web list.
    pub web: usize,
    /// Benefit minus entry cost; webs are colored in descending order.
    pub priority: i64,
}

/// Per-web outcome of prioritization, recorded for the decision trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebOutcome {
    /// The web survived the discard heuristics.
    Considered {
        /// Estimated dynamic references saved inside the web.
        benefit: u64,
        /// Estimated entry cost.
        cost: u64,
        /// Benefit minus cost.
        priority: i64,
    },
    /// Discarded: too few members reference the global (§6.2).
    Sparse {
        /// Estimated benefit at discard time.
        benefit: u64,
        /// Estimated entry cost at discard time.
        cost: u64,
    },
    /// Discarded: single-node web with too few weighted references (§6.2).
    Trivial {
        /// Estimated benefit at discard time.
        benefit: u64,
        /// Estimated entry cost at discard time.
        cost: u64,
    },
    /// Discarded: entry cost meets or exceeds the benefit.
    Unprofitable {
        /// Estimated benefit at discard time.
        benefit: u64,
        /// Estimated entry cost at discard time.
        cost: u64,
    },
}

impl WebOutcome {
    /// The benefit estimate measured for the web.
    pub fn benefit(self) -> u64 {
        match self {
            WebOutcome::Considered { benefit, .. }
            | WebOutcome::Sparse { benefit, .. }
            | WebOutcome::Trivial { benefit, .. }
            | WebOutcome::Unprofitable { benefit, .. } => benefit,
        }
    }

    /// The entry-cost estimate measured for the web.
    pub fn cost(self) -> u64 {
        match self {
            WebOutcome::Considered { cost, .. }
            | WebOutcome::Sparse { cost, .. }
            | WebOutcome::Trivial { cost, .. }
            | WebOutcome::Unprofitable { cost, .. } => cost,
        }
    }
}

/// Outcome of prioritization.
#[derive(Debug, Clone, Default)]
pub struct Prioritization {
    /// Webs surviving the discard heuristics, best first.
    pub considered: Vec<PrioritizedWeb>,
    /// Per-web decision, indexed like the input web list.
    pub outcomes: Vec<WebOutcome>,
    /// Webs discarded as sparse.
    pub discarded_sparse: usize,
    /// Webs discarded as unprofitable singletons.
    pub discarded_trivial: usize,
    /// Webs discarded because the entry cost exceeds the benefit.
    pub discarded_unprofitable: usize,
}

/// Estimated dynamic references to `w.global` inside the web.
pub fn web_benefit(w: &Web, graph: &CallGraph, elig: &Eligibility) -> u64 {
    w.nodes
        .iter()
        .map(|&n| elig.ref_freq(n, w.global).saturating_mul(graph.call_count(n).max(1)))
        .sum()
}

/// Estimated cost paid at web entry activations: the load at entry, the
/// store at exit (writable webs), plus the save/restore pair for the
/// dedicated register — four instructions per activation of a writable
/// web's entry, two for a read-only one.
pub fn web_entry_cost(w: &Web, graph: &CallGraph) -> u64 {
    let per_entry: u64 = if w.written { 4 } else { 2 };
    w.entries.iter().map(|&e| graph.call_count(e).max(1).saturating_mul(per_entry)).sum()
}

/// Sorts webs by priority and applies the discard heuristics.
pub fn prioritize(
    webs: &[Web],
    graph: &CallGraph,
    elig: &Eligibility,
    heur: &DiscardHeuristics,
) -> Prioritization {
    let mut out = Prioritization::default();
    for (i, w) in webs.iter().enumerate() {
        let benefit = web_benefit(w, graph, elig);
        let cost = web_entry_cost(w, graph);
        let lref_members = w.nodes.iter().filter(|&&n| elig.ref_freq(n, w.global) > 0).count();
        let ratio = lref_members as f64 / w.nodes.len() as f64;
        if ratio < heur.min_lref_ratio {
            out.discarded_sparse += 1;
            out.outcomes.push(WebOutcome::Sparse { benefit, cost });
            continue;
        }
        if w.nodes.len() == 1 && benefit < heur.min_singleton_refs {
            out.discarded_trivial += 1;
            out.outcomes.push(WebOutcome::Trivial { benefit, cost });
            continue;
        }
        let priority = benefit as i64 - cost as i64;
        if priority <= 0 {
            out.discarded_unprofitable += 1;
            out.outcomes.push(WebOutcome::Unprofitable { benefit, cost });
            continue;
        }
        out.outcomes.push(WebOutcome::Considered { benefit, cost, priority });
        out.considered.push(PrioritizedWeb { web: i, priority });
    }
    out.considered.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.web.cmp(&b.web)));
    out
}

/// Do two webs interfere (share a call-graph node)?
pub fn interferes(a: &Web, b: &Web) -> bool {
    // Both node lists are sorted: linear merge.
    let (mut i, mut j) = (0, 0);
    while i < a.nodes.len() && j < b.nodes.len() {
        match a.nodes[i].cmp(&b.nodes[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The result of coloring: a register per web index (uncolored = `None`).
#[derive(Debug, Clone, Default)]
pub struct Coloring {
    /// Assigned register per web (indexed like the input web list).
    pub assignment: Vec<Option<Reg>>,
    /// Number of webs successfully colored.
    pub colored: usize,
}

/// Colors the prioritized webs (VPR convention).
pub fn color_webs(
    webs: &[Web],
    prio: &Prioritization,
    strategy: ColoringStrategy,
    graph: &CallGraph,
) -> Coloring {
    color_webs_for(webs, prio, strategy, graph, &vpr::target::VPR)
}

/// [`color_webs`] drawing candidate registers from `desc`'s callee-saves
/// class, in ascending order — the same order the local allocator consumes
/// them, which is what makes the Greedy skip-prefix rule sound.
///
/// `prio.considered` lists each web at most once, as [`prioritize`] does.
pub fn color_webs_for(
    webs: &[Web],
    prio: &Prioritization,
    strategy: ColoringStrategy,
    graph: &CallGraph,
    desc: &TargetDesc,
) -> Coloring {
    let callee_order = desc.callee_order();
    let mut assignment: Vec<Option<Reg>> = vec![None; webs.len()];
    let mut colored = 0;
    // Registers of the webs colored so far, per call-graph node: the
    // webs sharing a node with `w` are exactly those it interferes with.
    let mut node_regs: Vec<RegSet> = vec![RegSet::new(); graph.len()];
    for pw in &prio.considered {
        let w = &webs[pw.web];
        // Registers already taken by interfering colored webs.
        let taken = w.nodes.iter().fold(RegSet::new(), |acc, &n| acc | node_regs[n.index()]);
        let candidates: Vec<Reg> = match strategy {
            ColoringStrategy::Reserved { count } => {
                callee_order.iter().copied().take(count as usize).collect()
            }
            ColoringStrategy::Greedy => {
                // §6: "tries to color as many webs as possible without
                // reserving any of the callee-saves registers required for
                // any individual procedure" — skip the first `need` registers
                // of every member, since the local allocator takes
                // callee-saves in ascending order.
                let max_need =
                    w.nodes.iter().map(|&n| graph.node(n).callee_saves_estimate).max().unwrap_or(0)
                        as usize;
                callee_order.iter().copied().skip(max_need).collect()
            }
        };
        if let Some(r) = candidates.into_iter().find(|r| !taken.contains(*r)) {
            assignment[pw.web] = Some(r);
            colored += 1;
            for &n in &w.nodes {
                node_regs[n.index()].insert(r);
            }
        }
    }
    Coloring { assignment, colored }
}

/// Builds the blanket-promotion "webs" (§6: column E): the `count` globals
/// with the highest program-wide weighted reference frequency each get one
/// program-wide web covering every defined node, with the program start
/// nodes as entries.
pub fn blanket_webs(graph: &CallGraph, elig: &Eligibility, count: usize) -> Vec<Web> {
    let mut totals: Vec<(GlobalId, u64)> = elig
        .ids()
        .map(|g| {
            let total: u64 = elig
                .refs(g)
                .iter()
                .map(|r| r.freq.saturating_mul(graph.call_count(r.node).max(1)))
                .sum();
            (g, total)
        })
        .filter(|&(_, t)| t > 0)
        .collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let all_defined: Vec<NodeId> = graph.node_ids().filter(|&n| graph.node(n).defined).collect();
    let entries: Vec<NodeId> = {
        let mut s: Vec<NodeId> =
            graph.start_nodes().into_iter().filter(|&n| graph.node(n).defined).collect();
        s.sort();
        s
    };
    totals
        .into_iter()
        .take(count.min(16))
        .map(|(g, _)| Web {
            global: g,
            nodes: all_defined.clone(),
            entries: entries.clone(),
            // Blanket promotion always stores back at exit: with the whole
            // program in the web the write analysis degenerates anyway.
            written: true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::testutil::figure3;
    use crate::dataflow::RefSets;
    use crate::webs::identify_webs;
    use ipra_summary::ProgramSummary;

    fn setup(s: &ProgramSummary) -> (CallGraph, Eligibility, Vec<Web>) {
        let g = CallGraph::build(s, None);
        let e = Eligibility::compute(&g, s);
        let r = RefSets::compute(&g, &e);
        let (w, _) = identify_webs(&g, &e, &r);
        (g, e, w)
    }

    #[test]
    fn figure3_colors_with_two_registers() {
        // Table 2: all four webs colorable with just two callee-saves
        // registers.
        let (g, e, webs) = setup(&figure3());
        let prio = prioritize(&webs, &g, &e, &DiscardHeuristics::default());
        assert_eq!(prio.considered.len(), 4, "{prio:?}");
        let coloring = color_webs(&webs, &prio, ColoringStrategy::Reserved { count: 2 }, &g);
        assert_eq!(coloring.colored, 4);
        // Interfering webs got different registers.
        for i in 0..webs.len() {
            for j in i + 1..webs.len() {
                if interferes(&webs[i], &webs[j]) {
                    assert_ne!(
                        coloring.assignment[i], coloring.assignment[j],
                        "webs {i} and {j} interfere but share a register"
                    );
                }
            }
        }
        // Exactly two registers used.
        let used: std::collections::HashSet<_> = coloring.assignment.iter().flatten().collect();
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn one_register_colors_only_noninterfering_subset() {
        let (g, e, webs) = setup(&figure3());
        let prio = prioritize(&webs, &g, &e, &DiscardHeuristics::default());
        let coloring = color_webs(&webs, &prio, ColoringStrategy::Reserved { count: 1 }, &g);
        assert!(coloring.colored < 4);
        assert!(coloring.colored >= 1);
        for i in 0..webs.len() {
            for j in i + 1..webs.len() {
                if interferes(&webs[i], &webs[j]) {
                    assert!(
                        coloring.assignment[i].is_none()
                            || coloring.assignment[i] != coloring.assignment[j]
                    );
                }
            }
        }
    }

    #[test]
    fn interference_is_shared_node() {
        let (_, e, webs) = setup(&figure3());
        let gid = |s: &str| e.by_sym(s).unwrap();
        let by = |g: &str, len: usize| {
            webs.iter().find(|w| w.global == gid(g) && w.len() == len).unwrap()
        };
        let w_g3 = by("g3", 3); // {A,B,C}
        let w_g2_big = by("g2", 3); // {C,F,G}
        let w_g1 = by("g1", 3); // {B,D,E}
        let w_g2_small = by("g2", 1); // {E}
        assert!(interferes(w_g3, w_g2_big)); // share C
        assert!(interferes(w_g3, w_g1)); // share B
        assert!(interferes(w_g1, w_g2_small)); // share E
        assert!(!interferes(w_g2_big, w_g1));
        assert!(!interferes(w_g2_big, w_g2_small));
        assert!(!interferes(w_g3, w_g2_small));
    }

    #[test]
    fn priority_prefers_hot_webs() {
        let (g, e, webs) = setup(&figure3());
        let prio = prioritize(&webs, &g, &e, &DiscardHeuristics::default());
        for pair in prio.considered.windows(2) {
            assert!(pair[0].priority >= pair[1].priority);
        }
    }

    #[test]
    fn sparse_webs_discarded() {
        use crate::dataflow::testutil::summary;
        // Long chain with refs only at the two ends: ratio 2/6 < 0.5.
        let s = summary(
            &[
                ("main", &[("c1", 1)], &["g"]),
                ("c1", &[("c2", 1)], &[]),
                ("c2", &[("c3", 1)], &[]),
                ("c3", &[("c4", 1)], &[]),
                ("c4", &[("end", 1)], &[]),
                ("end", &[], &["g"]),
            ],
            &["g"],
        );
        let (g, e, webs) = setup(&s);
        assert_eq!(webs.len(), 1);
        let heur = DiscardHeuristics { min_lref_ratio: 0.5, min_singleton_refs: 0 };
        let prio = prioritize(&webs, &g, &e, &heur);
        assert_eq!(prio.considered.len(), 0);
        assert_eq!(prio.discarded_sparse, 1);
    }

    #[test]
    fn trivial_singleton_webs_discarded() {
        use crate::dataflow::testutil::summary;
        let s = summary(&[("main", &[], &["g"])], &["g"]);
        let (g, e, webs) = setup(&s);
        // main's weighted refs = 10 × callcount 1 = 10.
        let heur = DiscardHeuristics { min_lref_ratio: 0.0, min_singleton_refs: 50 };
        let prio = prioritize(&webs, &g, &e, &heur);
        assert_eq!(prio.discarded_trivial, 1);
        let heur = DiscardHeuristics { min_lref_ratio: 0.0, min_singleton_refs: 5 };
        let prio = prioritize(&webs, &g, &e, &heur);
        assert_eq!(prio.considered.len(), 1);
    }

    #[test]
    fn greedy_respects_local_register_need() {
        use crate::dataflow::testutil::summary;
        // Single web over main; main's callee_saves_estimate is 2 (testutil),
        // so greedy must start at the 3rd callee-saves register (r5).
        let s = summary(&[("main", &[], &["g"])], &["g"]);
        let (g, e, webs) = setup(&s);
        let heur = DiscardHeuristics { min_lref_ratio: 0.0, min_singleton_refs: 0 };
        let prio = prioritize(&webs, &g, &e, &heur);
        let coloring = color_webs(&webs, &prio, ColoringStrategy::Greedy, &g);
        assert_eq!(coloring.assignment[0], Some(Reg::new(5)));
    }

    #[test]
    fn blanket_promotion_covers_program() {
        let (g, e, _) = setup(&figure3());
        let webs = blanket_webs(&g, &e, 2);
        assert_eq!(webs.len(), 2);
        for w in &webs {
            assert_eq!(w.len(), 8); // all of A..H
            assert_eq!(w.entries.len(), 1); // A is the only start node
        }
        // Top globals by weighted frequency are distinct.
        assert_ne!(webs[0].global, webs[1].global);

        // Requesting more blankets than hot globals yields only real ones.
        let many = blanket_webs(&g, &e, 10);
        assert_eq!(many.len(), 3);
    }

    #[test]
    fn reserved_zero_colors_nothing() {
        let (g, e, webs) = setup(&figure3());
        let prio = prioritize(&webs, &g, &e, &DiscardHeuristics::default());
        let coloring = color_webs(&webs, &prio, ColoringStrategy::Reserved { count: 0 }, &g);
        assert_eq!(coloring.colored, 0);
    }
}
