//! Register usage sets and spill code preallocation (paper §4.2.3–§4.2.4,
//! Figure 6).
//!
//! Every procedure ends up with four disjoint register classes:
//!
//! * `FREE` — usable without save/restore, and may hold values across calls
//!   (some cluster root above spills them);
//! * `CALLER` — usable without save/restore, but not live across calls;
//! * `CALLEE` — usable, but must be saved/restored by the procedure itself
//!   if used;
//! * `MSPILL` — must be saved on entry and restored on exit *whether used or
//!   not*; only cluster roots carry a non-empty `MSPILL`. These registers
//!   behave like `CALLER` registers locally (they may not hold values
//!   across calls into the cluster).
//!
//! Cluster roots are processed bottom-up. Within a cluster, `AVAIL` flows
//! from the root through the members by intersection over predecessors;
//! members pre-allocate `FREE` registers from it, nested roots migrate their
//! `MSPILL` upward, and everything consumed lands in the current root's
//! `MSPILL`. A post-pass widens member `CALLER` sets with
//! `AVAIL[Q] ∩ MSPILL[R]` (the Figure 7 diamond optimization).
//!
//! Interaction with promoted webs: registers dedicated to a web are removed
//! from the root's `AVAIL` for the whole cluster (the paper's conservative
//! prototype), or — with `precise` set, the §7.6.2 refinement — only from
//! `AVAIL` at the web's own member nodes, letting the register circulate
//! along cluster paths where the global is not live.

use crate::callgraph::{CallGraph, NodeId};
use crate::cluster::Clustering;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetDesc;

/// The per-procedure register directive set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegUsage {
    /// Free preserved registers (spilled by an ancestor cluster root).
    pub free: RegSet,
    /// Caller-saves-behaving registers.
    pub caller: RegSet,
    /// Classic callee-saves registers (save if used).
    pub callee: RegSet,
    /// Must-spill registers (cluster roots only).
    pub mspill: RegSet,
}

impl RegUsage {
    /// The standard linkage convention of `desc` (no interprocedural
    /// information).
    pub fn standard_for(desc: &TargetDesc) -> RegUsage {
        RegUsage {
            free: RegSet::new(),
            caller: desc.caller_saves,
            callee: desc.callee_saves,
            mspill: RegSet::new(),
        }
    }

    /// Removes `regs` (e.g. web-dedicated registers) from every class.
    pub fn exclude(&self, regs: RegSet) -> RegUsage {
        RegUsage {
            free: self.free - regs,
            caller: self.caller - regs,
            callee: self.callee - regs,
            mspill: self.mspill, // must-spill stays: the root still saves it
        }
    }
}

/// Computes register usage sets for every node, drawing the clusters'
/// callee-saves registers from `desc`'s.
///
/// `web_regs[n]` holds the registers dedicated to promoted globals at node
/// `n`; `precise` selects the §7.6.2 refinement over the conservative
/// whole-cluster exclusion.
pub fn compute_register_sets_for(
    graph: &CallGraph,
    clustering: &Clustering,
    web_regs: &[RegSet],
    precise: bool,
    desc: &TargetDesc,
) -> Vec<RegUsage> {
    let n = graph.len();
    assert_eq!(web_regs.len(), n, "web_regs must cover every node");
    let mut usage: Vec<RegUsage> = vec![RegUsage::standard_for(desc); n];

    // Bottom-up over cluster roots (clusters are stored in root topological
    // order, so reverse iteration is bottom-up).
    for cluster in clustering.clusters.iter().rev() {
        let root = cluster.root;
        let in_cluster = |x: NodeId| cluster.contains(x);

        // Registers already in the MSPILL of nested roots: selected last so
        // they stay available for upward migration.
        let mut child_mspill = RegSet::new();
        for &m in &cluster.members {
            if clustering.is_root(m) {
                child_mspill |= usage[m.index()].mspill;
            }
        }
        let priority: Vec<Reg> = desc
            .callee_saves
            .iter()
            .filter(|r| !child_mspill.contains(*r))
            .chain(desc.callee_saves.iter().filter(|r| child_mspill.contains(*r)))
            .collect();

        // Select the root's own callee-saves registers by its estimate,
        // never picking a register dedicated to a web at the root itself
        // (it holds a promoted global there and cannot serve local values).
        let est = graph.node(root).callee_saves_estimate as usize;
        let root_callee: RegSet = priority
            .iter()
            .copied()
            .filter(|r| !web_regs[root.index()].contains(*r))
            .take(est)
            .collect();
        usage[root.index()].callee = root_callee;
        let mut avail_root = desc.callee_saves - root_callee;
        if precise {
            avail_root -= web_regs[root.index()];
        } else {
            // Conservative: any register promoted over any cluster node is
            // unavailable throughout the cluster.
            avail_root -= web_regs[root.index()];
            for &m in &cluster.members {
                avail_root -= web_regs[m.index()];
            }
        }

        // Figure 6's Preallocate_Node, iteratively: visit nodes once all
        // their in-cluster predecessors are visited.
        let mut avail: HashMap<NodeId, RegSet> = HashMap::new();
        let mut visited: HashMap<NodeId, bool> = HashMap::new();
        let mut used = RegSet::new();
        avail.insert(root, avail_root);

        let mut work = vec![root];
        while let Some(node) = work.pop() {
            if visited.get(&node).copied().unwrap_or(false) {
                continue;
            }
            if node != root {
                // All in-cluster preds must be visited (guaranteed by the
                // scheduling below, but re-checked for safety).
                if !graph
                    .predecessors(node)
                    .all(|p| !in_cluster(p) || visited.get(&p).copied().unwrap_or(false))
                {
                    continue;
                }
                // AVAIL[N] = ∩ AVAIL[P] over immediate predecessors.
                let mut a: Option<RegSet> = None;
                for p in graph.predecessors(node) {
                    if !in_cluster(p) {
                        continue;
                    }
                    let pa = avail.get(&p).copied().unwrap_or(RegSet::new());
                    a = Some(match a {
                        None => pa,
                        Some(x) => x & pa,
                    });
                }
                let mut a = a.unwrap_or_default();
                if precise {
                    a -= web_regs[node.index()];
                }
                avail.insert(node, a);
            }
            visited.insert(node, true);

            let a_in = avail[&node];
            let u = &mut usage[node.index()];
            if node != root && clustering.is_root(node) {
                // A *recursive* root is only sound because it executes its
                // own spill code on every activation (§4.2.2, footnote 4);
                // migrating its MSPILL upward or trading its CALLEE saves
                // for FREE registers would remove that per-activation code
                // and let recursive re-entries clobber live values. Leave it
                // untouched — and since it saves everything it uses, its
                // AVAIL passes through unchanged.
                if !graph.is_recursive(node) {
                    // Nested root: migrate its MSPILL upward where possible
                    // and cover its own callee-saves need for free.
                    let migrate = u.mspill & a_in;
                    used |= migrate;
                    u.mspill -= a_in;
                    let free = u.callee & a_in;
                    used |= free;
                    u.free |= free;
                    u.callee -= free;
                    // Everything the nested root consumed stays live
                    // throughout its subtree, so successors must not
                    // re-allocate it: publish the reduced AVAIL exactly like
                    // the ordinary-member branch does.
                    avail.insert(node, a_in - (migrate | free));
                }
            } else if node != root {
                // Ordinary member: pre-allocate FREE registers.
                let need = graph.node(node).callee_saves_estimate as usize;
                let mut free = RegSet::new();
                for &r in &priority {
                    if free.len() >= need {
                        break;
                    }
                    if a_in.contains(r) {
                        free.insert(r);
                    }
                }
                let a_out = a_in - free;
                u.free |= free;
                u.callee -= free | a_out;
                used |= free;
                avail.insert(node, a_out);
            }

            // Schedule successors whose in-cluster preds are all visited.
            for s in graph.successors(node) {
                if s != node
                    && in_cluster(s)
                    && s != root
                    && !visited.get(&s).copied().unwrap_or(false)
                    && graph
                        .predecessors(s)
                        .all(|p| !in_cluster(p) || visited.get(&p).copied().unwrap_or(false))
                {
                    work.push(s);
                }
            }
        }

        usage[root.index()].mspill |= used;

        // Post-pass (Figure 7): members may use root-spilled registers that
        // stayed available on their paths as caller-saves scratch.
        let root_mspill = usage[root.index()].mspill;
        for &q in &cluster.members {
            if !clustering.is_root(q) {
                let extra = avail.get(&q).copied().unwrap_or(RegSet::new()) & root_mspill;
                usage[q.index()].caller |= extra;
            }
        }
    }

    // Finally, exclude web-dedicated registers from each node's classes.
    for node in graph.node_ids() {
        let w = web_regs[node.index()];
        if !w.is_empty() {
            usage[node.index()] = usage[node.index()].exclude(w);
        }
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{identify_clusters, ClusterHeuristics};
    use crate::dataflow::testutil::summary;
    use ipra_summary::ProgramSummary;
    use vpr::target::VPR;

    fn build(s: &ProgramSummary) -> (CallGraph, Clustering) {
        let g = CallGraph::build(s, None);
        let c = identify_clusters(&g, &ClusterHeuristics::default());
        (g, c)
    }

    fn no_webs(g: &CallGraph) -> Vec<RegSet> {
        vec![RegSet::new(); g.len()]
    }

    fn node(g: &CallGraph, n: &str) -> NodeId {
        g.by_name(n).unwrap()
    }

    /// Invariants every correct result satisfies.
    fn check_invariants(g: &CallGraph, c: &Clustering, usage: &[RegUsage]) {
        for n in g.node_ids() {
            let u = &usage[n.index()];
            // Classes are disjoint.
            assert!(u.free.is_disjoint(u.caller), "{n}: free/caller overlap");
            assert!(u.free.is_disjoint(u.callee), "{n}: free/callee overlap");
            assert!(u.caller.is_disjoint(u.callee), "{n}: caller/callee overlap");
            // FREE and MSPILL contain only callee-saves registers.
            assert!(u.free.is_subset(VPR.callee_saves));
            assert!(u.mspill.is_subset(VPR.callee_saves));
            // Only cluster roots may carry MSPILL.
            if !u.mspill.is_empty() {
                assert!(c.is_root(n), "{n} has MSPILL but is not a root");
            }
        }
        // A callee's FREE registers are clobbered without save, and a
        // caller's FREE registers may hold values across calls — so along
        // any call edge the two sets must be disjoint (the miscompile the
        // differential fuzzer caught: a nested root and its callee both
        // granted the same FREE register).
        for p in g.node_ids() {
            for q in g.successors(p) {
                if p == q {
                    continue;
                }
                assert!(
                    usage[p.index()].free.is_disjoint(usage[q.index()].free),
                    "call edge {p}->{q}: FREE sets overlap ({} vs {})",
                    usage[p.index()].free,
                    usage[q.index()].free
                );
            }
        }
        // Every FREE register of a member is covered by the MSPILL of some
        // root on its cluster chain (the direct root, or an outer root the
        // spill migrated to).
        for cl in &c.clusters {
            let mut chain_mspill = usage[cl.root.index()].mspill;
            // Collect MSPILL of every cluster that (transitively) contains
            // this cluster's root as a member.
            let mut roots = vec![cl.root];
            loop {
                let mut grew = false;
                for outer in &c.clusters {
                    if roots.iter().any(|r| outer.members.contains(r))
                        && !roots.contains(&outer.root)
                    {
                        roots.push(outer.root);
                        chain_mspill |= usage[outer.root.index()].mspill;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            for &m in &cl.members {
                let free = usage[m.index()].free;
                assert!(
                    free.is_subset(chain_mspill),
                    "member {m} FREE {free} not covered by cluster-chain MSPILL {chain_mspill}"
                );
            }
        }
    }

    #[test]
    fn simple_cluster_moves_spill_to_root() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[], &[]),
                ("t", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);

        let (r, s_, t) = (node(&g, "r"), node(&g, "s"), node(&g, "t"));
        // Members (estimate 2 each) got FREE registers.
        assert_eq!(usage[s_.index()].free.len(), 2);
        assert_eq!(usage[t.index()].free.len(), 2);
        // Siblings share the same registers (AVAIL flows to both).
        assert_eq!(usage[s_.index()].free, usage[t.index()].free);
        // Root spills exactly those.
        assert_eq!(usage[r.index()].mspill, usage[s_.index()].free);
        // Root's own callee-saves were selected by its estimate.
        assert_eq!(usage[r.index()].callee.len(), 2);
        // Root CALLEE and member FREE are disjoint.
        assert!(usage[r.index()].callee.is_disjoint(usage[s_.index()].free));
        // main is untouched.
        assert_eq!(usage[node(&g, "main").index()], RegUsage::standard_for(&VPR));
    }

    #[test]
    fn figure7_diamond_caller_augmentation() {
        // J roots {K, L, M}; K and L each need 1, M needs 2. Registers that
        // J spills but that are AVAIL and unused at K become caller-saves
        // scratch there.
        let mut s = summary(
            &[
                ("main", &[("j", 1)], &[]),
                ("j", &[("k", 50), ("l", 50)], &[]),
                ("k", &[("m", 10)], &[]),
                ("l", &[("m", 10)], &[]),
                ("m", &[], &[]),
            ],
            &[],
        );
        // Set estimates: k=1, l=2, m=1.
        for p in &mut s.modules[0].procs {
            p.callee_saves_estimate = match p.name.as_str() {
                "k" | "m" => 1,
                "l" => 2,
                "j" => 2,
                _ => 2,
            };
        }
        let (g, c) = build(&s);
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);
        let (j, k, l, m) = (node(&g, "j"), node(&g, "k"), node(&g, "l"), node(&g, "m"));

        assert_eq!(usage[k.index()].free.len(), 1);
        assert_eq!(usage[l.index()].free.len(), 2);
        assert_eq!(usage[m.index()].free.len(), 1);
        // M's FREE must avoid K's and L's (it is downstream of both).
        assert!(usage[m.index()].free.is_disjoint(usage[k.index()].free));
        assert!(usage[m.index()].free.is_disjoint(usage[l.index()].free));
        // The paper's Figure 7 point: a register in MSPILL[J] that is not
        // allocated at K (L grabbed it) becomes caller-saves scratch at K.
        let extra_at_k = usage[k.index()].caller & usage[j.index()].mspill;
        assert!(!extra_at_k.is_empty(), "K should gain caller-saves scratch from J's MSPILL");
        // MSPILL[J] covers all member FREE sets.
        let all_free = usage[k.index()].free | usage[l.index()].free | usage[m.index()].free;
        assert!(all_free.is_subset(usage[j.index()].mspill));
    }

    #[test]
    fn nested_cluster_mspill_migrates_upward() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 50)], &[]),
                ("s", &[("x", 50), ("y", 50)], &[]),
                ("x", &[], &[]),
                ("y", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);
        let (r, s_) = (node(&g, "r"), node(&g, "s"));
        // s roots the inner cluster but r's cluster covers s: s's MSPILL
        // migrated up to r, so s spills nothing itself.
        assert!(
            usage[s_.index()].mspill.is_empty(),
            "inner root MSPILL should fully migrate: {:?}",
            usage[s_.index()]
        );
        assert!(!usage[r.index()].mspill.is_empty());
        // x's free regs are covered by r's MSPILL now.
        let x = node(&g, "x");
        assert!(usage[x.index()].free.is_subset(usage[r.index()].mspill));
    }

    #[test]
    fn web_registers_conservative_vs_precise() {
        use vpr::regs::Reg;
        // Cluster r -> {s, t}; a web reserves r3 at s only. The root itself
        // needs no callee-saves registers, so r3 would otherwise circulate.
        let mut s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("s", 100), ("t", 100)], &[]),
                ("s", &[], &[]),
                ("t", &[], &[]),
            ],
            &[],
        );
        for p in &mut s.modules[0].procs {
            if p.name == "r" || p.name == "main" {
                p.callee_saves_estimate = 0;
            }
        }
        let (g, c) = build(&s);
        let mut web_regs = no_webs(&g);
        let mut set = RegSet::new();
        set.insert(Reg::new(3));
        web_regs[node(&g, "s").index()] = set;

        let conservative = compute_register_sets_for(&g, &c, &web_regs, false, &VPR);
        let precise = compute_register_sets_for(&g, &c, &web_regs, true, &VPR);
        check_invariants(&g, &c, &conservative);
        check_invariants(&g, &c, &precise);

        let t = node(&g, "t");
        let s_ = node(&g, "s");
        // Conservative: r3 circulates nowhere in the cluster.
        assert!(!conservative[t.index()].free.contains(Reg::new(3)));
        assert!(!conservative[s_.index()].free.contains(Reg::new(3)));
        // Precise: r3 may be FREE at t (the web is not live there)…
        assert!(precise[t.index()].free.contains(Reg::new(3)), "{:?}", precise[t.index()]);
        // …but never at the web node s.
        assert!(!precise[s_.index()].free.contains(Reg::new(3)));
        // In both modes no class of s contains the web register.
        for u in [&conservative[s_.index()], &precise[s_.index()]] {
            assert!(!u.free.contains(Reg::new(3)));
            assert!(!u.caller.contains(Reg::new(3)));
            assert!(!u.callee.contains(Reg::new(3)));
        }
    }

    #[test]
    fn no_clusters_means_standard_sets_minus_webs() {
        use vpr::regs::Reg;
        let s = summary(&[("main", &[("leaf", 1)], &["g"]), ("leaf", &[], &["g"])], &["g"]);
        let (g, c) = build(&s);
        assert!(c.clusters.is_empty());
        let mut web_regs = no_webs(&g);
        let mut set = RegSet::new();
        set.insert(Reg::new(3));
        web_regs[node(&g, "main").index()] = set;
        web_regs[node(&g, "leaf").index()] = set;
        let usage = compute_register_sets_for(&g, &c, &web_regs, false, &VPR);
        for n in [node(&g, "main"), node(&g, "leaf")] {
            assert!(!usage[n.index()].callee.contains(Reg::new(3)));
            assert_eq!(usage[n.index()].callee.len(), 15);
            assert_eq!(usage[n.index()].caller, VPR.caller_saves);
        }
    }

    /// The miscompile the differential fuzzer found (reduced): `main`
    /// roots an outer cluster whose members `f2` and `f1` are themselves
    /// nested roots, and `f2` calls `f1`. The nested-root branch must
    /// publish its reduced AVAIL, or `f1` inherits `f2`'s converted FREE
    /// register through the predecessor intersection and both end up
    /// clobbering the same unsaved register — caller live value lost.
    #[test]
    fn chained_nested_roots_get_disjoint_free_registers() {
        let mut s = summary(
            &[
                ("main", &[("f2", 1), ("f1", 1)], &[]),
                ("f2", &[("f1", 100), ("f0", 100)], &[]),
                ("f1", &[("f3", 300)], &[]),
                ("f0", &[], &[]),
                ("f3", &[], &[]),
            ],
            &[],
        );
        for p in &mut s.modules[0].procs {
            p.callee_saves_estimate = if p.name == "main" { 0 } else { 1 };
        }
        let (g, c) = build(&s);
        let (f1, f2) = (node(&g, "f1"), node(&g, "f2"));
        // The shape under test: both callees of main are roots in their own
        // right, nested inside a cluster rooted at main.
        assert!(c.is_root(node(&g, "main")) && c.is_root(f1) && c.is_root(f2), "{c:?}");
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);
        // f2 converted its CALLEE save into a FREE grant from main's
        // MSPILL; f1, downstream of f2, must not receive the same register.
        assert!(!usage[f2.index()].free.is_empty(), "{:?}", usage[f2.index()]);
        assert!(
            usage[f2.index()].free.is_disjoint(usage[f1.index()].free),
            "caller {:?} / callee {:?} share a FREE register",
            usage[f2.index()],
            usage[f1.index()]
        );
    }

    /// A recursive nested root keeps its own spill code (§4.2.2 footnote
    /// 4): nothing migrates upward and no CALLEE save is traded for FREE,
    /// or recursive re-entries would clobber live values the root no
    /// longer saves per activation.
    #[test]
    fn recursive_nested_root_keeps_its_spill_code() {
        let s = summary(
            &[
                ("main", &[("r", 1)], &[]),
                ("r", &[("r", 40), ("s", 100), ("t", 100)], &[]),
                ("s", &[], &[]),
                ("t", &[], &[]),
            ],
            &[],
        );
        let (g, c) = build(&s);
        let r = node(&g, "r");
        assert!(g.is_recursive(r));
        assert!(c.is_root(r), "{c:?}");
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);
        // r still saves its members' FREE registers itself on every
        // activation, and converted none of its own CALLEE saves to FREE.
        let s_free = usage[node(&g, "s").index()].free;
        assert!(s_free.is_subset(usage[r.index()].mspill), "{:?}", usage[r.index()]);
        assert!(usage[r.index()].free.is_empty(), "{:?}", usage[r.index()]);
    }

    #[test]
    fn member_estimate_larger_than_avail_is_clipped() {
        let mut s =
            summary(&[("main", &[("r", 1)], &[]), ("r", &[("s", 100)], &[]), ("s", &[], &[])], &[]);
        for p in &mut s.modules[0].procs {
            p.callee_saves_estimate = 16; // wants everything
        }
        let (g, c) = build(&s);
        let usage = compute_register_sets_for(&g, &c, &no_webs(&g), false, &VPR);
        check_invariants(&g, &c, &usage);
        let (r, s_) = (node(&g, "r"), node(&g, "s"));
        // Root takes all 16 as CALLEE; nothing remains for members.
        assert_eq!(usage[r.index()].callee.len(), 16);
        assert!(usage[s_.index()].free.is_empty());
    }
}
