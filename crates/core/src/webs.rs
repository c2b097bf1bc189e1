//! Web identification (paper §4.1.1–§4.1.2, Figure 2).
//!
//! A *web* for a global variable is a minimal subgraph of the call graph
//! such that the variable is referenced in no ancestor and no descendant of
//! the subgraph. Candidate web entry nodes have the variable in `L_REF` but
//! not `P_REF`; webs grow downward through successors with the variable in
//! `L_REF ∪ C_REF`, and a repair loop pulls in external predecessors of
//! internal nodes until every node is either an entry (no predecessor inside
//! the web) or internal (no predecessor outside). Overlapping webs for the
//! same variable merge.
//!
//! Recursive call chains that reference a variable but have it in `P_REF`
//! everywhere get no entry candidate; each such strongly connected component
//! seeds its own web, which is then repaired the same way (§4.1.2's "simple
//! solution").
//!
//! Webs for `static` globals whose entry nodes fall outside the defining
//! module are discarded (§7.4): the second phase could not address the
//! module-private symbol from another module.

use crate::callgraph::{CallGraph, NodeId};
use crate::dataflow::{Eligibility, GlobalId, RefSets};
use std::collections::BTreeSet;

/// A web: a set of call-graph nodes over which one global variable may be
/// kept in a dedicated register.
#[derive(Debug, Clone)]
pub struct Web {
    /// The promoted global.
    pub global: GlobalId,
    /// Member nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Entry nodes (members with no predecessor inside the web), ascending.
    pub entries: Vec<NodeId>,
    /// Does any member write the global? (If not, web entries need no
    /// store-back at exit, §5.)
    pub written: bool,
}

impl Web {
    /// Is `n` a member?
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.binary_search(&n).is_ok()
    }

    /// Is `n` an entry node?
    pub fn is_entry(&self, n: NodeId) -> bool {
        self.entries.binary_search(&n).is_ok()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Webs never come up empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Statistics from web identification (the paper's §6.2 numbers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebStats {
    /// Eligible globals examined.
    pub eligible_globals: usize,
    /// Webs identified in total.
    pub webs_total: usize,
    /// Webs discarded because a `static`'s entry left its module.
    pub discarded_static: usize,
    /// `(symbol, member procedure names)` of each §7.4 static discard, in
    /// discovery order (reporting/trace only).
    pub static_discards: Vec<(String, Vec<String>)>,
}

/// Identifies all webs for all eligible globals.
///
/// Each global costs time in proportion to its own references, the webs
/// it forms and their call-graph neighborhoods, not to the whole graph:
/// `L_REF` is inverted once into per-global node lists, the recursive
/// SCCs are found once, webs grow over per-node stamps reused from grow to
/// grow, and a per-node owner slot finds the earlier webs a new one
/// overlaps.
pub fn identify_webs(
    graph: &CallGraph,
    elig: &Eligibility,
    refs: &RefSets,
) -> (Vec<Web>, WebStats) {
    let mut webs: Vec<Web> = Vec::new();
    let mut stats = WebStats { eligible_globals: elig.len(), ..WebStats::default() };

    // L_REF inverted: the nodes referencing each global, ascending.
    let mut referencing: Vec<Vec<NodeId>> = vec![Vec::new(); elig.len()];
    for n in graph.node_ids() {
        for g in refs.l_ref[n.index()].iter() {
            referencing[g].push(n);
        }
    }

    // Recursive SCCs (more than one node, or a self loop), ordered by
    // their smallest member, and each node's position in that order.
    let mut cycles: Vec<&[NodeId]> =
        graph.sccs().filter(|members| graph.is_recursive(members[0])).collect();
    cycles.sort_by_key(|members| members.iter().min());
    let mut cycle_of: Vec<u32> = vec![NO_CYCLE; graph.len()];
    for (i, members) in cycles.iter().enumerate() {
        for &n in *members {
            cycle_of[n.index()] = i as u32;
        }
    }

    let mut s = WebState::new(graph.len());
    for g in elig.ids() {
        s.start_global();

        // Phase 1: entry-candidate seeded webs (Figure 2).
        for &p in &referencing[g.index()] {
            if refs.in_p(p, g) || s.owner_of(p).is_some() {
                continue; // not a candidate, or absorbed by an earlier web
            }
            s.grow(graph, refs, g, &[p]);
            s.merge_grown();
        }

        // Phase 2: recursive cycles that reference g but got no entry
        // candidate anywhere in the cycle.
        let mut hit: Vec<u32> = referencing[g.index()]
            .iter()
            .map(|n| cycle_of[n.index()])
            .filter(|&c| c != NO_CYCLE)
            .collect();
        hit.sort_unstable();
        hit.dedup();
        for c in hit {
            let members = cycles[c as usize];
            if members.iter().all(|&n| s.owner_of(n).is_none()) {
                s.grow(graph, refs, g, members);
                s.merge_grown();
            }
        }

        for &slot in &s.order {
            stats.webs_total += 1;
            let mut nodes = std::mem::take(&mut s.slots[slot as usize]);
            nodes.sort_unstable();
            let entries: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| !graph.predecessors(n).any(|p| s.owner_of(p) == Some(slot)))
                .collect();
            // §7.4: a static's web entry must live in the defining module.
            let eg = elig.global(g);
            if eg.is_static {
                let foreign_entry = entries.iter().any(|&e| graph.node(e).module != eg.module);
                if foreign_entry {
                    stats.discarded_static += 1;
                    stats.static_discards.push((
                        eg.sym.clone(),
                        nodes.iter().map(|&n| graph.node(n).name.clone()).collect(),
                    ));
                    continue;
                }
            }
            let written = nodes.iter().any(|&n| elig.writes(n, g));
            webs.push(Web { global: g, nodes, entries, written });
        }
    }
    (webs, stats)
}

/// `cycle_of` for nodes on no recursive cycle.
const NO_CYCLE: u32 = u32::MAX;

/// Per-node working state, allocated once and reused for every global and
/// every grow: generation stamps stand in for clearing it.
struct WebState {
    /// Stamp of the current grow.
    grow_gen: u32,
    /// `== grow_gen`: the node is in the web being grown.
    in_grown: Vec<u32>,
    /// `== grow_gen`: all the node's predecessors were pulled in.
    pulled: Vec<u32>,
    /// Members of the web being grown, in discovery order.
    grown: Vec<NodeId>,
    /// Grown members whose neighbors are not yet examined.
    stack: Vec<NodeId>,
    /// Stamp of the current global.
    global_gen: u32,
    /// `== global_gen`: `owner` holds the node's web.
    owner_gen: Vec<u32>,
    /// The slot of the current global's web holding the node.
    owner: Vec<u32>,
    /// Member nodes by slot; slots absorbed by a merge are left empty.
    slots: Vec<Vec<NodeId>>,
    /// The current global's webs as slots, in the order Figure 2's merge
    /// step leaves its web list: a merge swap-removes every web the new
    /// one overlaps, lowest position first, and appends the union.
    order: Vec<u32>,
    /// Each slot's position in `order`.
    pos: Vec<usize>,
}

impl WebState {
    fn new(nodes: usize) -> WebState {
        WebState {
            grow_gen: 0,
            in_grown: vec![0; nodes],
            pulled: vec![0; nodes],
            grown: Vec::new(),
            stack: Vec::new(),
            global_gen: 0,
            owner_gen: vec![0; nodes],
            owner: vec![0; nodes],
            slots: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn start_global(&mut self) {
        self.global_gen += 1;
        self.slots.clear();
        self.order.clear();
        self.pos.clear();
    }

    /// The slot of the current global's web holding `n`, if any.
    fn owner_of(&self, n: NodeId) -> Option<u32> {
        (self.owner_gen[n.index()] == self.global_gen).then(|| self.owner[n.index()])
    }

    /// Grows a web from `seeds` into `grown`: the smallest node set that
    /// holds the seeds, every successor with the variable in
    /// `L_REF ∪ C_REF` of a member (Figure 2's `Expand_Web`), and every
    /// predecessor of a member that has a predecessor inside (the
    /// repeat/until repair loop, which pulls the external predecessors of
    /// such a member in and expands them).
    fn grow(&mut self, graph: &CallGraph, refs: &RefSets, g: GlobalId, seeds: &[NodeId]) {
        self.grow_gen += 1;
        self.grown.clear();
        for &q in seeds {
            self.add(q);
        }
        while let Some(n) = self.stack.pop() {
            if graph.predecessors(n).any(|p| self.in_grown[p.index()] == self.grow_gen) {
                self.pull_preds(graph, n);
            }
            for s in graph.successors(n) {
                if self.in_grown[s.index()] == self.grow_gen {
                    self.pull_preds(graph, s); // n is an internal predecessor of s
                } else if refs.in_c(s, g) || refs.in_l(s, g) {
                    self.add(s);
                }
            }
        }
    }

    fn add(&mut self, n: NodeId) {
        if self.in_grown[n.index()] != self.grow_gen {
            self.in_grown[n.index()] = self.grow_gen;
            self.grown.push(n);
            self.stack.push(n);
        }
    }

    fn pull_preds(&mut self, graph: &CallGraph, z: NodeId) {
        if self.pulled[z.index()] != self.grow_gen {
            self.pulled[z.index()] = self.grow_gen;
            for p in graph.predecessors(z) {
                self.add(p);
            }
        }
    }

    /// Merges the grown web into the current global's web list, unioning
    /// it with every web it overlaps.
    fn merge_grown(&mut self) {
        // The current webs are pairwise disjoint, so absorbing one never
        // makes the union overlap another: the webs to absorb are exactly
        // those the grown web overlaps, taken lowest position first as
        // each swap-remove reorders the list.
        let mut overlap: BTreeSet<(usize, u32)> = BTreeSet::new();
        for &n in &self.grown {
            if let Some(slot) = self.owner_of(n) {
                overlap.insert((self.pos[slot as usize], slot));
            }
        }
        let mut absorbed: Vec<u32> = Vec::new();
        while let Some((at, slot)) = overlap.pop_first() {
            self.order.swap_remove(at);
            if let Some(&moved) = self.order.get(at) {
                let from = self.order.len();
                self.pos[moved as usize] = at;
                if overlap.remove(&(from, moved)) {
                    overlap.insert((at, moved));
                }
            }
            absorbed.push(slot);
        }

        // The union keeps the largest absorbed slot, so a node changes
        // owner only when it joins a web at least twice its old one's size.
        let keeper = match absorbed.iter().copied().max_by_key(|&s| self.slots[s as usize].len()) {
            Some(slot) => slot,
            None => {
                self.slots.push(Vec::new());
                self.pos.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        for &slot in &absorbed {
            if slot != keeper {
                let members = std::mem::take(&mut self.slots[slot as usize]);
                for &n in &members {
                    self.owner[n.index()] = keeper;
                }
                self.slots[keeper as usize].extend(members);
            }
        }
        for &n in &self.grown {
            if self.owner_gen[n.index()] != self.global_gen {
                self.owner_gen[n.index()] = self.global_gen;
                self.owner[n.index()] = keeper;
                self.slots[keeper as usize].push(n);
            }
        }
        self.pos[keeper as usize] = self.order.len();
        self.order.push(keeper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::testutil::{figure3, summary};
    use ipra_summary::ProgramSummary;

    fn build(s: &ProgramSummary) -> (CallGraph, Eligibility, Vec<Web>, WebStats) {
        let g = CallGraph::build(s, None);
        let e = Eligibility::compute(&g, s);
        let r = RefSets::compute(&g, &e);
        let (w, st) = identify_webs(&g, &e, &r);
        (g, e, w, st)
    }

    fn names(g: &CallGraph, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| g.node(n).name.clone()).collect()
    }

    #[test]
    fn figure3_reproduces_table2() {
        let (g, e, webs, stats) = build(&figure3());
        assert_eq!(stats.webs_total, 4, "{webs:?}");

        let find = |sym: &str, member: &str| {
            let gid = e.by_sym(sym).unwrap();
            let m = g.by_name(member).unwrap();
            webs.iter()
                .find(|w| w.global == gid && w.contains(m))
                .unwrap_or_else(|| panic!("no web for {sym} containing {member}"))
        };

        // Table 2: Web 1 = g3 {A,B,C}; Web 2 = g2 {C,F,G}; Web 3 = g1 {B,D,E};
        // Web 4 = g2 {E}.
        let w1 = find("g3", "A");
        assert_eq!(names(&g, &w1.nodes), vec!["A", "B", "C"]);
        assert_eq!(names(&g, &w1.entries), vec!["A"]);

        let w2 = find("g2", "C");
        assert_eq!(names(&g, &w2.nodes), vec!["C", "F", "G"]);
        assert_eq!(names(&g, &w2.entries), vec!["C"]);

        let w3 = find("g1", "B");
        assert_eq!(names(&g, &w3.nodes), vec!["B", "D", "E"]);
        assert_eq!(names(&g, &w3.entries), vec!["B"]);

        let w4 = find("g2", "E");
        assert_eq!(names(&g, &w4.nodes), vec!["E"]);
        assert_eq!(names(&g, &w4.entries), vec!["E"]);
    }

    #[test]
    fn disjoint_uses_make_disjoint_webs() {
        // main -> a, b; a and b both use g but share no path that does.
        let s = summary(
            &[("main", &[("a", 1), ("b", 1)], &[]), ("a", &[], &["g"]), ("b", &[], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 2);
        for w in &webs {
            assert_eq!(w.len(), 1);
            assert_eq!(w.entries.len(), 1);
        }
        let _ = g;
    }

    #[test]
    fn ancestor_reference_merges_into_one_web() {
        // main uses g and calls a which uses g: single web rooted at main.
        let s = summary(&[("main", &[("a", 1)], &["g"]), ("a", &[], &["g"])], &["g"]);
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        assert_eq!(names(&g, &webs[0].nodes), vec!["main", "a"]);
        assert_eq!(names(&g, &webs[0].entries), vec!["main"]);
    }

    #[test]
    fn pass_through_node_joins_via_c_ref() {
        // main(g) -> mid (no ref) -> leaf(g): mid is in the web because g is
        // in its C_REF.
        let s = summary(
            &[("main", &[("mid", 1)], &["g"]), ("mid", &[("leaf", 1)], &[]), ("leaf", &[], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        assert_eq!(names(&g, &webs[0].nodes), vec!["main", "mid", "leaf"]);
    }

    #[test]
    fn external_predecessor_of_internal_node_gets_pulled_in() {
        // entry: a (uses g), a -> c (uses g); other -> c as well.
        // c would be internal with an external pred => repair pulls in
        // `other`, making it a second entry.
        let s = summary(
            &[
                ("main", &[("a", 1), ("other", 1)], &[]),
                ("a", &[("c", 1)], &["g"]),
                ("other", &[("c", 1)], &[]),
                ("c", &[], &["g"]),
            ],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1);
        let w = &webs[0];
        assert_eq!(names(&g, &w.nodes), vec!["a", "other", "c"]);
        assert_eq!(names(&g, &w.entries), vec!["a", "other"]);
        // Invariant: internal nodes have no external predecessors.
        for &n in &w.nodes {
            if !w.is_entry(n) {
                for p in g.predecessors(n) {
                    assert!(w.contains(p), "internal node with external pred");
                }
            }
        }
    }

    #[test]
    fn recursive_cycle_forms_its_own_web() {
        // main -> r <-> s, both reference g; g ∈ P_REF throughout the cycle
        // so no entry candidate exists — the SCC seeds the web.
        let s = summary(
            &[("main", &[("r", 1)], &[]), ("r", &[("s", 1)], &["g"]), ("s", &[("r", 1)], &["g"])],
            &["g"],
        );
        let (g, _, webs, _) = build(&s);
        assert_eq!(webs.len(), 1, "{webs:?}");
        let w = &webs[0];
        // The SCC {r, s} seeds the web; r then has an internal pred (s) and
        // an external pred (main), so the repair loop pulls main in as the
        // entry node.
        assert_eq!(names(&g, &w.nodes), vec!["main", "r", "s"]);
        assert_eq!(names(&g, &w.entries), vec!["main"]);
        assert!(w.entries.iter().all(|&e| !g.predecessors(e).any(|p| w.contains(p))));
    }

    #[test]
    fn self_recursive_node_web() {
        let s = summary(&[("main", &[("r", 1)], &[]), ("r", &[("r", 1)], &["g"])], &["g"]);
        let (g, _, webs, _) = build(&s);
        // r has g ∈ P_REF (self edge) → cycle web. Repair: r's preds are
        // main (external) and r (internal) → pull in main.
        assert_eq!(webs.len(), 1);
        assert!(names(&g, &webs[0].nodes).contains(&"main".to_string()));
    }

    #[test]
    fn static_web_crossing_modules_is_discarded() {
        use ipra_summary::*;
        // Module a defines static s$g used by a_fn; module b's main calls
        // a_fn and... make the entry land in module b by having main
        // reference the static via... statics cannot be referenced outside
        // their module in the source language, but the *web entry* can land
        // outside: main -> a_fn (refs g), main -> a_gn (refs g) and also
        // a_fn -> common <- a_gn with common refs g. Then entry candidates
        // a_fn and a_gn merge through common's repair... Simpler: force the
        // web to include main via repair: a_fn refs g, a_fn -> c (refs g),
        // main -> c directly. Repair pulls main (module b) in as entry.
        let mk = |name: &str, module: &str, calls: &[(&str, u64)], refs: &[&str]| ProcSummary {
            name: name.into(),
            module: module.into(),
            global_refs: refs
                .iter()
                .map(|g| GlobalRef {
                    sym: g.to_string(),
                    freq: 5,
                    written: true,
                    ptr_mod: false,
                    ptr_ref: false,
                    escapes: false,
                })
                .collect(),
            calls: calls.iter().map(|(c, f)| CallRef { callee: c.to_string(), freq: *f }).collect(),
            taken_addresses: vec![],
            makes_indirect_calls: false,
            callee_saves_estimate: 1,
            caller_saves_estimate: 2,
            alias: Default::default(),
        };
        let s = ProgramSummary {
            modules: vec![
                ModuleSummary {
                    module: "a".into(),
                    procs: vec![
                        mk("a_fn", "a", &[("c", 1)], &["a$g"]),
                        mk("c", "a", &[], &["a$g"]),
                    ],
                    globals: vec![GlobalFact {
                        sym: "a$g".into(),
                        size: 1,
                        is_array: false,
                        is_static: true,
                        module: "a".into(),
                        init: vec![],
                    }],
                },
                ModuleSummary {
                    module: "b".into(),
                    procs: vec![mk("main", "b", &[("a_fn", 1), ("c", 1)], &[])],
                    globals: vec![],
                },
            ],
        };
        let g = CallGraph::build(&s, None);
        let e = Eligibility::compute(&g, &s);
        let r = RefSets::compute(&g, &e);
        let (webs, stats) = identify_webs(&g, &e, &r);
        assert_eq!(stats.discarded_static, 1);
        assert!(webs.is_empty());
    }

    #[test]
    fn webs_for_same_global_are_disjoint() {
        let (_, _, webs, _) = build(&figure3());
        for (i, a) in webs.iter().enumerate() {
            for b in webs.iter().skip(i + 1) {
                if a.global == b.global {
                    assert!(a.nodes.iter().all(|n| !b.contains(*n)));
                }
            }
        }
    }

    #[test]
    fn written_flag_tracks_member_writes() {
        let (_, e, webs, _) = build(&figure3());
        // testutil::summary marks every reference written.
        for w in &webs {
            assert!(w.written);
        }
        let _ = e;
    }
}
