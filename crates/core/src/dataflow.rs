//! Promotion eligibility and the interprocedural reference dataflow.
//!
//! Implements the paper's §4.1.2: a global is *eligible* for promotion when
//! it fits a register (scalar, not an array) and is never aliased (its
//! address is never taken); then the `L_REF`/`P_REF`/`C_REF` sets are
//! propagated over the call graph:
//!
//! * `L_REF[P]` — eligible globals referenced locally in `P`,
//! * `P_REF[P]` — eligible globals referenced somewhere on a call chain
//!   from a start node to `P` (exclusive),
//! * `C_REF[P]` — eligible globals referenced somewhere on a call chain
//!   starting at `P` (exclusive).
//!
//! `C_REF` propagates bottom-up (reverse condensation order) and `P_REF`
//! top-down, both iterated to a fixpoint, exactly as the paper prescribes
//! for faster convergence.

use crate::bitset::BitSet;
use crate::callgraph::{CallGraph, NodeId};
use ipra_summary::ProgramSummary;
use std::collections::{BTreeSet, HashMap, HashSet};

/// An index into the eligible-global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Index accessor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a global was rejected for promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IneligibleReason {
    /// Arrays do not fit in a register.
    Array,
    /// The global's address is taken somewhere (may be aliased).
    Aliased,
    /// Referenced but defined in no summarized module (outside the partial
    /// call graph, §7.2).
    Undefined,
}

/// One eligible global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EligibleGlobal {
    /// Link name.
    pub sym: String,
    /// Defining module.
    pub module: String,
    /// Declared `static` (module-private, §7.4)?
    pub is_static: bool,
}

/// One procedure's references to one eligible global, merged over the
/// procedure's summary records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRef {
    /// The referencing procedure.
    pub(crate) node: NodeId,
    /// Local reference frequency (raw; weighted by invocations later).
    pub(crate) freq: u64,
    /// Does the procedure write the global?
    pub(crate) written: bool,
}

/// The eligibility analysis result.
#[derive(Debug, Clone, Default)]
pub struct Eligibility {
    globals: Vec<EligibleGlobal>,
    by_sym: HashMap<String, GlobalId>,
    rejected: Vec<(String, IneligibleReason)>,
    /// Per global: its referencing procedures, ascending by node.
    refs: Vec<Vec<NodeRef>>,
}

impl Eligibility {
    /// Determines the promotable globals of a program, treating every
    /// address-taken global as aliased (the classic conservative rule).
    pub fn compute(graph: &CallGraph, summary: &ProgramSummary) -> Eligibility {
        Self::compute_with_alias(graph, summary, None)
    }

    /// The set of globals the conservative rule rejects as aliased: any
    /// global whose address is taken anywhere.
    pub fn blanket_aliased(summary: &ProgramSummary) -> Vec<String> {
        let mut aliased: Vec<String> = Vec::new();
        let mut seen: HashSet<&str> = HashSet::new();
        for p in summary.procs() {
            for r in &p.global_refs {
                if r.address_taken() && seen.insert(&r.sym) {
                    aliased.push(r.sym.clone());
                }
            }
        }
        aliased
    }

    /// The set of globals the precise interprocedural rule rejects. A
    /// global stays register-promotable despite `&g` appearing somewhere
    /// unless keeping it in a register could actually be observed:
    ///
    /// * its address escapes to unknown code (anything may happen), or
    /// * some reachable procedure may *write* it through a pointer (the
    ///   register copy would go stale), or
    /// * some reachable procedure may *read* it through a pointer while a
    ///   reachable procedure also writes it directly (the memory home the
    ///   read sees would go stale).
    ///
    /// Read-only aliasing of a never-written global is harmless: memory
    /// always holds the initial value, and so does the register.
    ///
    /// "Reachable" here is the *call graph's* over-approximation (§7.3:
    /// any indirect call may target any address-taken procedure), not the
    /// points-to solve's sharper notion. The solver can prove a taken
    /// address never flows into a call, but the procedure's code is still
    /// emitted and its register discipline is still independently checked
    /// (`ipra-verify` resolves indirect calls the §7.3 way), so a pointer
    /// write in that gap must keep blocking promotion; the solver's
    /// pruning applies only to procedures dead under *both* notions.
    pub fn alias_aliased(
        graph: &CallGraph,
        summary: &ProgramSummary,
        solution: &ipra_alias::Solution,
    ) -> Vec<String> {
        // Call-graph reachability from the entry, indirect edges included.
        let mut coarse: BTreeSet<&str> = BTreeSet::new();
        if let Some(root) = graph.by_name("main") {
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                if coarse.insert(graph.node(n).name.as_str()) {
                    stack.extend(graph.successors(n));
                }
            }
        }
        let mut dir_mod: BTreeSet<&str> = BTreeSet::new();
        // Pointer facts of "gap" procedures — call-graph-reachable but
        // pruned by the points-to solve. Their emitted code is checked,
        // so their local bits count, conservatively (the solver has no
        // sharper interprocedural facts for them by construction).
        let mut gap_mod: BTreeSet<&str> = BTreeSet::new();
        let mut gap_ref: BTreeSet<&str> = BTreeSet::new();
        for p in summary.procs() {
            let precise = solution.reachable.contains(&p.name);
            let gap = !precise && coarse.contains(p.name.as_str());
            if !precise && !gap {
                continue;
            }
            for r in &p.global_refs {
                if r.written {
                    dir_mod.insert(&r.sym);
                }
                if gap {
                    if r.ptr_mod || r.escapes {
                        gap_mod.insert(&r.sym);
                    }
                    if r.ptr_ref {
                        gap_ref.insert(&r.sym);
                    }
                }
            }
        }
        let mut candidates: BTreeSet<&str> = solution.escaped.iter().map(String::as_str).collect();
        for syms in solution.proc_ind_mod.values().chain(solution.proc_ind_ref.values()) {
            candidates.extend(syms.iter().map(String::as_str));
        }
        candidates.extend(gap_mod.iter());
        candidates.extend(gap_ref.iter());
        candidates
            .into_iter()
            .filter(|g| {
                solution.is_escaped(g)
                    || solution.ind_mod_witness(g).is_some()
                    || gap_mod.contains(g)
                    || ((solution.ind_ref_witness(g).is_some() || gap_ref.contains(g))
                        && dir_mod.contains(g))
            })
            .map(str::to_string)
            .collect()
    }

    /// Determines the promotable globals, using the interprocedural alias
    /// solution for the aliasing rejection when one is given.
    pub fn compute_with_alias(
        graph: &CallGraph,
        summary: &ProgramSummary,
        solution: Option<&ipra_alias::Solution>,
    ) -> Eligibility {
        let aliased: HashSet<String> = match solution {
            None => Self::blanket_aliased(summary),
            Some(sol) => Self::alias_aliased(graph, summary, sol),
        }
        .into_iter()
        .collect();
        // Referenced symbols in first-reference order.
        let mut referenced: Vec<&str> = Vec::new();
        let mut seen: HashSet<&str> = HashSet::new();
        for p in summary.procs() {
            for r in &p.global_refs {
                if seen.insert(&r.sym) {
                    referenced.push(&r.sym);
                }
            }
        }
        let mut e = Eligibility::default();
        let mut defined: HashSet<&str> = HashSet::new();
        for g in summary.globals() {
            defined.insert(&g.sym);
            if g.is_array {
                e.rejected.push((g.sym.clone(), IneligibleReason::Array));
            } else if aliased.contains(&g.sym) {
                e.rejected.push((g.sym.clone(), IneligibleReason::Aliased));
            } else {
                let id = GlobalId(e.globals.len() as u32);
                e.by_sym.insert(g.sym.clone(), id);
                e.globals.push(EligibleGlobal {
                    sym: g.sym.clone(),
                    module: g.module.clone(),
                    is_static: g.is_static,
                });
            }
        }
        for r in referenced {
            if !defined.contains(r) {
                e.rejected.push((r.to_string(), IneligibleReason::Undefined));
            }
        }
        // Local reference frequencies, weighted by estimated invocations
        // later; store raw here, one entry per (node, global).
        e.refs = vec![Vec::new(); e.globals.len()];
        for p in summary.procs() {
            let Some(node) = graph.by_name(&p.name) else { continue };
            for r in &p.global_refs {
                if let Some(&gid) = e.by_sym.get(&r.sym) {
                    e.refs[gid.index()].push(NodeRef { node, freq: r.freq, written: r.written });
                }
            }
        }
        for refs in &mut e.refs {
            refs.sort_by_key(|r| r.node);
            refs.dedup_by(|later, kept| {
                let same = later.node == kept.node;
                if same {
                    kept.freq += later.freq;
                    kept.written |= later.written;
                }
                same
            });
        }
        e
    }

    /// Number of eligible globals.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Is anything eligible?
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Ids of all eligible globals.
    pub fn ids(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.globals.len() as u32).map(GlobalId)
    }

    /// The eligible global for `id`.
    pub fn global(&self, id: GlobalId) -> &EligibleGlobal {
        &self.globals[id.index()]
    }

    /// Looks an eligible global up by link name.
    pub fn by_sym(&self, sym: &str) -> Option<GlobalId> {
        self.by_sym.get(sym).copied()
    }

    /// Rejected globals with reasons (for the analyzer's statistics).
    pub fn rejected(&self) -> &[(String, IneligibleReason)] {
        &self.rejected
    }

    /// The procedures referencing `g`, ascending by node.
    pub(crate) fn refs(&self, g: GlobalId) -> &[NodeRef] {
        self.refs.get(g.index()).map_or(&[], Vec::as_slice)
    }

    fn node_ref(&self, node: NodeId, g: GlobalId) -> Option<&NodeRef> {
        let refs = self.refs(g);
        refs.binary_search_by_key(&node, |r| r.node).ok().map(|i| &refs[i])
    }

    /// Local reference frequency of `g` in `node`.
    pub fn ref_freq(&self, node: NodeId, g: GlobalId) -> u64 {
        self.node_ref(node, g).map_or(0, |r| r.freq)
    }

    /// Does `node` write `g`?
    pub fn writes(&self, node: NodeId, g: GlobalId) -> bool {
        self.node_ref(node, g).is_some_and(|r| r.written)
    }
}

/// The three per-node reference sets.
#[derive(Debug, Clone)]
pub struct RefSets {
    /// `L_REF` per node.
    pub l_ref: Vec<BitSet>,
    /// `P_REF` per node.
    pub p_ref: Vec<BitSet>,
    /// `C_REF` per node.
    pub c_ref: Vec<BitSet>,
}

impl RefSets {
    /// Computes the sets over the call graph.
    pub fn compute(graph: &CallGraph, elig: &Eligibility) -> RefSets {
        let n = graph.len();
        let cap = elig.len();
        let mut l_ref: Vec<BitSet> = (0..n).map(|_| BitSet::new(cap)).collect();
        for g in elig.ids() {
            for r in elig.refs(g) {
                if r.freq > 0 {
                    l_ref[r.node.index()].insert(g.index());
                }
            }
        }

        // C_REF: bottom-up (reverse condensation topological order),
        // iterated to fixpoint for cycles. Self-edges participate: a
        // self-recursive node sees its own L_REF in C_REF (and in P_REF
        // below), which is what routes recursive chains into the cycle-web
        // handling.
        let mut c_ref: Vec<BitSet> = (0..n).map(|_| BitSet::new(cap)).collect();
        propagate(graph, graph.sccs().rev(), &l_ref, &mut c_ref, |p| graph.successors(p));

        // P_REF: top-down (condensation topological order), to fixpoint.
        let mut p_ref: Vec<BitSet> = (0..n).map(|_| BitSet::new(cap)).collect();
        propagate(graph, graph.sccs(), &l_ref, &mut p_ref, |p| graph.predecessors(p));

        RefSets { l_ref, p_ref, c_ref }
    }

    /// `g ∈ L_REF[n]`?
    pub fn in_l(&self, n: NodeId, g: GlobalId) -> bool {
        self.l_ref[n.index()].contains(g.index())
    }

    /// `g ∈ P_REF[n]`?
    pub fn in_p(&self, n: NodeId, g: GlobalId) -> bool {
        self.p_ref[n.index()].contains(g.index())
    }

    /// `g ∈ C_REF[n]`?
    pub fn in_c(&self, n: NodeId, g: GlobalId) -> bool {
        self.c_ref[n.index()].contains(g.index())
    }
}

/// Solves `sets[p] = ⋃ (sets[q] ∪ local[q])` over each node's `neighbors`
/// `q`, visiting the SCCs in the order given, which must put every
/// neighbor's SCC first: a node off any cycle is then settled in one
/// visit, and a recursive SCC is revisited until it stops changing.
fn propagate<'g, I: Iterator<Item = NodeId>>(
    graph: &CallGraph,
    sccs: impl Iterator<Item = &'g [NodeId]>,
    local: &[BitSet],
    sets: &mut [BitSet],
    neighbors: impl Fn(NodeId) -> I,
) {
    for members in sccs {
        loop {
            let mut changed = false;
            for &p in members {
                // Taken out so the neighbors' sets can be read while it
                // grows; a self-edge adds only `local[p]`.
                let mut set = std::mem::replace(&mut sets[p.index()], BitSet::new(0));
                for q in neighbors(p) {
                    if q != p {
                        changed |= set.union_with(&sets[q.index()]);
                    }
                    changed |= set.union_with(&local[q.index()]);
                }
                sets[p.index()] = set;
            }
            if !changed || !graph.is_recursive(members[0]) {
                break;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use ipra_summary::*;

    /// One procedure in [`summary`]'s compact program description:
    /// `(proc, [(callee, freq)], [global syms referenced])`.
    pub type ProcDesc<'a> = (&'a str, &'a [(&'a str, u64)], &'a [&'a str]);

    /// Builds a one-module program summary from a compact description.
    pub fn summary(procs: &[ProcDesc<'_>], globals: &[&str]) -> ProgramSummary {
        let procs = procs
            .iter()
            .map(|(name, calls, refs)| ProcSummary {
                name: name.to_string(),
                module: "m".to_string(),
                global_refs: refs
                    .iter()
                    .map(|g| GlobalRef {
                        sym: g.to_string(),
                        freq: 10,
                        written: true,
                        ptr_mod: false,
                        ptr_ref: false,
                        escapes: false,
                    })
                    .collect(),
                calls: calls
                    .iter()
                    .map(|(c, f)| CallRef { callee: c.to_string(), freq: *f })
                    .collect(),
                taken_addresses: vec![],
                makes_indirect_calls: false,
                callee_saves_estimate: 2,
                caller_saves_estimate: 2,
                alias: Default::default(),
            })
            .collect();
        let globals = globals
            .iter()
            .map(|g| GlobalFact {
                sym: g.to_string(),
                size: 1,
                is_array: false,
                is_static: false,
                module: "m".to_string(),
                init: vec![],
            })
            .collect();
        ProgramSummary { modules: vec![ModuleSummary { module: "m".into(), procs, globals }] }
    }

    /// The paper's Figure 3 example: nodes A–H, globals g1–g3, with the
    /// L_REF sets of Table 1.
    pub fn figure3() -> ProgramSummary {
        summary(
            &[
                ("A", &[("B", 1), ("C", 1)], &["g3"]),
                ("B", &[("D", 1), ("E", 1)], &["g1", "g3"]),
                ("C", &[("F", 1), ("G", 1)], &["g2", "g3"]),
                ("D", &[], &["g1"]),
                ("E", &[], &["g1", "g2"]),
                ("F", &[], &["g2"]),
                ("G", &[("H", 1)], &["g2"]),
                ("H", &[], &[]),
            ],
            &["g1", "g2", "g3"],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{figure3, summary};
    use super::*;
    use ipra_summary::{GlobalFact, GlobalRef, ModuleSummary, ProcSummary, ProgramSummary};

    fn build(s: &ProgramSummary) -> (CallGraph, Eligibility, RefSets) {
        let g = CallGraph::build(s, None);
        let e = Eligibility::compute(&g, s);
        let r = RefSets::compute(&g, &e);
        (g, e, r)
    }

    #[test]
    fn figure3_reproduces_table1() {
        let s = figure3();
        let (g, e, r) = build(&s);
        let node = |n: &str| g.by_name(n).unwrap();
        let gid = |s: &str| e.by_sym(s).unwrap();
        let (g1, g2, g3) = (gid("g1"), gid("g2"), gid("g3"));

        // Table 1, C_REF column.
        let c = |n: &str| {
            let id = node(n);
            e.ids().filter(|&x| r.in_c(id, x)).map(|x| e.global(x).sym.clone()).collect::<Vec<_>>()
        };
        assert_eq!(c("A"), vec!["g1", "g2", "g3"]);
        assert_eq!(c("B"), vec!["g1", "g2"]);
        assert_eq!(c("C"), vec!["g2"]);
        assert_eq!(c("D"), Vec::<String>::new());
        assert_eq!(c("E"), Vec::<String>::new());
        assert_eq!(c("H"), Vec::<String>::new());

        // Table 1, P_REF column.
        let p = |n: &str| {
            let id = node(n);
            e.ids().filter(|&x| r.in_p(id, x)).map(|x| e.global(x).sym.clone()).collect::<Vec<_>>()
        };
        assert_eq!(p("A"), Vec::<String>::new());
        assert_eq!(p("B"), vec!["g3"]);
        assert_eq!(p("C"), vec!["g3"]);
        assert_eq!(p("D"), vec!["g1", "g3"]);
        assert_eq!(p("E"), vec!["g1", "g3"]);
        assert_eq!(p("F"), vec!["g2", "g3"]);
        assert_eq!(p("G"), vec!["g2", "g3"]);
        assert_eq!(p("H"), vec!["g2", "g3"]);

        // L_REF spot checks.
        assert!(r.in_l(node("B"), g1) && r.in_l(node("B"), g3));
        assert!(!r.in_l(node("H"), g1) && !r.in_l(node("H"), g2) && !r.in_l(node("H"), g3));
        assert!(r.in_l(node("E"), g2));
    }

    #[test]
    fn aliased_and_array_globals_rejected() {
        let mut s = summary(&[("main", &[], &["g", "h"])], &["g", "h"]);
        // g's address is taken; h stays eligible. Add an array too.
        s.modules[0].procs[0].global_refs[0].escapes = true;
        s.modules[0].globals.push(GlobalFact {
            sym: "arr".into(),
            size: 10,
            is_array: true,
            is_static: false,
            module: "m".into(),
            init: vec![],
        });
        let g = CallGraph::build(&s, None);
        let e = Eligibility::compute(&g, &s);
        assert_eq!(e.len(), 1);
        assert!(e.by_sym("h").is_some());
        assert!(e.by_sym("g").is_none());
        assert!(e.rejected().iter().any(|(s, r)| s == "g" && *r == IneligibleReason::Aliased));
        assert!(e.rejected().iter().any(|(s, r)| s == "arr" && *r == IneligibleReason::Array));
    }

    #[test]
    fn undefined_extern_rejected() {
        let s = ProgramSummary {
            modules: vec![ModuleSummary {
                module: "m".into(),
                procs: vec![ProcSummary {
                    name: "main".into(),
                    module: "m".into(),
                    global_refs: vec![GlobalRef {
                        sym: "ctype".into(),
                        freq: 1,
                        written: false,
                        ptr_mod: false,
                        ptr_ref: false,
                        escapes: false,
                    }],
                    calls: vec![],
                    taken_addresses: vec![],
                    makes_indirect_calls: false,
                    callee_saves_estimate: 0,
                    caller_saves_estimate: 2,
                    alias: Default::default(),
                }],
                globals: vec![],
            }],
        };
        let g = CallGraph::build(&s, None);
        let e = Eligibility::compute(&g, &s);
        assert!(e.is_empty());
        assert!(e
            .rejected()
            .iter()
            .any(|(sy, r)| sy == "ctype" && *r == IneligibleReason::Undefined));
    }

    #[test]
    fn recursive_cycle_propagates_both_ways() {
        // main -> a <-> b; b refs g. Inside the cycle both P_REF and C_REF
        // must include g (reachable through the cycle).
        let s = summary(
            &[("main", &[("a", 1)], &[]), ("a", &[("b", 1)], &[]), ("b", &[("a", 1)], &["g"])],
            &["g"],
        );
        let (g, e, r) = build(&s);
        let gid = e.by_sym("g").unwrap();
        let a = g.by_name("a").unwrap();
        let b = g.by_name("b").unwrap();
        let main = g.by_name("main").unwrap();
        assert!(r.in_c(main, gid));
        assert!(r.in_c(a, gid));
        // b's own C_REF: along chains starting at b: b -> a -> b refs g.
        assert!(r.in_c(b, gid));
        // P_REF: a is reachable from b (which refs g), so g ∈ P_REF[a].
        assert!(r.in_p(a, gid));
        assert!(r.in_p(b, gid));
        assert!(!r.in_p(main, gid));
    }

    #[test]
    fn ref_freq_and_writes_recorded() {
        let s = summary(&[("main", &[], &["g"])], &["g"]);
        let (g, e, _) = build(&s);
        let m = g.by_name("main").unwrap();
        let gid = e.by_sym("g").unwrap();
        assert_eq!(e.ref_freq(m, gid), 10);
        assert!(e.writes(m, gid));
        assert_eq!(e.ref_freq(m, GlobalId(0)), 10);
    }
}
