//! The program call graph.
//!
//! Built from the per-module summary files (paper §4: "the program analyzer
//! first reads in all the summary files to construct a call graph for the
//! program"). Nodes are procedures by link name — including *undefined*
//! externals (run-time library routines, §7.2), which are modeled as leaves
//! under the paper's partial-call-graph assumptions. Indirect calls follow
//! §7.3: every procedure whose address has been computed is a potential
//! callee of every procedure that makes indirect calls.
//!
//! The graph also carries the analyzer's *estimated invocation counts*: the
//! paper's normalized heuristic (start nodes seed the flow, counts propagate
//! along edges in SCC-condensation topological order, recursive arcs and
//! arcs to leaf procedures get boosted weights, §6.2), or exact counts from
//! a profile (configurations B and F).

use crate::profile::ProfileData;
use ipra_summary::ProgramSummary;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A call graph node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the graph's node vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A call edge with its local (per-activation) frequency estimate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Calling procedure.
    pub from: NodeId,
    /// Called procedure.
    pub to: NodeId,
    /// Loop-depth-weighted local call frequency from the summary, or 1 for
    /// conservatively-added indirect edges.
    pub local_freq: u64,
    /// Was this edge added for a possible indirect call?
    pub indirect: bool,
}

/// A node: one procedure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Link name.
    pub name: String,
    /// Defined in some summarized module (false = external library).
    pub defined: bool,
    /// Defining module (empty for externals).
    pub module: String,
    /// Estimated callee-saves register need (from the summary).
    pub callee_saves_estimate: u32,
    /// Estimated caller-saves register need (from the summary; used by the
    /// caller-saves preallocation extension).
    pub caller_saves_estimate: u32,
}

/// The program call graph plus invocation-count estimates.
#[derive(Debug, Clone)]
pub struct CallGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    by_name: HashMap<String, NodeId>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    /// Strongly connected component index per node.
    scc: Vec<u32>,
    /// Number of SCCs.
    scc_count: u32,
    /// SCC-condensation topological order of nodes (callers before callees,
    /// intra-SCC order arbitrary but deterministic). Each SCC's members
    /// form one contiguous run.
    topo: Vec<NodeId>,
    /// Per node: on a recursive call chain (nontrivial SCC or self loop)?
    recursive: Vec<bool>,
    /// Estimated invocations per node.
    call_count: Vec<u64>,
    /// Estimated traversals per edge (parallel to `edges`).
    edge_count: Vec<u64>,
}

/// Boost applied to invocation counts of recursive procedures (§6.2:
/// "increasing the weights on recursive arcs").
const RECURSION_BOOST: u64 = 10;
/// Boost applied to edges targeting leaf procedures (§6.2).
const LEAF_BOOST_NUM: u64 = 2;
/// Saturation cap, so pathological loop nests cannot overflow.
const COUNT_CAP: u64 = 1 << 48;

impl CallGraph {
    /// Builds the call graph from summaries, with heuristic counts, or with
    /// profile counts when `profile` is given.
    pub fn build(summary: &ProgramSummary, profile: Option<&ProfileData>) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut by_name: HashMap<String, NodeId> = HashMap::new();
        let intern = |nodes: &mut Vec<Node>, by_name: &mut HashMap<String, NodeId>, name: &str| {
            if let Some(&id) = by_name.get(name) {
                return id;
            }
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node {
                name: name.to_string(),
                defined: false,
                module: String::new(),
                callee_saves_estimate: 0,
                caller_saves_estimate: 0,
            });
            by_name.insert(name.to_string(), id);
            id
        };

        for p in summary.procs() {
            let id = intern(&mut nodes, &mut by_name, &p.name);
            let n = &mut nodes[id.index()];
            n.defined = true;
            n.module = p.module.clone();
            n.callee_saves_estimate = p.callee_saves_estimate;
            n.caller_saves_estimate = p.caller_saves_estimate;
        }

        let mut edges: Vec<Edge> = Vec::new();
        let mut address_taken: Vec<NodeId> = Vec::new();
        let mut taken_seen: HashSet<NodeId> = HashSet::new();
        let mut indirect_callers: Vec<NodeId> = Vec::new();
        for p in summary.procs() {
            let from = by_name[&p.name];
            for c in &p.calls {
                let to = intern(&mut nodes, &mut by_name, &c.callee);
                edges.push(Edge { from, to, local_freq: c.freq, indirect: false });
            }
            for t in &p.taken_addresses {
                let id = intern(&mut nodes, &mut by_name, t);
                if taken_seen.insert(id) {
                    address_taken.push(id);
                }
            }
            if p.makes_indirect_calls {
                indirect_callers.push(from);
            }
        }
        // §7.3: any address-taken procedure may be the target of any
        // indirect call site that has no edge to it yet.
        if !indirect_callers.is_empty() {
            let mut linked: HashSet<(NodeId, NodeId)> =
                edges.iter().map(|e| (e.from, e.to)).collect();
            for &from in &indirect_callers {
                for &to in &address_taken {
                    if linked.insert((from, to)) {
                        edges.push(Edge { from, to, local_freq: 1, indirect: true });
                    }
                }
            }
        }

        let n = nodes.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            succs[e.from.index()].push(i);
            preds[e.to.index()].push(i);
        }

        let (scc, scc_count, topo) = sccs(n, &edges, &succs);
        let mut scc_size = vec![0u32; scc_count as usize];
        for &c in &scc {
            scc_size[c as usize] += 1;
        }
        let recursive = (0..n)
            .map(|v| {
                scc_size[scc[v] as usize] > 1
                    || succs[v].iter().any(|&ei| edges[ei].to.index() == v)
            })
            .collect();
        let mut g = CallGraph {
            nodes,
            edges,
            by_name,
            succs,
            preds,
            scc,
            scc_count,
            topo,
            recursive,
            call_count: vec![0; n],
            edge_count: Vec::new(),
        };
        g.edge_count = vec![0; g.edges.len()];
        match profile {
            Some(p) => g.apply_profile(p),
            None => g.estimate_counts(),
        }
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The node for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks a node up by link name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edges of `n` (as edge indices).
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = (usize, &Edge)> {
        self.succs[n.index()].iter().map(move |&i| (i, &self.edges[i]))
    }

    /// Incoming edges of `n` (as edge indices).
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = (usize, &Edge)> {
        self.preds[n.index()].iter().map(move |&i| (i, &self.edges[i]))
    }

    /// Distinct successor nodes of `n` (may repeat if parallel edges exist).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[n.index()].iter().map(move |&i| self.edges[i].to)
    }

    /// Distinct predecessor nodes of `n`.
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[n.index()].iter().map(move |&i| self.edges[i].from)
    }

    /// Nodes with no predecessors (the paper's *start nodes*).
    pub fn start_nodes(&self) -> Vec<NodeId> {
        self.node_ids().filter(|n| self.preds[n.index()].is_empty()).collect()
    }

    /// Is `n` on a recursive call chain (nontrivial SCC or self loop)?
    pub fn is_recursive(&self, n: NodeId) -> bool {
        self.recursive[n.index()]
    }

    /// The SCC index of `n`.
    pub fn scc_of(&self, n: NodeId) -> u32 {
        self.scc[n.index()]
    }

    /// Number of SCCs.
    pub fn scc_count(&self) -> u32 {
        self.scc_count
    }

    /// Nodes in SCC-condensation topological order (callers first). The
    /// members of each SCC are adjacent.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// The SCCs in condensation topological order (callers first), each as
    /// its run of [`CallGraph::topo_order`].
    pub fn sccs(&self) -> impl DoubleEndedIterator<Item = &[NodeId]> + '_ {
        scc_runs(&self.topo, &self.scc)
    }

    /// Estimated (or profiled) invocations of `n`.
    pub fn call_count(&self, n: NodeId) -> u64 {
        self.call_count[n.index()]
    }

    /// Estimated (or profiled) traversals of edge `i`.
    pub fn edge_count(&self, i: usize) -> u64 {
        self.edge_count[i]
    }

    /// Is `n` a leaf procedure (no outgoing calls)?
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.succs[n.index()].is_empty()
    }

    /// The paper's normalized heuristic: start nodes are invoked once;
    /// counts flow along edges as `count(caller) × local_freq`, saturating;
    /// recursive procedures get [`RECURSION_BOOST`]; arcs into leaves are
    /// up-weighted.
    fn estimate_counts(&mut self) {
        for &s in &self.start_nodes() {
            self.call_count[s.index()] = 1;
        }
        // Process SCCs in condensation topological order; all cross-SCC
        // predecessors are final by the time an SCC is reached.
        let order = std::mem::take(&mut self.topo);
        for members in scc_runs(&order, &self.scc) {
            let scc = self.scc[members[0].index()];
            // Every member of a run shares one SCC, so the first member's
            // flag is the SCC's.
            let recursive = self.recursive[members[0].index()];
            // Incoming flow from outside the SCC.
            let mut incoming: u64 = members
                .iter()
                .map(|&m| {
                    self.preds[m.index()]
                        .iter()
                        .map(|&ei| {
                            if self.scc[self.edges[ei].from.index()] == scc {
                                0
                            } else {
                                self.edge_count[ei]
                            }
                        })
                        .sum::<u64>()
                })
                .sum();
            if incoming == 0 && members.iter().any(|&m| self.preds[m.index()].is_empty()) {
                incoming = 1; // start node seed
            }
            let mut count = if recursive {
                incoming.saturating_mul(RECURSION_BOOST).min(COUNT_CAP)
            } else {
                incoming.min(COUNT_CAP)
            };
            // Leaf procedures get their node weight boosted (they tend to
            // be the hottest); edge counts stay unboosted so the
            // cluster-root heuristic compares real call volumes.
            if members.len() == 1 && self.succs[members[0].index()].is_empty() {
                count = count.saturating_mul(LEAF_BOOST_NUM).min(COUNT_CAP);
            }
            for &m in members {
                self.call_count[m.index()] = count;
                // Outgoing edge counts from m.
                for &ei in &self.succs[m.index()] {
                    let e = &self.edges[ei];
                    let c = count.saturating_mul(e.local_freq);
                    self.edge_count[ei] = c.min(COUNT_CAP);
                }
            }
        }
        self.topo = order;
    }

    fn apply_profile(&mut self, profile: &ProfileData) {
        for (i, e) in self.edges.iter().enumerate() {
            let from = &self.nodes[e.from.index()].name;
            let to = &self.nodes[e.to.index()].name;
            self.edge_count[i] = profile.edge(from, to);
        }
        for n in 0..self.nodes.len() {
            let name = &self.nodes[n].name;
            self.call_count[n] = profile.calls(name).max(
                // Nodes the profile never saw keep a floor of 0; start nodes
                // get 1 (main runs once).
                if self.preds[n].is_empty() { 1 } else { 0 },
            );
        }
    }
}

/// The runs of `topo` whose nodes share an SCC index in `scc`.
fn scc_runs<'a>(
    topo: &'a [NodeId],
    scc: &'a [u32],
) -> impl DoubleEndedIterator<Item = &'a [NodeId]> + 'a {
    topo.chunk_by(move |a, b| scc[a.index()] == scc[b.index()])
}

/// Tarjan SCCs (iterative). Returns `(scc index per node, scc count, nodes
/// in condensation topological order — callers before callees)`.
fn sccs(n: usize, edges: &[Edge], succs: &[Vec<usize>]) -> (Vec<u32>, u32, Vec<NodeId>) {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc = vec![u32::MAX; n];
    let mut scc_count = 0u32;
    let mut counter = 0usize;
    let mut order: Vec<NodeId> = Vec::new(); // reverse condensation topo (callees first)

    #[derive(Clone)]
    struct Frame {
        v: usize,
        edge_pos: usize,
    }

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame { v: root, edge_pos: 0 }];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(fr) = call_stack.last_mut() {
            let v = fr.v;
            if fr.edge_pos < succs[v].len() {
                let ei = succs[v][fr.edge_pos];
                fr.edge_pos += 1;
                let w = edges[ei].to.index();
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(Frame { v: w, edge_pos: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc[w] = scc_count;
                        order.push(NodeId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
                let lv = low[v];
                call_stack.pop();
                if let Some(parent) = call_stack.last() {
                    low[parent.v] = low[parent.v].min(lv);
                }
            }
        }
    }
    order.reverse(); // callers before callees
    (scc, scc_count, order)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ipra_summary::{CallRef, ModuleSummary, ProcSummary, ProgramSummary};

    pub(crate) fn proc(name: &str, calls: &[(&str, u64)]) -> ProcSummary {
        ProcSummary {
            name: name.to_string(),
            module: "m".to_string(),
            global_refs: vec![],
            calls: calls.iter().map(|(c, f)| CallRef { callee: c.to_string(), freq: *f }).collect(),
            taken_addresses: vec![],
            makes_indirect_calls: false,
            callee_saves_estimate: 2,
            caller_saves_estimate: 2,
            alias: Default::default(),
        }
    }

    pub(crate) fn summary_of(procs: Vec<ProcSummary>) -> ProgramSummary {
        ProgramSummary {
            modules: vec![ModuleSummary { module: "m".into(), procs, globals: vec![] }],
        }
    }

    #[test]
    fn builds_nodes_and_edges() {
        let s = summary_of(vec![
            proc("main", &[("a", 1), ("b", 2)]),
            proc("a", &[("b", 3)]),
            proc("b", &[]),
        ]);
        let g = CallGraph::build(&s, None);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edges().len(), 3);
        let main = g.by_name("main").unwrap();
        assert_eq!(g.successors(main).count(), 2);
        assert_eq!(g.start_nodes(), vec![main]);
    }

    #[test]
    fn undefined_externals_are_leaf_nodes() {
        let s = summary_of(vec![proc("main", &[("libc_qsort", 1)])]);
        let g = CallGraph::build(&s, None);
        let q = g.by_name("libc_qsort").unwrap();
        assert!(!g.node(q).defined);
        assert!(g.is_leaf(q));
    }

    #[test]
    fn indirect_edges_connect_callers_to_taken_addresses() {
        let mut cmp = proc("cmp", &[]);
        cmp.callee_saves_estimate = 0;
        let mut m = proc("main", &[("sorter", 1)]);
        m.taken_addresses = vec!["cmp".into()];
        let mut sorter = proc("sorter", &[]);
        sorter.makes_indirect_calls = true;
        let s = summary_of(vec![m, sorter, cmp]);
        let g = CallGraph::build(&s, None);
        let sorter = g.by_name("sorter").unwrap();
        let cmp = g.by_name("cmp").unwrap();
        assert!(g.successors(sorter).any(|x| x == cmp));
        assert!(g.succ_edges(sorter).any(|(_, e)| e.indirect));
    }

    #[test]
    fn sccs_and_topo_order() {
        let s = summary_of(vec![
            proc("main", &[("a", 1)]),
            proc("a", &[("b", 1)]),
            proc("b", &[("a", 1), ("c", 1)]), // a <-> b recursive pair
            proc("c", &[]),
        ]);
        let g = CallGraph::build(&s, None);
        let (a, b, c, main) = (
            g.by_name("a").unwrap(),
            g.by_name("b").unwrap(),
            g.by_name("c").unwrap(),
            g.by_name("main").unwrap(),
        );
        assert_eq!(g.scc_of(a), g.scc_of(b));
        assert_ne!(g.scc_of(a), g.scc_of(c));
        assert!(g.is_recursive(a) && g.is_recursive(b));
        assert!(!g.is_recursive(c) && !g.is_recursive(main));
        let pos = |n: NodeId| g.topo_order().iter().position(|&x| x == n).unwrap();
        assert!(pos(main) < pos(a));
        assert!(pos(b) < pos(c));
        let sccs: Vec<&[NodeId]> = g.sccs().collect();
        assert_eq!(sccs.len(), 3);
        assert!(sccs[1].contains(&a) && sccs[1].contains(&b));
    }

    #[test]
    fn self_loop_is_recursive() {
        let s = summary_of(vec![proc("main", &[("r", 1)]), proc("r", &[("r", 1)])]);
        let g = CallGraph::build(&s, None);
        assert!(g.is_recursive(g.by_name("r").unwrap()));
    }

    #[test]
    fn heuristic_counts_flow_and_boost() {
        let s = summary_of(vec![
            proc("main", &[("mid", 10)]),
            proc("mid", &[("leaf", 10)]),
            proc("leaf", &[]),
        ]);
        let g = CallGraph::build(&s, None);
        let main = g.by_name("main").unwrap();
        let mid = g.by_name("mid").unwrap();
        let leaf = g.by_name("leaf").unwrap();
        assert_eq!(g.call_count(main), 1);
        assert_eq!(g.call_count(mid), 10);
        // 10 (mid count) * 10 (freq) * 2 (leaf boost)
        assert_eq!(g.call_count(leaf), 200);
    }

    #[test]
    fn recursion_boost_applies() {
        let s = summary_of(vec![proc("main", &[("r", 1)]), proc("r", &[("r", 1)])]);
        let g = CallGraph::build(&s, None);
        let r = g.by_name("r").unwrap();
        assert_eq!(g.call_count(r), 10); // 1 incoming × RECURSION_BOOST
    }

    #[test]
    fn counts_saturate() {
        // Deep chain of very hot loops must not overflow.
        let mut procs = vec![proc("main", &[("p0", 10_000)])];
        for i in 0..20 {
            procs.push(proc(&format!("p{i}"), &[(&format!("p{}", i + 1), 10_000)]));
        }
        procs.push(proc("p20", &[]));
        let g = CallGraph::build(&summary_of(procs), None);
        for n in g.node_ids() {
            assert!(g.call_count(n) <= COUNT_CAP);
        }
    }

    #[test]
    fn profile_counts_override_heuristics() {
        let s = summary_of(vec![proc("main", &[("a", 100)]), proc("a", &[])]);
        let mut p = ProfileData::default();
        p.record_edge("main", "a", 7);
        let g = CallGraph::build(&s, Some(&p));
        let a = g.by_name("a").unwrap();
        assert_eq!(g.call_count(a), 7);
        let (i, _) = g.succ_edges(g.by_name("main").unwrap()).next().unwrap();
        assert_eq!(g.edge_count(i), 7);
    }
}
