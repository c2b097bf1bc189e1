//! Caller-saves preallocation (paper §7.6.2, after [Chow 88]).
//!
//! The paper's prototype moves only callee-saves spill code; §7.6.2 sketches
//! the complementary extension: "pre-allocate caller-saves registers ... in
//! a bottom-up order ... The total caller-saves register usage for the call
//! tree rooted at each procedure can be communicated to the compiler second
//! phase. This would allow the compiler second phase to keep live values in
//! caller-saves registers across calls that don't make use of those
//! caller-saves registers."
//!
//! The contract here:
//!
//! * Each procedure *claims* a prefix of the target's fixed claim pool
//!   ([`TargetDesc::claim_pool`]), sized by its summary estimate; the
//!   second phase confines its own caller-saves scratch to that claim.
//! * `tree_caller(P)` is the union of claims over P's entire call tree.
//!   Calls to procedures on recursive chains, through indirect call sites,
//!   or into undefined (library) procedures conservatively clobber the
//!   whole pool — the limitation the paper itself notes.
//! * A caller may then keep a value in a claim-pool register across a call
//!   to `P` when the register avoids `tree_caller(P)` (and sits inside the
//!   caller's own claim).

use crate::callgraph::{CallGraph, NodeId};
use vpr::regs::RegSet;
use vpr::target::TargetDesc;

/// The claim of one node: the first `estimate` registers of `desc`'s
/// claim pool.
pub fn own_claim_for(graph: &CallGraph, n: NodeId, desc: &TargetDesc) -> RegSet {
    if !graph.node(n).defined {
        return desc.claim_pool_set(); // library code may use anything
    }
    desc.claim_pool.iter().copied().take(graph.node(n).caller_saves_estimate as usize).collect()
}

/// Computes `tree_caller` for every node: the registers of `desc`'s claim
/// pool a call to that node may clobber, transitively.
pub fn compute_tree_caller_for(graph: &CallGraph, desc: &TargetDesc) -> Vec<RegSet> {
    let n = graph.len();
    let mut tree: Vec<RegSet> = vec![RegSet::new(); n];
    // Bottom-up over the condensation; recursive SCCs clobber everything
    // (re-entry makes per-activation claims meaningless).
    let order: Vec<NodeId> = graph.topo_order().iter().rev().copied().collect();
    for &p in &order {
        let mut acc = own_claim_for(graph, p, desc);
        if graph.is_recursive(p) || !graph.node(p).defined {
            acc = desc.claim_pool_set();
        } else {
            for s in graph.successors(p) {
                acc |= tree[s.index()];
            }
        }
        tree[p.index()] = acc;
    }
    // Within SCCs a single pass may under-approximate; iterate to fixpoint
    // (recursive nodes are already saturated, so this is cheap).
    loop {
        let mut changed = false;
        for &p in &order {
            if graph.is_recursive(p) {
                continue;
            }
            let mut acc = tree[p.index()];
            for s in graph.successors(p) {
                acc |= tree[s.index()];
            }
            if acc != tree[p.index()] {
                tree[p.index()] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::tests::{proc, summary_of};
    use vpr::regs::Reg;
    use vpr::target::VPR;

    #[test]
    fn chain_accumulates_claims() {
        // main -> a -> b; estimates are 2 each (test helper default).
        let s = summary_of(vec![proc("main", &[("a", 1)]), proc("a", &[("b", 1)]), proc("b", &[])]);
        let g = CallGraph::build(&s, None);
        let tree = compute_tree_caller_for(&g, &VPR);
        let b = g.by_name("b").unwrap();
        let a = g.by_name("a").unwrap();
        // b's tree = its own claim (first 2 pool registers).
        assert_eq!(tree[b.index()], own_claim_for(&g, b, &VPR));
        assert_eq!(tree[b.index()].len(), 2);
        // a's tree = a's claim ∪ b's — same first-2 prefix here.
        assert_eq!(tree[a.index()], own_claim_for(&g, a, &VPR) | tree[b.index()]);
        // Three registers stay safe across a call to b.
        let safe = VPR.claim_pool_set() - tree[b.index()];
        assert_eq!(safe.len(), 3);
    }

    #[test]
    fn recursion_clobbers_everything() {
        let s = summary_of(vec![proc("main", &[("r", 1)]), proc("r", &[("r", 1)])]);
        let g = CallGraph::build(&s, None);
        let tree = compute_tree_caller_for(&g, &VPR);
        let r = g.by_name("r").unwrap();
        assert_eq!(tree[r.index()], VPR.claim_pool_set());
        // And it propagates up.
        let main = g.by_name("main").unwrap();
        assert_eq!(tree[main.index()], VPR.claim_pool_set());
    }

    #[test]
    fn undefined_callees_clobber_everything() {
        let s = summary_of(vec![proc("main", &[("libc", 1)])]);
        let g = CallGraph::build(&s, None);
        let tree = compute_tree_caller_for(&g, &VPR);
        let libc = g.by_name("libc").unwrap();
        assert_eq!(tree[libc.index()], VPR.claim_pool_set());
    }

    #[test]
    fn leaf_with_zero_estimate_is_fully_safe() {
        let mut leaf = proc("leaf", &[]);
        leaf.caller_saves_estimate = 0;
        let s = summary_of(vec![proc("main", &[("leaf", 1)]), leaf]);
        let g = CallGraph::build(&s, None);
        let tree = compute_tree_caller_for(&g, &VPR);
        let l = g.by_name("leaf").unwrap();
        assert!(tree[l.index()].is_empty());
        assert_eq!((VPR.claim_pool_set() - tree[l.index()]).len(), 5);
    }

    #[test]
    fn pool_is_disjoint_from_args_rv_scratch() {
        let pool = VPR.claim_pool_set();
        for a in Reg::ARGS {
            assert!(!pool.contains(a));
        }
        assert!(!pool.contains(Reg::RV));
        assert!(!pool.contains(Reg::AT));
        assert!(!pool.contains(Reg::new(31)));
        assert!(pool.is_subset(VPR.caller_saves));
    }
}
