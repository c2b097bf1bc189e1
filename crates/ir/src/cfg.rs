//! Control-flow graph analyses: predecessors, reverse postorder,
//! dominators, and natural-loop nesting depth.
//!
//! Loop depth drives the compiler first phase's frequency heuristics (the
//! paper §3/§6: "usage counts and call frequencies were determined based on
//! the location of each reference or call in the control flow hierarchy").

use crate::ir::{BlockId, Function};

/// Marks an unreachable block in [`Cfg`]'s reverse-postorder index.
const UNREACHED: u32 = u32::MAX;

/// Predecessor/successor structure and a reverse postorder for a function.
///
/// The edge lists are stored flat (each block's predecessors, then its
/// successors, are one slice of a shared vector), and
/// [`Cfg::recompute`] refills the same vectors, so a pass pipeline that
/// rebuilds the graph after a structural change allocates nothing new.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// `preds[pred_start[b]..pred_start[b + 1]]` are `b`'s predecessors, one
    /// entry per edge, in (source block, successor position) order.
    pred_start: Vec<u32>,
    preds: Vec<BlockId>,
    /// Likewise for successors, in terminator order.
    succ_start: Vec<u32>,
    succs: Vec<BlockId>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<u32>,
    /// The depth-first search's stack: a block and its next successor.
    stack: Vec<(BlockId, u32)>,
}

impl Cfg {
    /// Builds the CFG for `f`.
    pub fn new(f: &Function) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.recompute(f);
        cfg
    }

    /// Rebuilds the CFG for `f` (which may have changed since) in place.
    pub fn recompute(&mut self, f: &Function) {
        let n = f.blocks.len();
        self.succ_start.clear();
        self.succs.clear();
        self.pred_start.clear();
        self.pred_start.resize(n + 1, 0);
        for b in &f.blocks {
            self.succ_start.push(self.succs.len() as u32);
            for s in b.term.successors() {
                self.succs.push(s);
                self.pred_start[s.index()] += 1;
            }
        }
        self.succ_start.push(self.succs.len() as u32);
        // Counts become end offsets; filling each block's slice from its
        // end, sources in reverse, leaves the offsets at the starts and the
        // predecessors in source order.
        let mut end = 0;
        for c in &mut self.pred_start[..n] {
            end += *c;
            *c = end;
        }
        self.pred_start[n] = end;
        self.preds.clear();
        self.preds.resize(end as usize, BlockId(0));
        for (b, succs) in self.succ_start.windows(2).enumerate().rev() {
            for &s in self.succs[succs[0] as usize..succs[1] as usize].iter().rev() {
                let at = &mut self.pred_start[s.index()];
                *at -= 1;
                self.preds[*at as usize] = BlockId(b as u32);
            }
        }
        // Iterative DFS postorder from the entry; `rpo_index` marks visited
        // blocks until the order is known.
        self.rpo.clear();
        self.rpo_index.clear();
        self.rpo_index.resize(n, UNREACHED);
        self.stack.clear();
        self.stack.push((f.entry, 0));
        self.rpo_index[f.entry.index()] = 0;
        while let Some(&mut (b, ref mut next)) = self.stack.last_mut() {
            let at = self.succ_start[b.index()] + *next;
            if at < self.succ_start[b.index() + 1] {
                let s = self.succs[at as usize];
                *next += 1;
                if self.rpo_index[s.index()] == UNREACHED {
                    self.rpo_index[s.index()] = 0;
                    self.stack.push((s, 0));
                }
            } else {
                self.rpo.push(b);
                self.stack.pop();
            }
        }
        self.rpo.reverse();
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_index[b.index()] = i as u32;
        }
    }

    /// Immediate predecessors of `b`, one entry per edge.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_start[b.index()] as usize..self.pred_start[b.index() + 1] as usize]
    }

    /// Immediate successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[self.succ_start[b.index()] as usize..self.succ_start[b.index() + 1] as usize]
    }

    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// absent).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse postorder, `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.index()];
        (i != UNREACHED).then_some(i as usize)
    }

    /// Is `b` reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != UNREACHED
    }
}

/// Immediate dominators, computed with the Cooper–Harvey–Kennedy iterative
/// algorithm. `idom[entry] == entry`; unreachable blocks get `None`.
pub fn dominators(f: &Function, cfg: &Cfg) -> Vec<Option<BlockId>> {
    let n = f.blocks.len();
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[f.entry.index()] = Some(f.entry);
    let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
        while a != b {
            while cfg.rpo_index(a).expect("reachable") > cfg.rpo_index(b).expect("reachable") {
                a = idom[a.index()].expect("processed");
            }
            while cfg.rpo_index(b).expect("reachable") > cfg.rpo_index(a).expect("reachable") {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo().iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in cfg.preds(b) {
                if idom[p.index()].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if new_idom != idom[b.index()] {
                idom[b.index()] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Does `a` dominate `b`? (Both must be reachable.)
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

/// Natural-loop nesting depth for every block (0 = not in any loop).
///
/// A back edge `u → v` (where `v` dominates `u`) defines the natural loop of
/// `v`: all blocks that reach `u` without passing through `v`, plus `v`.
/// Each back edge counts once, so a header with two back edges, and every
/// block inside both of their loops, gains 2. The cost is the total size of
/// the natural loops: a dominator precedes the blocks it dominates in
/// reverse postorder, so only edges that go back in that order are tested
/// for dominance, and each loop's walk marks its blocks with the back
/// edge's own stamp instead of clearing a set.
pub fn loop_depths(f: &Function, cfg: &Cfg, idom: &[Option<BlockId>]) -> Vec<u32> {
    let n = f.blocks.len();
    let mut depth = vec![0u32; n];
    // `stamp[b] == k` marks `b` as inside the k-th back edge's loop.
    let mut stamp = vec![0u32; n];
    let mut edges = 0u32;
    let mut work = Vec::new();
    for &u in cfg.rpo() {
        for &v in cfg.succs(u) {
            if cfg.rpo_index(v) > cfg.rpo_index(u) || !dominates(idom, v, u) {
                continue;
            }
            edges += 1;
            stamp[v.index()] = edges;
            depth[v.index()] += 1;
            work.push(u);
            while let Some(b) = work.pop() {
                if stamp[b.index()] == edges {
                    continue;
                }
                stamp[b.index()] = edges;
                depth[b.index()] += 1;
                work.extend(cfg.preds(b).iter().filter(|p| stamp[p.index()] != edges));
            }
        }
    }
    depth
}

/// A static execution-frequency estimate for a block at loop `depth`:
/// `10^min(depth, 4)`. This is the frequency heuristic the compiler first
/// phase uses for reference and call counts.
pub fn depth_weight(depth: u32) -> u64 {
    10u64.pow(depth.min(4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Block, Function, Operand, Term};

    /// Builds a function with the given edges; block 0 is entry. Blocks with
    /// two successors use a dummy branch, one successor a jump, none a ret.
    fn graph(n: usize, edges: &[(u32, u32)]) -> Function {
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            succs[a as usize].push(BlockId(b));
        }
        let blocks = succs
            .into_iter()
            .map(|s| Block {
                insts: vec![],
                term: match s.len() {
                    0 => Term::Ret(None),
                    1 => Term::Jump(s[0]),
                    2 => Term::Branch {
                        cond: BinOp::Eq,
                        lhs: Operand::Const(0),
                        rhs: Operand::Const(0),
                        then_b: s[0],
                        else_b: s[1],
                    },
                    _ => panic!("at most 2 successors in tests"),
                },
            })
            .collect();
        Function { name: "t".into(), params: vec![], blocks, entry: BlockId(0), temp_count: 0 }
    }

    #[test]
    fn diamond_dominators() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let f = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cfg = Cfg::new(&f);
        let idom = dominators(&f, &cfg);
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(0)));
        assert_eq!(idom[3], Some(BlockId(0)));
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(!dominates(&idom, BlockId(1), BlockId(3)));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = graph(5, &[(0, 1), (1, 2), (2, 1), (1, 3)]); // block 4 unreachable
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.rpo().len(), 4);
        assert!(!cfg.is_reachable(BlockId(4)));
        assert!(cfg.is_reachable(BlockId(3)));
    }

    #[test]
    fn simple_loop_depth() {
        // 0 -> 1; 1 -> 2, 3; 2 -> 1 (loop on 1,2); 3 exit
        let f = graph(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let cfg = Cfg::new(&f);
        let idom = dominators(&f, &cfg);
        let d = loop_depths(&f, &cfg, &idom);
        assert_eq!(d, vec![0, 1, 1, 0]);
    }

    #[test]
    fn nested_loop_depth() {
        // 0 -> 1; 1 -> 2; 2 -> 3, 2 -> 1back? build:
        // outer: 1..4, inner: 2..3
        // 0->1, 1->2, 2->3, 3->2 (inner back), 3->4, 4->1 (outer back), 1->5 exit? need branch arity <=2
        let f = graph(6, &[(0, 1), (1, 2), (1, 5), (2, 3), (3, 2), (3, 4), (4, 1)]);
        let cfg = Cfg::new(&f);
        let idom = dominators(&f, &cfg);
        let d = loop_depths(&f, &cfg, &idom);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], 2);
        assert_eq!(d[4], 1);
        assert_eq!(d[5], 0);
    }

    /// The natural-loop count as first written: one scan of every block
    /// per back edge.
    fn depths_by_scan(f: &Function, cfg: &Cfg, idom: &[Option<BlockId>]) -> Vec<u32> {
        let n = f.blocks.len();
        let mut depth = vec![0u32; n];
        for u in f.block_ids().filter(|&u| cfg.is_reachable(u)) {
            for &v in cfg.succs(u).iter().filter(|&&v| dominates(idom, v, u)) {
                let mut in_loop = vec![false; n];
                in_loop[v.index()] = true;
                let mut work = Vec::new();
                if !in_loop[u.index()] {
                    in_loop[u.index()] = true;
                    work.push(u);
                }
                while let Some(b) = work.pop() {
                    for &p in cfg.preds(b) {
                        if !in_loop[p.index()] {
                            in_loop[p.index()] = true;
                            work.push(p);
                        }
                    }
                }
                for (d, inside) in depth.iter_mut().zip(in_loop) {
                    *d += u32::from(inside);
                }
            }
        }
        depth
    }

    fn depths(f: &Function) -> Vec<u32> {
        let cfg = Cfg::new(f);
        let idom = dominators(f, &cfg);
        let d = loop_depths(f, &cfg, &idom);
        assert_eq!(d, depths_by_scan(f, &cfg, &idom), "walk and scan disagree");
        d
    }

    #[test]
    fn triply_nested_loops_count_each_level() {
        // 0 -> 1 (outer header) -> 2 (middle) -> 3 (inner) -> 3 | 4;
        // 4 -> 2 | 5; 5 -> 1 | 6; 6 exits. The unreachable block 7 jumps
        // into the inner loop, so it reaches the middle and outer back
        // edges' sources without passing their headers and counts in both
        // loops, but not in the inner self loop.
        let f = graph(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 5), (5, 1), (5, 6), (7, 3)],
        );
        assert_eq!(depths(&f), vec![0, 1, 2, 3, 2, 1, 0, 2]);
    }

    #[test]
    fn a_header_with_two_back_edges_counts_both() {
        // 1 branches to 2 and the exit 5; 2 branches to 3 and 4, and each
        // jumps back to 1: two back edges to one header. 1 and 2 lie in
        // both loops, 3 and 4 in one each.
        let f = graph(6, &[(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 1), (4, 1)]);
        assert_eq!(depths(&f), vec![0, 2, 2, 1, 1, 0]);
    }

    #[test]
    fn self_loop() {
        let f = graph(3, &[(0, 1), (1, 1), (1, 2)]);
        let cfg = Cfg::new(&f);
        let idom = dominators(&f, &cfg);
        let d = loop_depths(&f, &cfg, &idom);
        assert_eq!(d, vec![0, 1, 0]);
    }

    #[test]
    fn irreducible_graph_does_not_panic() {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 1: a cycle not dominated by either.
        let f = graph(3, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        let cfg = Cfg::new(&f);
        let idom = dominators(&f, &cfg);
        let d = loop_depths(&f, &cfg, &idom);
        // No back edge in the dominance sense, so no natural loop.
        assert_eq!(d, vec![0, 0, 0]);
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(0)));
    }

    #[test]
    fn depth_weight_saturates() {
        assert_eq!(depth_weight(0), 1);
        assert_eq!(depth_weight(2), 100);
        assert_eq!(depth_weight(9), 10_000);
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let f = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cfg = Cfg::new(&f);
        for b in f.block_ids() {
            for &s in cfg.succs(b) {
                assert!(cfg.preds(s).contains(&b));
            }
            for &p in cfg.preds(b) {
                assert!(cfg.succs(p).contains(&b));
            }
        }
    }
}
