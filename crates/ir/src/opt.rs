//! The "level 2" global optimizer.
//!
//! The paper measures every configuration *over level two (global)
//! optimization*, so the baseline quality of this pass pipeline matters: a
//! naive baseline would exaggerate the interprocedural wins. The pipeline
//! runs to a fixpoint over:
//!
//! * local value numbering with constant folding, copy propagation,
//!   store-to-load forwarding and algebraic identities,
//! * branch folding and jump threading,
//! * unreachable-block removal and straight-line block merging,
//! * liveness-based global dead-code elimination.
//!
//! Trap behaviour is preserved: division whose divisor is not a provably
//! nonzero constant, and every indexed/indirect memory access, are treated
//! as side-effecting and survive DCE; constant folding never folds a
//! trapping division.
//!
//! Each function's work is proportional to what it contains. A round keeps
//! one [`Cfg`], rebuilt only after a pass that changed the block structure
//! (value numbering and DCE never do); block merging contracts every
//! single-predecessor jump chain in one walk and renumbers once; blocks
//! and value-numbering states move instead of being cloned; and a
//! redefinition kills only the value-numbering entries that depend on the
//! redefined temp. The buffers live in one scratch value that
//! [`optimize_module`] reuses from function to function.

use crate::cfg::Cfg;
use crate::ir::*;
use crate::liveness::{Liveness, TempSet};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

thread_local! {
    /// Each thread's optimizer buffers, reused from function to function
    /// and module to module.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Optimizes every function of a module in place.
pub fn optimize_module(m: &mut IrModule) {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.vn.names.clear();
        for f in &mut m.functions {
            scratch.optimize(f);
        }
    });
}

/// Runs the pass pipeline on one function until it stops changing.
pub fn optimize_function(f: &mut Function) {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.vn.names.clear();
        scratch.optimize(f);
    });
}

/// What one optimizer run reuses from function to function.
#[derive(Default)]
struct Scratch {
    cfg: Cfg,
    liveness: Liveness,
    live: TempSet,
    dead: Vec<bool>,
    vn: ValueNumbering,
}

impl Scratch {
    /// Runs the six passes, in order, until a round changes nothing (at
    /// most 10 rounds). Every pass leaves `self.cfg` describing `f`.
    fn optimize(&mut self, f: &mut Function) {
        self.cfg.recompute(f);
        for _ in 0..10 {
            let mut changed = self.vn.run(f, &self.cfg);
            // Both run, in order: `|`, not `||`.
            if fold_branches(f) | thread_jumps(f) {
                changed = true;
                self.cfg.recompute(f);
            }
            changed |= remove_unreachable(f, &mut self.cfg);
            changed |= merge_blocks(f, &mut self.cfg);
            changed |= self.dce(f);
            if !changed {
                break;
            }
        }
    }
}

/// A multiplicative word hasher (the rustc "Fx" scheme) for the optimizer's
/// maps, whose keys are temps, interned symbol ids and value-numbering keys
/// built from them. It is several times faster than the default hasher on
/// such keys, but not collision resistant: a program whose constants or
/// names are crafted to collide can slow its own compilation, never change
/// its result.
#[derive(Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A value-numbering key for pure (or memory-versioned) expressions.
/// Symbols are interned ids, so a key is a few words and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(BinOp, Operand, Operand),
    Un(UnOp, Operand),
    LoadGlobal(u32, u64),
    AddrGlobal(u32),
    AddrFunc(u32),
}

impl Key {
    /// The temps the key reads.
    fn operands(self) -> [Option<Temp>; 2] {
        match self {
            Key::Bin(_, a, b) => [a.as_temp(), b.as_temp()],
            Key::Un(_, a) => [a.as_temp(), None],
            _ => [None, None],
        }
    }
}

/// An entry of [`VnState`] that dies with a temp.
#[derive(Debug, Clone, Copy)]
enum Dep {
    /// `env[t]`, which was bound to the temp.
    Env(Temp),
    /// `exprs[k]`, whose key reads the temp or whose value is the temp.
    Expr(Key),
}

/// End of a [`VnState::deps`] list.
const NIL: u32 = u32::MAX;

/// Value-numbering state carried across extended basic blocks.
#[derive(Default)]
struct VnState {
    /// temp -> known equal operand (constant or older temp).
    env: WordMap<Temp, Operand>,
    /// expression -> temp holding it.
    exprs: WordMap<Key, Temp>,
    /// temp -> head of the list, threaded through `deps`, of the entries
    /// that name it. A list may hold entries that were since replaced;
    /// [`VnState::kill`] checks each before removing it.
    heads: WordMap<Temp, u32>,
    /// The list cells: an entry and the index of the next cell (or [`NIL`]).
    deps: Vec<(Dep, u32)>,
    /// per-global memory version (bumping invalidates Load keys).
    global_ver: WordMap<u32, u64>,
    heap_ver: u64,
}

impl VnState {
    /// Overwrites `self` with `other`, reusing `self`'s allocations.
    fn copy_from(&mut self, other: &VnState) {
        self.env.clone_from(&other.env);
        self.exprs.clone_from(&other.exprs);
        self.heads.clone_from(&other.heads);
        self.deps.clone_from(&other.deps);
        self.global_ver.clone_from(&other.global_ver);
        self.heap_ver = other.heap_ver;
    }

    /// Empties the state, keeping its allocations.
    fn clear(&mut self) {
        self.env.clear();
        self.exprs.clear();
        self.heads.clear();
        self.deps.clear();
        self.global_ver.clear();
        self.heap_ver = 0;
    }

    fn depend(&mut self, on: Temp, dep: Dep) {
        let next = self.heads.insert(on, self.deps.len() as u32).unwrap_or(NIL);
        self.deps.push((dep, next));
    }

    /// `env[t] = o`.
    fn bind(&mut self, t: Temp, o: Operand) {
        self.env.insert(t, o);
        if let Operand::Temp(u) = o {
            self.depend(u, Dep::Env(t));
        }
    }

    /// `exprs[k] = t`.
    fn remember(&mut self, k: Key, t: Temp) {
        self.exprs.insert(k, t);
        self.depend(t, Dep::Expr(k));
        for u in k.operands().into_iter().flatten() {
            self.depend(u, Dep::Expr(k));
        }
    }

    /// Forgets everything that holds for `t`'s old value: its own binding,
    /// every binding to it, and every expression that reads it or that it
    /// holds. Costs the entries that named `t`, not the whole state.
    fn kill(&mut self, t: Temp) {
        self.env.remove(&t);
        let mut cell = self.heads.remove(&t).unwrap_or(NIL);
        while cell != NIL {
            let (dep, next) = self.deps[cell as usize];
            match dep {
                Dep::Env(u) => {
                    if self.env.get(&u) == Some(&Operand::Temp(t)) {
                        self.env.remove(&u);
                    }
                }
                Dep::Expr(k) => {
                    let reads = k.operands().contains(&Some(t));
                    if self.exprs.get(&k).is_some_and(|&v| v == t || reads) {
                        self.exprs.remove(&k);
                    }
                }
            }
            cell = next;
        }
    }

    /// Follows copy chains from `o` (bounded: acyclic by construction
    /// since values reference older temps only).
    fn resolve(&self, o: Operand) -> Operand {
        let mut cur = o;
        for _ in 0..64 {
            match cur {
                Operand::Temp(t) => match self.env.get(&t) {
                    Some(&next) => cur = next,
                    None => break,
                },
                Operand::Const(_) => break,
            }
        }
        cur
    }
}

/// Value numbering's buffers, reused across rounds and functions.
#[derive(Default)]
struct ValueNumbering {
    /// Symbol name -> id, across the whole module.
    names: WordMap<Box<str>, u32>,
    order: Vec<BlockId>,
    /// Position of each block in `order`.
    pos: Vec<u32>,
    /// Blocks that will still inherit each block's exit state.
    heirs: Vec<u32>,
    exit_states: Vec<Option<VnState>>,
    /// Emptied states, to be reused.
    pool: Vec<VnState>,
}

/// The most expressions a state may have room for and still return to the
/// pool: clearing a map costs its capacity, so a state that grew in one
/// long block would tax every small block after it.
const POOLED_CAPACITY: usize = 64;

impl ValueNumbering {
    /// Returns a state no block will inherit to the pool.
    fn recycle(&mut self, mut st: VnState) {
        if st.exprs.capacity() <= POOLED_CAPACITY && st.env.capacity() <= POOLED_CAPACITY {
            st.clear();
            self.pool.push(st);
        }
    }

    fn intern(&mut self, sym: &str) -> u32 {
        if let Some(&id) = self.names.get(sym) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.insert(sym.into(), id);
        id
    }

    /// Value numbering, copy/constant propagation and folding over extended
    /// basic blocks: a block with a single CFG predecessor inherits that
    /// predecessor's exit state (every dynamic entry to the block passes
    /// through that exit, so the facts still hold) if the predecessor was
    /// processed first. The last such heir takes the state; earlier ones
    /// copy it. Returns whether anything changed.
    fn run(&mut self, f: &mut Function, cfg: &Cfg) -> bool {
        let n = f.blocks.len();
        // Reverse postorder, then any unreachable stragglers (they must
        // still be processed: later passes will drop them, but until then
        // they have to stay well formed).
        self.order.clear();
        self.order.extend_from_slice(cfg.rpo());
        if self.order.len() < n {
            self.order.extend(f.block_ids().filter(|&b| !cfg.is_reachable(b)));
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, b) in self.order.iter().enumerate() {
            self.pos[b.index()] = i as u32;
        }
        let parent = |pos: &[u32], b: BlockId| match cfg.preds(b) {
            &[p] if pos[p.index()] < pos[b.index()] => Some(p),
            _ => None,
        };
        self.heirs.clear();
        self.heirs.resize(n, 0);
        for &b in &self.order {
            if let Some(p) = parent(&self.pos, b) {
                self.heirs[p.index()] += 1;
            }
        }
        self.exit_states.clear();
        self.exit_states.resize_with(n, || None);

        let mut changed = false;
        let mut ver_counter: u64 = 1;
        for i in 0..n {
            let b = self.order[i];
            let mut st = match parent(&self.pos, b) {
                Some(p) => {
                    self.heirs[p.index()] -= 1;
                    let kept = &mut self.exit_states[p.index()];
                    let kept_msg = "a parent's exit state is kept for its heirs";
                    if self.heirs[p.index()] == 0 {
                        kept.take().expect(kept_msg)
                    } else {
                        let mut copy = self.pool.pop().unwrap_or_default();
                        copy.copy_from(kept.as_ref().expect(kept_msg));
                        copy
                    }
                }
                None => self.pool.pop().unwrap_or_default(),
            };
            let block = &mut f.blocks[b.index()];
            for inst in &mut block.insts {
                inst.map_uses(|o| {
                    let r = st.resolve(o);
                    changed |= r != o;
                    r
                });

                // Fold.
                let folded: Option<Inst> = match &*inst {
                    Inst::Un { op, dst, src: Operand::Const(c) } => {
                        Some(Inst::Copy { dst: *dst, src: Operand::Const(op.eval(*c)) })
                    }
                    Inst::Bin { op, dst, lhs, rhs } => match (lhs, rhs) {
                        (Operand::Const(a), Operand::Const(b)) => op
                            .eval(*a, *b)
                            .map(|v| Inst::Copy { dst: *dst, src: Operand::Const(v) }),
                        _ => algebraic_identity(*op, *dst, *lhs, *rhs),
                    },
                    _ => None,
                };
                if let Some(fi) = folded {
                    changed = true;
                    *inst = fi;
                }

                // Value numbering for pure-ish defs; memory effects.
                let key = match &*inst {
                    Inst::Copy { dst, src } => {
                        st.kill(*dst);
                        if *src != Operand::Temp(*dst) {
                            st.bind(*dst, *src);
                        }
                        continue;
                    }
                    Inst::StoreGlobal { sym, src } => {
                        // New version for this global, then forward the
                        // stored value to subsequent loads.
                        ver_counter += 1;
                        let id = self.intern(sym);
                        st.global_ver.insert(id, ver_counter);
                        if let Some(t) = src.as_temp() {
                            st.remember(Key::LoadGlobal(id, ver_counter), t);
                        }
                        continue;
                    }
                    Inst::StoreElem { .. } | Inst::StoreInd { .. } | Inst::Call { .. } => {
                        // Conservative: clobber all memory (an indirect store
                        // may hit any global; a call may modify anything).
                        ver_counter += 1;
                        st.heap_ver = ver_counter;
                        st.global_ver.clear();
                        if let Inst::Call { dst: Some(d), .. } = &*inst {
                            st.kill(*d);
                        }
                        continue;
                    }
                    Inst::Bin { op, lhs, rhs, .. } => {
                        let (mut l, mut r) = (*lhs, *rhs);
                        // Canonical operand order for commutative ops: any
                        // total order puts `(a, b)` and `(b, a)` under one key.
                        if op.is_commutative() && l > r {
                            std::mem::swap(&mut l, &mut r);
                        }
                        // Never CSE potentially trapping division.
                        if matches!(op, BinOp::Div | BinOp::Rem)
                            && !matches!(r, Operand::Const(c) if c != 0)
                        {
                            None
                        } else {
                            Some(Key::Bin(*op, l, r))
                        }
                    }
                    Inst::Un { op, src, .. } => Some(Key::Un(*op, *src)),
                    Inst::LoadGlobal { sym, .. } => {
                        let id = self.intern(sym);
                        let v = st.global_ver.get(&id).copied().unwrap_or(st.heap_ver);
                        Some(Key::LoadGlobal(id, v))
                    }
                    Inst::AddrGlobal { sym, .. } => Some(Key::AddrGlobal(self.intern(sym))),
                    Inst::AddrFunc { func, .. } => Some(Key::AddrFunc(self.intern(func))),
                    // Loads with possibly-trapping addressing are not CSE'd
                    // (keep trap equivalence simple).
                    _ => None,
                };
                match (key, inst.def()) {
                    (Some(k), Some(d)) => {
                        if let Some(&prev) = st.exprs.get(&k) {
                            changed = true;
                            st.kill(d);
                            st.bind(d, Operand::Temp(prev));
                            *inst = Inst::Copy { dst: d, src: Operand::Temp(prev) };
                        } else {
                            st.kill(d);
                            st.remember(k, d);
                        }
                    }
                    (_, Some(d)) => st.kill(d),
                    _ => {}
                }
            }
            block.term.map_uses(|o| {
                let r = st.resolve(o);
                changed |= r != o;
                r
            });
            if self.heirs[b.index()] > 0 {
                self.exit_states[b.index()] = Some(st);
            } else {
                self.recycle(st);
            }
        }
        changed
    }
}

/// `x+0`, `x*1`, `x*0`, `x-0`, `x/1`, `x-x`, `x==x` style identities.
fn algebraic_identity(op: BinOp, dst: Temp, lhs: Operand, rhs: Operand) -> Option<Inst> {
    let copy = |src: Operand| Some(Inst::Copy { dst, src });
    match (op, lhs, rhs) {
        (BinOp::Add, x, Operand::Const(0)) | (BinOp::Add, Operand::Const(0), x) => copy(x),
        (BinOp::Sub, x, Operand::Const(0)) => copy(x),
        (BinOp::Mul, x, Operand::Const(1)) | (BinOp::Mul, Operand::Const(1), x) => copy(x),
        (BinOp::Mul, _, Operand::Const(0)) | (BinOp::Mul, Operand::Const(0), _) => {
            copy(Operand::Const(0))
        }
        (BinOp::Div, x, Operand::Const(1)) => copy(x),
        (BinOp::Sub, a, b) if a == b && a.as_temp().is_some() => copy(Operand::Const(0)),
        (BinOp::Eq, a, b) if a == b && a.as_temp().is_some() => copy(Operand::Const(1)),
        (BinOp::Ne, a, b) if a == b && a.as_temp().is_some() => copy(Operand::Const(0)),
        _ => None,
    }
}

/// Folds constant branches and same-target branches into jumps.
fn fold_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        if let Term::Branch { cond, lhs, rhs, then_b, else_b } = b.term {
            if then_b == else_b {
                b.term = Term::Jump(then_b);
                changed = true;
            } else if let (Operand::Const(a), Operand::Const(c)) = (lhs, rhs) {
                let taken = cond.eval(a, c).expect("comparisons cannot trap") != 0;
                b.term = Term::Jump(if taken { then_b } else { else_b });
                changed = true;
            }
        }
    }
    changed
}

/// Redirects edges that point at empty forwarding blocks.
fn thread_jumps(f: &mut Function) -> bool {
    // final_target(b): follow chains of empty Jump-blocks (cycle-guarded).
    let resolve = |f: &Function, mut b: BlockId| -> BlockId {
        let mut hops = 0;
        while hops < f.blocks.len() {
            let blk = f.block(b);
            match blk.term {
                Term::Jump(next) if blk.insts.is_empty() && next != b => {
                    b = next;
                    hops += 1;
                }
                _ => break,
            }
        }
        b
    };
    let mut changed = false;
    for i in 0..f.blocks.len() {
        let mut term = f.blocks[i].term.clone();
        match &mut term {
            Term::Jump(t) => {
                let r = resolve(f, *t);
                if r != *t {
                    *t = r;
                    changed = true;
                }
            }
            Term::Branch { then_b, else_b, .. } => {
                let rt = resolve(f, *then_b);
                let re = resolve(f, *else_b);
                if rt != *then_b || re != *else_b {
                    *then_b = rt;
                    *else_b = re;
                    changed = true;
                }
            }
            Term::Ret(_) => {}
        }
        f.blocks[i].term = term;
    }
    changed
}

/// Drops unreachable blocks: the reachable ones move, in reverse
/// postorder, to the front with their ids remapped. Returns whether
/// anything changed; `cfg` must describe `f` and is rebuilt if it did.
fn remove_unreachable(f: &mut Function, cfg: &mut Cfg) -> bool {
    if cfg.rpo().len() == f.blocks.len() {
        return false;
    }
    let new_id = |b: BlockId| BlockId(cfg.rpo_index(b).expect("reachable successor") as u32);
    let mut old_blocks = std::mem::take(&mut f.blocks);
    f.blocks = cfg
        .rpo()
        .iter()
        .map(|&old| {
            let slot = &mut old_blocks[old.index()];
            let mut blk =
                std::mem::replace(slot, Block { insts: Vec::new(), term: Term::Ret(None) });
            match &mut blk.term {
                Term::Jump(t) => *t = new_id(*t),
                Term::Branch { then_b, else_b, .. } => {
                    *then_b = new_id(*then_b);
                    *else_b = new_id(*else_b);
                }
                Term::Ret(_) => {}
            }
            blk
        })
        .collect();
    f.entry = BlockId(0);
    cfg.recompute(f);
    true
}

/// Appends single-predecessor blocks onto their unique `Jump` predecessor.
///
/// Such a merge never makes another pair mergeable or unmergeable, so one
/// walk contracts every chain: each block absorbs its successor while the
/// successor's only edge in is the block's jump, and absorbed blocks are
/// left empty and unreachable. One renumbering then drops them. Returns
/// whether anything merged; `cfg` must describe `f` (with every block
/// reachable) and is rebuilt if anything did.
fn merge_blocks(f: &mut Function, cfg: &mut Cfg) -> bool {
    let mut merged = false;
    for a in f.block_ids() {
        while let Term::Jump(b) = f.block(a).term {
            if b == a || b == f.entry || cfg.preds(b).len() != 1 {
                break;
            }
            let donor = std::mem::replace(
                f.block_mut(b),
                Block { insts: Vec::new(), term: Term::Ret(None) },
            );
            let dst = f.block_mut(a);
            dst.insts.extend(donor.insts);
            dst.term = donor.term;
            merged = true;
        }
    }
    if merged {
        cfg.recompute(f);
        remove_unreachable(f, cfg);
    }
    merged
}

impl Scratch {
    /// Liveness-based dead code elimination. Also drops unused call
    /// results.
    fn dce(&mut self, f: &mut Function) -> bool {
        let Scratch { cfg, liveness, live, dead, .. } = self;
        liveness.recompute(f, cfg);
        live.reset(f.temp_count);
        let mut changed = false;
        for b in f.block_ids() {
            liveness.live_out_into(b, live);
            let block = &mut f.blocks[b.index()];
            block.term.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
            // `dead` lists the verdicts last instruction first.
            dead.clear();
            for inst in block.insts.iter_mut().rev() {
                let dead_def = inst.def().map(|d| !live.contains(d)).unwrap_or(false);
                if dead_def {
                    if let Inst::Call { dst, .. } = inst {
                        // Keep the call, discard the unused result.
                        *dst = None;
                        changed = true;
                    } else if !inst.has_side_effects() {
                        changed = true;
                        dead.push(true);
                        continue;
                    }
                }
                dead.push(false);
                if let Some(d) = inst.def() {
                    live.remove(d);
                }
                inst.for_each_use(|o| {
                    if let Some(t) = o.as_temp() {
                        live.insert(t);
                    }
                });
            }
            if dead.contains(&true) {
                let mut i = dead.len();
                block.insts.retain(|_| {
                    i -= 1;
                    !dead[i]
                });
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use cmin_frontend::{analyze, parse_module};

    fn optimized(src: &str, name: &str) -> Function {
        let m = parse_module("m", src).unwrap();
        let info = analyze(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        ir.function(name).unwrap().clone()
    }

    fn all_insts(f: &Function) -> Vec<&Inst> {
        f.blocks.iter().flat_map(|b| b.insts.iter()).collect()
    }

    #[test]
    fn constant_expression_folds_to_return() {
        let f = optimized("int f() { return 2 * 3 + 4; }", "f");
        assert_eq!(f.blocks.len(), 1);
        assert!(all_insts(&f).is_empty(), "{f}");
        assert!(matches!(f.block(f.entry).term, Term::Ret(Some(Operand::Const(10)))));
    }

    #[test]
    fn copy_chains_collapse() {
        let f = optimized("int f(int a) { int b = a; int c = b; int d = c; return d; }", "f");
        assert!(all_insts(&f).is_empty(), "{f}");
        assert!(
            matches!(f.block(f.entry).term, Term::Ret(Some(Operand::Temp(t))) if t == f.params[0])
        );
    }

    #[test]
    fn cse_within_block() {
        let f = optimized(
            "int f(int a, int b) { int x = a * b + 1; int y = a * b + 1; return x + y; }",
            "f",
        );
        let muls =
            all_insts(&f).iter().filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })).count();
        assert_eq!(muls, 1, "{f}");
    }

    #[test]
    fn redundant_global_load_removed() {
        let f = optimized("int g; int f() { return g + g; }", "f");
        let loads = all_insts(&f).iter().filter(|i| matches!(i, Inst::LoadGlobal { .. })).count();
        assert_eq!(loads, 1, "{f}");
    }

    #[test]
    fn store_to_load_forwarding() {
        let f = optimized("int g; int f(int a) { g = a; return g; }", "f");
        let loads = all_insts(&f).iter().filter(|i| matches!(i, Inst::LoadGlobal { .. })).count();
        assert_eq!(loads, 0, "{f}");
        // The store must remain (g is externally observable).
        assert!(all_insts(&f).iter().any(|i| matches!(i, Inst::StoreGlobal { .. })));
    }

    #[test]
    fn calls_clobber_global_knowledge() {
        let f = optimized(
            "int g; int touch() { g = g + 1; return 0; } int f() { int a = g; touch(); return a + g; }",
            "f",
        );
        let loads = all_insts(&f).iter().filter(|i| matches!(i, Inst::LoadGlobal { .. })).count();
        assert_eq!(loads, 2, "the second load must survive the call: {f}");
    }

    #[test]
    fn dead_code_removed_but_traps_kept() {
        let f =
            optimized("int f(int a, int b) { int dead = a * 2; int t = a / b; return a; }", "f");
        // dead multiply removed; the possibly-trapping division kept.
        assert!(
            !all_insts(&f).iter().any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })),
            "{f}"
        );
        assert!(all_insts(&f).iter().any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })), "{f}");
    }

    #[test]
    fn division_by_zero_not_folded() {
        let f = optimized("int f() { return 1 / 0; }", "f");
        assert!(all_insts(&f).iter().any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })), "{f}");
    }

    #[test]
    fn unused_call_result_dropped_but_call_kept() {
        let f =
            optimized("int e() { out(1); return 7; } int f() { int unused = e(); return 0; }", "f");
        let calls: Vec<_> =
            all_insts(&f).into_iter().filter(|i| matches!(i, Inst::Call { .. })).collect();
        assert_eq!(calls.len(), 1);
        assert!(matches!(calls[0], Inst::Call { dst: None, .. }));
    }

    #[test]
    fn constant_branch_folds_away_dead_arm() {
        let f = optimized("int f() { if (1 < 2) { return 5; } return 6; }", "f");
        assert_eq!(f.blocks.len(), 1, "{f}");
        assert!(matches!(f.block(f.entry).term, Term::Ret(Some(Operand::Const(5)))));
    }

    #[test]
    fn empty_loop_body_still_terminates_structure() {
        let f = optimized("int f(int n) { while (n > 0) { n = n - 1; } return n; }", "f");
        // The loop survives; check it is still a branch somewhere.
        assert!(f.blocks.iter().any(|b| matches!(b.term, Term::Branch { .. })), "{f}");
    }

    #[test]
    fn algebraic_identities() {
        let f = optimized("int f(int a) { return (a + 0) * 1 + (a - a) + 0 * a; }", "f");
        assert!(all_insts(&f).is_empty(), "{f}");
        assert!(
            matches!(f.block(f.entry).term, Term::Ret(Some(Operand::Temp(t))) if t == f.params[0])
        );
    }

    #[test]
    fn straightline_blocks_merge() {
        let f = optimized(
            "int g; int f(int a) { if (a > 0) { g = 1; } else { g = 2; } return g; }",
            "f",
        );
        // diamond: entry + two arms + join; nothing fancier.
        assert!(f.blocks.len() <= 4, "{f}");
    }

    /// A block that prints `tag` (so merged contents stay traceable) and
    /// ends in `term`.
    fn tagged(tag: i64, term: Term) -> Block {
        Block { insts: vec![Inst::Out { src: Operand::Const(tag) }], term }
    }

    fn function(blocks: Vec<Block>) -> Function {
        Function { name: "f".into(), params: vec![], blocks, entry: BlockId(0), temp_count: 0 }
    }

    fn branch(then_b: u32, else_b: u32) -> Term {
        let (lhs, rhs) = (Operand::Const(0), Operand::Const(1));
        Term::Branch { cond: BinOp::Lt, lhs, rhs, then_b: BlockId(then_b), else_b: BlockId(else_b) }
    }

    /// Block merging as first written: merge the lowest-numbered mergeable
    /// pair, renumber, repeat.
    fn merge_one_at_a_time(f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let cfg = Cfg::new(f);
            let pair = f.block_ids().find_map(|a| match f.block(a).term {
                Term::Jump(b) if b != a && b != f.entry && cfg.preds(b).len() == 1 => Some((a, b)),
                _ => None,
            });
            let Some((a, b)) = pair else { return changed };
            let donor =
                std::mem::replace(f.block_mut(b), Block { insts: vec![], term: Term::Ret(None) });
            f.block_mut(a).insts.extend(donor.insts);
            f.block_mut(a).term = donor.term;
            let mut cfg = Cfg::new(f);
            remove_unreachable(f, &mut cfg);
            changed = true;
        }
    }

    /// Merges `blocks` both ways, checks they agree and that the walk
    /// leaves its CFG current, and returns the result.
    fn merged(blocks: Vec<Block>) -> Function {
        let mut walk = function(blocks);
        let mut one_by_one = walk.clone();
        let mut cfg = Cfg::new(&walk);
        let changed = merge_blocks(&mut walk, &mut cfg);
        assert_eq!(changed, merge_one_at_a_time(&mut one_by_one));
        assert_eq!(walk, one_by_one);
        assert_eq!(cfg.rpo().len(), walk.blocks.len(), "the CFG describes the result");
        walk
    }

    fn tags(b: &Block) -> Vec<i64> {
        b.insts
            .iter()
            .filter_map(|i| if let Inst::Out { src } = i { src.as_const() } else { None })
            .collect()
    }

    #[test]
    fn merging_contracts_a_chain_listed_out_of_order() {
        // 0 -> 3 -> 1 -> 2 -> ret.
        let f = merged(vec![
            tagged(0, Term::Jump(BlockId(3))),
            tagged(1, Term::Jump(BlockId(2))),
            tagged(2, Term::Ret(None)),
            tagged(3, Term::Jump(BlockId(1))),
        ]);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(tags(&f.blocks[0]), vec![0, 3, 1, 2]);
    }

    #[test]
    fn merging_a_diamond_keeps_the_join() {
        // 0 branches to 1 and 2; 1 -> 3; 2 -> 4 -> 3; the join 3 has two
        // predecessors and absorbs only its tail 5.
        let f = merged(vec![
            tagged(0, branch(1, 2)),
            tagged(1, Term::Jump(BlockId(3))),
            tagged(2, Term::Jump(BlockId(4))),
            tagged(3, Term::Jump(BlockId(5))),
            tagged(4, Term::Jump(BlockId(3))),
            tagged(5, Term::Ret(None)),
        ]);
        // Renumbered in reverse postorder: the else arm's finish comes first.
        let contents: Vec<Vec<i64>> = f.blocks.iter().map(tags).collect();
        assert_eq!(contents, vec![vec![0], vec![2, 4], vec![1], vec![3, 5]]);
    }

    #[test]
    fn merging_stops_at_a_jump_back_to_the_entry() {
        // 0 -> 1 -> 2, and 2 loops back to the entry or leaves for 3: the
        // entry absorbs 1 and 2, never the other way round.
        let f = merged(vec![
            tagged(0, Term::Jump(BlockId(1))),
            tagged(1, Term::Jump(BlockId(2))),
            tagged(2, branch(0, 3)),
            tagged(3, Term::Ret(None)),
        ]);
        assert_eq!(f.blocks.iter().map(tags).collect::<Vec<_>>(), vec![vec![0, 1, 2], vec![3]]);
        // A two-block cycle through the entry collapses into a self loop.
        let f = merged(vec![tagged(0, Term::Jump(BlockId(1))), tagged(1, Term::Jump(BlockId(0)))]);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].term, Term::Jump(BlockId(0)));
        // The entry's only predecessor jumps to it, but the entry is never
        // absorbed.
        let blocks = vec![
            tagged(0, branch(1, 2)),
            tagged(1, Term::Jump(BlockId(0))),
            tagged(2, Term::Ret(None)),
        ];
        assert_eq!(merged(blocks.clone()), function(blocks));
    }

    /// The kill as first written: scan every entry of both maps.
    fn kill_by_scan(env: &mut HashMap<Temp, Operand>, exprs: &mut HashMap<Key, Temp>, t: Temp) {
        env.remove(&t);
        env.retain(|_, v| *v != Operand::Temp(t));
        exprs.retain(|k, v| *v != t && !k.operands().contains(&Some(t)));
    }

    #[test]
    fn a_redefinition_drops_exactly_the_entries_that_name_the_temp() {
        // A long single block over 24 temps: each step redefines one temp
        // as a copy, a sum or a global load, so most steps kill entries
        // that earlier steps made, including ones made stale since.
        let mut st = VnState::default();
        let (mut env, mut exprs) = (HashMap::new(), HashMap::new());
        let mut seed: u64 = 7;
        let mut next = |m: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for step in 0..4000u64 {
            let t = Temp(next(24) as u32);
            let (u, v) =
                (Operand::Temp(Temp(next(24) as u32)), Operand::Temp(Temp(next(24) as u32)));
            st.kill(t);
            kill_by_scan(&mut env, &mut exprs, t);
            match next(3) {
                0 => {
                    let src = if next(4) == 0 { Operand::Const(step as i64) } else { u };
                    st.bind(t, src);
                    env.insert(t, src);
                }
                1 => {
                    let k = Key::Bin(BinOp::Add, u.min(v), u.max(v));
                    if !st.exprs.contains_key(&k) {
                        st.remember(k, t);
                        exprs.insert(k, t);
                    }
                }
                _ => {
                    let k = Key::LoadGlobal(next(3) as u32, next(2));
                    st.remember(k, t);
                    exprs.insert(k, t);
                }
            }
            assert_eq!(st.env.len(), env.len(), "step {step}");
            assert!(env.iter().all(|(t, o)| st.env.get(t) == Some(o)), "step {step}");
            assert_eq!(st.exprs.len(), exprs.len(), "step {step}");
            assert!(exprs.iter().all(|(k, t)| st.exprs.get(k) == Some(t)), "step {step}");
        }
    }

    #[test]
    fn out_is_never_removed() {
        let f = optimized("int f() { out(42); return 0; }", "f");
        assert!(all_insts(&f).iter().any(|i| matches!(i, Inst::Out { .. })));
    }
}
