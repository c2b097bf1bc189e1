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

use crate::cfg::Cfg;
use crate::ir::*;
use crate::liveness::Liveness;
use std::collections::HashMap;

/// Optimizes every function of a module in place.
pub fn optimize_module(m: &mut IrModule) {
    for f in &mut m.functions {
        optimize_function(f);
    }
}

/// Runs the pass pipeline on one function until it stops changing.
pub fn optimize_function(f: &mut Function) {
    for _ in 0..10 {
        let mut changed = false;
        changed |= local_opt(f);
        changed |= fold_branches(f);
        changed |= thread_jumps(f);
        changed |= remove_unreachable(f);
        changed |= merge_blocks(f);
        changed |= dce(f);
        if !changed {
            break;
        }
    }
}

/// A value-numbering key for pure (or memory-versioned) expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(BinOp, Operand, Operand),
    Un(UnOp, Operand),
    LoadGlobal(String, u64),
    AddrGlobal(String),
    AddrFunc(String),
}

/// Value-numbering state carried across extended basic blocks.
#[derive(Clone, Default)]
struct VnState {
    /// temp -> known equal operand (constant or older temp).
    env: HashMap<Temp, Operand>,
    /// expression -> temp holding it.
    exprs: HashMap<Key, Temp>,
    /// per-global memory version (bumping invalidates Load keys).
    global_ver: HashMap<String, u64>,
    heap_ver: u64,
}

/// Value numbering, copy/constant propagation and folding over extended
/// basic blocks: a block with a single CFG predecessor inherits that
/// predecessor's exit state (every dynamic entry to the block passes
/// through that exit, so the facts still hold). Returns whether anything
/// changed.
fn local_opt(f: &mut Function) -> bool {
    let mut changed = false;
    let cfg = Cfg::new(f);
    let mut exit_states: Vec<Option<VnState>> = vec![None; f.blocks.len()];
    let mut ver_counter: u64 = 1;
    let order: Vec<usize> = {
        // Reverse postorder, then any unreachable stragglers (they must
        // still be processed: later passes will drop them, but until then
        // they have to stay well formed).
        let mut seen = vec![false; f.blocks.len()];
        let mut o: Vec<usize> = cfg.rpo().iter().map(|b| b.index()).collect();
        for &i in &o {
            seen[i] = true;
        }
        o.extend((0..f.blocks.len()).filter(|&i| !seen[i]));
        o
    };
    for b in order {
        let state = {
            let preds = cfg.preds(crate::ir::BlockId(b as u32));
            match preds {
                [single] => exit_states[single.index()].clone().unwrap_or_default(),
                _ => VnState::default(),
            }
        };
        let VnState { mut env, mut exprs, mut global_ver, mut heap_ver } = state;
        let block = &mut f.blocks[b];

        let resolve = |env: &HashMap<Temp, Operand>, o: Operand| -> Operand {
            let mut cur = o;
            // Path-compress through copy chains (bounded: acyclic by
            // construction since values reference older temps only).
            for _ in 0..64 {
                match cur {
                    Operand::Temp(t) => match env.get(&t) {
                        Some(&next) => cur = next,
                        None => break,
                    },
                    Operand::Const(_) => break,
                }
            }
            cur
        };

        let kill_temp =
            |env: &mut HashMap<Temp, Operand>, exprs: &mut HashMap<Key, Temp>, t: Temp| {
                env.remove(&t);
                env.retain(|_, v| *v != Operand::Temp(t));
                exprs.retain(|k, v| {
                    if *v == t {
                        return false;
                    }
                    let uses = |o: &Operand| *o == Operand::Temp(t);
                    !match k {
                        Key::Bin(_, a, b2) => uses(a) || uses(b2),
                        Key::Un(_, a) => uses(a),
                        _ => false,
                    }
                });
            };

        let mut out: Vec<Inst> = Vec::with_capacity(block.insts.len());
        for mut inst in std::mem::take(&mut block.insts) {
            inst.map_uses(|o| {
                let r = resolve(&env, o);
                if r != o {
                    changed = true;
                }
                r
            });

            // Fold.
            let folded: Option<Inst> = match &inst {
                Inst::Un { op, dst, src: Operand::Const(c) } => {
                    Some(Inst::Copy { dst: *dst, src: Operand::Const(op.eval(*c)) })
                }
                Inst::Bin { op, dst, lhs, rhs } => match (lhs, rhs) {
                    (Operand::Const(a), Operand::Const(b)) => {
                        op.eval(*a, *b).map(|v| Inst::Copy { dst: *dst, src: Operand::Const(v) })
                    }
                    _ => algebraic_identity(*op, *dst, *lhs, *rhs),
                },
                _ => None,
            };
            if let Some(fi) = folded {
                changed = true;
                inst = fi;
            }

            match &inst {
                Inst::Copy { dst, src } => {
                    let (dst, src) = (*dst, *src);
                    kill_temp(&mut env, &mut exprs, dst);
                    if src != Operand::Temp(dst) {
                        env.insert(dst, src);
                    }
                    out.push(Inst::Copy { dst, src });
                    continue;
                }
                Inst::StoreGlobal { sym, src } => {
                    // New version for this global, then forward the stored
                    // value to subsequent loads.
                    ver_counter += 1;
                    global_ver.insert(sym.clone(), ver_counter);
                    let key = Key::LoadGlobal(sym.clone(), ver_counter);
                    if let Some(t) = src.as_temp() {
                        exprs.insert(key, t);
                    }
                    out.push(inst);
                    continue;
                }
                Inst::StoreElem { .. } | Inst::StoreInd { .. } | Inst::Call { .. } => {
                    // Conservative: clobber all memory (an indirect store may
                    // hit any global; a call may modify anything).
                    ver_counter += 1;
                    heap_ver = ver_counter;
                    global_ver.clear();
                    if let Inst::Call { dst: Some(d), .. } = &inst {
                        kill_temp(&mut env, &mut exprs, *d);
                    }
                    out.push(inst);
                    continue;
                }
                _ => {}
            }

            // Value numbering for pure-ish defs.
            let key = match &inst {
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
                    let v = global_ver.get(sym).copied().unwrap_or(heap_ver);
                    Some(Key::LoadGlobal(sym.clone(), v))
                }
                Inst::AddrGlobal { sym, .. } => Some(Key::AddrGlobal(sym.clone())),
                Inst::AddrFunc { func, .. } => Some(Key::AddrFunc(func.clone())),
                // Loads with possibly-trapping addressing are not CSE'd (keep
                // trap equivalence simple).
                _ => None,
            };
            match (key, inst.def()) {
                (Some(k), Some(d)) => {
                    if let Some(&prev) = exprs.get(&k) {
                        changed = true;
                        kill_temp(&mut env, &mut exprs, d);
                        env.insert(d, Operand::Temp(prev));
                        out.push(Inst::Copy { dst: d, src: Operand::Temp(prev) });
                    } else {
                        kill_temp(&mut env, &mut exprs, d);
                        exprs.insert(k, d);
                        out.push(inst);
                    }
                }
                (_, Some(d)) => {
                    kill_temp(&mut env, &mut exprs, d);
                    out.push(inst);
                }
                _ => out.push(inst),
            }
        }
        block.insts = out;
        block.term.map_uses(|o| {
            let r = resolve(&env, o);
            if r != o {
                changed = true;
            }
            r
        });
        exit_states[b] = Some(VnState { env, exprs, global_ver, heap_ver });
    }
    changed
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
        if let Term::Branch { cond, lhs, rhs, then_b, else_b } = b.term.clone() {
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

/// Drops unreachable blocks, remapping ids. Returns whether anything
/// changed.
fn remove_unreachable(f: &mut Function) -> bool {
    let cfg = Cfg::new(f);
    if cfg.rpo().len() == f.blocks.len() {
        return false;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    for (new_idx, &old) in cfg.rpo().iter().enumerate() {
        remap[old.index()] = Some(BlockId(new_idx as u32));
    }
    let old_blocks = std::mem::take(&mut f.blocks);
    let mut new_blocks: Vec<Block> = Vec::with_capacity(cfg.rpo().len());
    for &old in cfg.rpo() {
        let mut blk = old_blocks[old.index()].clone();
        blk.term = match blk.term {
            Term::Jump(t) => Term::Jump(remap[t.index()].expect("reachable successor")),
            Term::Branch { cond, lhs, rhs, then_b, else_b } => Term::Branch {
                cond,
                lhs,
                rhs,
                then_b: remap[then_b.index()].expect("reachable successor"),
                else_b: remap[else_b.index()].expect("reachable successor"),
            },
            r @ Term::Ret(_) => r,
        };
        new_blocks.push(blk);
    }
    f.blocks = new_blocks;
    f.entry = BlockId(0);
    true
}

/// Appends single-predecessor blocks onto their unique `Jump` predecessor.
fn merge_blocks(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let cfg = Cfg::new(f);
        let mut merged = false;
        for a in f.block_ids() {
            let Term::Jump(b) = f.block(a).term else { continue };
            if b == a || b == f.entry || cfg.preds(b).len() != 1 {
                continue;
            }
            // Merge b into a.
            let donor = f.blocks[b.index()].clone();
            let dst = f.block_mut(a);
            dst.insts.extend(donor.insts);
            dst.term = donor.term;
            // Leave b in place but unreachable; the next cleanup removes it.
            f.block_mut(b).insts.clear();
            f.block_mut(b).term = Term::Ret(None);
            merged = true;
            changed = true;
            break;
        }
        if !merged {
            break;
        }
        remove_unreachable(f);
    }
    changed
}

/// Liveness-based dead code elimination. Also drops unused call results.
fn dce(f: &mut Function) -> bool {
    let cfg = Cfg::new(f);
    let lv = Liveness::compute(f, &cfg);
    let mut changed = false;
    for b in f.block_ids() {
        let mut live = lv.live_out(b).clone();
        f.block(b).term.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
        let block = &mut f.blocks[b.index()];
        let mut kept: Vec<Inst> = Vec::with_capacity(block.insts.len());
        for mut inst in block.insts.drain(..).rev() {
            let dead_def = inst.def().map(|d| !live.contains(d)).unwrap_or(false);
            if dead_def {
                if let Inst::Call { dst, .. } = &mut inst {
                    // Keep the call, discard the unused result.
                    *dst = None;
                    changed = true;
                } else if !inst.has_side_effects() {
                    changed = true;
                    continue;
                }
            }
            if let Some(d) = inst.def() {
                live.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
            kept.push(inst);
        }
        kept.reverse();
        block.insts = kept;
    }
    changed
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

    #[test]
    fn out_is_never_removed() {
        let f = optimized("int f() { out(42); return 0; }", "f");
        assert!(all_insts(&f).iter().any(|i| matches!(i, Inst::Out { .. })));
    }
}
