//! IR rewriting for promoted globals.
//!
//! For every global the analyzer promoted in this procedure, accesses are
//! rewritten against a fresh *pinned temp* that the allocator will place in
//! the web's dedicated register:
//!
//! * `dst ← @g` becomes `dst ← tw`,
//! * `@g ← src` becomes `tw ← src`.
//!
//! A targeted cleanup then (1) forward-propagates reads of the pinned temp
//! so arithmetic consumes the web register directly, and (2) deletes the
//! now-dead read copies. This is the paper's §5 observation that promotion
//! "can enable additional intraprocedural optimizations such as register
//! copy elimination" — without it, promoted code trades each memory access
//! for a register copy and the cycle win evaporates.
//!
//! Writes to a pinned temp are *stores to the global* as far as the rest of
//! the program is concerned, so the cleanup never removes or reorders them;
//! the general optimizer must not run after this rewrite.

use cmin_ir::cfg::Cfg;
use cmin_ir::ir::{Function, Inst, Operand, Temp};
use cmin_ir::liveness::{Liveness, TempSet};
use std::collections::HashMap;
use vpr::regs::Reg;

/// Rewrites `f`, whose CFG is `cfg` (the rewrite keeps it), for the given
/// promotions (`sym → dedicated register`). Returns the pin map for the
/// allocator (`temp → register`).
pub fn rewrite_promotions(
    f: &mut Function,
    cfg: &Cfg,
    promotions: &[(String, Reg)],
) -> HashMap<Temp, Reg> {
    if promotions.is_empty() {
        return HashMap::new();
    }
    let mut by_sym: HashMap<&str, Temp> = HashMap::new();
    let mut pins: HashMap<Temp, Reg> = HashMap::new();
    for (sym, reg) in promotions {
        let tw = f.new_temp();
        by_sym.insert(sym.as_str(), tw);
        pins.insert(tw, *reg);
    }

    // 1. Replace promoted global accesses with pinned-temp copies.
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            match inst {
                Inst::LoadGlobal { dst, sym } => {
                    if let Some(&tw) = by_sym.get(sym.as_str()) {
                        *inst = Inst::Copy { dst: *dst, src: Operand::Temp(tw) };
                    }
                }
                Inst::StoreGlobal { sym, src } => {
                    if let Some(&tw) = by_sym.get(sym.as_str()) {
                        *inst = Inst::Copy { dst: tw, src: *src };
                    }
                }
                _ => {}
            }
        }
    }

    // 2. Forward-propagate pinned reads within each block: a use of `t`
    //    where `t = tw` and neither has been redefined since reads `tw`
    //    directly. `equals[t] = (tw, era)` records the copy at a tick of
    //    `era`; it stands while no block start, call or write to `tw` has
    //    ticked since, so going stale costs nothing.
    let mut era: u32 = 0;
    let mut equals: HashMap<Temp, (Temp, u32)> = HashMap::new();
    let mut written: HashMap<Temp, u32> = pins.keys().map(|&tw| (tw, 0)).collect();
    for block in &mut f.blocks {
        era += 1;
        // Aliases made before this tick are stale.
        let mut reset = era;
        let alias = |equals: &HashMap<Temp, (Temp, u32)>,
                     written: &HashMap<Temp, u32>,
                     reset: u32,
                     o: Operand| match o {
            Operand::Temp(t) => match equals.get(&t) {
                Some(&(tw, at)) if at > reset && at > written[&tw] => Operand::Temp(tw),
                _ => o,
            },
            c => c,
        };
        for inst in &mut block.insts {
            inst.map_uses(|o| alias(&equals, &written, reset, o));
            if matches!(inst, Inst::Call { .. }) {
                // A call may execute other web members, which read and
                // write the promoted globals through their registers:
                // every alias is stale afterwards.
                era += 1;
                reset = era;
            }
            if let Some(d) = inst.def() {
                equals.remove(&d);
                era += 1;
                if let Some(w) = written.get_mut(&d) {
                    // The pinned temp was redefined (a store): all aliases
                    // to it are stale.
                    *w = era;
                } else if let Inst::Copy { dst, src: Operand::Temp(s) } = inst {
                    if pins.contains_key(s) {
                        equals.insert(*dst, (*s, era));
                    }
                }
            }
        }
        block.term.map_uses(|o| alias(&equals, &written, reset, o));
    }

    // 3. Drop read copies whose destination died: `t ← tw` with `t` dead.
    //    Writes (`tw ← x`) are global stores and always stay.
    let liveness = Liveness::compute(f, cfg);
    let mut live = TempSet::new(f.temp_count);
    let mut dead: Vec<bool> = Vec::new();
    for b in f.block_ids() {
        liveness.live_out_into(b, &mut live);
        let block = &mut f.blocks[b.index()];
        block.term.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
        // `dead` lists the verdicts last instruction first.
        dead.clear();
        for inst in block.insts.iter().rev() {
            if let Inst::Copy { dst, src: Operand::Temp(s) } = inst {
                if pins.contains_key(s) && !pins.contains_key(dst) && !live.contains(*dst) {
                    dead.push(true); // dead read of the web register
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
        let mut i = dead.len();
        block.insts.retain(|_| {
            i -= 1;
            !dead[i]
        });
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmin_frontend::{analyze as sema, parse_module};
    use cmin_ir::{lower_module, optimize_module};

    fn func(src: &str, name: &str) -> Function {
        let m = parse_module("m", src).unwrap();
        let info = sema(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        ir.function(name).unwrap().clone()
    }

    fn rewrite_promotions_of(f: &mut Function, promotions: &[(String, Reg)]) -> HashMap<Temp, Reg> {
        let cfg = Cfg::new(f);
        rewrite_promotions(f, &cfg, promotions)
    }

    fn count_global_ops(f: &Function, sym: &str) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| match i {
                Inst::LoadGlobal { sym: s, .. } | Inst::StoreGlobal { sym: s, .. } => s == sym,
                _ => false,
            })
            .count()
    }

    #[test]
    fn promoted_accesses_disappear() {
        let mut f = func(
            "int g; int main() { for (int i = 0; i < 9; i = i + 1) { g = g + i; } return g; }",
            "main",
        );
        assert!(count_global_ops(&f, "g") > 0);
        let pins = rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(3))]);
        assert_eq!(pins.len(), 1);
        assert_eq!(count_global_ops(&f, "g"), 0);
        assert_eq!(*pins.values().next().unwrap(), Reg::new(3));
    }

    #[test]
    fn read_copies_are_eliminated() {
        let mut f = func("int g; int main() { int a = g; int b = g; return a + b; }", "main");
        let pins = rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(4))]);
        let tw = *pins.keys().next().unwrap();
        // No surviving copies out of tw; the add reads tw directly.
        let copies_from_tw = f
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(i, Inst::Copy { src: Operand::Temp(s), .. } if *s == tw))
            .count();
        assert_eq!(copies_from_tw, 0, "{f}");
    }

    #[test]
    fn stores_to_pinned_temp_survive() {
        // The final store to g must never be removed even though nothing in
        // this function reads it afterwards: callers observe the register.
        let mut f = func("int g; int set() { g = 42; return 0; }", "set");
        let pins = rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(3))]);
        let tw = *pins.keys().next().unwrap();
        let writes =
            f.blocks.iter().flat_map(|b| b.insts.iter()).filter(|i| i.def() == Some(tw)).count();
        assert_eq!(writes, 1, "{f}");
    }

    #[test]
    fn unpromoted_globals_untouched() {
        let mut f = func("int g; int h; int main() { g = h; return g + h; }", "main");
        rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(3))]);
        assert_eq!(count_global_ops(&f, "g"), 0);
        assert!(count_global_ops(&f, "h") > 0);
    }

    #[test]
    fn propagation_stops_at_store() {
        // a reads old g, then g is stored; a's value must not read the new
        // register content.
        let mut f = func("int g; int main() { int a = g; g = 7; return a; }", "main");
        let pins = rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(3))]);
        let tw = *pins.keys().next().unwrap();
        // The return must NOT be `ret tw` (that would read 7).
        for b in &f.blocks {
            if let cmin_ir::ir::Term::Ret(Some(Operand::Temp(t))) = b.term {
                assert_ne!(t, tw, "stale propagation across a store: {f}");
            }
        }
    }

    #[test]
    fn propagation_stops_at_calls() {
        // `ch` snapshots g before the call; the callee mutates g, so the
        // comparison after the call must read the snapshot, not the pinned
        // register.
        let mut f = func(
            "int g; int bump() { g = g + 1; return 0; }
             int check() { int ch = g; bump(); if (ch == 43) { out(1); } return ch; }",
            "check",
        );
        let pins = rewrite_promotions_of(&mut f, &[("g".to_string(), Reg::new(3))]);
        let tw = *pins.keys().next().unwrap();
        // After the call, no instruction or terminator may read tw where
        // the source read `ch`: the only legal tw reads are *before* the
        // call (the snapshot copy itself).
        let mut seen_call = false;
        for b in &f.blocks {
            for i in &b.insts {
                if matches!(i, Inst::Call { .. }) {
                    seen_call = true;
                }
                if seen_call && !matches!(i, Inst::Call { .. }) {
                    let mut reads_tw = false;
                    i.for_each_use(|o| reads_tw |= o == Operand::Temp(tw));
                    assert!(!reads_tw, "stale read of web register after call: {i} in {f}");
                }
            }
            if seen_call {
                let mut reads_tw = false;
                b.term.for_each_use(|o| reads_tw |= o == Operand::Temp(tw));
                assert!(!reads_tw, "stale read of web register in terminator: {f}");
            }
        }
        assert!(seen_call);
    }

    #[test]
    fn empty_promotions_do_nothing() {
        let mut f = func("int g; int main() { return g; }", "main");
        let before = f.clone();
        let pins = rewrite_promotions_of(&mut f, &[]);
        assert!(pins.is_empty());
        assert_eq!(f, before);
    }
}
