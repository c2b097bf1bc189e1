//! Intraprocedural register allocation (compiler second phase, paper §5).
//!
//! A priority-based allocator in the Chow–Hennessy tradition, operating on
//! IR temps with an interference graph built from liveness. What makes it
//! the *paper's* second phase is where the registers come from: the
//! analyzer's per-procedure directives.
//!
//! * Values **not live across calls** draw from `CALLER ∪ MSPILL` (a cluster
//!   root's must-spill registers behave like caller-saves locally), then
//!   from the preserved classes if the scratch pool runs dry.
//! * Values **live across calls** draw from `FREE` first — registers an
//!   ancestor cluster root already spills, so they cost nothing here — and
//!   only then from `CALLEE`, whose members must be saved in the prologue
//!   and restored in the epilogue.
//! * Registers dedicated to promoted globals never appear in any pool.
//!
//! Temps that get no register are assigned frame spill slots; the emitter
//! materializes them through the two reserved scratch registers.

use cmin_ir::cfg::{depth_weight, dominators, loop_depths, Cfg};
use cmin_ir::ir::{Callee, Function, Inst, Operand, Temp};
use cmin_ir::liveness::{Liveness, TempSet};
use ipra_core::regsets::RegUsage;
use std::collections::HashMap;
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetDesc;

/// The caller-saves preallocation contract for one procedure (paper §7.6.2
/// extension): the claim this procedure must stay within, plus the per-
/// callee *safe* sets the analyzer computed.
pub struct CallerPrealloc<'a> {
    /// Claim-pool registers this procedure may use at all.
    pub claimed: RegSet,
    /// `safe(callee)`: claim-pool registers untouched by any call to
    /// `callee`, transitively.
    pub safe_lookup: &'a dyn Fn(&str) -> RegSet,
}

impl CallerPrealloc<'_> {
    /// The extension-off contract for `desc`: its full claim pool, nothing
    /// safe across calls.
    pub fn standard_for(desc: &TargetDesc) -> CallerPrealloc<'static> {
        CallerPrealloc { claimed: desc.claim_pool_set(), safe_lookup: &|_| RegSet::new() }
    }
}

/// The calls each temp is live across, as the claim-pool registers they
/// clobber: `None` for a temp live across no call, otherwise the union
/// over its crossed calls. Temps that cross an indirect call (or a call to
/// a procedure with an empty safe set) get the full pool.
fn call_crossings(
    f: &Function,
    liveness: &Liveness,
    safe_lookup: &dyn Fn(&str) -> RegSet,
    pool: RegSet,
) -> Vec<Option<RegSet>> {
    let mut crossings: Vec<Option<RegSet>> = vec![None; f.temp_count as usize];
    let mut live = TempSet::new(f.temp_count);
    for b in f.block_ids() {
        liveness.live_out_into(b, &mut live);
        let block = f.block(b);
        block.term.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                live.remove(d);
            }
            if let Inst::Call { callee, .. } = inst {
                // Everything live *after* the call (minus its own def,
                // removed above) crosses it.
                let cl = match callee {
                    Callee::Direct(name) => pool - safe_lookup(name),
                    Callee::Indirect(_) => pool,
                };
                for t in live.iter() {
                    *crossings[t.0 as usize].get_or_insert_with(RegSet::new) |= cl;
                }
            }
            inst.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
        }
    }
    crossings
}

/// Which temps interfere: each temp's neighbours, in one flat list.
///
/// Two temps interfere when one is defined while the other is live; the
/// parameters, all defined at entry, interfere with each other and with
/// everything live into the entry. A straight-line stretch interferes as
/// an interval graph, where a value meets only the few values live beside
/// it, so the lists stay near-linear in the function's size where a
/// `temp_count`² matrix would not.
#[derive(Debug, Clone)]
pub struct Interference {
    /// `adj[start[t]..start[t + 1]]` are temp `t`'s neighbours.
    start: Vec<usize>,
    adj: Vec<u32>,
}

impl Interference {
    /// The temps `t` interferes with, each once, in no particular order.
    pub fn neighbours(&self, t: Temp) -> impl Iterator<Item = Temp> + '_ {
        let i = t.0 as usize;
        self.adj[self.start[i]..self.start[i + 1]].iter().map(|&u| Temp(u))
    }
}

/// The interference graph of `f` under `liveness`.
pub fn interference(f: &Function, liveness: &Liveness) -> Interference {
    let n = f.temp_count as usize;
    // Every edge twice, once from each end.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut add_edge = |a: Temp, b: Temp| {
        if a != b {
            edges.push((a.0, b.0));
            edges.push((b.0, a.0));
        }
    };
    let mut live = TempSet::new(f.temp_count);
    for b in f.block_ids() {
        liveness.live_out_into(b, &mut live);
        let block = f.block(b);
        block.term.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                for l in live.iter() {
                    add_edge(d, l);
                }
                live.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
        }
    }
    // Parameters are all defined simultaneously at entry.
    let entry_live = liveness.live_in(f.entry);
    for (i, &p) in f.params.iter().enumerate() {
        for l in entry_live.iter() {
            add_edge(p, l);
        }
        for &q in f.params.iter().skip(i + 1) {
            add_edge(p, q);
        }
    }
    // Bucket the edges by their first temp, filling each bucket from its
    // end so that `start` ends at the buckets' beginnings, then drop
    // repeats (a temp redefined while another stays live adds their edge
    // once per definition).
    let mut start: Vec<usize> = vec![0; n + 1];
    for &(a, _) in &edges {
        start[a as usize] += 1;
    }
    for t in 1..=n {
        start[t] += start[t - 1];
    }
    let mut adj: Vec<u32> = vec![0; edges.len()];
    for &(a, b) in &edges {
        start[a as usize] -= 1;
        adj[start[a as usize]] = b;
    }
    // `seen[u] == t + 1`: `u` is already in `t`'s compacted bucket.
    let mut seen: Vec<u32> = vec![0; n];
    let mut len = 0;
    for t in 0..n {
        let bucket = start[t]..start[t + 1];
        start[t] = len;
        for i in bucket {
            let u = adj[i];
            if seen[u as usize] != t as u32 + 1 {
                seen[u as usize] = t as u32 + 1;
                adj[len] = u;
                len += 1;
            }
        }
    }
    start[n] = len;
    adj.truncate(len);
    Interference { start, adj }
}

/// Where a temp lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A machine register.
    Reg(Reg),
    /// A frame spill slot (word offset within the spill area).
    Slot(u32),
}

/// The allocator's result for one function.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of every temp that is ever live, indexed by temp number
    /// (`None` for a temp that is never live).
    pub locs: Vec<Option<Loc>>,
    /// Callee-saves registers that must be saved/restored by this
    /// procedure (used registers from the `CALLEE` class).
    pub used_callee: RegSet,
    /// Number of spill slots needed.
    pub spill_slots: u32,
}

impl Allocation {
    /// The location of `t`, if it was allocated.
    pub fn loc(&self, t: Temp) -> Option<Loc> {
        self.locs.get(t.0 as usize).copied().flatten()
    }
}

/// Allocates registers for `f` under the analyzer's `usage` directives,
/// with `desc`'s scratch registers, argument/return roles and claim pool.
/// `forbidden` contains registers dedicated to promoted globals in this
/// procedure (they hold the global, nothing else); `pins` maps the web
/// temps produced by [`crate::promote::rewrite_promotions`] to those
/// registers. Under the §7.6.2 caller-saves preallocation contract
/// `prealloc`, the procedure's caller-saves scratch stays within
/// `prealloc.claimed`, and call-crossing values may additionally live in
/// claimed registers that every crossed call leaves safe. `cfg` and
/// `liveness` describe `f` as it is (after any promotion rewrite). The
/// registers a temp may not take are those of its [`interference`]
/// neighbours.
#[allow(clippy::too_many_arguments)] // the function's two analyses ride along
pub fn allocate_for(
    f: &Function,
    cfg: &Cfg,
    liveness: &Liveness,
    usage: &RegUsage,
    forbidden: RegSet,
    pins: &HashMap<Temp, Reg>,
    prealloc: &CallerPrealloc<'_>,
    desc: &TargetDesc,
) -> Allocation {
    let depths = loop_depths(f, cfg, &dominators(f, cfg));

    let n = f.temp_count as usize;
    // Use-weight priorities, and which temps are ever live.
    let mut weight: Vec<u64> = vec![0; n];
    let mut ever_live: Vec<bool> = vec![false; n];
    for b in f.block_ids() {
        let w = depth_weight(depths.get(b.index()).copied().unwrap_or(0));
        for t in liveness.live_out(b).iter() {
            ever_live[t.0 as usize] = true;
        }
        let mut count = |o: Operand| {
            if let Some(t) = o.as_temp() {
                weight[t.0 as usize] += w;
                ever_live[t.0 as usize] = true;
            }
        };
        let block = f.block(b);
        block.term.for_each_use(&mut count);
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                count(Operand::Temp(d));
            }
            inst.for_each_use(&mut count);
        }
    }
    for &p in &f.params {
        ever_live[p.0 as usize] = true;
    }
    let graph = interference(f, liveness);

    // Register pools, in allocation preference order.
    let (s1, s2) = (desc.scratch1, desc.scratch2);
    let pool = desc.claim_pool_set();
    let mut reserved = forbidden;
    reserved.insert(s1);
    reserved.insert(s2);
    reserved.insert(desc.rv);
    for &a in desc.args {
        reserved.insert(a);
    }
    // Claim-pool registers beyond this procedure's claim are untouchable:
    // ancestors may be keeping values in them across calls to us.
    let unclaimed = pool - prealloc.claimed;
    let caller_pool = (usage.caller | usage.mspill) - reserved - unclaimed;
    let free_pool = usage.free - reserved;
    let callee_pool = usage.callee - reserved;
    let crossings = call_crossings(f, liveness, prealloc.safe_lookup, pool);
    // Claimed caller registers usable by a crossing temp, per temp.
    let safe_base = (pool & prealloc.claimed & usage.caller) - reserved;

    // Priority order: hottest temps first. Pinned temps are pre-assigned.
    let mut order: Vec<Temp> = (0..f.temp_count)
        .map(Temp)
        .filter(|t| ever_live[t.0 as usize] && !pins.contains_key(t))
        .collect();
    order.sort_unstable_by_key(|t| (std::cmp::Reverse(weight[t.0 as usize]), t.0));

    let mut locs: Vec<Option<Loc>> = vec![None; n];
    for (&t, &r) in pins {
        locs[t.0 as usize] = Some(Loc::Reg(r));
    }
    let mut used_callee = RegSet::new();
    let mut spill_slots: u32 = 0;

    for &t in &order {
        let taken: RegSet = graph
            .neighbours(t)
            .filter_map(|u| match locs[u.0 as usize] {
                Some(Loc::Reg(r)) => Some(r),
                _ => None,
            })
            .collect();
        // Each pool tries its registers in ascending order.
        let pools = match crossings[t.0 as usize] {
            // §7.6.2: claimed caller registers that every crossed call
            // leaves alone cost nothing — try them before the preserved
            // classes.
            Some(clobber) => [safe_base - clobber, free_pool, callee_pool],
            None => [caller_pool, free_pool, callee_pool],
        };
        let choice = pools.iter().flat_map(|p| p.iter()).find(|r| !taken.contains(*r));
        match choice {
            Some(r) => {
                if callee_pool.contains(r) {
                    used_callee.insert(r);
                }
                locs[t.0 as usize] = Some(Loc::Reg(r));
            }
            None => {
                locs[t.0 as usize] = Some(Loc::Slot(spill_slots));
                spill_slots += 1;
            }
        }
    }

    Allocation { locs, used_callee, spill_slots }
}

/// Sanity check used by tests and debug builds, against `desc` under the
/// caller-saves preallocation contract `prealloc`: no two interfering
/// temps share a register, call-crossing temps avoid caller-class
/// registers, and nothing lands in a forbidden register.
pub fn validate_for(
    f: &Function,
    usage: &RegUsage,
    forbidden: RegSet,
    pins: &HashMap<Temp, Reg>,
    alloc: &Allocation,
    prealloc: &CallerPrealloc<'_>,
    desc: &TargetDesc,
) -> Result<(), String> {
    let cfg = Cfg::new(f);
    let liveness = Liveness::compute(f, &cfg);
    let pool = desc.claim_pool_set();
    let crossings = call_crossings(f, &liveness, prealloc.safe_lookup, pool);

    let caller_class = (usage.caller | usage.mspill) - usage.free;
    #[allow(clippy::needless_range_loop)]
    for (t, loc) in alloc.locs.iter().enumerate() {
        let t = Temp(t as u32);
        if let Some(Loc::Reg(r)) = *loc {
            if forbidden.contains(r) && pins.get(&t) != Some(&r) {
                return Err(format!("{t} allocated to forbidden register {r}"));
            }
            if let (Some(clobber), true) = (crossings[t.0 as usize], caller_class.contains(r)) {
                // Permitted only under the §7.6.2 contract.
                let allowed =
                    pool.contains(r) && prealloc.claimed.contains(r) && !clobber.contains(r);
                if !allowed {
                    return Err(format!("call-crossing {t} allocated to caller-class {r}"));
                }
            }
            if pool.contains(r) && !prealloc.claimed.contains(r) {
                return Err(format!("{t} allocated to unclaimed caller register {r}"));
            }
        }
    }
    // Interference: recompute pairwise at each def point.
    let mut live = TempSet::new(f.temp_count);
    for b in f.block_ids() {
        liveness.live_out_into(b, &mut live);
        let block = f.block(b);
        block.term.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                for l in live.iter() {
                    if l != d {
                        if let (Some(Loc::Reg(a)), Some(Loc::Reg(b2))) =
                            (alloc.loc(d), alloc.loc(l))
                        {
                            if a == b2 {
                                return Err(format!("interfering {d} and {l} share register {a}"));
                            }
                        }
                    }
                }
                live.remove(d);
            }
            inst.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmin_frontend::{analyze as sema, parse_module};
    use cmin_ir::{lower_module, optimize_module};
    use vpr::target::VPR;

    fn func(src: &str, name: &str) -> Function {
        let m = parse_module("m", src).unwrap();
        let info = sema(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        ir.function(name).unwrap().clone()
    }

    /// Allocates `f` for VPR with no pins and the extension-off contract,
    /// and validates the result.
    fn alloc_vpr(f: &Function, usage: &RegUsage, forbidden: RegSet) -> Allocation {
        let (pins, prealloc) = (HashMap::new(), CallerPrealloc::standard_for(&VPR));
        let cfg = Cfg::new(f);
        let liveness = Liveness::compute(f, &cfg);
        let a = allocate_for(f, &cfg, &liveness, usage, forbidden, &pins, &prealloc, &VPR);
        validate_for(f, usage, forbidden, &pins, &a, &prealloc, &VPR).unwrap();
        a
    }

    fn alloc_std(f: &Function) -> Allocation {
        alloc_vpr(f, &RegUsage::standard_for(&VPR), RegSet::new())
    }

    #[test]
    fn simple_function_uses_caller_saves_only() {
        let f = func("int f(int a, int b) { return a * b + a; }", "f");
        let a = alloc_std(&f);
        assert!(a.used_callee.is_empty());
        assert_eq!(a.spill_slots, 0);
        for loc in a.locs.iter().flatten() {
            match loc {
                Loc::Reg(r) => assert!(VPR.caller_saves.contains(*r), "unexpected {r}"),
                Loc::Slot(_) => panic!("unexpected spill"),
            }
        }
    }

    #[test]
    fn call_crossing_values_get_preserved_registers() {
        let f = func(
            "int g(int x) { return x; }
             int f(int a, int b) { int r = g(a); return r + b; }",
            "f",
        );
        let a = alloc_std(&f);
        // b crosses the call: must be in a callee-saves register.
        let b_loc = a.loc(f.params[1]).unwrap();
        match b_loc {
            Loc::Reg(r) => assert!(VPR.callee_saves.contains(r), "b in {r}"),
            Loc::Slot(_) => panic!("b spilled needlessly"),
        }
        assert!(!a.used_callee.is_empty());
    }

    #[test]
    fn free_registers_avoid_save_restore() {
        let f = func(
            "int g(int x) { return x; }
             int f(int a, int b) { int r = g(a); return r + b; }",
            "f",
        );
        // Analyzer gave this node two FREE registers.
        let mut usage = RegUsage::standard_for(&VPR);
        usage.free.insert(Reg::new(5));
        usage.free.insert(Reg::new(6));
        usage.callee.remove(Reg::new(5));
        usage.callee.remove(Reg::new(6));
        let a = alloc_vpr(&f, &usage, RegSet::new());
        // Crossing values should use the FREE registers and incur no
        // save/restore.
        assert!(a.used_callee.is_empty(), "{:?}", a.used_callee);
        match a.loc(f.params[1]).unwrap() {
            Loc::Reg(r) => assert!(usage.free.contains(r)),
            Loc::Slot(_) => panic!("spilled"),
        }
    }

    #[test]
    fn forbidden_registers_never_assigned() {
        let f = func("int f(int a, int b) { return a + b; }", "f");
        let mut forbidden = RegSet::new();
        // Forbid everything caller-saves except one register, plus a few
        // callee-saves; allocation must still be correct.
        for r in VPR.caller_saves.iter().skip(1) {
            forbidden.insert(r);
        }
        alloc_vpr(&f, &RegUsage::standard_for(&VPR), forbidden);
    }

    #[test]
    fn high_pressure_spills() {
        // 20 simultaneously-live values crossing a call: more than the
        // callee-saves file; some must spill.
        let mut body = String::from("int g(int x) { return x; }\nint f(int p) {\n");
        for i in 0..20 {
            body.push_str(&format!("int v{i} = p + {i};\n"));
        }
        body.push_str("g(p);\nint s = 0;\n");
        for i in 0..20 {
            body.push_str(&format!("s = s + v{i};\n"));
        }
        body.push_str("return s;\n}");
        let f = func(&body, "f");
        let a = alloc_std(&f);
        assert!(a.spill_slots > 0, "expected spills");
        assert!(!a.used_callee.is_empty());
    }

    #[test]
    fn loop_variables_prioritized_over_cold_ones() {
        let f = func(
            "int f(int n, int cold) {
                 int s = 0;
                 for (int i = 0; i < n; i = i + 1) { s = s + i * n; }
                 return s + cold;
             }",
            "f",
        );
        let a = alloc_std(&f);
        // Everything fits in registers here; just confirm the allocation is
        // valid and complete.
        assert_eq!(a.spill_slots, 0);
    }

    #[test]
    fn scratch_registers_never_allocated() {
        let f = func("int f(int a, int b, int c) { return a + b * c; }", "f");
        let a = alloc_std(&f);
        let (s1, s2) = (VPR.scratch1, VPR.scratch2);
        for loc in a.locs.iter().flatten() {
            if let Loc::Reg(r) = loc {
                assert_ne!(*r, s1);
                assert_ne!(*r, s2);
                assert_ne!(*r, Reg::RV);
                assert!(!Reg::ARGS.contains(r));
            }
        }
    }
}
