//! Backward liveness over the 32 physical registers.
//!
//! The use/def sets are ABI-aware, which is where the interprocedural part
//! lives: a call *uses* the argument registers its callee actually reads
//! (computed by the `arg_uses` fixpoint in the crate root, not a blanket
//! "all four" — a blanket set would make a stale argument register look
//! live across an earlier, unrelated call), and *defines* the callee's
//! clobber set plus `RP`. A return (`Bv`) keeps the callee-saves registers,
//! `SP`, `DP` and `RV` live out of the procedure, so a value parked in a
//! callee-saves register without a restore shows up as live across
//! everything — which is exactly what the exit-state check wants.

use vpr::cfg::Cfg;
use vpr::inst::Inst;
use vpr::program::MachineFunction;
use vpr::regs::RegSet;
use vpr::target::TargetDesc;

/// What the caller may still need when a procedure returns: its
/// callee-saves registers, the frame and global pointers, and the result.
pub fn exit_live(desc: &TargetDesc) -> RegSet {
    let mut s = desc.callee_saves;
    s.insert(desc.sp);
    s.insert(desc.dp);
    s.insert(desc.rv);
    s
}

/// Per-instruction liveness for one function.
pub struct Liveness {
    /// Registers live immediately before each instruction.
    pub live_in: Vec<RegSet>,
    /// Registers live immediately after each instruction.
    pub live_out: Vec<RegSet>,
}

/// Computes liveness to fixpoint. For the call instruction at index `i`,
/// `call_uses(i)` is the set of registers the call consumes (resolved
/// argument registers) and `call_defs(i)` the set it may write (clobber
/// set plus `RP`).
pub fn analyze(
    f: &MachineFunction,
    cfg: &Cfg,
    call_uses: &dyn Fn(usize) -> RegSet,
    call_defs: &dyn Fn(usize) -> RegSet,
    desc: &TargetDesc,
) -> Liveness {
    let insts = f.insts();
    let n = insts.len();
    let exit = exit_live(desc);
    let mut live_in = vec![RegSet::EMPTY; n];
    let mut live_out = vec![RegSet::EMPTY; n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let mut out = if matches!(insts[i], Inst::Bv { .. }) { exit } else { RegSet::EMPTY };
            for &s in cfg.succs(i) {
                out |= live_in[s];
            }
            let mut uses = insts[i].uses();
            let mut defs = RegSet::EMPTY;
            if let Some(rd) = insts[i].def() {
                defs.insert(rd);
            }
            if insts[i].is_call() {
                uses |= call_uses(i);
                defs |= call_defs(i);
            }
            let inn = uses | (out - defs);
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
        if !changed {
            return Liveness { live_in, live_out };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr::inst::{AluOp, Cond};
    use vpr::regs::Reg;

    fn ret() -> Inst {
        Inst::Bv { base: Reg::RP }
    }

    fn run(f: &MachineFunction) -> Liveness {
        let cfg = Cfg::build(f).unwrap();
        analyze(
            f,
            &cfg,
            &|_| RegSet::EMPTY,
            &|_| {
                let mut d = vpr::target::VPR.caller_saves;
                d.insert(Reg::RP);
                d
            },
            &vpr::target::VPR,
        )
    }

    #[test]
    fn straight_line_def_use() {
        let (a, b) = (Reg::new(19), Reg::new(20));
        let mut f = MachineFunction::new("f");
        f.push(Inst::Ldi { rd: a, imm: 1 });
        f.push(Inst::Alu { op: AluOp::Add, rd: Reg::RV, rs1: a, rs2: b });
        f.push(ret());
        let l = run(&f);
        assert!(l.live_out[0].contains(a), "a live from def to use");
        assert!(!l.live_out[1].contains(a), "a dead after its last use");
        assert!(l.live_in[0].contains(b), "b live-in at entry (never defined)");
        assert!(l.live_out[1].contains(Reg::RV), "result live out to the return");
    }

    #[test]
    fn call_defs_kill_liveness() {
        let t = Reg::new(19);
        let mut f = MachineFunction::new("f");
        f.push(Inst::Call { target: "g".into() });
        f.push(Inst::Copy { rd: Reg::RV, rs: t });
        f.push(ret());
        let l = run(&f);
        // t (caller-saves) is in the call's def set, so its pre-call value
        // is NOT what the Copy reads — it is not live-in at the entry…
        assert!(!l.live_in[0].contains(t));
        // …but it IS live across in the live_out sense, which is what the
        // caller-saves check keys on.
        assert!(l.live_out[0].contains(t));
    }

    #[test]
    fn branch_joins_union_liveness() {
        let (a, b) = (Reg::new(5), Reg::new(6));
        let mut f = MachineFunction::new("f");
        let other = f.new_label();
        f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::RV, rs2: Reg::ZERO, target: other });
        f.push(Inst::Copy { rd: Reg::RV, rs: a });
        f.push(ret());
        f.bind_label(other);
        f.push(Inst::Copy { rd: Reg::RV, rs: b });
        f.push(ret());
        let l = run(&f);
        assert!(l.live_in[0].contains(a) && l.live_in[0].contains(b));
    }

    #[test]
    fn callee_saves_live_at_return() {
        let mut f = MachineFunction::new("f");
        f.push(ret());
        let l = run(&f);
        assert!(vpr::target::VPR.callee_saves.is_subset(l.live_in[0]));
        assert!(l.live_in[0].contains(Reg::RP), "the return itself reads RP");
    }
}
