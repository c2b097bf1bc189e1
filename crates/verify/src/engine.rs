//! The symbolic forward analysis at the heart of the verifier.
//!
//! Instead of tracking saves and restores as events, the engine tracks, for
//! every register and frame slot, whether it still holds the value some
//! register had *at procedure entry*. The abstract value lattice is
//! two-level: `Entry(r)` ("the value `r` held on entry") above `Other`
//! ("anything else"). A save `STW r5, SP+2` copies `Entry(r5)` into the
//! frame slot; the matching restore copies it back; at a return, the
//! callee-saves discipline is simply the demand `regs[r] == Entry(r)` — on
//! *every* path, because states merge at joins. This makes "restore missing
//! on one arm of a branch" and "restored from the wrong slot" the same
//! check as the straight-line case.
//!
//! The stack pointer is handled symbolically: `sp` is the displacement from
//! the entry SP in words (0 at entry, `-frame` after the prologue), and
//! frame slots are keyed by *entry-relative* offsets, so code that moves SP
//! between a save and its restore still verifies.

use std::collections::{BTreeMap, VecDeque};
use vpr::cfg::Cfg;
use vpr::inst::{AluOp, Inst};
use vpr::program::MachineFunction;
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetDesc;

/// Abstract value: the entry value of a specific register, or anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegVal {
    /// Still exactly the value register `.0` held at procedure entry.
    Entry(Reg),
    /// Any other value (computed, loaded from non-frame memory, merged).
    Other,
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// SP displacement from procedure entry, in words (negative = deeper).
    pub sp: i64,
    /// Abstract value of each of the 32 registers.
    pub regs: [RegVal; 32],
    /// Frame contents, keyed by entry-relative word offset. Absent key =
    /// unknown contents.
    pub slots: BTreeMap<i64, RegVal>,
}

impl State {
    /// The state on procedure entry: every register holds its own entry
    /// value, SP is at displacement 0, the frame is unknown.
    pub fn entry() -> State {
        let mut regs = [RegVal::Other; 32];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = RegVal::Entry(Reg::new(i as u8));
        }
        State { sp: 0, regs, slots: BTreeMap::new() }
    }

    /// The abstract value currently in `r`.
    pub fn reg(&self, r: Reg) -> RegVal {
        self.regs[r.index()]
    }

    /// Does `r` still hold the value it had at procedure entry?
    pub fn holds_entry(&self, r: Reg) -> bool {
        self.reg(r) == RegVal::Entry(r)
    }

    /// Reads `rs` as an operand value. Reading SP at a nonzero displacement
    /// yields `Other`: `Entry(SP)` means the *entry* SP, which is only what
    /// the register contains while the displacement is 0.
    fn read(&self, rs: Reg, desc: &TargetDesc) -> RegVal {
        if rs == desc.sp && self.sp != 0 {
            RegVal::Other
        } else {
            self.reg(rs)
        }
    }

    /// Writes `v` to `rd`. The zero, stack and data-pointer roles are not
    /// value-tracked: zero is hardwired, SP is tracked through `sp`, and a
    /// DP write is always a discipline violation (flagged by the checker)
    /// — keeping their abstract values pinned stops one bad write from
    /// cascading into unrelated diagnostics downstream.
    fn write(&mut self, rd: Reg, v: RegVal, desc: &TargetDesc) {
        if rd == desc.zero || rd == desc.sp || rd == desc.dp {
            return;
        }
        self.regs[rd.index()] = v;
    }

    /// Merges `other` into `self` (join over both in-edges). Returns
    /// `(changed, sp_mismatch)`; on an SP mismatch `self.sp` is kept and
    /// the caller records the diagnostic.
    fn merge(&mut self, other: &State) -> (bool, bool) {
        let mut changed = false;
        let sp_mismatch = self.sp != other.sp;
        for i in 0..32 {
            if self.regs[i] != other.regs[i] && self.regs[i] != RegVal::Other {
                self.regs[i] = RegVal::Other;
                changed = true;
            }
        }
        let stale: Vec<i64> = self
            .slots
            .iter()
            .filter(|(k, v)| other.slots.get(k) != Some(v))
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            self.slots.remove(&k);
            changed = true;
        }
        (changed, sp_mismatch)
    }
}

/// Applies one instruction to the state. `call_clobbers` is the register
/// set a call instruction may change (the callee's interprocedural clobber
/// set; ignored for non-calls). The implicit return-pointer write of the
/// call itself is added here.
pub fn transfer(inst: &Inst, st: &mut State, call_clobbers: RegSet, desc: &TargetDesc) {
    match inst {
        Inst::Copy { rd, rs } => {
            let v = st.read(*rs, desc);
            st.write(*rd, v, desc);
        }
        Inst::Alui { op, rd, rs1, imm } if *rd == desc.sp => {
            if *rs1 == desc.sp {
                match op {
                    AluOp::Add => st.sp += imm,
                    AluOp::Sub => st.sp -= imm,
                    // Any other SP arithmetic is a discipline violation;
                    // the checker flags it and the abstract SP stays put.
                    _ => {}
                }
            }
        }
        Inst::Ldw { rd, base, disp, .. } => {
            let v = if *base == desc.sp {
                st.slots.get(&(st.sp + disp)).copied().unwrap_or(RegVal::Other)
            } else {
                RegVal::Other
            };
            st.write(*rd, v, desc);
        }
        Inst::Stw { rs, base, disp, .. } if *base == desc.sp => {
            let v = st.read(*rs, desc);
            st.slots.insert(st.sp + disp, v);
        }
        Inst::Call { .. } | Inst::CallAbs { .. } | Inst::CallInd { .. } => {
            let mut eff = call_clobbers;
            eff.insert(desc.rp);
            for r in eff.iter() {
                st.write(r, RegVal::Other, desc);
            }
            // The callee's frame occupies everything below the current SP
            // (including this call's outgoing-argument slots).
            let sp = st.sp;
            st.slots.retain(|&off, _| off >= sp);
        }
        _ => {
            if let Some(rd) = inst.def() {
                st.write(rd, RegVal::Other, desc);
            }
        }
    }
}

/// Dataflow result for one function.
pub struct Flow {
    /// In-state per instruction; `None` = unreachable from the entry.
    pub in_states: Vec<Option<State>>,
    /// Instructions where merging in-edges found disagreeing SP
    /// displacements (reported as `SpUnbalanced` at the join).
    pub sp_mismatch: Vec<usize>,
}

/// Runs the forward analysis to fixpoint. `call_clobbers(i)` must return
/// the clobber set for the call instruction at index `i` (and is only
/// consulted for calls). `desc` names the SP/DP/RP roles the transfer
/// function keys on.
pub fn analyze(
    f: &MachineFunction,
    cfg: &Cfg,
    call_clobbers: &dyn Fn(usize) -> RegSet,
    desc: &TargetDesc,
) -> Flow {
    let insts = f.insts();
    let n = insts.len();
    let mut in_states: Vec<Option<State>> = vec![None; n];
    let mut mismatch = vec![false; n];
    in_states[0] = Some(State::entry());
    let mut queued = vec![false; n];
    let mut work = VecDeque::from([0usize]);
    queued[0] = true;
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        let mut st = in_states[i].clone().expect("queued node has a state");
        let eff = if insts[i].is_call() { call_clobbers(i) } else { RegSet::EMPTY };
        transfer(&insts[i], &mut st, eff, desc);
        for &s in cfg.succs(i) {
            let grew = match &mut in_states[s] {
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
                Some(cur) => {
                    let (changed, sp_mismatch) = cur.merge(&st);
                    mismatch[s] |= sp_mismatch;
                    changed
                }
            };
            if grew && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
    }
    let sp_mismatch = mismatch.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect();
    Flow { in_states, sp_mismatch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr::inst::MemClass;

    fn run(f: &MachineFunction) -> Flow {
        let cfg = Cfg::build(f).unwrap();
        analyze(f, &cfg, &|_| vpr::target::VPR.caller_saves, &vpr::target::VPR)
    }

    fn ret() -> Inst {
        Inst::Bv { base: Reg::RP }
    }

    #[test]
    fn save_restore_round_trips_entry_value() {
        let r5 = Reg::new(5);
        let mut f = MachineFunction::new("f");
        f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
        f.push(Inst::Stw { rs: r5, base: Reg::SP, disp: 0, class: MemClass::Spill });
        f.push(Inst::Ldi { rd: r5, imm: 7 });
        f.push(Inst::Ldw { rd: r5, base: Reg::SP, disp: 0, class: MemClass::Spill });
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
        f.push(ret());
        let flow = run(&f);
        let exit = flow.in_states[5].as_ref().unwrap();
        assert_eq!(exit.sp, 0);
        assert!(exit.holds_entry(r5));
        // Mid-body, after the Ldi, the entry value is gone from the register…
        let mid = flow.in_states[3].as_ref().unwrap();
        assert!(!mid.holds_entry(r5));
        // …but the frame still has it.
        assert_eq!(mid.slots.get(&-2), Some(&RegVal::Entry(r5)));
    }

    #[test]
    fn calls_dirty_clobber_set_and_rp() {
        let mut f = MachineFunction::new("f");
        f.push(Inst::Call { target: "g".into() });
        f.push(ret());
        let flow = run(&f);
        let after = flow.in_states[1].as_ref().unwrap();
        assert!(!after.holds_entry(Reg::RP));
        assert!(!after.holds_entry(Reg::new(19)), "caller-saves r19 dirtied");
        assert!(after.holds_entry(Reg::new(5)), "callee-saves r5 preserved");
    }

    #[test]
    fn merge_loses_disagreeing_values() {
        use vpr::inst::Cond;
        let r5 = Reg::new(5);
        let mut f = MachineFunction::new("f");
        let skip = f.new_label();
        f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::RV, rs2: Reg::ZERO, target: skip });
        f.push(Inst::Ldi { rd: r5, imm: 1 });
        f.bind_label(skip);
        f.push(ret());
        let flow = run(&f);
        let exit = flow.in_states[2].as_ref().unwrap();
        // One path kept Entry(r5), the other overwrote it: the join is Other.
        assert!(!exit.holds_entry(r5));
    }

    #[test]
    fn outgoing_arg_slots_die_across_calls() {
        let r19 = Reg::new(19);
        let mut f = MachineFunction::new("f");
        f.push(Inst::Stw { rs: r19, base: Reg::SP, disp: -1, class: MemClass::Frame });
        f.push(Inst::Call { target: "g".into() });
        f.push(ret());
        let flow = run(&f);
        let before = flow.in_states[1].as_ref().unwrap();
        assert!(before.slots.contains_key(&-1));
        let after = flow.in_states[2].as_ref().unwrap();
        assert!(!after.slots.contains_key(&-1), "below-SP slot must not survive the call");
    }

    #[test]
    fn unreachable_code_has_no_state() {
        let mut f = MachineFunction::new("f");
        f.push(ret());
        f.push(Inst::Nop);
        f.push(ret());
        let flow = run(&f);
        assert!(flow.in_states[0].is_some());
        assert!(flow.in_states[1].is_none());
    }
}
