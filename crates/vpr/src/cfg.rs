//! Control-flow graphs over [`MachineFunction`]s.
//!
//! The graph is built at single-instruction granularity: node *i* is
//! instruction *i*, and edges follow the architectural successor relation.
//! Basic blocks buy nothing at VPR's scale (every instruction is one cycle
//! and functions are small), while per-instruction nodes make dataflow
//! clients — notably the `ipra-verify` register-discipline checker — a
//! straight worklist over instruction indices with no block/offset
//! bookkeeping.
//!
//! Successor relation:
//!
//! * `B target` — the label's bound instruction, only,
//! * `Comb … target` — the label's bound instruction *and* the fallthrough,
//! * `Bv base` — none (indirect jump; as emitted, always a return),
//! * `Halt` — none,
//! * calls — the fallthrough (a call returns to the next instruction),
//! * everything else — the fallthrough.
//!
//! Construction fails (rather than producing a partial graph) on code that
//! is not even structurally a function: a branch to an unbound label, or a
//! non-terminal final instruction that would fall off the end.

use crate::inst::Inst;
use crate::program::MachineFunction;
use std::fmt;

/// Why a [`Cfg`] could not be built. The offending instruction index is
/// carried so diagnostics can point at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A branch targets a label that was never bound to an instruction.
    UnboundLabel {
        /// Index of the branching instruction.
        inst: usize,
        /// The unbound label's index.
        label: u32,
    },
    /// A label is bound past the end of the instruction stream.
    LabelOutOfRange {
        /// Index of the branching instruction.
        inst: usize,
        /// The label's bound target address.
        target: usize,
    },
    /// The last instruction can fall through off the end of the function.
    FallsOffEnd {
        /// Index of the offending (final) instruction.
        inst: usize,
    },
    /// The function has no instructions at all.
    Empty,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::UnboundLabel { inst, label } => {
                write!(f, "instruction {inst} branches to unbound label L{label}")
            }
            CfgError::LabelOutOfRange { inst, target } => {
                write!(f, "instruction {inst} branches to out-of-range address {target}")
            }
            CfgError::FallsOffEnd { inst } => {
                write!(f, "instruction {inst} can fall through past the end of the function")
            }
            CfgError::Empty => write!(f, "function has no instructions"),
        }
    }
}

impl std::error::Error for CfgError {}

/// A per-instruction control-flow graph for one machine function.
///
/// # Examples
///
/// ```
/// use vpr::cfg::Cfg;
/// use vpr::inst::Inst;
/// use vpr::program::MachineFunction;
/// use vpr::regs::Reg;
///
/// let mut f = MachineFunction::new("f");
/// f.push(Inst::Ldi { rd: Reg::RV, imm: 1 });
/// f.push(Inst::Bv { base: Reg::RP });
/// let cfg = Cfg::build(&f).unwrap();
/// assert_eq!(cfg.succs(0), &[1]);
/// assert!(cfg.succs(1).is_empty());
/// assert_eq!(cfg.exits(), &[1]);
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    exits: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG for `f`.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] when the instruction stream is structurally
    /// malformed (unbound label, fallthrough past the end, empty body).
    pub fn build(f: &MachineFunction) -> Result<Cfg, CfgError> {
        let insts = f.insts();
        let n = insts.len();
        if n == 0 {
            return Err(CfgError::Empty);
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let resolve = |i: usize, label: crate::inst::Label| -> Result<usize, CfgError> {
            let target =
                f.label_target(label).ok_or(CfgError::UnboundLabel { inst: i, label: label.0 })?;
            if target >= n {
                return Err(CfgError::LabelOutOfRange { inst: i, target });
            }
            Ok(target)
        };
        for (i, inst) in insts.iter().enumerate() {
            match inst {
                Inst::B { target } => succs[i].push(resolve(i, *target)?),
                Inst::Comb { target, .. } => {
                    succs[i].push(resolve(i, *target)?);
                    if i + 1 >= n {
                        return Err(CfgError::FallsOffEnd { inst: i });
                    }
                    succs[i].push(i + 1);
                }
                Inst::Bv { .. } | Inst::Halt => {}
                _ => {
                    if i + 1 >= n {
                        return Err(CfgError::FallsOffEnd { inst: i });
                    }
                    succs[i].push(i + 1);
                }
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(i);
            }
        }
        let exits = insts
            .iter()
            .enumerate()
            .filter(|(_, inst)| matches!(inst, Inst::Bv { .. } | Inst::Halt))
            .map(|(i, _)| i)
            .collect();
        Ok(Cfg { succs, preds, exits })
    }

    /// Number of nodes (= instructions).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Is the graph empty? (Never true for a built CFG — construction
    /// rejects empty functions — but the conventional pair to `len`.)
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successor instruction indices of node `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Predecessor instruction indices of node `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Indices of terminal instructions (`Bv` and `Halt`), in program order.
    pub fn exits(&self) -> &[usize] {
        &self.exits
    }

    /// Instruction indices reachable from the entry (instruction 0), in a
    /// deterministic order.
    pub fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        let mut order = Vec::new();
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            order.push(i);
            for &s in self.succs(i).iter().rev() {
                if !seen[s] {
                    stack.push(s);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Cond, Inst};
    use crate::program::MachineFunction;
    use crate::regs::Reg;

    fn ret() -> Inst {
        Inst::Bv { base: Reg::RP }
    }

    #[test]
    fn straight_line() {
        let mut f = MachineFunction::new("f");
        f.push(Inst::Ldi { rd: Reg::RV, imm: 1 });
        f.push(Inst::Nop);
        f.push(ret());
        let cfg = Cfg::build(&f).unwrap();
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.succs(0), &[1]);
        assert_eq!(cfg.succs(1), &[2]);
        assert!(cfg.succs(2).is_empty());
        assert_eq!(cfg.preds(2), &[1]);
        assert_eq!(cfg.exits(), &[2]);
        assert_eq!(cfg.reachable(), vec![0, 1, 2]);
    }

    #[test]
    fn diamond_from_comb() {
        let mut f = MachineFunction::new("f");
        let else_l = f.new_label();
        let join = f.new_label();
        f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::RV, rs2: Reg::ZERO, target: else_l });
        f.push(Inst::Ldi { rd: Reg::RV, imm: 1 });
        f.push(Inst::B { target: join });
        f.bind_label(else_l);
        f.push(Inst::Ldi { rd: Reg::RV, imm: 2 });
        f.bind_label(join);
        f.push(ret());
        let cfg = Cfg::build(&f).unwrap();
        assert_eq!(cfg.succs(0), &[3, 1]);
        assert_eq!(cfg.succs(2), &[4]);
        let mut preds = cfg.preds(4).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![2, 3]);
    }

    #[test]
    fn calls_fall_through() {
        let mut f = MachineFunction::new("f");
        f.push(Inst::Call { target: "g".into() });
        f.push(ret());
        let cfg = Cfg::build(&f).unwrap();
        assert_eq!(cfg.succs(0), &[1]);
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let mut f = MachineFunction::new("f");
        f.push(Inst::Nop);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::FallsOffEnd { inst: 0 });
    }

    #[test]
    fn rejects_unbound_label() {
        let mut f = MachineFunction::new("f");
        let l = f.new_label();
        f.push(Inst::B { target: l });
        assert!(matches!(Cfg::build(&f), Err(CfgError::UnboundLabel { inst: 0, .. })));
    }

    #[test]
    fn rejects_empty_function() {
        let f = MachineFunction::new("f");
        assert!(matches!(Cfg::build(&f), Err(CfgError::Empty)));
    }

    #[test]
    fn unreachable_code_is_excluded_from_reachable() {
        let mut f = MachineFunction::new("f");
        f.push(ret());
        f.push(Inst::Ldi { rd: Reg::RV, imm: 9 }); // dead
        f.push(ret());
        let cfg = Cfg::build(&f).unwrap();
        assert_eq!(cfg.reachable(), vec![0]);
        assert_eq!(cfg.exits(), &[0, 2]);
    }
}
