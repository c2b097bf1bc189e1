//! Machine descriptions: the register-file and calling-convention facts
//! the rest of the system consumes instead of hardcoded `regs` constants.
//!
//! The paper's §2 claims the analyzer is target independent — its
//! directives (webs, clusters, FREE/CALLER/CALLEE/MSPILL sets) are
//! expressed over an *abstract* linkage convention. This module makes the
//! claim literal. A [`TargetDesc`] names every role the compiler,
//! analyzer, linker, verifier and simulator need:
//!
//! * the special registers — hardwired zero, return pointer, stack
//!   pointer, global data pointer, return value, and the two
//!   code-generation scratch registers;
//! * the argument registers, first argument first;
//! * the callee/caller-saves partition;
//! * the caller-saves *claim pool* the §6 caller-preallocation protocol
//!   hands out bottom-up;
//! * ABI register names for diagnostics (`objdump`, `explain`).
//!
//! Two descriptions exist: [`VPR`], the PA-RISC-flavored original, and
//! [`RV32`], a RISC-V-flavored convention over the same instruction set
//! (`a0–a7` argument registers, `s*` callee-saves, `t*` caller-saves
//! temporaries). Both have 32 registers with the zero register at index
//! 0, which the execution engines rely on; see [`TargetDesc::validate`]
//! for the full list of structural guarantees a description must uphold.

use crate::regs::{Reg, RegSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a built-in target. The identifier travels in `.vo`/`.vx`
/// artifact headers and inside serialized executables; [`TargetId::Vpr`]
/// is the default everywhere so pre-existing artifacts (which never
/// mention a target) keep their meaning and their bytes.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum TargetId {
    /// The PA-RISC-flavored original: descending argument registers
    /// `r26..r23`, callee-saves `r3..=r18`.
    #[default]
    Vpr,
    /// The RISC-V-flavored convention: ascending argument registers
    /// `a0..a7` (`x10..x17`), callee-saves `s0..s11`, return value in
    /// `a0`.
    Rv32,
}

impl TargetId {
    /// Every built-in target, VPR first.
    pub const ALL: [TargetId; 2] = [TargetId::Vpr, TargetId::Rv32];

    /// The machine description for this target.
    pub fn desc(self) -> &'static TargetDesc {
        match self {
            TargetId::Vpr => &VPR,
            TargetId::Rv32 => &RV32,
        }
    }

    /// Short lowercase name (the `--target` spelling and the artifact
    /// header token).
    pub fn name(self) -> &'static str {
        match self {
            TargetId::Vpr => "vpr",
            TargetId::Rv32 => "rv32",
        }
    }

    /// Parses a `--target` spelling.
    pub fn parse(s: &str) -> Option<TargetId> {
        TargetId::ALL.into_iter().find(|t| t.name() == s)
    }
}

impl fmt::Display for TargetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A machine description: everything the target-parameterized layers
/// (codegen, the analyzer's register-set machinery, the linker, the
/// verifier, the simulators) know about a register file and its calling
/// convention.
#[derive(Debug)]
pub struct TargetDesc {
    /// The identifier this description belongs to.
    pub id: TargetId,
    /// Number of general-purpose registers (at most 64, the `RegSet`
    /// width; both built-in targets use 32).
    pub reg_count: usize,
    /// Hardwired zero register. Must be index 0 — both engines suppress
    /// writes to index 0 unconditionally.
    pub zero: Reg,
    /// Primary code-generation scratch (the "assembler temporary").
    /// Never allocated; the linker also uses it to lower global accesses
    /// whose displacement exceeds the addressing reach.
    pub scratch1: Reg,
    /// Secondary code-generation scratch, for two-address sequences
    /// (spill reload + operate). Never allocated.
    pub scratch2: Reg,
    /// Return pointer: call instructions deposit the return address here.
    pub rp: Reg,
    /// Global data pointer: base register for global-variable access.
    pub dp: Reg,
    /// Return value register. May alias the first argument register (it
    /// does on RV32, where both are `a0`); the allocator reserves both.
    pub rv: Reg,
    /// Stack pointer.
    pub sp: Reg,
    /// Registers that are *never* used by generated code or the linker:
    /// not a role, not allocatable, not in either saves class (RV32's
    /// `tp`/`x4`). Diagnostic renderers still name them.
    pub reserved: RegSet,
    /// Argument registers, first argument first. Arguments beyond
    /// `args.len()` travel on the stack.
    pub args: &'static [Reg],
    /// The callee-saves class: a procedure that writes one must restore
    /// it before returning.
    pub callee_saves: RegSet,
    /// The allocatable caller-saves class (includes the argument
    /// registers and `rv`, excludes the scratches-by-convention except
    /// `scratch2`, which codegen may clobber between any two
    /// instructions and is therefore unsafe across calls anyway).
    pub caller_saves: RegSet,
    /// The §6 caller-preallocation claim pool, in hand-out order: the
    /// caller-saves temporaries procedures claim bottom-up. Disjoint
    /// from `args` and `rv` so claimed registers survive call setup.
    pub claim_pool: &'static [Reg],
    /// ABI register names, indexed by register number, for diagnostics.
    pub reg_names: [&'static str; 32],
}

impl TargetDesc {
    /// ABI name of a register (`"a0"`, `"sp"`, `"rv"`, …).
    pub fn reg_name(&self, r: Reg) -> &'static str {
        self.reg_names[r.index()]
    }

    /// The callee-saves registers in ascending order — the coloring and
    /// allocation order every layer shares.
    pub fn callee_order(&self) -> Vec<Reg> {
        self.callee_saves.iter().collect()
    }

    /// The claim pool as a set.
    pub fn claim_pool_set(&self) -> RegSet {
        self.claim_pool.iter().copied().collect()
    }

    /// Checks the structural invariants the consuming layers rely on.
    /// Returns the violations (empty = valid); exercised by the
    /// description snapshot tests so a future target cannot silently
    /// break an engine or the allocator.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let mut err = |cond: bool, msg: &str| {
            if !cond {
                errs.push(msg.to_string());
            }
        };
        err(self.reg_count <= 64, "reg_count must fit the 64-bit RegSet");
        err(self.zero.index() == 0, "zero register must be index 0 (engines pin it)");
        err(self.callee_saves.is_disjoint(self.caller_saves), "saves classes must be disjoint");
        for (role, r) in [
            ("zero", self.zero),
            ("sp", self.sp),
            ("dp", self.dp),
            ("rp", self.rp),
            ("scratch1", self.scratch1),
            ("scratch2", self.scratch2),
        ] {
            err(!self.callee_saves.contains(r), &format!("{role} must not be callee-saves"));
            err(
                r == self.scratch2 || !self.caller_saves.contains(r),
                &format!("{role} must not be allocatable caller-saves"),
            );
        }
        err(self.caller_saves.contains(self.rv), "rv must be caller-saves");
        for &a in self.args {
            err(self.caller_saves.contains(a), "argument registers must be caller-saves");
        }
        let pool = self.claim_pool_set();
        err(pool.len() == self.claim_pool.len(), "claim pool must not repeat registers");
        err(pool.is_subset(self.caller_saves), "claim pool must be caller-saves");
        err(!pool.contains(self.rv), "claim pool must not contain rv");
        err(!pool.contains(self.scratch2), "claim pool must not contain the scratches");
        for &a in self.args {
            err(!pool.contains(a), "claim pool must not contain argument registers");
        }
        let roles: RegSet = [self.zero, self.scratch1, self.scratch2, self.rp, self.dp, self.sp]
            .into_iter()
            .collect();
        err(self.reserved.is_disjoint(roles), "reserved registers cannot carry a role");
        err(
            self.reserved.is_disjoint(self.callee_saves)
                && self.reserved.is_disjoint(self.caller_saves),
            "reserved registers cannot be allocatable",
        );
        errs
    }
}

/// The PA-RISC-flavored original target (see [`crate::regs`] for the full
/// layout table). This description is definitionally what the backend
/// hardcoded before the machine-description layer existed; the snapshot
/// test in this module pins every role so a drift is a test failure, and
/// the workload byte-identity goldens pin the emitted code.
pub static VPR: TargetDesc = TargetDesc {
    id: TargetId::Vpr,
    reg_count: 32,
    zero: Reg::ZERO,
    scratch1: Reg::AT,
    scratch2: Reg::new(31),
    rp: Reg::RP,
    dp: Reg::DP,
    rv: Reg::RV,
    sp: Reg::SP,
    reserved: RegSet::EMPTY,
    args: &[Reg::new(26), Reg::new(25), Reg::new(24), Reg::new(23)],
    callee_saves: RegSet::from_bits(0x0007_fff8), // r3..=r18
    caller_saves: RegSet::from_bits(0xb7f8_0000), // r19..=r26, r28, r29, r31
    claim_pool: &[Reg::new(19), Reg::new(20), Reg::new(21), Reg::new(22), Reg::new(29)],
    reg_names: [
        "zero", "at", "rp", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10",
        "s11", "s12", "s13", "s14", "s15", "t0", "t1", "t2", "t3", "a3", "a2", "a1", "a0", "dp",
        "rv", "t4", "sp", "at2",
    ],
};

/// The RISC-V-flavored second target: RV32I register roles and the
/// standard ilp32 split — `a0..a7` (`x10..x17`) ascending argument
/// registers with the return value in `a0`, callee-saves `s0..s11`
/// (`x8`, `x9`, `x18..x27`), caller-saves temporaries `t0..t6`. `ra`
/// (`x1`) is the return pointer, `gp` (`x3`) plays the global data
/// pointer, and `tp` (`x4`) is reserved — never touched by generated
/// code, exactly like a real thread pointer. `t5`/`t6` are the two
/// code-generation scratches, leaving `t0..t4` as the five-register
/// caller-preallocation claim pool (the same pool size as VPR, which
/// keeps the §6 protocol's behavior comparable across targets).
pub static RV32: TargetDesc = TargetDesc {
    id: TargetId::Rv32,
    reg_count: 32,
    zero: Reg::new(0),
    scratch1: Reg::new(30), // t5
    scratch2: Reg::new(31), // t6
    rp: Reg::new(1),        // ra
    dp: Reg::new(3),        // gp
    rv: Reg::new(10),       // a0 (aliases the first argument register)
    sp: Reg::new(2),
    reserved: RegSet::from_bits(1 << 4), // tp
    args: &[
        Reg::new(10),
        Reg::new(11),
        Reg::new(12),
        Reg::new(13),
        Reg::new(14),
        Reg::new(15),
        Reg::new(16),
        Reg::new(17),
    ],
    // s0..s11 = x8, x9, x18..x27.
    callee_saves: RegSet::from_bits(0x0ffc_0300),
    // t0..t4 (x5..x7, x28, x29), a0..a7 (x10..x17), t6 (x31).
    caller_saves: RegSet::from_bits(0xb003_fce0),
    claim_pool: &[Reg::new(5), Reg::new(6), Reg::new(7), Reg::new(28), Reg::new(29)],
    reg_names: [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_descriptions_validate() {
        for t in TargetId::ALL {
            let errs = t.desc().validate();
            assert!(errs.is_empty(), "{t}: {errs:?}");
        }
    }

    /// Golden snapshot of the VPR description: the ABI role table and the
    /// callee/caller partition must stay exactly what the backend
    /// hardcoded before the machine-description layer existed.
    #[test]
    fn vpr_description_snapshot() {
        let d = TargetId::Vpr.desc();
        assert_eq!(d.zero, Reg::new(0));
        assert_eq!(d.scratch1, Reg::new(1));
        assert_eq!(d.rp, Reg::new(2));
        assert_eq!(d.dp, Reg::new(27));
        assert_eq!(d.rv, Reg::new(28));
        assert_eq!(d.sp, Reg::new(30));
        assert_eq!(d.scratch2, Reg::new(31));
        assert_eq!(d.args, &[Reg::new(26), Reg::new(25), Reg::new(24), Reg::new(23)]);
        assert_eq!(d.callee_saves, RegSet::from_bits(0x0007_fff8));
        assert_eq!(d.caller_saves, RegSet::from_bits(0xb7f8_0000));
        assert_eq!(d.callee_saves.len(), 16);
        assert_eq!(d.caller_saves.len(), 11);
        let pool: Vec<usize> = d.claim_pool.iter().map(|r| r.index()).collect();
        assert_eq!(pool, vec![19, 20, 21, 22, 29]);
        assert!(d.reserved.is_empty());
        // The classes are the historical `r3..=r18` and
        // `r19..=r26, r28, r29, r31`, register by register.
        for i in 0..32u8 {
            let r = Reg::new(i);
            assert_eq!((3..=18).contains(&i), d.callee_saves.contains(r), "r{i}");
            assert_eq!(matches!(i, 19..=26 | 28 | 29 | 31), d.caller_saves.contains(r), "r{i}");
        }
        assert_eq!(d.reg_name(Reg::new(26)), "a0");
        assert_eq!(d.reg_name(Reg::new(30)), "sp");
        assert_eq!(d.reg_name(Reg::new(28)), "rv");
    }

    #[test]
    fn rv32_description_snapshot() {
        let d = TargetId::Rv32.desc();
        assert_eq!(d.rp, Reg::new(1), "ra");
        assert_eq!(d.sp, Reg::new(2));
        assert_eq!(d.dp, Reg::new(3), "gp");
        assert_eq!(d.rv, Reg::new(10), "a0");
        assert_eq!(d.rv, d.args[0], "RV32 returns in the first argument register");
        let args: Vec<usize> = d.args.iter().map(|r| r.index()).collect();
        assert_eq!(args, (10..18).collect::<Vec<_>>());
        assert_eq!(d.callee_saves.len(), 12, "s0..s11");
        let callee: Vec<usize> = d.callee_saves.iter().map(Reg::index).collect();
        assert_eq!(callee, vec![8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27]);
        assert_eq!(d.caller_saves.len(), 14);
        assert_eq!(d.claim_pool.len(), VPR.claim_pool.len(), "same §6 pool size as VPR");
        assert!(d.reserved.contains(Reg::new(4)), "tp is reserved");
        assert_eq!(d.reg_name(Reg::new(10)), "a0");
        assert_eq!(d.reg_name(Reg::new(8)), "s0");
        assert_eq!(d.reg_name(Reg::new(2)), "sp");
    }

    #[test]
    fn target_id_round_trips() {
        for t in TargetId::ALL {
            assert_eq!(TargetId::parse(t.name()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(TargetId::parse("pdp11"), None);
        assert_eq!(TargetId::default(), TargetId::Vpr);
    }
}
