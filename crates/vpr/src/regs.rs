//! The VPR register file and software linkage convention.
//!
//! VPR mirrors the PA-RISC general register organization described in the
//! paper: 32 general-purpose registers, of which 16 are designated
//! callee-saves by software convention. The contents of a *callee-saves*
//! register must be preserved by any procedure that modifies it; a
//! *caller-saves* register may be clobbered freely by a callee, so a caller
//! must save it around calls if its value is live afterwards.
//!
//! Layout (loosely after PA-RISC):
//!
//! | register | role | class |
//! |---|---|---|
//! | `r0` | hardwired zero | special |
//! | `r1` | assembler temporary (`AT`) | scratch, never allocated |
//! | `r2` | return pointer (`RP`) | special |
//! | `r3..=r18` | callee-saves | allocatable |
//! | `r19..=r22` | caller-saves temporaries | allocatable |
//! | `r23..=r26` | argument registers (`ARG3..ARG0`) | caller-saves, allocatable |
//! | `r27` | global data pointer (`DP`) | special |
//! | `r28` | return value (`RV`) | caller-saves, allocatable |
//! | `r29` | caller-saves temporary | allocatable |
//! | `r30` | stack pointer (`SP`) | special |
//! | `r31` | caller-saves temporary | allocatable |

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the 32 VPR general-purpose registers.
///
/// # Examples
///
/// ```
/// use vpr::regs::Reg;
/// let r = Reg::new(5);
/// assert_eq!(r.index(), 5);
/// assert!(vpr::target::VPR.callee_saves.contains(r));
/// assert_eq!(r.to_string(), "r5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// Total number of general-purpose registers.
    pub const COUNT: usize = 32;

    /// Hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Assembler temporary, reserved for code-generation scratch sequences.
    pub const AT: Reg = Reg(1);
    /// Return pointer: call instructions deposit the return address here.
    pub const RP: Reg = Reg(2);
    /// Global data pointer: base register for global-variable access.
    pub const DP: Reg = Reg(27);
    /// Return value register.
    pub const RV: Reg = Reg(28);
    /// Stack pointer.
    pub const SP: Reg = Reg(30);

    /// Argument registers, first argument first (`ARG0` = `r26`, matching
    /// PA-RISC's descending argument register numbering).
    pub const ARGS: [Reg; 4] = [Reg(26), Reg(25), Reg(24), Reg(23)];

    /// Creates a register from its index (`const` so machine descriptions
    /// can be statics).
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    pub const fn new(index: u8) -> Reg {
        assert!((index as usize) < Reg::COUNT, "register index out of range");
        Reg(index)
    }

    /// The register's index in `0..32`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A set of registers, represented as a 64-bit mask (bit *i* ⇔ `r{i}`).
///
/// `RegSet` is the currency of the paper's §4.2.3 register usage sets
/// (`FREE`, `CALLER`, `CALLEE`, `MSPILL`) and of the analyzer's `AVAIL`
/// bookkeeping, so it implements the full set algebra.
///
/// The backing is 64-bit so a target description may define register files
/// wider than VPR's 32 without a representation change; every mask a
/// 32-register target produces fits in the low half, so serialized sets
/// (decimal integers in the JSON codecs) are byte-identical to the
/// historical 32-bit encoding.
///
/// # Examples
///
/// ```
/// use vpr::regs::{Reg, RegSet};
/// let a: RegSet = [Reg::new(3), Reg::new(4)].into_iter().collect();
/// let b = vpr::target::VPR.callee_saves;
/// assert!(a.is_subset(b));
/// assert_eq!((b - a).len(), 14);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty register set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Creates an empty set.
    pub fn new() -> RegSet {
        RegSet(0)
    }

    /// Raw bitmask accessor (bit *i* set ⇔ `r{i}` in the set). Widened
    /// from `u32` with the 64-bit backing; the low 32 bits carry the
    /// historical layout unchanged.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Builds a set from a raw bitmask (`const` so target descriptions can
    /// precompute their partitions as statics).
    pub const fn from_bits(bits: u64) -> RegSet {
        RegSet(bits)
    }

    /// Inserts a register; returns `true` if it was newly added.
    pub fn insert(&mut self, r: Reg) -> bool {
        let added = !self.contains(r);
        self.0 |= 1u64 << r.0;
        added
    }

    /// Removes a register; returns `true` if it was present.
    pub fn remove(&mut self, r: Reg) -> bool {
        let present = self.contains(r);
        self.0 &= !(1u64 << r.0);
        present
    }

    /// Membership test.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1u64 << r.0) != 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(self, other: RegSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Do the sets share no register?
    pub fn is_disjoint(self, other: RegSet) -> bool {
        self.0 & other.0 == 0
    }

    /// The lowest-numbered register in the set, if any.
    pub fn first(self) -> Option<Reg> {
        if self.is_empty() {
            None
        } else {
            Some(Reg(self.0.trailing_zeros() as u8))
        }
    }

    /// Removes and returns the lowest-numbered register.
    pub fn pop_first(&mut self) -> Option<Reg> {
        let r = self.first()?;
        self.remove(r);
        Some(r)
    }

    /// Iterates over members in ascending register order.
    pub fn iter(self) -> Iter {
        Iter(self)
    }
}

/// Iterator over the registers of a [`RegSet`], ascending.
#[derive(Debug, Clone)]
pub struct Iter(RegSet);

impl Iterator for Iter {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        self.0.pop_first()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for RegSet {
    type Item = Reg;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl std::ops::BitOr for RegSet {
    type Output = RegSet;
    fn bitor(self, rhs: RegSet) -> RegSet {
        RegSet(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for RegSet {
    fn bitor_assign(&mut self, rhs: RegSet) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for RegSet {
    type Output = RegSet;
    fn bitand(self, rhs: RegSet) -> RegSet {
        RegSet(self.0 & rhs.0)
    }
}

impl std::ops::BitAndAssign for RegSet {
    fn bitand_assign(&mut self, rhs: RegSet) {
        self.0 &= rhs.0;
    }
}

impl std::ops::Sub for RegSet {
    type Output = RegSet;
    fn sub(self, rhs: RegSet) -> RegSet {
        RegSet(self.0 & !rhs.0)
    }
}

impl std::ops::SubAssign for RegSet {
    fn sub_assign(&mut self, rhs: RegSet) {
        self.0 &= !rhs.0;
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegSet{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::VPR;

    #[test]
    fn register_classes_partition_the_file() {
        let callee = VPR.callee_saves;
        let caller = VPR.caller_saves;
        assert_eq!(callee.len(), 16);
        assert_eq!(caller.len(), 11);
        assert!(callee.is_disjoint(caller));
        // The specials are in neither class.
        for special in [Reg::ZERO, Reg::AT, Reg::RP, Reg::DP, Reg::SP] {
            assert!(!callee.contains(special));
            assert!(!caller.contains(special));
        }
    }

    #[test]
    fn args_are_caller_saves() {
        for a in Reg::ARGS {
            assert!(VPR.caller_saves.contains(a));
        }
        assert!(VPR.caller_saves.contains(Reg::RV));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_index_validated() {
        let _ = Reg::new(32);
    }

    #[test]
    fn set_algebra() {
        let a: RegSet = [Reg::new(3), Reg::new(5), Reg::new(7)].into_iter().collect();
        let b: RegSet = [Reg::new(5), Reg::new(9)].into_iter().collect();
        assert_eq!((a | b).len(), 4);
        assert_eq!((a & b).len(), 1);
        assert_eq!((a - b).len(), 2);
        assert!((a & b).contains(Reg::new(5)));
        assert!(!(a - b).contains(Reg::new(5)));
    }

    #[test]
    fn iteration_is_ascending_and_exact() {
        let s: RegSet = [Reg::new(9), Reg::new(3), Reg::new(31)].into_iter().collect();
        let v: Vec<usize> = s.iter().map(Reg::index).collect();
        assert_eq!(v, vec![3, 9, 31]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn pop_first_drains() {
        let mut s = VPR.callee_saves;
        let mut n = 0;
        while s.pop_first().is_some() {
            n += 1;
        }
        assert_eq!(n, 16);
        assert!(s.is_empty());
    }

    #[test]
    fn display_formats() {
        let s: RegSet = [Reg::new(3), Reg::new(4)].into_iter().collect();
        assert_eq!(s.to_string(), "{r3, r4}");
        assert_eq!(RegSet::EMPTY.to_string(), "{}");
        assert_eq!(format!("{:?}", RegSet::EMPTY), "RegSet{}");
    }

    /// The 64-bit widening must not move a single bit: bit *i* is `r{i}`,
    /// exactly as in the historical `u32` backing, and the convention
    /// masks are pinned as raw integers so any layout drift is loud.
    #[test]
    fn bit_layout_golden() {
        for i in 0..Reg::COUNT as u8 {
            let mut s = RegSet::new();
            s.insert(Reg::new(i));
            assert_eq!(s.bits(), 1u64 << i, "r{i} must map to bit {i}");
        }
        assert_eq!(VPR.callee_saves.bits(), 0x0007_fff8); // r3..=r18
        assert_eq!(VPR.caller_saves.bits(), 0xb7f8_0000); // r19..=r26, r28, r29, r31
        assert_eq!(RegSet::from_bits(0x0007_fff8), VPR.callee_saves);
    }

    /// Serialized sets are decimal integers; every mask a 32-register
    /// target can produce fits in 32 bits, so `.cdir`/`.csum` artifacts
    /// written before the widening read back (and re-serialize) unchanged.
    #[test]
    fn serialization_stable_across_widening() {
        let callee = VPR.callee_saves;
        assert_eq!(serde_json::to_string(&callee).unwrap(), "524280");
        let top: RegSet = [Reg::new(31)].into_iter().collect();
        assert_eq!(serde_json::to_string(&top).unwrap(), "2147483648");
        let back: RegSet = serde_json::from_str("524280").unwrap();
        assert_eq!(back, callee);
    }

    #[test]
    fn subset_and_disjoint() {
        let callee = VPR.callee_saves;
        let six: RegSet = (3..9).map(Reg::new).collect();
        assert!(six.is_subset(callee));
        assert!(!callee.is_subset(six));
        assert!(RegSet::EMPTY.is_subset(six));
        assert!(RegSet::EMPTY.is_disjoint(RegSet::EMPTY));
    }
}
