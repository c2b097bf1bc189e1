//! Live-temp analysis.
//!
//! Classic backward iterative dataflow over basic blocks. The results feed
//! dead-code elimination, the code generator's interference graph, and the
//! "temps live across calls" classification that decides which values need
//! callee-saves registers (the heart of the paper's spill accounting).
//!
//! Only a temp that some block reads before writing it can be live at a
//! block boundary; most temps are born and die inside one block. So the
//! per-block sets range over those boundary temps alone, which keeps a long
//! procedure's sets small, and a backward walk through a block starts from
//! a reusable [`TempSet`] ([`Liveness::live_out_into`]) whose cost follows
//! the values live, not the temps allocated.

use crate::cfg::Cfg;
use crate::ir::{BlockId, Function, Inst, Operand, Temp};

/// A set of [`Temp`]s with constant-time insert, remove, membership and
/// clear, and iteration in time proportional to its size (a Briggs–Torczon
/// sparse set): a backward walk keeps a few live values out of thousands
/// of temps, and pays for those few.
#[derive(Clone, Default)]
pub struct TempSet {
    /// The members, in no particular order.
    members: Vec<Temp>,
    /// Per temp, its position in `members` (meaningless for non-members).
    index: Vec<u32>,
}

impl TempSet {
    /// An empty set able to hold temps `0..capacity`.
    pub fn new(capacity: u32) -> TempSet {
        TempSet { members: Vec::new(), index: vec![0; capacity as usize] }
    }

    /// Empties the set and makes it able to hold temps `0..capacity`,
    /// keeping its allocation.
    pub fn reset(&mut self, capacity: u32) {
        self.members.clear();
        self.index.resize(capacity as usize, 0);
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.members.clear();
    }

    /// Inserts `t`; returns whether it was newly added.
    pub fn insert(&mut self, t: Temp) -> bool {
        if self.contains(t) {
            return false;
        }
        self.index[t.0 as usize] = self.members.len() as u32;
        self.members.push(t);
        true
    }

    /// Removes `t`; returns whether it was present.
    pub fn remove(&mut self, t: Temp) -> bool {
        if !self.contains(t) {
            return false;
        }
        let at = self.index[t.0 as usize];
        let last = self.members.pop().expect("a member");
        if last != t {
            self.members[at as usize] = last;
            self.index[last.0 as usize] = at;
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, t: Temp) -> bool {
        let at = self.index.get(t.0 as usize).map_or(usize::MAX, |&i| i as usize);
        self.members.get(at) == Some(&t)
    }

    /// Unions `other` into `self`; returns whether anything changed.
    pub fn union_with(&mut self, other: &TempSet) -> bool {
        let mut changed = false;
        for t in other.iter() {
            changed |= self.insert(t);
        }
        changed
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over the members, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = Temp> + '_ {
        self.members.iter().copied()
    }
}

impl std::fmt::Debug for TempSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut members = self.members.clone();
        members.sort_unstable();
        f.debug_set().entries(members).finish()
    }
}

/// A temp's `slot` when it is never live at a block boundary.
const NO_SLOT: u32 = u32::MAX;

/// Per-block live-in/live-out sets.
///
/// The sets are bit rows over the *boundary temps*, the temps that some
/// reachable block reads before it writes them; every other temp is dead
/// at every block boundary. [`Liveness::recompute`] refills the same
/// buffers, so a pass pipeline can recompute liveness without allocating.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Per temp, its bit among the boundary temps, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The boundary temps, ascending: bit `i` of a row is `temps[i]`.
    temps: Vec<Temp>,
    /// Words per row.
    words: usize,
    /// Block-major rows: `live_in[b * words..][..words]` is block `b`'s.
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Per-block upward-exposed uses and definitions, as rows.
    uses: Vec<u64>,
    defs: Vec<u64>,
    /// Scratch: per temp, the stamp of the block walk that last defined it.
    stamp: Vec<u32>,
}

impl Liveness {
    /// Computes liveness for `f` using its `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let mut lv = Liveness::default();
        lv.recompute(f, cfg);
        lv
    }

    /// Recomputes liveness for `f` (which may have changed since) in place.
    /// Unreachable blocks have empty sets and contribute nothing.
    pub fn recompute(&mut self, f: &Function, cfg: &Cfg) {
        let n = f.blocks.len();
        let cap = f.temp_count as usize;
        // Walk 1 marks the boundary temps; walk 2, once they are numbered,
        // fills the rows. Each walk of a block stamps its definitions with
        // a value of its own, so one clearing serves all of them.
        self.stamp.clear();
        self.stamp.resize(cap, 0);
        self.slot.clear();
        self.slot.resize(cap, NO_SLOT);
        for b in cfg.rpo() {
            let slot = &mut self.slot;
            walk_block(f, *b, 1 + b.0, &mut self.stamp, |t| slot[t.0 as usize] = 0, |_| {});
        }
        self.temps.clear();
        for (t, slot) in self.slot.iter_mut().enumerate() {
            if *slot != NO_SLOT {
                *slot = self.temps.len() as u32;
                self.temps.push(Temp(t as u32));
            }
        }
        let w = self.temps.len().div_ceil(64);
        self.words = w;
        for rows in [&mut self.live_in, &mut self.live_out, &mut self.uses, &mut self.defs] {
            rows.clear();
            rows.resize(n * w, 0);
        }
        if w == 0 {
            return;
        }
        for b in cfg.rpo() {
            let (slot, uses, defs) = (&self.slot, &mut self.uses, &mut self.defs);
            let row = b.index() * w;
            let bit = |rows: &mut Vec<u64>, t: Temp| {
                let i = slot[t.0 as usize];
                if i != NO_SLOT {
                    rows[row + i as usize / 64] |= 1 << (i % 64);
                }
            };
            let stamp = 1 + n as u32 + b.0;
            walk_block(f, *b, stamp, &mut self.stamp, |t| bit(uses, t), |t| bit(defs, t));
        }
        // Backward fixpoint, iterating the reverse postorder backward for
        // fast convergence: out = ∪ in(succ), in = uses ∪ (out − defs),
        // a word at a time.
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                for word in 0..w {
                    let k = b.index() * w + word;
                    let succs = cfg.succs(b).iter();
                    let out = succs.fold(0, |acc, s| acc | self.live_in[s.index() * w + word]);
                    let inp = self.uses[k] | (out & !self.defs[k]);
                    changed |= out != self.live_out[k] || inp != self.live_in[k];
                    self.live_out[k] = out;
                    self.live_in[k] = inp;
                }
            }
        }
    }

    /// Temps live at entry to block `b`.
    pub fn live_in(&self, b: BlockId) -> LiveSet<'_> {
        self.set(&self.live_in, b)
    }

    /// Temps live at exit of block `b`.
    pub fn live_out(&self, b: BlockId) -> LiveSet<'_> {
        self.set(&self.live_out, b)
    }

    /// Overwrites `set` with the temps live at exit of block `b`: the start
    /// of a backward walk through `b`. `set` keeps its capacity, which
    /// must cover every temp of the function.
    pub fn live_out_into(&self, b: BlockId, set: &mut TempSet) {
        set.clear();
        for t in self.live_out(b).iter() {
            set.insert(t);
        }
    }

    fn set<'a>(&'a self, rows: &'a [u64], b: BlockId) -> LiveSet<'a> {
        let w = self.words;
        LiveSet { row: &rows[b.index() * w..][..w], temps: &self.temps, slot: &self.slot }
    }
}

/// Walks block `b` forward, calling `exposed` on each use of a temp the
/// block has not defined yet (terminator included) and `defined` on each
/// definition. `stamp` holds, per temp, the `walk` value of the walk that
/// last defined it; `walk` must differ from every earlier walk's.
fn walk_block(
    f: &Function,
    b: BlockId,
    walk: u32,
    stamp: &mut [u32],
    mut exposed: impl FnMut(Temp),
    mut defined: impl FnMut(Temp),
) {
    let block = f.block(b);
    for inst in &block.insts {
        inst.for_each_use(|o| {
            if let Operand::Temp(t) = o {
                if stamp[t.0 as usize] != walk {
                    exposed(t);
                }
            }
        });
        if let Some(t) = inst.def() {
            stamp[t.0 as usize] = walk;
            defined(t);
        }
    }
    block.term.for_each_use(|o| {
        if let Operand::Temp(t) = o {
            if stamp[t.0 as usize] != walk {
                exposed(t);
            }
        }
    });
}

/// One block's live-in or live-out set (see [`Liveness`]).
#[derive(Clone, Copy)]
pub struct LiveSet<'a> {
    row: &'a [u64],
    temps: &'a [Temp],
    slot: &'a [u32],
}

impl<'a> LiveSet<'a> {
    /// Membership test.
    pub fn contains(&self, t: Temp) -> bool {
        match self.slot.get(t.0 as usize) {
            Some(&i) if i != NO_SLOT => self.row[i as usize / 64] & (1 << (i % 64)) != 0,
            _ => false,
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Temp> + 'a {
        let temps = self.temps;
        self.row.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    temps[wi * 64 + b]
                })
            })
        })
    }
}

impl std::fmt::Debug for LiveSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The set of temps that are live across at least one call site in `f`.
///
/// These are the values that must either occupy preserved (callee-saves /
/// FREE) registers or be spilled around calls; the paper's spill code
/// motion exists to make their registers cheap.
pub fn live_across_calls(f: &Function, liveness: &Liveness) -> TempSet {
    let mut across = TempSet::new(f.temp_count);
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
            if let Some(t) = inst.def() {
                live.remove(t);
            }
            if matches!(inst, Inst::Call { .. }) {
                // Everything live *after* the call (minus its own def,
                // removed above) crosses this call.
                across.union_with(&live);
            }
            inst.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    live.insert(t);
                }
            });
        }
    }
    across
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::lower::lower_module;
    use cmin_frontend::{analyze, parse_module};

    fn func(src: &str, name: &str) -> Function {
        let m = parse_module("m", src).unwrap();
        let info = analyze(&m).unwrap();
        lower_module(&m, &info).function(name).unwrap().clone()
    }

    #[test]
    fn tempset_basics() {
        let mut s = TempSet::new(130);
        assert!(s.insert(Temp(0)));
        assert!(s.insert(Temp(129)));
        assert!(!s.insert(Temp(129)));
        assert!(s.contains(Temp(129)));
        assert!(!s.contains(Temp(500)), "beyond capacity is never a member");
        assert_eq!(s.len(), 2);
        let mut members: Vec<Temp> = s.iter().collect();
        members.sort();
        assert_eq!(members, vec![Temp(0), Temp(129)]);
        assert!(s.remove(Temp(0)));
        assert!(!s.remove(Temp(0)));
        assert!(!s.is_empty());
    }

    #[test]
    fn tempset_remove_keeps_the_others_and_clear_empties() {
        let mut s = TempSet::new(64 * 4);
        for t in [0, 63, 64 * 2 + 5, 64 * 3 + 63] {
            s.insert(Temp(t));
        }
        // Removing a middle member moves the last one into its place.
        assert!(s.remove(Temp(63)));
        for t in [0, 133, 255] {
            assert!(s.contains(Temp(t)), "t{t}");
        }
        assert!(!s.contains(Temp(63)));
        assert_eq!(format!("{s:?}"), "{Temp(0), Temp(133), Temp(255)}");
        s.clear();
        assert!(s.is_empty() && !s.contains(Temp(0)));
        assert!(s.insert(Temp(255)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Temp(255)]);
    }

    #[test]
    fn tempset_union() {
        let mut a = TempSet::new(10);
        let mut b = TempSet::new(10);
        a.insert(Temp(1));
        b.insert(Temp(2));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn param_live_through_loop() {
        let f = func(
            "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
            "f",
        );
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        // n (param temp 0) is live into the loop header.
        let header = match f.block(f.entry).term {
            Term::Jump(h) => h,
            _ => panic!(),
        };
        assert!(lv.live_in(header).contains(f.params[0]));
    }

    #[test]
    fn dead_value_not_live() {
        let f = func("int f(int a) { int dead = a * 2; return a; }", "f");
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        // The dead temp is never live-in anywhere.
        let dead_temp = f
            .block(f.entry)
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Bin { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        for b in f.block_ids() {
            assert!(!lv.live_in(b).contains(dead_temp));
        }
    }

    #[test]
    fn live_across_calls_detects_crossing_values() {
        let f = func(
            "int g(int x) { return x; }
             int f(int a, int b) { int r = g(a); return r + b; }",
            "f",
        );
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        let across = live_across_calls(&f, &lv);
        // b (param 1) crosses the call; a (param 0) does not (consumed as arg);
        // the call result r is defined by the call so it does not cross it.
        assert!(across.contains(f.params[1]));
        assert!(!across.contains(f.params[0]));
    }

    #[test]
    fn leaf_function_has_nothing_across_calls() {
        let f = func("int f(int a) { return a * a + 1; }", "f");
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(live_across_calls(&f, &lv).is_empty());
    }

    #[test]
    fn loop_carried_value_crosses_call_in_loop() {
        let f = func(
            "int w(int x) { return x; }
             int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + w(i); } return s; }",
            "f",
        );
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        let across = live_across_calls(&f, &lv);
        // s, i and n all cross the call inside the loop.
        assert!(across.len() >= 3, "expected several values across the call, got {across:?}");
    }
}
