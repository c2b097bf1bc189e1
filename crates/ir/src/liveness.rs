//! Live-temp analysis.
//!
//! Classic backward iterative dataflow over basic blocks, with a dense
//! [`TempSet`] bitset representation. The results feed dead-code
//! elimination, the code generator's interference graph, and the "temps
//! live across calls" classification that decides which values need
//! callee-saves registers (the heart of the paper's spill accounting).

use crate::cfg::Cfg;
use crate::ir::{Function, Inst, Temp};

/// A dense bitset of [`Temp`]s.
#[derive(Clone, PartialEq, Eq)]
pub struct TempSet {
    words: Vec<u64>,
}

impl TempSet {
    /// An empty set able to hold temps `0..capacity`.
    pub fn new(capacity: u32) -> TempSet {
        TempSet { words: vec![0; (capacity as usize).div_ceil(64)] }
    }

    /// Inserts `t`; returns whether it was newly added.
    pub fn insert(&mut self, t: Temp) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        let added = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        added
    }

    /// Removes `t`; returns whether it was present.
    pub fn remove(&mut self, t: Temp) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    pub fn contains(&self, t: Temp) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// Unions `other` into `self`; returns whether anything changed.
    pub fn union_with(&mut self, other: &TempSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in ascending order. Each step clears the
    /// lowest set bit of the current word, so an empty word costs one test.
    pub fn iter(&self) -> impl Iterator<Item = Temp> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Temp((wi * 64 + b) as u32)
                })
            })
        })
    }
}

impl std::fmt::Debug for TempSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<TempSet>,
    live_out: Vec<TempSet>,
}

impl Liveness {
    /// Computes liveness for `f` using its `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n = f.blocks.len();
        let cap = f.temp_count;
        // Per-block use (upward-exposed) and def sets.
        let mut use_s = Vec::with_capacity(n);
        let mut def_s = Vec::with_capacity(n);
        for b in &f.blocks {
            let mut u = TempSet::new(cap);
            let mut d = TempSet::new(cap);
            for inst in &b.insts {
                inst.for_each_use(|o| {
                    if let Some(t) = o.as_temp() {
                        if !d.contains(t) {
                            u.insert(t);
                        }
                    }
                });
                if let Some(t) = inst.def() {
                    d.insert(t);
                }
            }
            b.term.for_each_use(|o| {
                if let Some(t) = o.as_temp() {
                    if !d.contains(t) {
                        u.insert(t);
                    }
                }
            });
            use_s.push(u);
            def_s.push(d);
        }

        let mut live_in: Vec<TempSet> = (0..n).map(|_| TempSet::new(cap)).collect();
        let mut live_out: Vec<TempSet> = (0..n).map(|_| TempSet::new(cap)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            // Backward: iterate RPO in reverse for fast convergence.
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out = TempSet::new(cap);
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                // in = use ∪ (out − def), a word at a time.
                let words = use_s[bi].words.iter().zip(&live_out[bi].words).zip(&def_s[bi].words);
                let inp = TempSet { words: words.map(|((u, o), d)| u | (o & !d)).collect() };
                if inp != live_in[bi] {
                    live_in[bi] = inp;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Temps live at entry to block `b`.
    pub fn live_in(&self, b: crate::ir::BlockId) -> &TempSet {
        &self.live_in[b.index()]
    }

    /// Temps live at exit of block `b`.
    pub fn live_out(&self, b: crate::ir::BlockId) -> &TempSet {
        &self.live_out[b.index()]
    }
}

/// The set of temps that are live across at least one call site in `f`.
///
/// These are the values that must either occupy preserved (callee-saves /
/// FREE) registers or be spilled around calls; the paper's spill code
/// motion exists to make their registers cheap.
pub fn live_across_calls(f: &Function, liveness: &Liveness) -> TempSet {
    let mut across = TempSet::new(f.temp_count);
    for b in f.block_ids() {
        let mut live = liveness.live_out(b).clone();
        // Walk the block backward.
        b_rev(f, b, &mut live, &mut across);
    }
    across
}

fn b_rev(f: &Function, b: crate::ir::BlockId, live: &mut TempSet, across: &mut TempSet) {
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
            // Everything live *after* the call (minus its own def, removed
            // above) crosses this call.
            for t in live.iter() {
                across.insert(t);
            }
        }
        inst.for_each_use(|o| {
            if let Some(t) = o.as_temp() {
                live.insert(t);
            }
        });
    }
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
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Temp(0), Temp(129)]);
        assert!(s.remove(Temp(0)));
        assert!(!s.remove(Temp(0)));
        assert!(!s.is_empty());
    }

    #[test]
    fn tempset_iter_skips_empty_words() {
        let mut s = TempSet::new(64 * 4);
        for t in [0, 63, 64 * 2 + 5, 64 * 3 + 63] {
            s.insert(Temp(t));
        }
        // Word 1 is empty; bits 0 and 63 are each word's extremes.
        let members = vec![Temp(0), Temp(63), Temp(133), Temp(255)];
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        assert_eq!(TempSet::new(200).iter().count(), 0);
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
