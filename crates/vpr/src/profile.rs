//! Execution profiles: per-pc hit counts and their derived views.
//!
//! When [`SimOptions::profile`] or [`SimOptions::attribute`] is on, both
//! engines observe a run the same way, and only this way: `pc_counts[pc]`
//! is bumped once per executed instruction, and every call and return runs
//! one shared hook (`Observer`) that tracks inclusive windows.
//!
//! Everything else (the per-opcode-class histogram, per-basic-block hot
//! counts, per-procedure self-cycle tables, the whole [`Attribution`]) is
//! *derived after the run* by joining `pc_counts` with the executable's
//! instruction and function tables. Because the engines agree on every
//! executed pc (the bit-identity invariant), derived views are identical
//! across engines **by construction**, and the total of every view equals
//! [`RunStats::cycles`] exactly — each executed cycle bumps exactly one pc
//! slot.
//!
//! A pc belongs to the first linked procedure (in link order) whose code
//! range covers it, and to [`STARTUP_PROC`] when none does. Attribution and
//! [`ExecProfile::proc_table`] share this rule, so they always agree, also
//! after an indirect call into the middle of a procedure.

use crate::inst::Inst;
use crate::program::Executable;
use crate::sim::{Attribution, ProcCost, RunStats, SimOptions, STARTUP_PROC};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The raw execution profile of one run: `pc_counts[pc]` = number of times
/// the instruction at `pc` executed. `pc_counts.len()` equals the
/// executable's code length; the sum of all slots equals the run's cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecProfile {
    /// Executions per code address, dense over the whole code segment.
    pub pc_counts: Vec<u64>,
}

/// One basic block's share of a profile (see [`ExecProfile::block_counts`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCount {
    /// First pc of the block.
    pub start: usize,
    /// One past the last pc of the block.
    pub end: usize,
    /// Executions of the block head (how often control entered here).
    pub entries: u64,
    /// Total cycles spent in the block (sum of its pcs' counts).
    pub cycles: u64,
    /// `proc+offset` symbolization of `start`, when it falls inside a
    /// linked procedure.
    pub sym: Option<String>,
}

/// One procedure's share of a profile (see [`ExecProfile::proc_table`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcProfileRow {
    /// Link name ([`STARTUP_PROC`] for the startup stub).
    pub name: String,
    /// Cycles spent in the procedure's own instructions.
    pub self_cycles: u64,
}

impl ExecProfile {
    /// Total executed instructions — equals the run's [`RunStats::cycles`]
    /// by construction.
    pub fn total(&self) -> u64 {
        self.pc_counts.iter().sum()
    }

    /// Instructions retired per opcode class (see [`Inst::opcode_class`]),
    /// keyed by class name for deterministic iteration. Sums to
    /// [`total`](ExecProfile::total).
    pub fn opcode_histogram(&self, exe: &Executable) -> BTreeMap<String, u64> {
        let mut h = BTreeMap::new();
        for (pc, inst) in exe.insts().iter().enumerate() {
            let n = self.pc_counts.get(pc).copied().unwrap_or(0);
            if n > 0 {
                *h.entry(inst.opcode_class().to_string()).or_insert(0) += n;
            }
        }
        h
    }

    /// Folds the profile into basic blocks of the linked code: leaders are
    /// pc 0, every branch/call target, every procedure entry, and every
    /// successor of a control transfer. Blocks are returned in address
    /// order with entry counts, cycle totals, and symbolized heads; block
    /// cycle totals sum to [`total`](ExecProfile::total).
    pub fn block_counts(&self, exe: &Executable) -> Vec<BlockCount> {
        let code = exe.insts();
        let n = code.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        for f in exe.funcs() {
            if f.entry <= n {
                leader[f.entry] = true;
            }
        }
        for (pc, inst) in code.iter().enumerate() {
            match inst {
                Inst::B { target } => {
                    if (target.0 as usize) < n {
                        leader[target.0 as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::Comb { target, .. } => {
                    if (target.0 as usize) < n {
                        leader[target.0 as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::CallAbs { entry } => {
                    if (*entry as usize) < n {
                        leader[*entry as usize] = true;
                    }
                    leader[pc + 1] = true;
                }
                Inst::CallInd { .. } | Inst::Bv { .. } | Inst::Halt => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut start = 0usize;
        for (pc, &lead) in leader.iter().enumerate().skip(1) {
            if pc == n || lead {
                let cycles: u64 =
                    (start..pc).map(|i| self.pc_counts.get(i).copied().unwrap_or(0)).sum();
                blocks.push(BlockCount {
                    start,
                    end: pc,
                    entries: self.pc_counts.get(start).copied().unwrap_or(0),
                    cycles,
                    sym: exe.symbolize(start),
                });
                start = pc;
            }
        }
        blocks
    }

    /// The run's deterministic simulator counters: total cycles, memory
    /// and call traffic from `stats`, plus `sim.op.<class>` instructions
    /// retired per opcode class from this profile. Because the profile and
    /// every [`RunStats`] field are bit-identical across engines, so is
    /// this map.
    pub fn sim_counters(&self, exe: &Executable, stats: &RunStats) -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("sim.cycles".to_string(), stats.cycles);
        c.insert("sim.loads".to_string(), stats.loads);
        c.insert("sim.stores".to_string(), stats.stores);
        c.insert("sim.calls".to_string(), stats.calls);
        for (class, n) in self.opcode_histogram(exe) {
            c.insert(format!("sim.op.{class}"), n);
        }
        c
    }

    /// Per-procedure self-cycle table in link order, with a final
    /// [`STARTUP_PROC`] row for code outside every linked procedure.
    /// `self_cycles` sums to [`total`](ExecProfile::total).
    pub fn proc_table(&self, exe: &Executable) -> Vec<ProcProfileRow> {
        let mut self_cycles = vec![0u64; exe.funcs().len() + 1];
        for (&n, owner) in self.pc_counts.iter().zip(pc_owners(exe, self.pc_counts.len())) {
            self_cycles[owner] += n;
        }
        let names = exe.funcs().iter().map(|f| f.name.clone());
        names
            .chain([STARTUP_PROC.to_string()])
            .zip(self_cycles)
            .map(|(name, self_cycles)| ProcProfileRow { name, self_cycles })
            .collect()
    }
}

/// The attribution slot owning each of the first `len` code addresses: the
/// index of the first linked procedure (in link order) whose code range
/// covers it, or `funcs().len()` — the [`STARTUP_PROC`] slot — when none
/// does.
fn pc_owners(exe: &Executable, len: usize) -> Vec<usize> {
    let nfuncs = exe.funcs().len();
    let mut owner = vec![nfuncs; len];
    for (i, f) in exe.funcs().iter().enumerate() {
        let end = f.entry.saturating_add(f.len).min(len);
        for slot in &mut owner[f.entry.min(end)..end] {
            if *slot == nfuncs {
                *slot = i;
            }
        }
    }
    owner
}

/// The call/return hook of one observed run, shared by both engines
/// whenever [`SimOptions::attribute`] or [`SimOptions::profile`] is set.
/// Alongside it, the engine bumps a dense `pc_counts[pc]` once per step
/// and hands the counts to [`Observer::finish`] at `HALT`.
///
/// Hook slots are function indices, with slot `nfuncs` for
/// [`STARTUP_PROC`]. A slot's inclusive window opens when its on-stack
/// count goes 0→1 and closes (adding `now − entered_at`) when it returns
/// to 0, so recursion is counted once and each hook is O(1).
pub(crate) struct Observer {
    attribute: bool,
    profile: bool,
    depth: Vec<u32>,
    entered_at: Vec<u64>,
    inclusive: Vec<u64>,
}

impl Observer {
    pub(crate) fn new(opts: &SimOptions, nfuncs: usize) -> Observer {
        let slots = nfuncs + 1;
        let mut depth = vec![0; slots];
        // The startup stub is "active" from cycle 0.
        depth[nfuncs] = 1;
        Observer {
            attribute: opts.attribute,
            profile: opts.profile,
            depth,
            entered_at: vec![0; slots],
            inclusive: vec![0; slots],
        }
    }

    /// Call hook: `slot` gains an activation at cycle `now` (the call's
    /// own cycle included).
    #[inline]
    pub(crate) fn enter(&mut self, slot: usize, now: u64) {
        self.depth[slot] += 1;
        if self.depth[slot] == 1 {
            self.entered_at[slot] = now;
        }
    }

    /// Return hook: an activation of `slot` leaves the call stack at cycle
    /// `now` (the `Bv`'s own cycle included).
    #[inline]
    pub(crate) fn leave(&mut self, slot: usize, now: u64) {
        if self.depth[slot] > 0 {
            self.depth[slot] -= 1;
            if self.depth[slot] == 0 {
                self.inclusive[slot] += now - self.entered_at[slot];
            }
        }
    }

    /// At `HALT`: closes every still-open window and derives the views the
    /// run asked for from the run's per-pc counts — the [`Attribution`]
    /// when `attribute` was set, the raw [`ExecProfile`] when `profile` was.
    pub(crate) fn finish(
        mut self,
        pc_counts: Vec<u64>,
        exe: &Executable,
        stats: &RunStats,
    ) -> (Option<Attribution>, Option<ExecProfile>) {
        for slot in 0..self.depth.len() {
            if self.depth[slot] > 0 {
                self.inclusive[slot] += stats.cycles - self.entered_at[slot];
            }
        }
        let attribution = self.attribute.then(|| self.attribution(&pc_counts, exe, stats));
        let profile = self.profile.then_some(ExecProfile { pc_counts });
        (attribution, profile)
    }

    /// Folds the counts into per-procedure costs: self cycles and memory
    /// references are sums over each procedure's pcs (a load or store's
    /// singleton class is static), `calls` comes from the run's per-callee
    /// call counts, and inclusive cycles from the hook.
    fn attribution(&self, pc_counts: &[u64], exe: &Executable, stats: &RunStats) -> Attribution {
        let nfuncs = exe.funcs().len();
        let mut cost = vec![ProcCost::default(); nfuncs + 1];
        let owners = pc_owners(exe, pc_counts.len());
        for ((&n, inst), owner) in pc_counts.iter().zip(exe.insts()).zip(owners) {
            let c = &mut cost[owner];
            c.cycles += n;
            match inst {
                Inst::Ldw { class, .. } => {
                    c.loads += n;
                    c.singleton_loads += n * u64::from(class.is_singleton());
                }
                Inst::Stw { class, .. } => {
                    c.stores += n;
                    c.singleton_stores += n * u64::from(class.is_singleton());
                }
                _ => {}
            }
        }
        // Key `usize::MAX` (a call whose target starts no linked
        // procedure) lands in the startup slot.
        for (&callee, &n) in &stats.call_counts {
            cost[callee.min(nfuncs)].calls += n;
        }
        for (c, &inclusive) in cost.iter_mut().zip(&self.inclusive) {
            c.inclusive_cycles = inclusive;
        }
        let mut procs: BTreeMap<String, ProcCost> =
            exe.funcs().iter().map(|f| f.name.clone()).zip(cost.iter().copied()).collect();
        procs.insert(STARTUP_PROC.to_string(), cost[nfuncs]);
        Attribution { procs }
    }
}

impl Inst {
    /// The instruction's opcode class for profile histograms: a small,
    /// stable set of names grouping variants by what they do dynamically.
    /// Pseudo variants share their resolved form's class (a linked
    /// executable never contains them anyway).
    pub fn opcode_class(&self) -> &'static str {
        match self {
            Inst::Ldi { .. } => "ldi",
            Inst::Copy { .. } => "copy",
            Inst::Alu { .. } => "alu",
            Inst::Alui { .. } => "alui",
            Inst::Cmp { .. } => "cmp",
            Inst::Ldw { .. } | Inst::Ldg { .. } => "load",
            Inst::Stw { .. } | Inst::Stg { .. } => "store",
            Inst::Lga { .. } | Inst::Ldfa { .. } => "addr",
            Inst::Call { .. } | Inst::CallAbs { .. } | Inst::CallInd { .. } => "call",
            Inst::Bv { .. } => "bv",
            Inst::B { .. } | Inst::Comb { .. } => "branch",
            Inst::Out { .. } => "out",
            Inst::In { .. } => "in",
            Inst::Halt => "halt",
            Inst::Nop => "nop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, MemClass};
    use crate::program::{link, MachineFunction, ObjectModule};
    use crate::regs::Reg;
    use crate::sim::{run_with, Engine, SimOptions};

    fn looping_exe() -> Executable {
        // sum 1..=5 via a COMB loop, then call leaf once.
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });
        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        let r_i = Reg::new(19);
        let r_lim = Reg::new(20);
        f.push(Inst::Ldi { rd: r_i, imm: 1 });
        f.push(Inst::Ldi { rd: r_lim, imm: 5 });
        let top = f.new_label();
        let done = f.new_label();
        f.bind_label(top);
        f.push(Inst::Comb { cond: Cond::Gt, rs1: r_i, rs2: r_lim, target: done });
        f.push(Inst::Alui { op: AluOp::Add, rd: r_i, rs1: r_i, imm: 1 });
        f.push(Inst::B { target: top });
        f.bind_label(done);
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: r_i });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });
        link(&[ObjectModule {
            name: "t".into(),
            functions: vec![leaf, f],
            globals: vec![],
            ..Default::default()
        }])
        .unwrap()
    }

    #[test]
    fn profile_totals_equal_cycles_and_engines_agree() {
        let exe = looping_exe();
        let mut results = Vec::new();
        for engine in [Engine::Fast, Engine::Reference] {
            let opts = SimOptions { profile: true, engine, ..SimOptions::default() };
            results.push(run_with(&exe, &opts).unwrap());
        }
        assert_eq!(results[0], results[1]);
        let r = &results[0];
        let p = r.profile.as_ref().unwrap();
        assert_eq!(p.pc_counts.len(), exe.code_len());
        assert_eq!(p.total(), r.stats.cycles);
        let hist = p.opcode_histogram(&exe);
        assert_eq!(hist.values().sum::<u64>(), r.stats.cycles);
        // The loop body ran 5 times.
        assert_eq!(hist["branch"], 6 /* COMB */ + 5 /* B */);
        let blocks = p.block_counts(&exe);
        assert_eq!(blocks.iter().map(|b| b.cycles).sum::<u64>(), r.stats.cycles);
        let procs = p.proc_table(&exe);
        assert_eq!(procs.iter().map(|row| row.self_cycles).sum::<u64>(), r.stats.cycles);
        let main = procs.iter().find(|row| row.name == "main").unwrap();
        assert!(main.self_cycles > 0);
        let stub = procs.last().unwrap();
        assert_eq!(stub.name, crate::sim::STARTUP_PROC);
        assert_eq!(stub.self_cycles, 2); // CALL main + HALT
    }

    #[test]
    fn profiling_never_perturbs_the_run() {
        let exe = looping_exe();
        let plain = run_with(&exe, &SimOptions::default()).unwrap();
        let profiled =
            run_with(&exe, &SimOptions { profile: true, ..SimOptions::default() }).unwrap();
        assert_eq!(plain.stats, profiled.stats);
        assert_eq!(plain.output, profiled.output);
        assert_eq!(plain.exit, profiled.exit);
        assert!(plain.profile.is_none());
        assert!(profiled.profile.is_some());
    }

    #[test]
    fn block_heads_are_symbolized() {
        let exe = looping_exe();
        let opts = SimOptions { profile: true, ..SimOptions::default() };
        let r = run_with(&exe, &opts).unwrap();
        let blocks = r.profile.unwrap().block_counts(&exe);
        assert!(blocks.iter().any(|b| b.sym.as_deref() == Some("main+0")));
        assert!(blocks.iter().any(|b| b.sym.as_deref() == Some("leaf+0")));
    }

    #[test]
    fn wild_entry_is_charged_to_the_containing_procedure() {
        // `main` calls through `leaf`'s address plus one: the target is
        // inside `leaf` but starts no linked procedure.
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Ldi { rd: Reg::RV, imm: 7 });
        let class = MemClass::ScalarGlobal;
        leaf.push(Inst::Stw { rs: Reg::RV, base: Reg::ZERO, disp: 100, class });
        leaf.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: 100, class });
        leaf.push(Inst::Bv { base: Reg::RP });
        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldfa { rd: Reg::new(19), func: "leaf".into() });
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::new(19), rs1: Reg::new(19), imm: 1 });
        f.push(Inst::CallInd { base: Reg::new(19) });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });
        let exe = link(&[ObjectModule {
            name: "t".into(),
            functions: vec![leaf, f],
            globals: vec![],
            ..Default::default()
        }])
        .unwrap();

        let mut results = Vec::new();
        for engine in [Engine::Fast, Engine::Reference] {
            let opts =
                SimOptions { attribute: true, profile: true, engine, ..SimOptions::default() };
            results.push(run_with(&exe, &opts).unwrap());
        }
        assert_eq!(results[0], results[1]);
        let r = &results[0];
        let a = r.attribution.as_ref().unwrap();
        assert!(a.matches(&r.stats), "{a:?}");

        // Self costs follow the pc: `leaf` ran its store, load and `Bv`.
        let leaf = a.get("leaf").unwrap();
        let expected_leaf = ProcCost {
            cycles: 3,
            loads: 1,
            stores: 1,
            singleton_loads: 1,
            singleton_stores: 1,
            calls: 0,
            inclusive_cycles: 0,
        };
        assert_eq!(*leaf, expected_leaf);
        let main = a.get("main").unwrap();
        assert_eq!((main.cycles, main.calls), (6, 1));
        // main's window spans its own cycles and the wild callee's.
        assert_eq!(main.inclusive_cycles, 9);

        // The call stays under `<startup>`, as in the run's call counts.
        let stub = a.get(STARTUP_PROC).unwrap();
        assert_eq!(stub.calls, 1);
        assert_eq!(stub.calls, r.stats.call_counts[&usize::MAX]);
        assert_eq!(stub.cycles, 2); // CALL main + HALT
        assert_eq!(stub.inclusive_cycles, r.stats.cycles);

        // `cminc profile`'s table uses the same ownership rule.
        for row in r.profile.as_ref().unwrap().proc_table(&exe) {
            assert_eq!(row.self_cycles, a.get(&row.name).unwrap().cycles, "{}", row.name);
        }
    }
}
