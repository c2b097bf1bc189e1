//! The VPR simulator.
//!
//! An interpreter over a linked [`Executable`] that charges one cycle per
//! instruction (the paper's Table 4 measures "total cycles measured by a
//! simulator, excluding cache miss penalties" on a single-cycle RISC) and
//! keeps the dynamic accounting the paper's evaluation needs:
//!
//! * total cycles / instructions,
//! * dynamic loads and stores, split into *singleton* and other references
//!   (Table 5),
//! * per-procedure and per-call-graph-edge call counts — the moral
//!   equivalent of the paper's `gprof` profile feed for analyzer
//!   configurations B and F.

use crate::inst::Inst;
use crate::memory::{boot, Memory};
use crate::profile::Observer;
use crate::program::{Executable, DEFAULT_MEM_WORDS};
use crate::regs::Reg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Which execution engine interprets the program.
///
/// Both engines are bit-identical in every observable — [`RunResult`]
/// (output, exit, stats, attribution) and [`SimError`] (kind, pc,
/// symbolization) — a property enforced by the cross-engine fuzz oracle
/// and the workloads×configs parity suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The pre-decoded direct-threaded engine ([`crate::exec`]): the
    /// executable is lowered once into a flat fixed-size op array and run
    /// by a tight jump-table dispatch loop. The default.
    #[default]
    Fast,
    /// The original decode-and-dispatch interpreter over [`Inst`], kept as
    /// the differential-testing oracle.
    Reference,
}

impl Engine {
    /// The other engine — the differential-testing counterpart.
    pub fn other(self) -> Engine {
        match self {
            Engine::Fast => Engine::Reference,
            Engine::Reference => Engine::Fast,
        }
    }

    /// Short stable name (`fast` / `reference`), for reports and flags.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Reference => "reference",
        }
    }
}

/// Options controlling a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Simulated memory size in words.
    pub mem_words: usize,
    /// Abort after this many executed instructions.
    pub max_steps: u64,
    /// Values returned by `IN` instructions, in order (then −1).
    pub input: Vec<i64>,
    /// Attribute every cycle, memory reference and call to a procedure
    /// ([`RunResult::attribution`]), derived from per-pc counts plus a
    /// call/return hook (see [`crate::profile`]). Exact, not sampled;
    /// never changes the run's [`RunStats`].
    pub attribute: bool,
    /// Record per-pc execution counts ([`RunResult::profile`]). Exact, not
    /// sampled; never changes the run's [`RunStats`], and both engines
    /// produce identical profiles.
    pub profile: bool,
    /// Which execution engine to use; observables never depend on it.
    pub engine: Engine,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            mem_words: DEFAULT_MEM_WORDS,
            max_steps: 2_000_000_000,
            input: Vec::new(),
            attribute: false,
            profile: false,
            engine: Engine::default(),
        }
    }
}

/// The attribution bucket for code outside any linked procedure: the
/// two-instruction startup stub (`CALL main; HALT`).
pub const STARTUP_PROC: &str = "<startup>";

/// Exact dynamic cost of one procedure within a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcCost {
    /// Cycles spent executing the procedure's own instructions (callees
    /// excluded).
    pub cycles: u64,
    /// Loads executed by the procedure's own instructions.
    pub loads: u64,
    /// Stores executed by the procedure's own instructions.
    pub stores: u64,
    /// Of `loads`, those classified as singleton references.
    pub singleton_loads: u64,
    /// Of `stores`, those classified as singleton references.
    pub singleton_stores: u64,
    /// Activations of the procedure: calls whose target is its entry
    /// (for [`STARTUP_PROC`], calls whose target starts no linked
    /// procedure).
    pub calls: u64,
    /// Cycles with at least one activation of the procedure on the call
    /// stack (self + callees; recursion counted once).
    pub inclusive_cycles: u64,
}

impl ProcCost {
    /// Self loads + stores.
    pub fn mem_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Self singleton loads + stores.
    pub fn singleton_refs(&self) -> u64 {
        self.singleton_loads + self.singleton_stores
    }
}

/// Exact per-procedure attribution of a run's dynamic cost, keyed by link
/// name (plus [`STARTUP_PROC`]). Every cycle, memory reference, and call of
/// the run is charged to exactly one procedure, so the self-cost columns
/// sum to the run's [`RunStats`] — [`Attribution::matches`] checks this.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Per-procedure costs, ordered by name for deterministic serialization.
    pub procs: BTreeMap<String, ProcCost>,
}

impl Attribution {
    /// The cost record for `name`, if the procedure was linked.
    pub fn get(&self, name: &str) -> Option<&ProcCost> {
        self.procs.get(name)
    }

    /// Sums the self-cost columns over all procedures. `inclusive_cycles`
    /// is left zero: inclusive windows overlap, so their sum is meaningless.
    pub fn self_totals(&self) -> ProcCost {
        let mut t = ProcCost::default();
        for c in self.procs.values() {
            t.cycles += c.cycles;
            t.loads += c.loads;
            t.stores += c.stores;
            t.singleton_loads += c.singleton_loads;
            t.singleton_stores += c.singleton_stores;
            t.calls += c.calls;
        }
        t
    }

    /// Do the per-procedure self costs sum exactly to `stats`?
    pub fn matches(&self, stats: &RunStats) -> bool {
        let t = self.self_totals();
        t.cycles == stats.cycles
            && t.loads == stats.loads
            && t.stores == stats.stores
            && t.singleton_loads == stats.singleton_loads
            && t.singleton_stores == stats.singleton_stores
            && t.calls == stats.calls
    }
}

/// Dynamic execution statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total cycles (= instructions, on this single-cycle machine).
    pub cycles: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Dynamic loads classified as singleton references.
    pub singleton_loads: u64,
    /// Dynamic stores classified as singleton references.
    pub singleton_stores: u64,
    /// Total procedure calls executed.
    pub calls: u64,
    /// Calls per callee, indexed by the executable's function index.
    /// Ordered so serialized stats and iteration-based reports are
    /// deterministic run-to-run.
    pub call_counts: BTreeMap<usize, u64>,
    /// Calls per `(caller, callee)` function-index pair, ordered for
    /// deterministic serialization. The startup stub's call of `main` uses
    /// `usize::MAX` as the caller.
    pub call_edges: BTreeMap<(usize, usize), u64>,
}

impl RunStats {
    /// Total dynamic memory references.
    pub fn mem_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total dynamic singleton memory references (the paper's Table 5 metric).
    pub fn singleton_refs(&self) -> u64 {
        self.singleton_loads + self.singleton_stores
    }
}

/// The observable outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunResult {
    /// Values emitted by `OUT`, in order.
    pub output: Vec<i64>,
    /// `main`'s return value (the `RV` register at `HALT`).
    pub exit: i64,
    /// Dynamic statistics.
    pub stats: RunStats,
    /// Per-procedure attribution ([`SimOptions::attribute`]); `None` when
    /// attribution was off.
    #[serde(default)]
    pub attribution: Option<Attribution>,
    /// Per-pc execution counts ([`SimOptions::profile`]); `None` when
    /// profiling was off.
    #[serde(default)]
    pub profile: Option<crate::profile::ExecProfile>,
}

/// A runtime trap or simulator resource error. Trap variants carry the
/// faulting `pc` plus `sym`, the `proc+offset` form resolved from the
/// executable's function table (`None` when the pc falls outside every
/// linked procedure, e.g. in the startup stub).
#[allow(missing_docs)] // field names (pc, addr, limit, sym) are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Integer division or remainder by zero.
    DivByZero { pc: usize, sym: Option<String> },
    /// Memory access outside the simulated address space.
    MemFault { pc: usize, addr: i64, sym: Option<String> },
    /// Control transferred outside the code segment.
    BadPc { pc: usize, sym: Option<String> },
    /// The step budget was exhausted (likely an infinite loop).
    StepLimit { limit: u64 },
    /// An unresolved pseudo instruction reached the simulator
    /// (indicates an unlinked or corrupted executable).
    UnresolvedPseudo { pc: usize, sym: Option<String> },
}

/// `main+3 (pc 12)` when symbolized, `pc 12` otherwise.
fn fmt_loc(f: &mut fmt::Formatter<'_>, pc: usize, sym: &Option<String>) -> fmt::Result {
    match sym {
        Some(s) => write!(f, "{s} (pc {pc})"),
        None => write!(f, "pc {pc}"),
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DivByZero { pc, sym } => {
                write!(f, "division by zero at ")?;
                fmt_loc(f, *pc, sym)
            }
            SimError::MemFault { pc, addr, sym } => {
                write!(f, "memory fault at ")?;
                fmt_loc(f, *pc, sym)?;
                write!(f, ": address {addr}")
            }
            SimError::BadPc { pc, sym } => {
                write!(f, "control transfer outside code at ")?;
                fmt_loc(f, *pc, sym)
            }
            SimError::StepLimit { limit } => write!(f, "step limit of {limit} exhausted"),
            SimError::UnresolvedPseudo { pc, sym } => {
                write!(f, "unresolved pseudo instruction at ")?;
                fmt_loc(f, *pc, sym)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `exe` to completion with default options.
///
/// # Errors
///
/// See [`SimError`].
pub fn run(exe: &Executable) -> Result<RunResult, SimError> {
    run_with(exe, &SimOptions::default())
}

/// Runs `exe` with explicit [`SimOptions`], dispatching on
/// [`SimOptions::engine`].
///
/// # Errors
///
/// See [`SimError`].
pub fn run_with(exe: &Executable, opts: &SimOptions) -> Result<RunResult, SimError> {
    match opts.engine {
        Engine::Fast => crate::exec::decode(exe).run_with(opts),
        Engine::Reference => Machine::new(exe, opts).run(),
    }
}

/// Dense per-function call and call-edge counters, folded into the
/// `BTreeMap`-shaped [`RunStats`] maps only at `HALT` so the per-call hot
/// path is two `Vec` index bumps instead of two map insertions. Slot
/// `nfuncs` stands for "outside any linked procedure" (`usize::MAX` in the
/// folded maps: the startup stub as a caller, a wild entry as a callee).
/// Shared by both engines so the fold — and thus the folded stats — is
/// identical by construction.
pub(crate) struct CallCounters {
    nfuncs: usize,
    counts: Vec<u64>,
    edges: EdgeCounters,
}

/// Edge counts are a dense `(nfuncs+1)²` matrix when small enough,
/// otherwise a hash map (the fold sorts either way, so the folded
/// `BTreeMap` is independent of the representation).
enum EdgeCounters {
    Dense(Vec<u64>),
    Sparse(std::collections::HashMap<(usize, usize), u64>),
}

impl CallCounters {
    /// Above this many dense matrix cells (8 MiB of `u64`s), fall back to
    /// the sparse representation.
    const DENSE_EDGE_LIMIT: usize = 1 << 20;

    pub(crate) fn new(nfuncs: usize) -> CallCounters {
        let slots = nfuncs + 1;
        let edges = if slots.saturating_mul(slots) <= Self::DENSE_EDGE_LIMIT {
            EdgeCounters::Dense(vec![0; slots * slots])
        } else {
            EdgeCounters::Sparse(std::collections::HashMap::new())
        };
        CallCounters { nfuncs, counts: vec![0; slots], edges }
    }

    /// The counter slot for a function index (`usize::MAX` → slot `nfuncs`).
    #[inline]
    pub(crate) fn slot(&self, func: usize) -> usize {
        if func < self.nfuncs {
            func
        } else {
            self.nfuncs
        }
    }

    /// Records one `caller_slot → callee_slot` call (both pre-clamped).
    #[inline]
    pub(crate) fn record_slots(&mut self, caller_slot: usize, callee_slot: usize) {
        self.counts[callee_slot] += 1;
        match &mut self.edges {
            EdgeCounters::Dense(m) => m[caller_slot * (self.nfuncs + 1) + callee_slot] += 1,
            EdgeCounters::Sparse(m) => *m.entry((caller_slot, callee_slot)).or_insert(0) += 1,
        }
    }

    /// Folds the dense counters into `stats.call_counts` / `call_edges`,
    /// skipping zero counts — bit-identical to per-call `entry().or_insert`
    /// updates, which only ever create entries with count ≥ 1.
    pub(crate) fn fold_into(&self, stats: &mut RunStats) {
        let unclamp = |slot: usize| if slot < self.nfuncs { slot } else { usize::MAX };
        for (slot, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                stats.call_counts.insert(unclamp(slot), n);
            }
        }
        match &self.edges {
            EdgeCounters::Dense(m) => {
                let slots = self.nfuncs + 1;
                for caller in 0..slots {
                    for callee in 0..slots {
                        let n = m[caller * slots + callee];
                        if n > 0 {
                            stats.call_edges.insert((unclamp(caller), unclamp(callee)), n);
                        }
                    }
                }
            }
            EdgeCounters::Sparse(m) => {
                for (&(caller, callee), &n) in m {
                    stats.call_edges.insert((unclamp(caller), unclamp(callee)), n);
                }
            }
        }
    }
}

struct Machine<'a> {
    exe: &'a Executable,
    regs: [i64; Reg::COUNT],
    mem: Memory,
    pc: usize,
    steps: u64,
    max_steps: u64,
    input: &'a [i64],
    input_pos: usize,
    output: Vec<i64>,
    stats: RunStats,
    // Shadow stack of function indices for call-edge accounting.
    shadow: Vec<usize>,
    // Dense call/edge counters, folded into `stats` at `HALT`.
    calls: CallCounters,
    // The call/return hook and per-pc counts, when attribution or
    // profiling is on (`None` and empty keep the run untouched).
    obs: Option<Observer>,
    pc_counts: Vec<u64>,
    // Linkage roles of the executable's target convention.
    rp: Reg,
    rv: Reg,
}

impl<'a> Machine<'a> {
    fn new(exe: &'a Executable, opts: &'a SimOptions) -> Machine<'a> {
        let (mem, regs) = boot(exe, opts.mem_words);
        let desc = exe.target().desc();
        let observed = opts.attribute || opts.profile;
        Machine {
            exe,
            regs,
            mem,
            pc: 0,
            steps: 0,
            max_steps: opts.max_steps,
            input: &opts.input,
            input_pos: 0,
            output: Vec::new(),
            stats: RunStats::default(),
            shadow: vec![usize::MAX],
            calls: CallCounters::new(exe.funcs().len()),
            obs: observed.then(|| Observer::new(opts, exe.funcs().len())),
            pc_counts: vec![0; if observed { exe.insts().len() } else { 0 }],
            rp: desc.rp,
            rv: desc.rv,
        }
    }

    /// Symbolizes the current pc for a trap.
    fn here(&self) -> Option<String> {
        self.exe.symbolize(self.pc)
    }

    fn get(&self, r: Reg) -> i64 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set(&mut self, r: Reg, v: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    fn load(&mut self, base: Reg, disp: i64, singleton: bool) -> Result<i64, SimError> {
        let addr = self.get(base).wrapping_add(disp);
        let v = *self
            .mem
            .get(addr as usize)
            .filter(|_| addr >= 0)
            .ok_or_else(|| SimError::MemFault { pc: self.pc, addr, sym: self.here() })?;
        self.stats.loads += 1;
        if singleton {
            self.stats.singleton_loads += 1;
        }
        Ok(v)
    }

    fn store(&mut self, base: Reg, disp: i64, v: i64, singleton: bool) -> Result<(), SimError> {
        let addr = self.get(base).wrapping_add(disp);
        if addr < 0 || addr as usize >= self.mem.len() {
            return Err(SimError::MemFault { pc: self.pc, addr, sym: self.here() });
        }
        self.mem[addr as usize] = v;
        self.stats.stores += 1;
        if singleton {
            self.stats.singleton_stores += 1;
        }
        Ok(())
    }

    fn record_call(&mut self, entry: usize) {
        self.stats.calls += 1;
        let callee = self.exe.func_at_entry(entry).unwrap_or(usize::MAX);
        let caller = *self.shadow.last().unwrap_or(&usize::MAX);
        let (caller_slot, callee_slot) = (self.calls.slot(caller), self.calls.slot(callee));
        self.calls.record_slots(caller_slot, callee_slot);
        self.shadow.push(callee);
        if let Some(o) = &mut self.obs {
            o.enter(callee_slot, self.stats.cycles);
        }
    }

    fn run(mut self) -> Result<RunResult, SimError> {
        let code = self.exe.insts();
        loop {
            if self.steps >= self.max_steps {
                return Err(SimError::StepLimit { limit: self.max_steps });
            }
            let inst = match code.get(self.pc) {
                Some(inst) => inst,
                None => return Err(SimError::BadPc { pc: self.pc, sym: self.here() }),
            };
            self.steps += 1;
            self.stats.cycles += 1;
            if self.obs.is_some() {
                self.pc_counts[self.pc] += 1;
            }
            let mut next = self.pc + 1;
            match inst {
                Inst::Ldi { rd, imm } => self.set(*rd, *imm),
                Inst::Copy { rd, rs } => {
                    let v = self.get(*rs);
                    self.set(*rd, v);
                }
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op
                        .eval(self.get(*rs1), self.get(*rs2))
                        .ok_or_else(|| SimError::DivByZero { pc: self.pc, sym: self.here() })?;
                    self.set(*rd, v);
                }
                Inst::Alui { op, rd, rs1, imm } => {
                    let v = op
                        .eval(self.get(*rs1), *imm)
                        .ok_or_else(|| SimError::DivByZero { pc: self.pc, sym: self.here() })?;
                    self.set(*rd, v);
                }
                Inst::Cmp { cond, rd, rs1, rs2 } => {
                    let v = cond.eval(self.get(*rs1), self.get(*rs2)) as i64;
                    self.set(*rd, v);
                }
                Inst::Ldw { rd, base, disp, class } => {
                    let v = self.load(*base, *disp, class.is_singleton())?;
                    self.set(*rd, v);
                }
                Inst::Stw { rs, base, disp, class } => {
                    let v = self.get(*rs);
                    self.store(*base, *disp, v, class.is_singleton())?;
                }
                Inst::CallAbs { entry } => {
                    self.set(self.rp, next as i64);
                    self.record_call(*entry as usize);
                    next = *entry as usize;
                }
                Inst::CallInd { base } => {
                    let entry = self.get(*base);
                    if entry < 0 || entry as usize >= code.len() {
                        return Err(SimError::BadPc { pc: self.pc, sym: self.here() });
                    }
                    self.set(self.rp, next as i64);
                    self.record_call(entry as usize);
                    next = entry as usize;
                }
                Inst::Bv { base } => {
                    let target = self.get(*base);
                    if target < 0 || target as usize >= code.len() {
                        return Err(SimError::BadPc { pc: self.pc, sym: self.here() });
                    }
                    if let (Some(func), Some(o)) = (self.shadow.pop(), &mut self.obs) {
                        o.leave(self.calls.slot(func), self.stats.cycles);
                    }
                    next = target as usize;
                }
                Inst::B { target } => next = target.0 as usize,
                Inst::Comb { cond, rs1, rs2, target } => {
                    if cond.eval(self.get(*rs1), self.get(*rs2)) {
                        next = target.0 as usize;
                    }
                }
                Inst::Out { rs } => self.output.push(self.get(*rs)),
                Inst::In { rd } => {
                    let v = self.input.get(self.input_pos).copied().unwrap_or(-1);
                    self.input_pos += 1;
                    self.set(*rd, v);
                }
                Inst::Halt => {
                    let exit = self.get(self.rv);
                    self.calls.fold_into(&mut self.stats);
                    let (attribution, profile) = match self.obs.take() {
                        Some(o) => o.finish(self.pc_counts, self.exe, &self.stats),
                        None => (None, None),
                    };
                    return Ok(RunResult {
                        output: self.output,
                        exit,
                        stats: self.stats,
                        attribution,
                        profile,
                    });
                }
                Inst::Nop => {}
                Inst::Ldg { .. }
                | Inst::Stg { .. }
                | Inst::Lga { .. }
                | Inst::Ldfa { .. }
                | Inst::Call { .. } => {
                    return Err(SimError::UnresolvedPseudo { pc: self.pc, sym: self.here() });
                }
            }
            self.pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, MemClass};
    use crate::program::{link, GlobalDef, MachineFunction, ObjectModule};

    fn exe_of(functions: Vec<MachineFunction>, globals: Vec<GlobalDef>) -> Executable {
        link(&[ObjectModule { name: "t".into(), functions, globals, ..Default::default() }])
            .unwrap()
    }

    #[test]
    fn returns_value_in_rv() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::RV, imm: 17 });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.exit, 17);
        assert!(r.output.is_empty());
        // stub call + ldi + bv + halt
        assert_eq!(r.stats.cycles, 4);
    }

    #[test]
    fn arithmetic_loop_and_output() {
        // sum 1..=10 via a COMB loop, print, return.
        let mut f = MachineFunction::new("main");
        let r_i = Reg::new(19);
        let r_sum = Reg::new(20);
        let r_lim = Reg::new(21);
        f.push(Inst::Ldi { rd: r_i, imm: 1 });
        f.push(Inst::Ldi { rd: r_sum, imm: 0 });
        f.push(Inst::Ldi { rd: r_lim, imm: 10 });
        let top = f.new_label();
        let done = f.new_label();
        f.bind_label(top);
        f.push(Inst::Comb { cond: Cond::Gt, rs1: r_i, rs2: r_lim, target: done });
        f.push(Inst::Alu { op: AluOp::Add, rd: r_sum, rs1: r_sum, rs2: r_i });
        f.push(Inst::Alui { op: AluOp::Add, rd: r_i, rs1: r_i, imm: 1 });
        f.push(Inst::B { target: top });
        f.bind_label(done);
        f.push(Inst::Out { rs: r_sum });
        f.push(Inst::Copy { rd: Reg::RV, rs: r_sum });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.output, vec![55]);
        assert_eq!(r.exit, 55);
    }

    #[test]
    fn globals_load_store_and_accounting() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::new(19),
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::new(19), rs1: Reg::new(19), imm: 5 });
        f.push(Inst::Stg {
            rs: Reg::new(19),
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Bv { base: Reg::RP });
        let g = GlobalDef { sym: "g".into(), size: 1, init: vec![37] };
        let r = run(&exe_of(vec![f], vec![g])).unwrap();
        assert_eq!(r.exit, 42);
        assert_eq!(r.stats.loads, 2);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.singleton_refs(), 3);
    }

    #[test]
    fn calls_are_profiled() {
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        // Save RP in a callee-saves register (we know leaf doesn't touch it).
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 1 });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: Reg::RV });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![leaf, f], vec![]);
        let r = run(&exe).unwrap();
        assert_eq!(r.exit, 3);
        assert_eq!(r.stats.calls, 3); // stub->main, main->leaf ×2
        let leaf_idx = exe.funcs().iter().position(|fi| fi.name == "leaf").unwrap();
        let main_idx = exe.funcs().iter().position(|fi| fi.name == "main").unwrap();
        assert_eq!(r.stats.call_counts[&leaf_idx], 2);
        assert_eq!(r.stats.call_counts[&main_idx], 1);
        assert_eq!(r.stats.call_edges[&(main_idx, leaf_idx)], 2);
        assert_eq!(r.stats.call_edges[&(usize::MAX, main_idx)], 1);
    }

    #[test]
    fn indirect_call_through_function_address() {
        let mut target = MachineFunction::new("target");
        target.push(Inst::Ldi { rd: Reg::RV, imm: 99 });
        target.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldfa { rd: Reg::new(19), func: "target".into() });
        f.push(Inst::CallInd { base: Reg::new(19) });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![target, f], vec![])).unwrap();
        assert_eq!(r.exit, 99);
    }

    #[test]
    fn input_stream_then_minus_one() {
        let mut f = MachineFunction::new("main");
        for _ in 0..3 {
            f.push(Inst::In { rd: Reg::new(19) });
            f.push(Inst::Out { rs: Reg::new(19) });
        }
        f.push(Inst::Bv { base: Reg::RP });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { input: vec![7, 8], ..SimOptions::default() };
        let r = run_with(&exe, &opts).unwrap();
        assert_eq!(r.output, vec![7, 8, -1]);
    }

    #[test]
    fn traps() {
        // Division by zero.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Alu { op: AluOp::Div, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::ZERO });
        assert!(matches!(run(&exe_of(vec![f], vec![])), Err(SimError::DivByZero { .. })));

        // Memory fault.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: -1, class: MemClass::Indirect });
        assert!(matches!(run(&exe_of(vec![f], vec![])), Err(SimError::MemFault { .. })));

        // Step limit.
        let mut f = MachineFunction::new("main");
        let l = f.new_label();
        f.bind_label(l);
        f.push(Inst::B { target: l });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { max_steps: 100, ..SimOptions::default() };
        assert_eq!(run_with(&exe, &opts), Err(SimError::StepLimit { limit: 100 }));
    }

    #[test]
    fn attribution_is_exact_and_cycle_neutral() {
        let mut leaf = MachineFunction::new("leaf");
        leaf.push(Inst::Alui { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ARGS[0], imm: 1 });
        leaf.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 1 });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::ARGS[0], rs: Reg::RV });
        f.push(Inst::Call { target: "leaf".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![leaf, f], vec![]);
        let plain = run(&exe).unwrap();
        let attributed =
            run_with(&exe, &SimOptions { attribute: true, ..SimOptions::default() }).unwrap();
        // Attribution never perturbs the run.
        assert_eq!(plain.stats, attributed.stats);
        assert_eq!(plain.output, attributed.output);
        assert_eq!(plain.exit, attributed.exit);
        assert!(plain.attribution.is_none());

        let a = attributed.attribution.unwrap();
        assert!(a.matches(&attributed.stats), "{a:?}");
        let leaf = a.get("leaf").unwrap();
        assert_eq!(leaf.calls, 2);
        assert_eq!(leaf.cycles, 4); // two instructions × two activations
        let main = a.get("main").unwrap();
        assert_eq!(main.calls, 1);
        assert_eq!(main.cycles, 7);
        // main's inclusive window covers both leaf activations.
        assert_eq!(main.inclusive_cycles, main.cycles + leaf.cycles);
        // The startup stub is on-stack for the whole run.
        let stub = a.get(STARTUP_PROC).unwrap();
        assert_eq!(stub.inclusive_cycles, attributed.stats.cycles);
        assert_eq!(stub.cycles, 2); // CALL main + HALT
    }

    #[test]
    fn recursion_counts_inclusive_cycles_once() {
        // rec(n): if n != 0 { rec(n - 1) }, with RP saved on the stack.
        let mut rec = MachineFunction::new("rec");
        let done = rec.new_label();
        rec.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
        rec.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        rec.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::ARGS[0], rs2: Reg::ZERO, target: done });
        rec.push(Inst::Alui { op: AluOp::Sub, rd: Reg::ARGS[0], rs1: Reg::ARGS[0], imm: 1 });
        rec.push(Inst::Call { target: "rec".into() });
        rec.bind_label(done);
        rec.push(Inst::Ldw { rd: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        rec.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
        rec.push(Inst::Bv { base: Reg::RP });

        let mut f = MachineFunction::new("main");
        f.push(Inst::Copy { rd: Reg::new(3), rs: Reg::RP });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 3 });
        f.push(Inst::Call { target: "rec".into() });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let exe = exe_of(vec![rec, f], vec![]);
        let r = run_with(&exe, &SimOptions { attribute: true, ..SimOptions::default() }).unwrap();
        let a = r.attribution.unwrap();
        assert!(a.matches(&r.stats), "{a:?}");
        let rec = a.get("rec").unwrap();
        assert_eq!(rec.calls, 4); // n = 3, 2, 1, 0
                                  // One inclusive window spanning all nested activations — not four.
        assert!(rec.inclusive_cycles >= rec.cycles);
        assert!(rec.inclusive_cycles < r.stats.cycles);
        let main = a.get("main").unwrap();
        assert!(main.inclusive_cycles > rec.inclusive_cycles);
    }

    #[test]
    fn traps_are_symbolized() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(19), imm: 0 });
        f.push(Inst::Alu { op: AluOp::Div, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::new(19) });
        let err = run(&exe_of(vec![f], vec![])).unwrap_err();
        match &err {
            SimError::DivByZero { sym, .. } => assert_eq!(sym.as_deref(), Some("main+1")),
            other => panic!("expected DivByZero, got {other:?}"),
        }
        assert!(err.to_string().contains("main+1"), "{err}");

        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: -1, class: MemClass::Indirect });
        let err = run(&exe_of(vec![f], vec![])).unwrap_err();
        match &err {
            SimError::MemFault { sym, .. } => assert_eq!(sym.as_deref(), Some("main+0")),
            other => panic!("expected MemFault, got {other:?}"),
        }
        assert!(err.to_string().contains("main+0"), "{err}");
    }

    #[test]
    fn tiny_memory_faults_cleanly_on_stack_use() {
        // A function that needs a frame cannot run in a 32-word machine
        // whose stack pointer starts at 32 but whose frame store lands
        // in-bounds... shrink further so the global segment collides.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 8 });
        f.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::SP, disp: 100, class: MemClass::Frame });
        f.push(Inst::Bv { base: Reg::RP });
        let exe = exe_of(vec![f], vec![]);
        let opts = SimOptions { mem_words: 64, ..SimOptions::default() };
        assert!(matches!(run_with(&exe, &opts), Err(SimError::MemFault { .. })));
    }

    #[test]
    fn writes_to_r0_are_ignored() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::ZERO, imm: 123 });
        f.push(Inst::Copy { rd: Reg::RV, rs: Reg::ZERO });
        f.push(Inst::Bv { base: Reg::RP });
        let r = run(&exe_of(vec![f], vec![])).unwrap();
        assert_eq!(r.exit, 0);
    }
}
