//! The fast VPR execution engine: pre-decoded direct-threaded dispatch.
//!
//! [`decode`] lowers a linked [`Executable`] once into a [`DecodedProgram`]:
//! a flat, dense array of fixed-size [`Op`]s with every source of per-step
//! overhead resolved away —
//!
//! * pseudo-instruction variants and their `String` symbols are gone (an
//!   unresolved pseudo decodes to a dedicated trap op),
//! * branch targets are raw instruction indices,
//! * each call site carries its callee's function index, precomputed from
//!   the executable's entry table, so the per-call profile update is two
//!   array bumps instead of a `BTreeMap` walk.
//!
//! The dispatch loop is a single `match` over the 16-byte `Copy` op — a
//! jump table after codegen — with the accounting restructured to keep the
//! loop tight while staying *bit-identical* to the reference interpreter
//! ([`crate::sim`]) in every observable:
//!
//! * call/edge counters are dense `Vec`s ([`CallCounters`], shared with the
//!   reference engine) folded into the `BTreeMap`-shaped [`RunStats`] only
//!   at `HALT`;
//! * the loop is monomorphized on one flag: the plain instantiation does
//!   no observation at all, and the observed one (attribution or
//!   profiling) bumps one per-pc counter per step and runs the shared
//!   call/return hook (`Observer`, also used by the reference engine),
//!   from which attribution and profiles are derived after `HALT`.
//!
//! Parity is enforced by the sim tests below (every reference test rerun on
//! this engine), the `engines` parity suite (workloads × configs ×
//! attribution, trap symbolization, step-limit equivalence), and the fuzz
//! oracle's cross-engine differential layer.

use crate::inst::{AluOp, Cond, Inst};
use crate::memory::boot;
use crate::profile::Observer;
use crate::program::Executable;
use crate::regs::Reg;
use crate::sim::{CallCounters, RunResult, RunStats, SimError, SimOptions};

/// A pre-decoded instruction: fixed-size, `Copy`, symbol-free.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `rd ← imm`.
    Ldi { rd: u8, imm: i64 },
    /// `rd ← rs`.
    Copy { rd: u8, rs: u8 },
    /// `rd ← rs1 op rs2`.
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 op imm`.
    Alui { op: AluOp, rd: u8, rs1: u8, imm: i64 },
    /// `rd ← (rs1 cond rs2) ? 1 : 0`.
    Cmp { cond: Cond, rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← mem[rs(base) + disp]`.
    Ld { rd: u8, base: u8, singleton: bool, disp: i64 },
    /// `mem[rs(base) + disp] ← rs`.
    St { rs: u8, base: u8, singleton: bool, disp: i64 },
    /// Direct call: `entry` is the target address, `callee` the target's
    /// function index (`u32::MAX` if the entry starts no linked function).
    Call { entry: u32, callee: u32 },
    /// Indirect call through `base`; the callee index is looked up in the
    /// dense per-pc entry table at run time.
    CallInd { base: u8 },
    /// Indirect jump through `base` (procedure return is `Bv RP`).
    Bv { base: u8 },
    /// Unconditional branch.
    Jmp { target: u32 },
    /// Compare-and-branch.
    JmpIf { cond: Cond, rs1: u8, rs2: u8, target: u32 },
    /// Emit `rs` to the output stream.
    Out { rs: u8 },
    /// Read the next input word into `rd` (−1 at end of input).
    In { rd: u8 },
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,
    /// An unresolved pseudo instruction reached the decoder; executing the
    /// op traps exactly like the reference interpreter's pseudo arm.
    Unresolved,
}

/// A linked executable lowered for the fast engine. Decoding is a cheap
/// linear pass; reuse one `DecodedProgram` to amortize it across runs.
pub struct DecodedProgram<'a> {
    exe: &'a Executable,
    ops: Vec<Op>,
    /// `entry_func[pc]` = index of the function entered at `pc`, or
    /// `u32::MAX` — the dense mirror of the executable's entry map, used to
    /// classify indirect call targets without a `BTreeMap` probe.
    entry_func: Vec<u32>,
    nfuncs: usize,
}

/// Lowers `exe` into a [`DecodedProgram`] for the fast engine.
pub fn decode(exe: &Executable) -> DecodedProgram<'_> {
    let code = exe.insts();
    let mut entry_func = vec![u32::MAX; code.len()];
    for (i, f) in exe.funcs().iter().enumerate() {
        if let Some(slot) = entry_func.get_mut(f.entry) {
            *slot = i as u32;
        }
    }
    let r = |r: Reg| r.index() as u8;
    let ops = code
        .iter()
        .map(|inst| match *inst {
            Inst::Ldi { rd, imm } => Op::Ldi { rd: r(rd), imm },
            Inst::Copy { rd, rs } => Op::Copy { rd: r(rd), rs: r(rs) },
            Inst::Alu { op, rd, rs1, rs2 } => Op::Alu { op, rd: r(rd), rs1: r(rs1), rs2: r(rs2) },
            Inst::Alui { op, rd, rs1, imm } => Op::Alui { op, rd: r(rd), rs1: r(rs1), imm },
            Inst::Cmp { cond, rd, rs1, rs2 } => {
                Op::Cmp { cond, rd: r(rd), rs1: r(rs1), rs2: r(rs2) }
            }
            Inst::Ldw { rd, base, disp, class } => {
                Op::Ld { rd: r(rd), base: r(base), singleton: class.is_singleton(), disp }
            }
            Inst::Stw { rs, base, disp, class } => {
                Op::St { rs: r(rs), base: r(base), singleton: class.is_singleton(), disp }
            }
            Inst::CallAbs { entry } => Op::Call {
                entry,
                callee: entry_func.get(entry as usize).copied().unwrap_or(u32::MAX),
            },
            Inst::CallInd { base } => Op::CallInd { base: r(base) },
            Inst::Bv { base } => Op::Bv { base: r(base) },
            Inst::B { target } => Op::Jmp { target: target.0 },
            Inst::Comb { cond, rs1, rs2, target } => {
                Op::JmpIf { cond, rs1: r(rs1), rs2: r(rs2), target: target.0 }
            }
            Inst::Out { rs } => Op::Out { rs: r(rs) },
            Inst::In { rd } => Op::In { rd: r(rd) },
            Inst::Halt => Op::Halt,
            Inst::Nop => Op::Nop,
            Inst::Ldg { .. }
            | Inst::Stg { .. }
            | Inst::Lga { .. }
            | Inst::Ldfa { .. }
            | Inst::Call { .. } => Op::Unresolved,
        })
        .collect();
    DecodedProgram { exe, ops, entry_func, nfuncs: exe.funcs().len() }
}

#[inline(always)]
fn get(regs: &[i64; Reg::COUNT], r: u8) -> i64 {
    // Registers decode from `Reg`, so `r < 32` by construction; the mask
    // keeps the hot loop free of bounds-check branches.
    regs[(r as usize) & (Reg::COUNT - 1)]
}

#[inline(always)]
fn set(regs: &mut [i64; Reg::COUNT], r: u8, v: i64) {
    // Writes to r0 are ignored (it reads as zero forever).
    if r != 0 {
        regs[(r as usize) & (Reg::COUNT - 1)] = v;
    }
}

impl DecodedProgram<'_> {
    /// Runs the decoded program. `opts.engine` is ignored: this *is* the
    /// fast engine.
    ///
    /// # Errors
    ///
    /// See [`SimError`] — identical kinds, pcs, and symbolization as the
    /// reference interpreter.
    pub fn run_with(&self, opts: &SimOptions) -> Result<RunResult, SimError> {
        if opts.attribute || opts.profile {
            self.exec::<true>(opts)
        } else {
            self.exec::<false>(opts)
        }
    }

    /// The dispatch loop, monomorphized on whether the run is observed
    /// (attribution or profiling) so the plain configuration pays nothing
    /// for it. Kept out of line: with both instantiations inlined into
    /// [`run_with`](DecodedProgram::run_with), the plain loop measured up
    /// to ~20% slower on scaled-64, from code layout alone.
    #[inline(never)]
    fn exec<const OBS: bool>(&self, opts: &SimOptions) -> Result<RunResult, SimError> {
        let ops = &self.ops[..];
        let nfuncs = self.nfuncs;
        let (mut mem, mut regs) = boot(self.exe, opts.mem_words);
        let desc = self.exe.target().desc();
        let rp_idx = desc.rp.index() as u8;
        let rv_idx = desc.rv.index() as u8;

        let max_steps = opts.max_steps;
        let input = &opts.input[..];
        let mut input_pos = 0usize;
        let mut output: Vec<i64> = Vec::new();

        // One counter serves as both the step budget and `stats.cycles`
        // (every instruction is one cycle on this machine).
        let mut cycles: u64 = 0;
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut singleton_loads = 0u64;
        let mut singleton_stores = 0u64;
        let mut total_calls = 0u64;
        let mut counters = CallCounters::new(nfuncs);

        // Shadow stack of *attribution slots* (function index, or `nfuncs`
        // for "outside any function"). The reference stores raw indices
        // with a `usize::MAX` sentinel; clamping at push time is equivalent
        // because only the clamped value is ever observed.
        let mut shadow: Vec<u32> = vec![nfuncs as u32];

        // Per-pc counts and the call/return hook, touched only when `OBS`
        // (the counts stay empty otherwise).
        let mut obs = Observer::new(opts, nfuncs);
        let mut pc_counts = vec![0u64; if OBS { ops.len() } else { 0 }];

        let mut pc = 0usize;
        loop {
            if cycles >= max_steps {
                return Err(SimError::StepLimit { limit: max_steps });
            }
            let op = match ops.get(pc) {
                Some(&op) => op,
                None => return Err(SimError::BadPc { pc, sym: self.exe.symbolize(pc) }),
            };
            cycles += 1;
            if OBS {
                pc_counts[pc] += 1;
            }
            let mut next = pc + 1;
            match op {
                Op::Ldi { rd, imm } => set(&mut regs, rd, imm),
                Op::Copy { rd, rs } => {
                    let v = get(&regs, rs);
                    set(&mut regs, rd, v);
                }
                Op::Alu { op, rd, rs1, rs2 } => {
                    let v = match op.eval(get(&regs, rs1), get(&regs, rs2)) {
                        Some(v) => v,
                        None => {
                            return Err(SimError::DivByZero { pc, sym: self.exe.symbolize(pc) })
                        }
                    };
                    set(&mut regs, rd, v);
                }
                Op::Alui { op, rd, rs1, imm } => {
                    let v = match op.eval(get(&regs, rs1), imm) {
                        Some(v) => v,
                        None => {
                            return Err(SimError::DivByZero { pc, sym: self.exe.symbolize(pc) })
                        }
                    };
                    set(&mut regs, rd, v);
                }
                Op::Cmp { cond, rd, rs1, rs2 } => {
                    let v = cond.eval(get(&regs, rs1), get(&regs, rs2)) as i64;
                    set(&mut regs, rd, v);
                }
                Op::Ld { rd, base, singleton, disp } => {
                    let addr = get(&regs, base).wrapping_add(disp);
                    // A negative address casts to ≥ 2⁶³ and fails the
                    // length test, so one compare covers both bounds.
                    let Some(&v) = mem.get(addr as usize) else {
                        return Err(SimError::MemFault { pc, addr, sym: self.exe.symbolize(pc) });
                    };
                    loads += 1;
                    singleton_loads += singleton as u64;
                    set(&mut regs, rd, v);
                }
                Op::St { rs, base, singleton, disp } => {
                    let addr = get(&regs, base).wrapping_add(disp);
                    let Some(slot) = mem.get_mut(addr as usize) else {
                        return Err(SimError::MemFault { pc, addr, sym: self.exe.symbolize(pc) });
                    };
                    *slot = get(&regs, rs);
                    stores += 1;
                    singleton_stores += singleton as u64;
                }
                Op::Call { entry, callee } => {
                    set(&mut regs, rp_idx, next as i64);
                    total_calls += 1;
                    let callee_slot =
                        if (callee as usize) < nfuncs { callee as usize } else { nfuncs };
                    let caller_slot = shadow.last().map_or(nfuncs, |&s| s as usize);
                    counters.record_slots(caller_slot, callee_slot);
                    shadow.push(callee_slot as u32);
                    if OBS {
                        obs.enter(callee_slot, cycles);
                    }
                    next = entry as usize;
                }
                Op::CallInd { base } => {
                    let entry = get(&regs, base);
                    if entry < 0 || entry as usize >= ops.len() {
                        return Err(SimError::BadPc { pc, sym: self.exe.symbolize(pc) });
                    }
                    set(&mut regs, rp_idx, next as i64);
                    total_calls += 1;
                    let callee = self.entry_func[entry as usize];
                    let callee_slot =
                        if (callee as usize) < nfuncs { callee as usize } else { nfuncs };
                    let caller_slot = shadow.last().map_or(nfuncs, |&s| s as usize);
                    counters.record_slots(caller_slot, callee_slot);
                    shadow.push(callee_slot as u32);
                    if OBS {
                        obs.enter(callee_slot, cycles);
                    }
                    next = entry as usize;
                }
                Op::Bv { base } => {
                    let target = get(&regs, base);
                    if target < 0 || target as usize >= ops.len() {
                        return Err(SimError::BadPc { pc, sym: self.exe.symbolize(pc) });
                    }
                    if let Some(slot) = shadow.pop() {
                        if OBS {
                            obs.leave(slot as usize, cycles);
                        }
                    }
                    next = target as usize;
                }
                Op::Jmp { target } => next = target as usize,
                Op::JmpIf { cond, rs1, rs2, target } => {
                    if cond.eval(get(&regs, rs1), get(&regs, rs2)) {
                        next = target as usize;
                    }
                }
                Op::Out { rs } => output.push(get(&regs, rs)),
                Op::In { rd } => {
                    let v = input.get(input_pos).copied().unwrap_or(-1);
                    input_pos += 1;
                    set(&mut regs, rd, v);
                }
                Op::Halt => {
                    let exit = get(&regs, rv_idx);
                    let mut stats = RunStats {
                        cycles,
                        loads,
                        stores,
                        singleton_loads,
                        singleton_stores,
                        calls: total_calls,
                        ..RunStats::default()
                    };
                    counters.fold_into(&mut stats);
                    let (attribution, profile) =
                        if OBS { obs.finish(pc_counts, self.exe, &stats) } else { (None, None) };
                    return Ok(RunResult { output, exit, stats, attribution, profile });
                }
                Op::Nop => {}
                Op::Unresolved => {
                    return Err(SimError::UnresolvedPseudo { pc, sym: self.exe.symbolize(pc) });
                }
            }
            pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemClass;
    use crate::program::{link, GlobalDef, MachineFunction, ObjectModule, DEFAULT_MEM_WORDS};
    use crate::sim::Engine;

    #[test]
    fn ops_are_small_and_copy() {
        // The whole point of pre-decoding: a dense array of small ops.
        assert!(std::mem::size_of::<Op>() <= 16, "{}", std::mem::size_of::<Op>());
    }

    /// Runs `exe` under both engines with the given options and demands
    /// bit-identical outcomes (including traps).
    fn both(exe: &Executable, opts: &SimOptions) -> Result<RunResult, SimError> {
        let fast = crate::sim::run_with(exe, &SimOptions { engine: Engine::Fast, ..opts.clone() });
        let reference =
            crate::sim::run_with(exe, &SimOptions { engine: Engine::Reference, ..opts.clone() });
        assert_eq!(fast, reference);
        fast
    }

    fn exe_of(functions: Vec<MachineFunction>, globals: Vec<GlobalDef>) -> Executable {
        link(&[ObjectModule { name: "t".into(), functions, globals, ..Default::default() }])
            .unwrap()
    }

    /// A small program exercising calls, recursion, memory, globals, and
    /// I/O: rec(n) sums inputs into a global, main calls it twice.
    fn busy_exe() -> Executable {
        let mut rec = MachineFunction::new("rec");
        let done = rec.new_label();
        rec.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
        rec.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
        rec.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::ARGS[0], rs2: Reg::ZERO, target: done });
        rec.push(Inst::In { rd: Reg::AT });
        rec.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "acc".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        rec.push(Inst::Alu { op: AluOp::Add, rd: Reg::RV, rs1: Reg::RV, rs2: Reg::AT });
        rec.push(Inst::Stg {
            rs: Reg::RV,
            sym: "acc".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
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
        f.push(Inst::Ldfa { rd: Reg::new(19), func: "rec".into() });
        f.push(Inst::Ldi { rd: Reg::ARGS[0], imm: 2 });
        f.push(Inst::CallInd { base: Reg::new(19) });
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "acc".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Out { rs: Reg::RV });
        f.push(Inst::Copy { rd: Reg::RP, rs: Reg::new(3) });
        f.push(Inst::Bv { base: Reg::RP });

        let acc = GlobalDef { sym: "acc".into(), size: 1, init: vec![100] };
        exe_of(vec![rec, f], vec![acc])
    }

    #[test]
    fn engines_agree_on_busy_program() {
        let exe = busy_exe();
        for attribute in [false, true] {
            let opts =
                SimOptions { input: vec![7, 8, 9, 10, 11], attribute, ..SimOptions::default() };
            let r = both(&exe, &opts).unwrap();
            assert_eq!(r.output, vec![100 + 7 + 8 + 9 + 10 + 11]);
            if attribute {
                let a = r.attribution.unwrap();
                assert!(a.matches(&r.stats), "{a:?}");
            }
        }
    }

    #[test]
    fn engines_agree_on_every_step_limit() {
        // Sweep max_steps across the whole run: the StepLimit/Ok frontier
        // must sit at exactly the same step in both engines.
        let exe = busy_exe();
        let total = crate::sim::run(&exe).unwrap().stats.cycles;
        for limit in (0..=total + 1).step_by(7).chain([total - 1, total, total + 1]) {
            let opts = SimOptions { max_steps: limit, attribute: true, ..SimOptions::default() };
            let r = both(&exe, &opts);
            assert_eq!(r.is_ok(), limit >= total, "limit {limit} vs total {total}");
        }
    }

    #[test]
    fn engines_agree_on_traps() {
        // Division by zero, symbolized.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(19), imm: 0 });
        f.push(Inst::Alu { op: AluOp::Div, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::new(19) });
        let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
        assert!(
            matches!(&err, SimError::DivByZero { pc: _, sym } if sym.as_deref() == Some("main+1"))
        );

        // Load fault and store fault.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldw { rd: Reg::RV, base: Reg::ZERO, disp: -1, class: MemClass::Indirect });
        let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
        assert!(
            matches!(&err, SimError::MemFault { addr: -1, sym, .. } if sym.as_deref() == Some("main+0"))
        );

        let mut f = MachineFunction::new("main");
        f.push(Inst::Stw { rs: Reg::ZERO, base: Reg::ZERO, disp: -2, class: MemClass::Indirect });
        let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
        assert!(matches!(&err, SimError::MemFault { addr: -2, .. }));

        // The whole default address space is there and reads zero until
        // written: `main` outputs an untouched middle word and the top
        // word, then stores into both and reads the top word back.
        let top = DEFAULT_MEM_WORDS as i64 - 1;
        let (r_mid, r_top, r_val) = (Reg::new(19), Reg::new(20), Reg::new(21));
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: r_mid, imm: top / 2 });
        f.push(Inst::Ldi { rd: r_top, imm: top });
        f.push(Inst::Ldi { rd: r_val, imm: -77 });
        for base in [r_mid, r_top] {
            f.push(Inst::Ldw { rd: Reg::RV, base, disp: 0, class: MemClass::Indirect });
            f.push(Inst::Out { rs: Reg::RV });
            f.push(Inst::Stw { rs: r_val, base, disp: 0, class: MemClass::Indirect });
        }
        f.push(Inst::Ldw { rd: Reg::RV, base: r_top, disp: 0, class: MemClass::Indirect });
        f.push(Inst::Bv { base: Reg::RP });
        let exe = exe_of(vec![f], vec![]);
        // The second run starts from fresh zeroed memory, not the first
        // run's stores.
        for _ in 0..2 {
            let r = both(&exe, &SimOptions::default()).unwrap();
            assert_eq!((r.output, r.exit), (vec![0, 0], -77));
        }

        // One word past the top faults, on a load and on a store.
        for store in [false, true] {
            let mut f = MachineFunction::new("main");
            f.push(Inst::Ldi { rd: r_top, imm: top });
            f.push(if store {
                Inst::Stw { rs: r_top, base: r_top, disp: 1, class: MemClass::Indirect }
            } else {
                Inst::Ldw { rd: Reg::RV, base: r_top, disp: 1, class: MemClass::Indirect }
            });
            let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
            assert!(
                matches!(&err, SimError::MemFault { addr, sym, .. }
                    if *addr == DEFAULT_MEM_WORDS as i64 && sym.as_deref() == Some("main+1")),
                "{err:?}"
            );
        }

        // Bad pc via an indirect jump, and via an indirect call.
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(19), imm: 99_999 });
        f.push(Inst::Bv { base: Reg::new(19) });
        let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
        assert!(matches!(&err, SimError::BadPc { sym, .. } if sym.as_deref() == Some("main+1")));

        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(19), imm: -5 });
        f.push(Inst::CallInd { base: Reg::new(19) });
        let err = both(&exe_of(vec![f], vec![]), &SimOptions::default()).unwrap_err();
        assert!(matches!(&err, SimError::BadPc { sym, .. } if sym.as_deref() == Some("main+1")));
    }

    #[test]
    fn decode_reuse_matches_one_shot_runs() {
        // One DecodedProgram reused across different inputs must behave
        // like fresh runs (the decoder holds no per-run state).
        let exe = busy_exe();
        let decoded = decode(&exe);
        for input in [vec![], vec![1, 2, 3], vec![-1, -2, -3, -4, -5, -6]] {
            let opts = SimOptions { input, attribute: true, ..SimOptions::default() };
            let reused = decoded.run_with(&opts).unwrap();
            let fresh =
                crate::sim::run_with(&exe, &SimOptions { engine: Engine::Reference, ..opts })
                    .unwrap();
            assert_eq!(reused, fresh);
        }
    }
}
