//! # ipra-verify — an interprocedural register-discipline verifier
//!
//! The analyzer hands the compiler second phase a program database full of
//! promises: "this procedure may use `r7` without saving it, a cluster
//! root above it spills it", "global `x` lives in `r5` throughout this
//! web", "these caller-saves registers survive calls to `f`". The code
//! generator is supposed to emit machine code that honors them. This crate
//! closes the loop: it re-derives, from the *emitted object code alone*
//! plus the database (under the machine description the modules were
//! compiled for), whether those promises actually hold — an
//! independent checker in the spirit of translation validation, so a bug
//! in promotion or spill-code motion surfaces as a typed diagnostic at the
//! offending instruction instead of a silently wrong benchmark number.
//!
//! ## What is checked
//!
//! * **Callee-saves discipline** — on every path to every return, each
//!   callee-saves register again holds its entry value, unless the
//!   database moved the obligation (a cluster ancestor's MSPILL covers a
//!   FREE register, paper §4.2.3) or the register carries a promoted
//!   global out of a web interior node (§4.1.2). Verified with a symbolic
//!   "entry value" dataflow (see [`engine`]) rather than save/restore
//!   pattern matching, so a restore missing on one branch arm, a restore
//!   from the wrong slot, or a save clobbered in between are all the same
//!   failure.
//! * **Promotion soundness** — no residual memory access to a promoted
//!   global inside its web, web interiors are entered only through web
//!   entry nodes, all members agree on the home register, no callee
//!   reachable from a web member clobbers the home register or touches
//!   the global's memory home behind the web's back.
//! * **Alias soundness** — no store through a pointer may land in the
//!   memory home of a promoted global (the register copy would silently
//!   go stale), and no pointer load may read the home of a *written*
//!   web's global. Checked by a flow-sensitive address-tracking pass over
//!   the machine code, independent of the `ipra-alias` points-to solver
//!   whose promotion decisions it polices — so an unsound promotion under
//!   the alias-precision configuration surfaces here even though both
//!   were derived from the same source program.
//! * **Caller-saves correctness** — no value is live across a call in a
//!   caller-saves register the callee may clobber. "May clobber" is a
//!   machine-level least fixpoint over the whole program (indirect calls
//!   resolve to every address-taken procedure), which is exactly the
//!   guarantee the §7.6.2 caller-saves preallocation extension trades on.
//! * **Reserved-register and frame discipline** — `r0`/`DP` are never
//!   written, `SP` moves only by immediate adjustment, `RP` is written
//!   only by restores and calls, the stack is balanced on every return,
//!   and every SP-relative access stays inside the frame.
//!
//! The entry point is [`verify_modules`]; diagnostics come back in a
//! [`VerifyReport`] with procedure and instruction provenance.

#![warn(missing_docs)]

pub mod engine;
pub mod liveness;

use ipra_core::{ProcDirectives, ProgramDatabase, Promotion};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use vpr::cfg::{Cfg, CfgError};
use vpr::inst::Inst;
use vpr::program::{MachineFunction, ObjectModule};
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetDesc;

use engine::State;

/// The class of discipline violation a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagKind {
    /// A callee-saves register reaches a return dirty and was never saved.
    CalleeSavesClobber,
    /// A callee-saves register was saved to the frame but does not hold
    /// its entry value at some return (missing or wrong restore).
    MissingRestore,
    /// A cluster root reaches a return with an MSPILL register dirty (the
    /// cluster-boundary save/restore it owes its members is broken).
    MissingClusterSave,
    /// A callee reachable from a web member may clobber the promoted
    /// global's home register.
    PromotionClobber,
    /// A memory access to a promoted global inside its own web (the
    /// promotion should have replaced it with the home register).
    ResidualGlobalAccess,
    /// A web interior node is reachable without passing a web entry node
    /// (so the home register would hold garbage).
    WebEntryBypass,
    /// Two web members connected by a call disagree on the home register.
    InconsistentWebReg,
    /// A callee reachable from a web member accesses the promoted
    /// global's memory home while the register copy is live (stale data).
    WebEscape,
    /// A store through a pointer that may address a promoted global: the
    /// memory home would diverge from the register copy. Promotion of an
    /// address-taken global is only sound when the alias analysis proved
    /// no reachable indirect write exists, so any occurrence is an
    /// analyzer or code-generator bug.
    IndirectStoreToPromoted,
    /// A value is live across a call in a caller-saves register the
    /// callee may clobber.
    CallerSavesLiveAcrossCall,
    /// A write to `r0`, `DP`, a non-adjustment write to `SP`, or a
    /// non-restore write to `RP`.
    ReservedRegWrite,
    /// A return executes without `RP` holding the caller's return address.
    ReturnAddressClobbered,
    /// The stack pointer is not where it should be: unbalanced at a
    /// return, or paths disagree at a join.
    SpUnbalanced,
    /// An SP-relative access outside the procedure's own frame.
    FrameOutOfBounds,
    /// An indirect jump through a register other than `RP`.
    NonReturnIndirectJump,
    /// Structurally broken code: undefined call targets, unbound labels,
    /// duplicate definitions, fallthrough off the end, a stray `HALT`.
    MalformedCode,
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagKind::CalleeSavesClobber => "callee-saves-clobber",
            DiagKind::MissingRestore => "missing-restore",
            DiagKind::MissingClusterSave => "missing-cluster-save",
            DiagKind::PromotionClobber => "promotion-clobber",
            DiagKind::ResidualGlobalAccess => "residual-global-access",
            DiagKind::WebEntryBypass => "web-entry-bypass",
            DiagKind::InconsistentWebReg => "inconsistent-web-reg",
            DiagKind::WebEscape => "web-escape",
            DiagKind::IndirectStoreToPromoted => "indirect-store-to-promoted",
            DiagKind::CallerSavesLiveAcrossCall => "caller-saves-live-across-call",
            DiagKind::ReservedRegWrite => "reserved-reg-write",
            DiagKind::ReturnAddressClobbered => "return-address-clobbered",
            DiagKind::SpUnbalanced => "sp-unbalanced",
            DiagKind::FrameOutOfBounds => "frame-out-of-bounds",
            DiagKind::NonReturnIndirectJump => "non-return-indirect-jump",
            DiagKind::MalformedCode => "malformed-code",
        };
        f.write_str(s)
    }
}

/// One verified-to-be-broken fact, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Violation class.
    pub kind: DiagKind,
    /// Object module the procedure came from.
    pub module: String,
    /// Procedure link name.
    pub proc: String,
    /// Offending instruction index within the procedure, when the
    /// violation is attributable to one.
    pub inst: Option<usize>,
    /// Human-readable specifics (registers, symbols, callees, offsets).
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => {
                write!(f, "{}::{}+{}: {}: {}", self.module, self.proc, i, self.kind, self.detail)
            }
            None => write!(f, "{}::{}: {}: {}", self.module, self.proc, self.kind, self.detail),
        }
    }
}

/// The verifier's verdict over a whole program.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All violations found, sorted by (module, procedure, instruction).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of procedures examined.
    pub procs: usize,
    /// Total instructions examined.
    pub insts: usize,
}

impl VerifyReport {
    /// Did every check pass?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics of one kind (used by tests and the mutation harness).
    pub fn of_kind(&self, kind: DiagKind) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.kind == kind)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "verified {} procedures ({} instructions): clean", self.procs, self.insts)
        } else {
            writeln!(
                f,
                "verified {} procedures ({} instructions): {} violation(s)",
                self.procs,
                self.insts,
                self.diagnostics.len()
            )?;
            for d in &self.diagnostics {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

/// One procedure prepared for checking.
struct Proc<'a> {
    module: &'a str,
    func: &'a MachineFunction,
    /// `None` when the instruction stream is structurally malformed (a
    /// `MalformedCode` diagnostic was emitted; dataflow checks are skipped
    /// and the procedure is assumed to clobber everything).
    cfg: Option<Cfg>,
    dirs: ProcDirectives,
}

/// What an unknown callee may clobber under the target's convention: all
/// caller-saves registers plus the assembler temporary (the return pointer
/// is added by the call transfer itself).
fn convention_clobber(desc: &TargetDesc) -> RegSet {
    let mut s = desc.caller_saves;
    s.insert(desc.scratch1);
    s
}

/// What structurally malformed code may clobber: everything that is
/// trackable at all (zero/SP/DP are pinned by the engine).
fn worst_clobber(desc: &TargetDesc) -> RegSet {
    let mut s = RegSet::EMPTY;
    for i in 0..Reg::COUNT as u8 {
        let r = Reg::new(i);
        if r != desc.zero && r != desc.sp && r != desc.dp {
            s.insert(r);
        }
    }
    s
}

/// Resolved callee indices of a call instruction: one for a direct call,
/// every address-taken procedure for an indirect one, nothing for an
/// unresolvable target (which gets its own `MalformedCode` diagnostic).
fn call_targets(inst: &Inst, by_name: &HashMap<&str, usize>, taken: &[usize]) -> Vec<usize> {
    match inst {
        Inst::Call { target } => by_name.get(target.as_str()).copied().into_iter().collect(),
        Inst::CallInd { .. } => taken.to_vec(),
        _ => Vec::new(),
    }
}

/// Clobber set of a call instruction under the current per-procedure
/// estimates (`RP` excluded; the engine adds it).
fn inst_clobbers(
    inst: &Inst,
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    clobber: &[RegSet],
    desc: &TargetDesc,
) -> RegSet {
    match inst {
        Inst::Call { target } => {
            by_name.get(target.as_str()).map_or_else(|| convention_clobber(desc), |&t| clobber[t])
        }
        Inst::CallInd { .. } => {
            if taken.is_empty() {
                convention_clobber(desc)
            } else {
                taken.iter().fold(RegSet::EMPTY, |acc, &t| acc | clobber[t])
            }
        }
        Inst::CallAbs { .. } => convention_clobber(desc),
        _ => RegSet::EMPTY,
    }
}

/// Argument registers a call instruction consumes, under the current
/// per-procedure `arg_uses` estimates. For an indirect call this is the
/// *intersection* over the possible targets — the registers every target
/// definitely reads. A union would invent phantom uses: an indirect call
/// whose actual target takes two arguments would appear to read a third
/// argument register holding stale garbage, making that garbage look like
/// a live value across every earlier call on the path (and the exposure
/// check would flag those calls for clobbering it).
fn inst_arg_uses(
    inst: &Inst,
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    arg_uses: &[RegSet],
    all_args: RegSet,
) -> RegSet {
    match inst {
        Inst::Call { target } => {
            // An undefined target already has a MalformedCode diagnostic;
            // no phantom uses for it.
            by_name.get(target.as_str()).map_or(RegSet::EMPTY, |&t| arg_uses[t])
        }
        Inst::CallInd { .. } => {
            taken.iter().map(|&t| arg_uses[t]).reduce(|acc, a| acc & a).unwrap_or(RegSet::EMPTY)
        }
        Inst::CallAbs { .. } => all_args,
        _ => RegSet::EMPTY,
    }
}

/// Registers a procedure syntactically saves into its own frame
/// (`STW r, SP+d` with `d >= 0`; negative displacements are outgoing
/// arguments in the callee's frame).
fn saved_regs(f: &MachineFunction, sp: Reg) -> RegSet {
    let mut saved = RegSet::EMPTY;
    for inst in f.insts() {
        if let Inst::Stw { rs, base, disp, .. } = inst {
            if *base == sp && *disp >= 0 {
                saved.insert(*rs);
            }
        }
    }
    saved
}

/// The callee-saves registers a procedure's own directives let it dirty
/// without saving: its FREE set, plus any callee-saves register the
/// cluster post-pass (Figure 7) granted into its caller-saves scratch
/// class. Both are covered by a cluster root's MSPILL save above.
fn own_auth(p: &Proc<'_>, desc: &TargetDesc) -> RegSet {
    p.dirs.usage.free | (p.dirs.usage.caller & desc.callee_saves)
}

/// Least-fixpoint authorized-dirty sets: the callee-saves registers a
/// procedure may legitimately leave dirty at return because spill motion
/// (§4.2) moved the save obligation to a cluster root above it. A
/// procedure's own directives ([`own_auth`]) authorize its direct uses,
/// and a callee's authorization propagates up through call edges — except
/// through registers the caller saves in its own frame or, at a cluster
/// root, covers with the MSPILL boundary save (where the obligation is
/// discharged and must not leak further up).
fn fix_auth_dirty(
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    saved: &[RegSet],
    desc: &TargetDesc,
) -> Vec<RegSet> {
    let mut auth: Vec<RegSet> = procs.iter().map(|p| own_auth(p, desc)).collect();
    loop {
        let prev = auth.clone();
        for (i, p) in procs.iter().enumerate() {
            let mut a = RegSet::EMPTY;
            for inst in p.func.insts() {
                for t in call_targets(inst, by_name, taken) {
                    a |= prev[t];
                }
            }
            a -= saved[i];
            if p.dirs.is_cluster_root {
                a -= p.dirs.usage.mspill;
            }
            auth[i] = a | own_auth(p, desc);
        }
        if auth == prev {
            return auth;
        }
    }
}

/// Least-fixpoint interprocedural clobber sets: for each procedure, the
/// registers that may not hold their entry value at some return. Computed
/// from the machine code itself (not the database), so it reflects what
/// the emitted code *does*, including its bugs — which is what makes the
/// caller-side checks sound against callee-side miscompiles.
fn fix_clobbers(
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    desc: &TargetDesc,
) -> Vec<RegSet> {
    let mut clobber: Vec<RegSet> = procs
        .iter()
        .map(|p| if p.cfg.is_some() { RegSet::EMPTY } else { worst_clobber(desc) })
        .collect();
    loop {
        let prev = clobber.clone();
        for (i, p) in procs.iter().enumerate() {
            let Some(cfg) = &p.cfg else { continue };
            let insts = p.func.insts();
            let flow = engine::analyze(
                p.func,
                cfg,
                &|j| inst_clobbers(&insts[j], by_name, taken, &prev, desc),
                desc,
            );
            let mut cl = prev[i];
            for &e in cfg.exits() {
                if !matches!(insts[e], Inst::Bv { .. }) {
                    continue; // a stray HALT never returns to the caller
                }
                if let Some(st) = &flow.in_states[e] {
                    for idx in 0..Reg::COUNT as u8 {
                        let r = Reg::new(idx);
                        if !st.holds_entry(r) {
                            cl.insert(r);
                        }
                    }
                }
            }
            clobber[i] = cl;
        }
        if clobber == prev {
            return clobber;
        }
    }
}

/// Transitively accessed global symbols per procedure (seeded by `seed`,
/// closed over all resolvable calls). Feeds the web-escape check: a web
/// member must never reach code that *writes* the promoted global's memory
/// home — nor code that merely reads it, when the web holds a written
/// (and therefore newer) register copy.
fn fix_mem_access(
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    seed: &dyn Fn(&Inst) -> Option<String>,
) -> Vec<BTreeSet<String>> {
    let mut mem: Vec<BTreeSet<String>> =
        procs.iter().map(|p| p.func.insts().iter().filter_map(seed).collect()).collect();
    loop {
        let mut changed = false;
        for i in 0..procs.len() {
            let mut add: Vec<String> = Vec::new();
            for inst in procs[i].func.insts() {
                for t in call_targets(inst, by_name, taken) {
                    if t == i {
                        continue;
                    }
                    add.extend(mem[t].iter().filter(|s| !mem[i].contains(*s)).cloned());
                }
            }
            if !add.is_empty() {
                changed = true;
                mem[i].extend(add);
            }
        }
        if !changed {
            return mem;
        }
    }
}

/// Procedures reachable from `main` in the emitted machine code: closure
/// over direct `Call` edges, with `CallInd` resolving to every procedure
/// whose address is taken (`LDFA`) *in already-reachable code* — the same
/// closed-world refinement the alias analysis uses, so code only dead
/// code ever points at stays out of the alias-sensitive checks. Without a
/// `main`, the program is an open world and everything counts.
///
/// Also returns the fixpoint's address-taken set — the procedures an
/// indirect call can actually transfer to at runtime (an `LDFA` in
/// unreachable code never executes, so it never produces a callable
/// value). Every `CallInd`-resolving check uses this set; the blanket
/// all-procedures variant would resolve live indirect calls to dead
/// procedures and manufacture false escapes/clobbers.
fn machine_reachable(
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
) -> (Vec<bool>, Vec<usize>) {
    let all_taken = || {
        let mut t: Vec<usize> = procs
            .iter()
            .flat_map(|p| p.func.insts())
            .filter_map(|i| match i {
                Inst::Ldfa { func, .. } => by_name.get(func.as_str()).copied(),
                _ => None,
            })
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let Some(&mi) = by_name.get("main") else {
        return (vec![true; procs.len()], all_taken());
    };
    let mut reach = vec![false; procs.len()];
    reach[mi] = true;
    loop {
        let mut changed = false;
        let taken: Vec<usize> = {
            let mut t: Vec<usize> = procs
                .iter()
                .enumerate()
                .filter(|(i, _)| reach[*i])
                .flat_map(|(_, p)| p.func.insts())
                .filter_map(|i| match i {
                    Inst::Ldfa { func, .. } => by_name.get(func.as_str()).copied(),
                    _ => None,
                })
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        for i in 0..procs.len() {
            if !reach[i] {
                continue;
            }
            for inst in procs[i].func.insts() {
                for t in call_targets(inst, by_name, &taken) {
                    if !reach[t] {
                        reach[t] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return (reach, taken);
        }
    }
}

/// Does `p` redefine the dedicated register of promotion `q` by anything
/// other than the web entry's home load or a reload from its own frame?
/// Those are the only defs that cannot change the promoted value; any
/// other def means this web member really writes the global, so the
/// memory home can hold a stale value while the web runs.
fn modifies_register_copy(p: &Proc<'_>, q: &Promotion, sp: Reg) -> bool {
    p.func.insts().iter().any(|inst| {
        inst.def() == Some(q.reg)
            && match inst {
                Inst::Ldg { sym, .. } => *sym != q.sym,
                Inst::Ldw { base, .. } if *base == sp => false,
                _ => true,
            }
    })
}

/// The alias-soundness check: a forward, flow-sensitive pass tracking
/// which registers may hold the address of a global (seeded by `LGA`,
/// propagated through `COPY` and address arithmetic, killed by any other
/// definition and by the caller-saves half of every call). A `STW` whose
/// base may address a promoted global is flagged — the store would land
/// in the memory home while the current value lives in a register. A
/// `LDW` through such a pointer is flagged only when some web for the
/// global is *written* (a read-only web's memory home is always current,
/// which is exactly why the alias-precision configuration may promote
/// address-taken read-only globals at all).
///
/// The pass is intraprocedural by design — an address received as an
/// argument is not tracked — so it under-approximates; but everything it
/// flags is a real divergence between the register copy and memory.
fn check_indirect_stores(
    p: &Proc<'_>,
    cfg: &Cfg,
    promoted: &BTreeSet<String>,
    written: &BTreeSet<String>,
    desc: &TargetDesc,
    diags: &mut Vec<Diagnostic>,
) {
    use vpr::inst::AluOp;
    let insts = p.func.insts();
    let n = insts.len();
    type AddrState = Vec<BTreeSet<String>>; // indexed by register number
    let empty: AddrState = vec![BTreeSet::new(); Reg::COUNT];
    let transfer = |inst: &Inst, st: &mut AddrState| match inst {
        Inst::Lga { rd, sym, .. } => {
            st[rd.index()] = std::iter::once(sym.clone()).collect();
        }
        Inst::Copy { rd, rs } => {
            st[rd.index()] = st[rs.index()].clone();
        }
        // Address arithmetic (element indexing) still points into the
        // same global.
        Inst::Alu { op: AluOp::Add | AluOp::Sub, rd, rs1, rs2 } => {
            let mut s = st[rs1.index()].clone();
            s.extend(st[rs2.index()].iter().cloned());
            st[rd.index()] = s;
        }
        Inst::Alui { op: AluOp::Add | AluOp::Sub, rd, rs1, .. } => {
            st[rd.index()] = st[rs1.index()].clone();
        }
        Inst::Call { .. } | Inst::CallAbs { .. } | Inst::CallInd { .. } => {
            let mut killed = convention_clobber(desc);
            killed.insert(desc.rp);
            for r in killed.iter() {
                st[r.index()].clear();
            }
        }
        _ => {
            if let Some(rd) = inst.def() {
                st[rd.index()].clear();
            }
        }
    };
    let mut in_states: Vec<Option<AddrState>> = vec![None; n];
    in_states[0] = Some(empty.clone());
    let mut queued = vec![false; n];
    let mut work = std::collections::VecDeque::from([0usize]);
    queued[0] = true;
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        let mut st = in_states[i].clone().expect("queued node has a state");
        transfer(&insts[i], &mut st);
        for &s in cfg.succs(i) {
            let grew = match &mut in_states[s] {
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
                Some(cur) => {
                    let mut changed = false;
                    for (c, v) in cur.iter_mut().zip(&st) {
                        for sym in v {
                            changed |= c.insert(sym.clone());
                        }
                    }
                    changed
                }
            };
            if grew && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
    }
    for (idx, inst) in insts.iter().enumerate() {
        let Some(st) = &in_states[idx] else { continue };
        match inst {
            Inst::Stw { base, .. } if *base != desc.sp => {
                for sym in st[base.index()].intersection(promoted) {
                    diags.push(Diagnostic {
                        kind: DiagKind::IndirectStoreToPromoted,
                        module: p.module.to_string(),
                        proc: p.func.name().to_string(),
                        inst: Some(idx),
                        detail: format!(
                            "stores through a pointer that may address promoted global `{sym}` \
                             (the register copy would go stale)"
                        ),
                    });
                }
            }
            Inst::Ldw { base, .. } if *base != desc.sp => {
                for sym in st[base.index()].intersection(promoted) {
                    if written.contains(sym) {
                        diags.push(Diagnostic {
                            kind: DiagKind::ResidualGlobalAccess,
                            module: p.module.to_string(),
                            proc: p.func.name().to_string(),
                            inst: Some(idx),
                            detail: format!(
                                "loads promoted global `{sym}` through a pointer while its \
                                 written web may hold a newer register copy"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Least-fixpoint argument-register demand per procedure: which of the
/// target's argument registers a call to it may actually read (directly
/// or by passing them through to its own callees). Using this instead of
/// a blanket "all of them" keeps a stale argument register from looking
/// live across an earlier, unrelated call.
fn fix_arg_uses(
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    clobber: &[RegSet],
    desc: &TargetDesc,
) -> Vec<RegSet> {
    let all_args: RegSet = desc.args.iter().copied().collect();
    let mut arg_uses: Vec<RegSet> =
        procs.iter().map(|p| if p.cfg.is_some() { RegSet::EMPTY } else { all_args }).collect();
    loop {
        let prev = arg_uses.clone();
        for (i, p) in procs.iter().enumerate() {
            let Some(cfg) = &p.cfg else { continue };
            let insts = p.func.insts();
            let live = liveness::analyze(
                p.func,
                cfg,
                &|j| inst_arg_uses(&insts[j], by_name, taken, &prev, all_args),
                &|j| {
                    let mut d = inst_clobbers(&insts[j], by_name, taken, clobber, desc);
                    d.insert(desc.rp);
                    d
                },
                desc,
            );
            arg_uses[i] = prev[i] | (live.live_in[0] & all_args);
        }
        if arg_uses == prev {
            return arg_uses;
        }
    }
}

/// Verifies every procedure of `modules` against `db`; a procedure `db`
/// has no entry for is held to the standard convention of the modules'
/// target.
///
/// The modules must be the whole program (the same set that would be
/// linked): the interprocedural facts — clobber sets, web membership,
/// memory-access sets — are only meaningful over the closed program, and
/// a call to a procedure defined nowhere is itself reported as
/// [`DiagKind::MalformedCode`].
pub fn verify_modules(modules: &[ObjectModule], db: &ProgramDatabase) -> VerifyReport {
    // The machine description the checks run against is the one the
    // modules were compiled for. Modules carry their target; mixing
    // targets in one program is itself a malformed program.
    let target = modules.first().map(|m| m.target).unwrap_or_default();
    let desc = target.desc();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut procs: Vec<Proc<'_>> = Vec::new();
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    for m in modules {
        if m.target != target {
            diags.push(Diagnostic {
                kind: DiagKind::MalformedCode,
                module: m.name.clone(),
                proc: String::new(),
                inst: None,
                detail: format!(
                    "module compiled for target `{}` mixed into a `{}` program",
                    m.target, target
                ),
            });
        }
        for f in &m.functions {
            let idx = procs.len();
            match by_name.entry(f.name()) {
                Entry::Occupied(_) => diags.push(Diagnostic {
                    kind: DiagKind::MalformedCode,
                    module: m.name.clone(),
                    proc: f.name().to_string(),
                    inst: None,
                    detail: format!("duplicate definition of procedure `{}`", f.name()),
                }),
                Entry::Vacant(v) => {
                    v.insert(idx);
                }
            }
            let cfg = match Cfg::build(f) {
                Ok(c) => Some(c),
                Err(e) => {
                    let inst = match &e {
                        CfgError::UnboundLabel { inst, .. }
                        | CfgError::LabelOutOfRange { inst, .. }
                        | CfgError::FallsOffEnd { inst } => Some(*inst),
                        CfgError::Empty => None,
                    };
                    diags.push(Diagnostic {
                        kind: DiagKind::MalformedCode,
                        module: m.name.clone(),
                        proc: f.name().to_string(),
                        inst,
                        detail: e.to_string(),
                    });
                    None
                }
            };
            let dirs = db.lookup_for(f.name(), target);
            procs.push(Proc { module: &m.name, func: f, cfg, dirs });
        }
    }

    // Reachability from the entry, and the address-taken procedures whose
    // `LDFA` can actually execute: the possible targets of every CallInd.
    let (reach, taken) = machine_reachable(&procs, &by_name);

    let saved: Vec<RegSet> = procs.iter().map(|p| saved_regs(p.func, desc.sp)).collect();
    let clobber = fix_clobbers(&procs, &by_name, &taken, desc);
    let mem = fix_mem_access(&procs, &by_name, &taken, &|i| match i {
        Inst::Ldg { sym, .. } | Inst::Stg { sym, .. } | Inst::Lga { sym, .. } => Some(sym.clone()),
        _ => None,
    });
    let mem_write = fix_mem_access(&procs, &by_name, &taken, &|i| match i {
        Inst::Stg { sym, .. } => Some(sym.clone()),
        _ => None,
    });
    let arg_uses = fix_arg_uses(&procs, &by_name, &taken, &clobber, desc);
    let auth = fix_auth_dirty(&procs, &by_name, &taken, &saved, desc);

    // Alias-sensitive facts, restricted to code reachable from `main`:
    // which globals are promoted at all, and which of those belong to a
    // web that writes them (their memory home can go stale mid-web).
    // The database's `store_at_exit` bit is the analyzer's claim, but it
    // is computed over every web member including dead code; what makes a
    // home actually go stale is *machine-reachable* code redefining the
    // dedicated register after the entry's home load (direct writes
    // inside a web compile to register defs), so that is what we derive.
    let live_procs = || procs.iter().enumerate().filter(|(i, _)| reach[*i]).map(|(_, p)| p);
    let promoted: BTreeSet<String> =
        live_procs().flat_map(|p| p.dirs.promotions.iter().map(|q| q.sym.clone())).collect();
    let written_webs: BTreeSet<String> = live_procs()
        .flat_map(|p| {
            p.dirs
                .promotions
                .iter()
                .filter(|q| modifies_register_copy(p, q, desc.sp))
                .map(|q| q.sym.clone())
        })
        .collect();

    for (i, p) in procs.iter().enumerate() {
        check_proc(
            p,
            &procs,
            &by_name,
            &taken,
            &clobber,
            &mem,
            &mem_write,
            &written_webs,
            reach[i],
            &arg_uses,
            auth[i],
            desc,
            &mut diags,
        );
        if reach[i] {
            if let Some(cfg) = &p.cfg {
                check_indirect_stores(p, cfg, &promoted, &written_webs, desc, &mut diags);
            }
        }
    }

    // Web interiors reachable without a call edge the per-edge checks can
    // see. Only the program entry qualifies: indirect calls are covered at
    // their call sites, where `call_targets` resolves them to every
    // address-taken procedure — so an address-taken web member is legal as
    // long as all the CallInd sites that might reach it sit inside the web.
    if let Some(&mi) = by_name.get("main") {
        for q in &procs[mi].dirs.promotions {
            if !q.is_entry {
                diags.push(Diagnostic {
                    kind: DiagKind::WebEntryBypass,
                    module: procs[mi].module.to_string(),
                    proc: "main".to_string(),
                    inst: None,
                    detail: format!(
                        "program entry `main` is a web interior member for `{}` (startup bypasses the web entry)",
                        q.sym
                    ),
                });
            }
        }
    }
    diags.sort_by(|a, b| {
        (&a.module, &a.proc, a.inst, a.kind, &a.detail)
            .cmp(&(&b.module, &b.proc, b.inst, b.kind, &b.detail))
    });
    diags.dedup();
    VerifyReport {
        diagnostics: diags,
        procs: procs.len(),
        insts: procs.iter().map(|p| p.func.insts().len()).sum(),
    }
}

/// All checks for one procedure.
#[allow(clippy::too_many_arguments)] // internal plumbing; the public API is verify_modules
fn check_proc(
    p: &Proc<'_>,
    procs: &[Proc<'_>],
    by_name: &HashMap<&str, usize>,
    taken: &[usize],
    clobber: &[RegSet],
    mem: &[BTreeSet<String>],
    mem_write: &[BTreeSet<String>],
    written_webs: &BTreeSet<String>,
    reachable: bool,
    arg_uses: &[RegSet],
    auth: RegSet,
    desc: &TargetDesc,
    diags: &mut Vec<Diagnostic>,
) {
    let insts = p.func.insts();
    let mut report = |kind: DiagKind, inst: Option<usize>, detail: String| {
        diags.push(Diagnostic {
            kind,
            module: p.module.to_string(),
            proc: p.func.name().to_string(),
            inst,
            detail,
        });
    };

    // ---- Syntactic pass: reserved registers, unresolved symbols,
    //      promotion residuals, call-edge web checks.
    let saved = saved_regs(p.func, desc.sp);
    for (idx, inst) in insts.iter().enumerate() {
        match inst {
            Inst::CallAbs { .. } => report(
                DiagKind::MalformedCode,
                Some(idx),
                "resolved CallAbs in an unlinked object module".to_string(),
            ),
            Inst::Call { target } if !by_name.contains_key(target.as_str()) => report(
                DiagKind::MalformedCode,
                Some(idx),
                format!("call to undefined procedure `{target}`"),
            ),
            Inst::Ldfa { func, .. } if !by_name.contains_key(func.as_str()) => report(
                DiagKind::MalformedCode,
                Some(idx),
                format!("takes the address of undefined procedure `{func}`"),
            ),
            Inst::Bv { base } if *base != desc.rp => report(
                DiagKind::NonReturnIndirectJump,
                Some(idx),
                format!("indirect jump through {base} (returns must go through RP)"),
            ),
            Inst::Halt => report(
                DiagKind::MalformedCode,
                Some(idx),
                "HALT outside the startup stub".to_string(),
            ),
            _ => {}
        }
        if let Some(rd) = inst.def() {
            if rd == desc.zero {
                report(
                    DiagKind::ReservedRegWrite,
                    Some(idx),
                    "writes the hardwired zero register r0".to_string(),
                );
            } else if rd == desc.dp {
                report(
                    DiagKind::ReservedRegWrite,
                    Some(idx),
                    "writes the global data pointer DP".to_string(),
                );
            } else if rd == desc.sp
                && !matches!(
                    inst,
                    Inst::Alui {
                        op: vpr::inst::AluOp::Add | vpr::inst::AluOp::Sub,
                        rs1,
                        ..
                    } if *rs1 == desc.sp
                )
            {
                report(
                    DiagKind::ReservedRegWrite,
                    Some(idx),
                    "writes SP other than by immediate frame adjustment".to_string(),
                );
            } else if rd == desc.rp && !matches!(inst, Inst::Ldw { .. }) {
                report(
                    DiagKind::ReservedRegWrite,
                    Some(idx),
                    "writes RP other than by a frame restore".to_string(),
                );
            } else if desc.reserved.contains(rd) {
                report(
                    DiagKind::ReservedRegWrite,
                    Some(idx),
                    format!("writes reserved register {} ({rd})", desc.reg_name(rd)),
                );
            }
        }
        // Promotion residuals: inside a web, the global must never be
        // touched through memory except by the entry's load/store-back.
        match inst {
            Inst::Ldg { rd, sym, .. } => {
                if let Some(pr) = p.dirs.promotions.iter().find(|q| q.sym == *sym) {
                    if !(pr.is_entry && *rd == pr.reg) {
                        report(
                            DiagKind::ResidualGlobalAccess,
                            Some(idx),
                            format!(
                                "loads promoted global `{sym}` from memory (home register {})",
                                pr.reg
                            ),
                        );
                    }
                }
            }
            Inst::Stg { rs, sym, .. } => {
                if let Some(pr) = p.dirs.promotions.iter().find(|q| q.sym == *sym) {
                    if !(pr.is_entry && pr.store_at_exit && *rs == pr.reg) {
                        report(
                            DiagKind::ResidualGlobalAccess,
                            Some(idx),
                            format!(
                                "stores promoted global `{sym}` to memory (home register {})",
                                pr.reg
                            ),
                        );
                    }
                }
            }
            // Taking the address of a promoted global is legal exactly
            // when every web for it is read-only: the memory home then
            // always matches the register copy, which is what lets the
            // alias-precision configuration promote read-only aliased
            // globals. A written web's home goes stale mid-web, so there
            // the address must never materialize — in *reachable* code;
            // the alias analysis legitimately ignores address-takes in
            // procedures no path from `main` can execute.
            Inst::Lga { sym, .. }
                if reachable
                    && p.dirs.promotions.iter().any(|q| q.sym == *sym)
                    && written_webs.contains(sym) =>
            {
                report(
                    DiagKind::ResidualGlobalAccess,
                    Some(idx),
                    format!("takes the address of promoted (written) global `{sym}`"),
                );
            }
            _ => {}
        }
        // Call-edge web checks.
        if inst.is_call() {
            for t in call_targets(inst, by_name, taken) {
                let callee = &procs[t];
                let cname = callee.func.name();
                for pr in &p.dirs.promotions {
                    match callee.dirs.promotions.iter().find(|q| q.sym == pr.sym) {
                        Some(q) if q.is_entry => report(
                            DiagKind::WebEntryBypass,
                            Some(idx),
                            format!(
                                "web member calls entry `{cname}` of the web for `{}` (re-entry would reload a stale memory home)",
                                pr.sym
                            ),
                        ),
                        Some(q) if q.reg != pr.reg => report(
                            DiagKind::InconsistentWebReg,
                            Some(idx),
                            format!(
                                "web for `{}` is in {} here but in {} in callee `{cname}`",
                                pr.sym, pr.reg, q.reg
                            ),
                        ),
                        Some(_) => {}
                        None => {
                            if clobber[t].contains(pr.reg) {
                                report(
                                    DiagKind::PromotionClobber,
                                    Some(idx),
                                    format!(
                                        "callee `{cname}` may clobber {}, the home register of promoted global `{}`",
                                        pr.reg, pr.sym
                                    ),
                                );
                            }
                            // A read-only web's memory home is always
                            // current, so a callee merely *reading* it is
                            // harmless; only writes diverge it. A written
                            // web's home is stale, so any access escapes.
                            // Only machine-reachable call sites count: a
                            // dead web member's calls never execute, and
                            // the alias analysis legitimately promotes
                            // past whatever they would have reached.
                            let escapes = if written_webs.contains(&pr.sym) {
                                mem[t].contains(&pr.sym)
                            } else {
                                mem_write[t].contains(&pr.sym)
                            };
                            if escapes && reachable {
                                report(
                                    DiagKind::WebEscape,
                                    Some(idx),
                                    format!(
                                        "callee `{cname}` (transitively) accesses the memory home of promoted global `{}`",
                                        pr.sym
                                    ),
                                );
                            }
                        }
                    }
                }
                for q in &callee.dirs.promotions {
                    if !q.is_entry && p.dirs.promotions.iter().all(|pr| pr.sym != q.sym) {
                        report(
                            DiagKind::WebEntryBypass,
                            Some(idx),
                            format!(
                                "call into web interior `{cname}` bypasses the web entry for `{}`",
                                q.sym
                            ),
                        );
                    }
                }
            }
        }
    }

    // Everything below needs a CFG.
    let Some(cfg) = &p.cfg else { return };

    // ---- Forward symbolic pass: frame bounds, stack balance, and the
    //      callee-saves discipline at every return.
    let flow = engine::analyze(
        p.func,
        cfg,
        &|j| inst_clobbers(&insts[j], by_name, taken, clobber, desc),
        desc,
    );
    for &j in &flow.sp_mismatch {
        report(
            DiagKind::SpUnbalanced,
            Some(j),
            "paths reach this join with different stack depths".to_string(),
        );
    }
    for (idx, inst) in insts.iter().enumerate() {
        let Some(st) = &flow.in_states[idx] else { continue };
        match inst {
            Inst::Ldw { base, disp, .. }
                if *base == desc.sp && (*disp < 0 || st.sp + disp >= 0) =>
            {
                report(
                    DiagKind::FrameOutOfBounds,
                    Some(idx),
                    format!("load at SP{disp:+} falls outside the frame (SP is at {})", st.sp),
                );
            }
            // Negative displacements are the outgoing-argument area; at or
            // above the entry SP is the caller's frame.
            Inst::Stw { base, disp, .. } if *base == desc.sp && st.sp + disp >= 0 => {
                report(
                    DiagKind::FrameOutOfBounds,
                    Some(idx),
                    format!("store at SP{disp:+} tramples the caller's frame (SP is at {})", st.sp),
                );
            }
            Inst::Bv { base } if *base == desc.rp => {
                check_return(p, st, saved, auth, desc, idx, &mut report);
            }
            _ => {}
        }
    }

    // ---- Backward liveness pass: caller-saves values across calls.
    // Only for machine-reachable procedures: the whole-program facts the
    // pass leans on (indirect-call demand and clobber resolution over the
    // reachable-taken set) describe executions, and a dead procedure has
    // none — its null-function-pointer call sites would otherwise inherit
    // phantom argument demands from targets they can never reach.
    if !reachable {
        return;
    }
    let all_args: RegSet = desc.args.iter().copied().collect();
    let live = liveness::analyze(
        p.func,
        cfg,
        &|j| inst_arg_uses(&insts[j], by_name, taken, arg_uses, all_args),
        &|j| {
            let mut d = inst_clobbers(&insts[j], by_name, taken, clobber, desc);
            d.insert(desc.rp);
            d
        },
        desc,
    );
    for (idx, inst) in insts.iter().enumerate() {
        if !inst.is_call() || flow.in_states[idx].is_none() {
            continue;
        }
        let mut exposed = live.live_out[idx]
            & inst_clobbers(inst, by_name, taken, clobber, desc)
            & desc.caller_saves;
        // RV is how a call returns its result; a use after the call reads
        // the callee's value by design.
        exposed.remove(desc.rv);
        let callee = match inst {
            Inst::Call { target } => format!("`{target}`"),
            _ => "indirect callee".to_string(),
        };
        for r in exposed.iter() {
            report(
                DiagKind::CallerSavesLiveAcrossCall,
                Some(idx),
                format!("{r} is live across the call to {callee}, which may clobber it"),
            );
        }
    }
}

/// The callee-saves discipline at one `Bv RP` return, given the symbolic
/// state flowing into it.
fn check_return(
    p: &Proc<'_>,
    st: &State,
    saved: RegSet,
    auth: RegSet,
    desc: &TargetDesc,
    idx: usize,
    report: &mut impl FnMut(DiagKind, Option<usize>, String),
) {
    if st.sp != 0 {
        report(
            DiagKind::SpUnbalanced,
            Some(idx),
            format!("returns with the stack displaced by {} word(s)", st.sp),
        );
    }
    if !st.holds_entry(desc.rp) {
        report(
            DiagKind::ReturnAddressClobbered,
            Some(idx),
            "returns without RP holding the caller's return address".to_string(),
        );
    }
    for r in desc.callee_saves.iter() {
        if st.holds_entry(r) {
            continue;
        }
        // A web interior member deliberately carries the (possibly
        // updated) promoted global out in its home register.
        if p.dirs.promotions.iter().any(|q| !q.is_entry && q.reg == r) {
            continue;
        }
        // A cluster root owes its members the MSPILL save/restore; if one
        // of those registers is dirty here, the cluster boundary is broken.
        if p.dirs.is_cluster_root && p.dirs.usage.mspill.contains(r) {
            report(
                DiagKind::MissingClusterSave,
                Some(idx),
                format!(
                    "{r} is in this cluster root's MSPILL set but does not hold its entry value at return"
                ),
            );
            continue;
        }
        // FREE registers — this procedure's own or a callee's, propagated
        // by `fix_auth_dirty`: the save obligation lives at a cluster root
        // above, which the root's own MSPILL check holds to account.
        if auth.contains(r) {
            continue;
        }
        if saved.contains(r) {
            report(
                DiagKind::MissingRestore,
                Some(idx),
                format!("{r} was saved to the frame but does not hold its entry value at return"),
            );
        } else {
            report(
                DiagKind::CalleeSavesClobber,
                Some(idx),
                format!("callee-saves {r} is clobbered and never saved"),
            );
        }
    }
}
