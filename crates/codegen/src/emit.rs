//! Machine-code emission (compiler second phase, paper §5).
//!
//! Walks the allocated IR and produces a [`MachineFunction`] under the VPR
//! linkage convention, implementing every directive from the program
//! database:
//!
//! * references to a promoted global become register moves against its
//!   dedicated register (no memory traffic, no base-register setup);
//! * web entry procedures save the dedicated register, load the global at
//!   entry, store it back at exit (unless the web never writes it) and
//!   restore the register;
//! * used `CALLEE` registers are saved/restored; at cluster roots the whole
//!   `MSPILL` set is saved/restored whether used or not;
//! * `FREE` registers are used without any spill code.
//!
//! Frame layout (words, stack grows down, `SP` = lowest address of the
//! frame):
//!
//! ```text
//! SP + frame_size - 1 - k   incoming stack argument k (parameter 4 + k)
//! ...                       saved registers (RP, CALLEE-used, MSPILL, web)
//! SP + 0 .. spill_slots     spill slots
//! ```
//!
//! Callers store outgoing stack arguments *below* their own `SP` — exactly
//! where the callee's frame will place its incoming area.

use crate::alloc::{allocate_for, scratch_regs_for, validate_for, Allocation, CallerPrealloc, Loc};
use crate::promote::rewrite_promotions;
use cmin_ir::cfg::Cfg;
use cmin_ir::ir::{self, BlockId, Callee, Function, IrModule, Operand, Temp};
use cmin_ir::liveness::Liveness;
use ipra_core::{ProcDirectives, ProgramDatabase};
use std::collections::HashMap;
use vpr::inst::{AluOp, Cond, Inst, Label, MemClass};
use vpr::program::{GlobalDef, MachineFunction, ObjectModule};
use vpr::regs::{Reg, RegSet};
use vpr::target::{TargetDesc, TargetId};

/// Compiles one optimized IR module into an object module, consulting the
/// program database for each procedure's directives (falling back to the
/// standard convention for procedures the analyzer never saw). VPR target;
/// see [`compile_module_for`].
pub fn compile_module(ir: &IrModule, db: &ProgramDatabase) -> ObjectModule {
    compile_module_for(ir, db, TargetId::Vpr)
}

/// [`compile_module`] for an explicit target: the linkage roles, argument
/// registers and claim pool all come from `target`'s machine description,
/// and the object module is tagged so the linker can reject mixed-target
/// links.
pub fn compile_module_for(ir: &IrModule, db: &ProgramDatabase, target: TargetId) -> ObjectModule {
    let desc = target.desc();
    let safe_lookup = |name: &str| -> vpr::regs::RegSet {
        db.get(name).map(|d| d.safe_caller_across).unwrap_or_default()
    };
    // The functions refill one CFG's and one liveness's buffers.
    let (mut cfg, mut liveness) = (Cfg::default(), Liveness::default());
    let functions = ir
        .functions
        .iter()
        .map(|f| {
            let directives = db.lookup_for(&f.name, target);
            compile_function_in(f, &directives, &safe_lookup, desc, &mut cfg, &mut liveness)
        })
        .collect();
    let globals = ir
        .globals
        .iter()
        .map(|g| GlobalDef { sym: g.sym.clone(), size: g.size as usize, init: g.init.clone() })
        .collect();
    ObjectModule { name: ir.name.clone(), functions, globals, target }
}

/// Compiles a single function under `directives` (no cross-procedure safe
/// sets: calls conservatively clobber every caller-saves register).
pub fn compile_function(f: &Function, directives: &ProcDirectives) -> MachineFunction {
    compile_function_with(f, directives, &|_| vpr::regs::RegSet::new())
}

/// Compiles a single function under `directives`, consulting `safe_lookup`
/// for the §7.6.2 per-callee safe caller-saves sets. VPR convention.
pub fn compile_function_with(
    f: &Function,
    directives: &ProcDirectives,
    safe_lookup: &dyn Fn(&str) -> vpr::regs::RegSet,
) -> MachineFunction {
    compile_function_for(f, directives, safe_lookup, &vpr::target::VPR)
}

/// [`compile_function_with`] against an explicit machine description.
pub fn compile_function_for(
    f: &Function,
    directives: &ProcDirectives,
    safe_lookup: &dyn Fn(&str) -> vpr::regs::RegSet,
    desc: &TargetDesc,
) -> MachineFunction {
    let (mut cfg, mut liveness) = (Cfg::default(), Liveness::default());
    compile_function_in(f, directives, safe_lookup, desc, &mut cfg, &mut liveness)
}

/// [`compile_function_for`], refilling `cfg` and `liveness`, whose
/// buffers the caller reuses from function to function.
fn compile_function_in(
    f: &Function,
    directives: &ProcDirectives,
    safe_lookup: &dyn Fn(&str) -> vpr::regs::RegSet,
    desc: &TargetDesc,
    cfg: &mut Cfg,
    liveness: &mut Liveness,
) -> MachineFunction {
    // Rewrite promoted-global accesses against pinned temps (in a copy of
    // `f`, made only when there are promotions); their registers are off
    // limits to the allocator for anything else. The rewrite keeps the
    // block structure, so one CFG serves both steps.
    cfg.recompute(f);
    let mut rewritten;
    let (f, pins) = if directives.promotions.is_empty() {
        (f, HashMap::new())
    } else {
        rewritten = f.clone();
        let promo: Vec<(String, vpr::regs::Reg)> =
            directives.promotions.iter().map(|p| (p.sym.clone(), p.reg)).collect();
        let pins = rewrite_promotions(&mut rewritten, cfg, &promo);
        (&rewritten, pins)
    };
    let mut forbidden = RegSet::new();
    for p in &directives.promotions {
        forbidden.insert(p.reg);
    }
    let prealloc = CallerPrealloc { claimed: directives.claimed_caller, safe_lookup };
    liveness.recompute(f, cfg);
    let alloc =
        allocate_for(f, cfg, liveness, &directives.usage, forbidden, &pins, &prealloc, desc);
    debug_assert!(
        validate_for(f, &directives.usage, forbidden, &pins, &alloc, &prealloc, desc).is_ok(),
        "allocator produced an invalid assignment for {}",
        f.name
    );
    Emitter::new(f, directives, alloc, desc).run()
}

struct Emitter<'a> {
    f: &'a Function,
    directives: &'a ProcDirectives,
    alloc: Allocation,
    desc: &'a TargetDesc,
    out: MachineFunction,
    block_labels: Vec<Label>,
    epilogue: Label,
    /// Registers to save in the prologue, in order, with their slot index.
    saves: Vec<(Reg, i64)>,
    frame_size: i64,
    spill_base: i64,
    rp_slot: Option<i64>,
    /// Return-value staging register.
    s1: Reg,
    s2: Reg,
}

impl<'a> Emitter<'a> {
    fn new(
        f: &'a Function,
        directives: &'a ProcDirectives,
        alloc: Allocation,
        desc: &'a TargetDesc,
    ) -> Emitter<'a> {
        let (s1, s2) = scratch_regs_for(desc);
        let mut out = MachineFunction::new(f.name.clone());
        let block_labels: Vec<Label> = f.blocks.iter().map(|_| out.new_label()).collect();
        let epilogue = out.new_label();

        let has_calls =
            f.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(i, ir::Inst::Call { .. })));

        // Frame layout.
        let spill_base = 0i64;
        let mut next = alloc.spill_slots as i64;
        let mut rp_slot = None;
        if has_calls {
            rp_slot = Some(next);
            next += 1;
        }
        let mut saves: Vec<(Reg, i64)> = Vec::new();
        // Used CALLEE registers.
        for r in alloc.used_callee.iter() {
            saves.push((r, next));
            next += 1;
        }
        // MSPILL at cluster roots: saved whether used or not.
        if directives.is_cluster_root {
            for r in directives.usage.mspill.iter() {
                if !saves.iter().any(|(x, _)| *x == r) {
                    saves.push((r, next));
                    next += 1;
                }
            }
        }
        // Web entry nodes save/restore the dedicated register around the
        // global's residence in it.
        for p in &directives.promotions {
            if p.is_entry && !saves.iter().any(|(x, _)| *x == p.reg) {
                saves.push((p.reg, next));
                next += 1;
            }
        }
        // Incoming stack arguments occupy the top of the frame.
        let extra_in = f.params.len().saturating_sub(desc.args.len()) as i64;
        let frame_size = next + extra_in;

        Emitter {
            f,
            directives,
            alloc,
            desc,
            out,
            block_labels,
            epilogue,
            saves,
            frame_size,
            spill_base,
            rp_slot,
            s1,
            s2,
        }
    }

    fn push(&mut self, inst: Inst) {
        self.out.push(inst);
    }

    fn slot_disp(&self, slot: u32) -> i64 {
        self.spill_base + slot as i64
    }

    /// The register currently assigned to `t`; spilled temps are loaded
    /// into `scratch`.
    fn read_temp(&mut self, t: Temp, scratch: Reg) -> Reg {
        match self.alloc.loc(t) {
            Some(Loc::Reg(r)) => r,
            Some(Loc::Slot(s)) => {
                let disp = self.slot_disp(s);
                let sp = self.desc.sp;
                self.push(Inst::Ldw { rd: scratch, base: sp, disp, class: MemClass::Spill });
                scratch
            }
            None => self.desc.zero, // dead temp: any value will do
        }
    }

    /// Materializes `o` into a register (using `scratch` if needed).
    fn read_operand(&mut self, o: Operand, scratch: Reg) -> Reg {
        match o {
            Operand::Temp(t) => self.read_temp(t, scratch),
            Operand::Const(0) => self.desc.zero,
            Operand::Const(c) => {
                self.push(Inst::Ldi { rd: scratch, imm: c });
                scratch
            }
        }
    }

    /// The register a def should be computed into, plus whether a spill
    /// store must follow.
    fn def_target(&mut self, t: Temp) -> (Reg, Option<i64>) {
        match self.alloc.loc(t) {
            Some(Loc::Reg(r)) => (r, None),
            Some(Loc::Slot(s)) => (self.s1, Some(self.slot_disp(s))),
            None => (self.s1, None), // dead def
        }
    }

    fn finish_def(&mut self, spill: Option<i64>) {
        if let Some(disp) = spill {
            let sp = self.desc.sp;
            self.push(Inst::Stw { rs: self.s1, base: sp, disp, class: MemClass::Spill });
        }
    }

    /// The register holding promoted global `sym`, if it is promoted here.
    fn promoted_reg(&self, sym: &str) -> Option<Reg> {
        self.directives.promotions.iter().find(|p| p.sym == sym).map(|p| p.reg)
    }

    fn run(mut self) -> MachineFunction {
        self.prologue();
        for b in self.f.block_ids() {
            self.out.bind_label(self.block_labels[b.index()]);
            for i in 0..self.f.block(b).insts.len() {
                let inst = self.f.block(b).insts[i].clone();
                self.inst(&inst);
            }
            let term = self.f.block(b).term.clone();
            self.terminator(&term, b);
        }
        self.out.bind_label(self.epilogue);
        self.epilogue_code();
        self.peephole();
        self.out
    }

    fn prologue(&mut self) {
        let sp = self.desc.sp;
        let rp = self.desc.rp;
        if self.frame_size > 0 {
            self.push(Inst::Alui { op: AluOp::Sub, rd: sp, rs1: sp, imm: self.frame_size });
        }
        if let Some(slot) = self.rp_slot {
            self.push(Inst::Stw { rs: rp, base: sp, disp: slot, class: MemClass::Frame });
        }
        for (r, slot) in self.saves.clone() {
            self.push(Inst::Stw { rs: r, base: sp, disp: slot, class: MemClass::Spill });
        }
        // Web entry: load the promoted globals into their registers.
        for p in self.directives.promotions.clone() {
            if p.is_entry {
                self.push(Inst::Ldg {
                    rd: p.reg,
                    sym: p.sym.clone(),
                    offset: 0,
                    class: MemClass::ScalarGlobal,
                });
            }
        }
        // Move parameters from the argument registers / incoming slots to
        // their allocated homes.
        let argc = self.desc.args.len();
        for (i, &p) in self.f.params.iter().enumerate().collect::<Vec<_>>() {
            let src: Reg = if i < argc {
                self.desc.args[i]
            } else {
                let k = (i - argc) as i64;
                let disp = self.frame_size - 1 - k;
                self.push(Inst::Ldw { rd: self.s1, base: sp, disp, class: MemClass::Frame });
                self.s1
            };
            match self.alloc.loc(p) {
                Some(Loc::Reg(r)) => self.push(Inst::Copy { rd: r, rs: src }),
                Some(Loc::Slot(s)) => {
                    let disp = self.slot_disp(s);
                    self.push(Inst::Stw { rs: src, base: sp, disp, class: MemClass::Spill });
                }
                None => {}
            }
        }
    }

    fn epilogue_code(&mut self) {
        // Web entry: store promoted globals back (suppressed for read-only
        // webs), then restore the saved registers.
        for p in self.directives.promotions.clone() {
            if p.is_entry && p.store_at_exit {
                self.push(Inst::Stg {
                    rs: p.reg,
                    sym: p.sym.clone(),
                    offset: 0,
                    class: MemClass::ScalarGlobal,
                });
            }
        }
        let sp = self.desc.sp;
        let rp = self.desc.rp;
        for (r, slot) in self.saves.clone().into_iter().rev() {
            self.push(Inst::Ldw { rd: r, base: sp, disp: slot, class: MemClass::Spill });
        }
        if let Some(slot) = self.rp_slot {
            self.push(Inst::Ldw { rd: rp, base: sp, disp: slot, class: MemClass::Frame });
        }
        if self.frame_size > 0 {
            self.push(Inst::Alui { op: AluOp::Add, rd: sp, rs1: sp, imm: self.frame_size });
        }
        self.push(Inst::Bv { base: rp });
    }

    fn inst(&mut self, inst: &ir::Inst) {
        match inst {
            ir::Inst::Copy { dst, src } => {
                let (rd, spill) = self.def_target(*dst);
                match src {
                    Operand::Const(c) => self.push(Inst::Ldi { rd, imm: *c }),
                    Operand::Temp(t) => {
                        let rs = self.read_temp(*t, rd);
                        if rs != rd {
                            self.push(Inst::Copy { rd, rs });
                        }
                    }
                }
                self.finish_def(spill);
            }
            ir::Inst::Un { op, dst, src } => {
                let rs = self.read_operand(*src, self.s2);
                let (rd, spill) = self.def_target(*dst);
                let zero = self.desc.zero;
                match op {
                    ir::UnOp::Neg => {
                        self.push(Inst::Alu { op: AluOp::Sub, rd, rs1: zero, rs2: rs })
                    }
                    ir::UnOp::Not => {
                        self.push(Inst::Cmp { cond: Cond::Eq, rd, rs1: rs, rs2: zero })
                    }
                }
                self.finish_def(spill);
            }
            ir::Inst::Bin { op, dst, lhs, rhs } => self.bin(*op, *dst, *lhs, *rhs),
            ir::Inst::LoadGlobal { dst, sym } => {
                let (rd, spill) = self.def_target(*dst);
                match self.promoted_reg(sym) {
                    Some(wr) => self.push(Inst::Copy { rd, rs: wr }),
                    None => self.push(Inst::Ldg {
                        rd,
                        sym: sym.clone(),
                        offset: 0,
                        class: MemClass::ScalarGlobal,
                    }),
                }
                self.finish_def(spill);
            }
            ir::Inst::StoreGlobal { sym, src } => match self.promoted_reg(sym) {
                Some(wr) => {
                    let rs = self.read_operand(*src, self.s1);
                    if rs != wr {
                        self.push(Inst::Copy { rd: wr, rs });
                    }
                }
                None => {
                    let rs = self.read_operand(*src, self.s1);
                    self.push(Inst::Stg {
                        rs,
                        sym: sym.clone(),
                        offset: 0,
                        class: MemClass::ScalarGlobal,
                    });
                }
            },
            ir::Inst::LoadElem { dst, sym, index } => match index {
                Operand::Const(c) => {
                    let (rd, spill) = self.def_target(*dst);
                    self.push(Inst::Ldg {
                        rd,
                        sym: sym.clone(),
                        offset: *c,
                        class: MemClass::Aggregate,
                    });
                    self.finish_def(spill);
                }
                Operand::Temp(t) => {
                    let idx = self.read_temp(*t, self.s2);
                    self.push(Inst::Lga { rd: self.s1, sym: sym.clone(), offset: 0 });
                    self.push(Inst::Alu { op: AluOp::Add, rd: self.s1, rs1: self.s1, rs2: idx });
                    let (rd, spill) = self.def_target(*dst);
                    self.push(Inst::Ldw { rd, base: self.s1, disp: 0, class: MemClass::Aggregate });
                    self.finish_def(spill);
                }
            },
            ir::Inst::StoreElem { sym, index, src } => match index {
                Operand::Const(c) => {
                    let rs = self.read_operand(*src, self.s2);
                    self.push(Inst::Stg {
                        rs,
                        sym: sym.clone(),
                        offset: *c,
                        class: MemClass::Aggregate,
                    });
                }
                Operand::Temp(t) => {
                    let idx = self.read_temp(*t, self.s2);
                    self.push(Inst::Lga { rd: self.s1, sym: sym.clone(), offset: 0 });
                    self.push(Inst::Alu { op: AluOp::Add, rd: self.s1, rs1: self.s1, rs2: idx });
                    let rs = self.read_operand(*src, self.s2);
                    self.push(Inst::Stw { rs, base: self.s1, disp: 0, class: MemClass::Aggregate });
                }
            },
            ir::Inst::LoadInd { dst, addr } => {
                let base = self.read_operand(*addr, self.s1);
                let (rd, spill) = self.def_target(*dst);
                self.push(Inst::Ldw { rd, base, disp: 0, class: MemClass::Indirect });
                self.finish_def(spill);
            }
            ir::Inst::StoreInd { addr, src } => {
                let base = self.read_operand(*addr, self.s1);
                let rs = self.read_operand(*src, self.s2);
                self.push(Inst::Stw { rs, base, disp: 0, class: MemClass::Indirect });
            }
            ir::Inst::AddrGlobal { dst, sym } => {
                let (rd, spill) = self.def_target(*dst);
                self.push(Inst::Lga { rd, sym: sym.clone(), offset: 0 });
                self.finish_def(spill);
            }
            ir::Inst::AddrFunc { dst, func } => {
                let (rd, spill) = self.def_target(*dst);
                self.push(Inst::Ldfa { rd, func: func.clone() });
                self.finish_def(spill);
            }
            ir::Inst::Call { dst, callee, args } => self.call(dst, callee, args),
            ir::Inst::In { dst } => {
                let (rd, spill) = self.def_target(*dst);
                self.push(Inst::In { rd });
                self.finish_def(spill);
            }
            ir::Inst::Out { src } => {
                let rs = self.read_operand(*src, self.s1);
                self.push(Inst::Out { rs });
            }
        }
    }

    fn bin(&mut self, op: ir::BinOp, dst: Temp, lhs: Operand, rhs: Operand) {
        use ir::BinOp as B;
        let alu = |op: B| match op {
            B::Add => Some(AluOp::Add),
            B::Sub => Some(AluOp::Sub),
            B::Mul => Some(AluOp::Mul),
            B::Div => Some(AluOp::Div),
            B::Rem => Some(AluOp::Rem),
            _ => None,
        };
        let cond = |op: B| match op {
            B::Eq => Some(Cond::Eq),
            B::Ne => Some(Cond::Ne),
            B::Lt => Some(Cond::Lt),
            B::Le => Some(Cond::Le),
            B::Gt => Some(Cond::Gt),
            B::Ge => Some(Cond::Ge),
            _ => None,
        };
        if let Some(a) = alu(op) {
            // Immediate form for constant right operands.
            if let Operand::Const(c) = rhs {
                let rs1 = self.read_operand(lhs, self.s1);
                let (rd, spill) = self.def_target(dst);
                self.push(Inst::Alui { op: a, rd, rs1, imm: c });
                self.finish_def(spill);
                return;
            }
            let rs1 = self.read_operand(lhs, self.s1);
            let rs2 = self.read_operand(rhs, self.s2);
            let (rd, spill) = self.def_target(dst);
            self.push(Inst::Alu { op: a, rd, rs1, rs2 });
            self.finish_def(spill);
        } else {
            let c = cond(op).expect("comparison");
            let rs1 = self.read_operand(lhs, self.s1);
            let rs2 = self.read_operand(rhs, self.s2);
            let (rd, spill) = self.def_target(dst);
            self.push(Inst::Cmp { cond: c, rd, rs1, rs2 });
            self.finish_def(spill);
        }
    }

    fn call(&mut self, dst: &Option<Temp>, callee: &Callee, args: &[Operand]) {
        // Arguments: the leading ones in the convention's argument
        // registers, the rest below SP (the callee's incoming area).
        let argc = self.desc.args.len();
        let sp = self.desc.sp;
        let zero = self.desc.zero;
        for (i, a) in args.iter().enumerate() {
            if i < argc {
                let target = self.desc.args[i];
                match a {
                    Operand::Const(c) => self.push(Inst::Ldi { rd: target, imm: *c }),
                    Operand::Temp(t) => match self.alloc.loc(*t) {
                        Some(Loc::Reg(r)) => self.push(Inst::Copy { rd: target, rs: r }),
                        Some(Loc::Slot(s)) => {
                            let disp = self.slot_disp(s);
                            self.push(Inst::Ldw {
                                rd: target,
                                base: sp,
                                disp,
                                class: MemClass::Spill,
                            });
                        }
                        None => self.push(Inst::Copy { rd: target, rs: zero }),
                    },
                }
            } else {
                let rs = self.read_operand(*a, self.s1);
                let disp = -1 - (i as i64 - argc as i64);
                self.push(Inst::Stw { rs, base: sp, disp, class: MemClass::Frame });
            }
        }
        match callee {
            Callee::Direct(name) => self.push(Inst::Call { target: name.clone() }),
            Callee::Indirect(o) => {
                let base = self.read_operand(*o, self.s1);
                self.push(Inst::CallInd { base });
            }
        }
        if let Some(d) = dst {
            let rv = self.desc.rv;
            let (rd, spill) = self.def_target(*d);
            if rd != rv {
                self.push(Inst::Copy { rd, rs: rv });
            }
            self.finish_def(spill);
        }
    }

    fn terminator(&mut self, term: &ir::Term, current: BlockId) {
        match term {
            ir::Term::Jump(b) => {
                // Fall through when the target is the next block.
                if b.index() != current.index() + 1 {
                    self.push(Inst::B { target: self.block_labels[b.index()] });
                }
            }
            ir::Term::Branch { cond, lhs, rhs, then_b, else_b } => {
                let c = match cond {
                    ir::BinOp::Eq => Cond::Eq,
                    ir::BinOp::Ne => Cond::Ne,
                    ir::BinOp::Lt => Cond::Lt,
                    ir::BinOp::Le => Cond::Le,
                    ir::BinOp::Gt => Cond::Gt,
                    ir::BinOp::Ge => Cond::Ge,
                    other => unreachable!("non-comparison branch condition {other}"),
                };
                let rs1 = self.read_operand(*lhs, self.s1);
                let rs2 = self.read_operand(*rhs, self.s2);
                if else_b.index() == current.index() + 1 {
                    // Branch to then, fall through to else.
                    self.push(Inst::Comb {
                        cond: c,
                        rs1,
                        rs2,
                        target: self.block_labels[then_b.index()],
                    });
                } else if then_b.index() == current.index() + 1 {
                    self.push(Inst::Comb {
                        cond: c.negate(),
                        rs1,
                        rs2,
                        target: self.block_labels[else_b.index()],
                    });
                } else {
                    self.push(Inst::Comb {
                        cond: c,
                        rs1,
                        rs2,
                        target: self.block_labels[then_b.index()],
                    });
                    self.push(Inst::B { target: self.block_labels[else_b.index()] });
                }
            }
            ir::Term::Ret(v) => {
                let rv = self.desc.rv;
                match v {
                    Some(o) => {
                        let r = self.read_operand(*o, rv);
                        if r != rv {
                            self.push(Inst::Copy { rd: rv, rs: r });
                        }
                    }
                    None => self.push(Inst::Ldi { rd: rv, imm: 0 }),
                }
                // Jump to the single epilogue unless it is next.
                if current.index() + 1 != self.f.blocks.len() {
                    self.push(Inst::B { target: self.epilogue });
                } else {
                    // Even for the last block, the epilogue label binds
                    // right after — fall through.
                }
            }
        }
    }

    /// Tiny cleanup: drop self-copies produced by fortunate allocations.
    fn peephole(&mut self) {
        for inst in self.out.insts_mut().iter_mut() {
            if let Inst::Copy { rd, rs } = inst {
                if rd == rs {
                    *inst = Inst::Nop;
                }
            }
        }
        self.out.remove_nops();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmin_frontend::{analyze as sema, parse_module};
    use cmin_ir::{lower_module, optimize_module};
    use ipra_core::{ProcDirectives, Promotion};
    use vpr::program::link;
    use vpr::sim::{run_with, SimOptions};

    fn compile_run(src: &str) -> vpr::sim::RunResult {
        compile_run_with(src, &ProgramDatabase::new(), &[])
    }

    fn compile_run_with(src: &str, db: &ProgramDatabase, input: &[i64]) -> vpr::sim::RunResult {
        let m = parse_module("m", src).unwrap();
        let info = sema(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        let obj = compile_module(&ir, db);
        let exe = link(&[obj]).unwrap();
        let opts = SimOptions { input: input.to_vec(), ..SimOptions::default() };
        run_with(&exe, &opts).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = compile_run(
            "int main() {
                int s = 0;
                for (int i = 1; i <= 10; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; }
                }
                out(s);
                return s;
            }",
        );
        assert_eq!(r.output, vec![30]);
        assert_eq!(r.exit, 30);
    }

    #[test]
    fn calls_and_recursion() {
        let r = compile_run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             int main() { return fib(15); }",
        );
        assert_eq!(r.exit, 610);
    }

    #[test]
    fn many_arguments_spill_to_stack() {
        let r = compile_run(
            "int sum7(int a, int b, int c, int d, int e, int f, int g) {
                 return a + b * 10 + c * 100 + d * 1000 + e * 10000 + f * 100000 + g * 1000000;
             }
             int main() { return sum7(1, 2, 3, 4, 5, 6, 7); }",
        );
        assert_eq!(r.exit, 7654321);
    }

    #[test]
    fn globals_arrays_pointers() {
        let r = compile_run(
            "int g = 5;
             int a[4] = {10, 20, 30, 40};
             int main() {
                 g = g + a[1];
                 a[2] = g;
                 int p = &g;
                 *p = *p + a[2];
                 out(g);
                 out(a[2]);
                 return a[0] + a[3];
             }",
        );
        assert_eq!(r.output, vec![50, 25]);
        assert_eq!(r.exit, 50);
    }

    #[test]
    fn indirect_calls() {
        let r = compile_run(
            "int twice(int x) { return 2 * x; }
             int thrice(int x) { return 3 * x; }
             int apply(int f, int x) { return f(x); }
             int main() { return apply(&twice, 10) + apply(&thrice, 100); }",
        );
        assert_eq!(r.exit, 320);
    }

    #[test]
    fn io_round_trip() {
        let r = compile_run_with(
            "int main() { int s = 0; int v = in(); while (v >= 0) { s = s + v; v = in(); } out(s); return 0; }",
            &ProgramDatabase::new(),
            &[5, 10, 15],
        );
        assert_eq!(r.output, vec![30]);
    }

    #[test]
    fn register_pressure_spills_are_correct() {
        let mut src = String::from("int w(int x) { return x + 1; }\nint main() {\n");
        for i in 0..24 {
            src.push_str(&format!("int v{i} = {i} * 3 + 1;\n"));
        }
        src.push_str("int r = w(7);\nint s = r;\n");
        for i in 0..24 {
            src.push_str(&format!("s = s + v{i} * {i};\n"));
        }
        src.push_str("return s;\n}");
        let r = compile_run(&src);
        // Oracle: sum of (3i+1)*i for i in 0..24 plus w(7)=8.
        let expect: i64 = (0..24).map(|i: i64| (3 * i + 1) * i).sum::<i64>() + 8;
        assert_eq!(r.exit, expect);
    }

    #[test]
    fn promoted_global_uses_register_and_skips_memory() {
        let src = "int counter;
             int main() {
                 for (int i = 0; i < 100; i = i + 1) { counter = counter + 1; }
                 return counter;
             }";
        // Unpromoted baseline.
        let base = compile_run(src);
        assert_eq!(base.exit, 100);

        // Promote `counter` to r3 with main as the web entry.
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("main");
        d.promotions.push(Promotion {
            sym: "counter".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: true,
        });
        d.usage.callee.remove(Reg::new(3));
        db.insert(d);
        let promoted = compile_run_with(src, &db, &[]);
        assert_eq!(promoted.exit, 100);
        // The loop's 200 global accesses become register operations: only
        // the entry load, exit store and spill traffic remain.
        assert!(
            promoted.stats.singleton_refs() < base.stats.singleton_refs() / 10,
            "promotion should eliminate the global's memory traffic: {} vs {}",
            promoted.stats.singleton_refs(),
            base.stats.singleton_refs()
        );
        assert!(promoted.stats.cycles <= base.stats.cycles);
    }

    #[test]
    fn read_only_web_suppresses_store() {
        let src = "int limit = 7;
             int main() { int s = 0; for (int i = 0; i < limit; i = i + 1) { s = s + i; } return s; }";
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("main");
        d.promotions.push(Promotion {
            sym: "limit".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: false,
        });
        d.usage.callee.remove(Reg::new(3));
        db.insert(d);
        let r = compile_run_with(src, &db, &[]);
        assert_eq!(r.exit, 21);
        // Entry load happens; no store of `limit` at exit. The only global
        // singleton stores possible here would come from that suppressed
        // store-back plus register save/restore traffic.
        assert!(r.stats.singleton_loads >= 1);
    }

    #[test]
    fn mspill_cluster_root_saves_unconditionally() {
        let src = "int helper(int x) { return x * 2; }
             int main() { return helper(21); }";
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("main");
        d.is_cluster_root = true;
        d.usage.mspill.insert(Reg::new(9));
        d.usage.mspill.insert(Reg::new(10));
        d.usage.callee.remove(Reg::new(9));
        d.usage.callee.remove(Reg::new(10));
        db.insert(d);
        // helper gets the registers for free.
        let mut h = ProcDirectives::standard("helper");
        h.usage.free.insert(Reg::new(9));
        h.usage.free.insert(Reg::new(10));
        h.usage.callee.remove(Reg::new(9));
        h.usage.callee.remove(Reg::new(10));
        db.insert(h);
        let r = compile_run_with(src, &db, &[]);
        assert_eq!(r.exit, 42);
        // main saved/restored both MSPILL registers: at least 2 spill
        // stores + 2 spill loads.
        assert!(r.stats.singleton_refs() >= 4);
    }

    #[test]
    fn web_member_value_preserved_across_external_calls() {
        // main is a web entry holding `acc` in r3 and calls an external
        // (non-member) procedure that uses callee-saves registers heavily;
        // the convention must preserve r3.
        let src = "int acc;
             int churn(int x) {
                 int a = x + 1; int b = x + 2; int c = x + 3; int d = x + 4;
                 int e = churn2(a);
                 return a + b + c + d + e;
             }
             int churn2(int y) { return y * 2; }
             int main() {
                 acc = 0;
                 for (int i = 0; i < 10; i = i + 1) {
                     acc = acc + churn(i);
                 }
                 return acc;
             }";
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("main");
        d.promotions.push(Promotion {
            sym: "acc".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: true,
        });
        d.usage.callee.remove(Reg::new(3));
        db.insert(d);
        let with_web = compile_run_with(src, &db, &[]);
        let without = compile_run(src);
        assert_eq!(with_web.exit, without.exit);
        assert_eq!(with_web.output, without.output);
    }

    #[test]
    fn caller_preallocation_avoids_callee_saves_spill() {
        use ipra_core::caller_prealloc::claim_pool_set;
        // `b` is live across the call to a leaf that claims no caller
        // registers: with the extension the value stays in a claimed
        // caller-saves register and `f` needs no save/restore at all.
        let m = parse_module(
            "m",
            "int leaf(int x) { return x + 1; }
             int f(int a, int b) { int r = leaf(a); return r + b; }",
        )
        .unwrap();
        let info = sema(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        let f = ir.function("f").unwrap();

        // Directives as the analyzer would emit them with the extension on:
        // leaf's tree uses nothing from the claim pool.
        let mut d = ProcDirectives::standard("f");
        d.claimed_caller = claim_pool_set();
        let safe = |name: &str| {
            if name == "leaf" {
                claim_pool_set()
            } else {
                vpr::regs::RegSet::new()
            }
        };
        let code = compile_function_with(f, &d, &safe);
        let spills =
            code.insts().iter().filter(|i| matches!(i.mem_class(), Some(MemClass::Spill))).count();
        assert_eq!(
            spills,
            0,
            "no callee-saves save/restore expected:\n{}",
            vpr::asm::function_asm(&code)
        );

        // Without the extension the crossing value needs a callee-saves
        // register and its save/restore pair.
        let code = compile_function(f, &d);
        let spills =
            code.insts().iter().filter(|i| matches!(i.mem_class(), Some(MemClass::Spill))).count();
        assert!(spills >= 2, "baseline should save/restore a callee-saves register");
    }

    #[test]
    fn fallthrough_layout_avoids_redundant_jumps() {
        let m = parse_module(
            "m",
            "int main() { int x = in(); if (x > 0) { out(1); } else { out(2); } return 0; }",
        )
        .unwrap();
        let info = sema(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        let obj = compile_module(&ir, &ProgramDatabase::new());
        let f = &obj.functions[0];
        let jumps = f.insts().iter().filter(|i| matches!(i, Inst::B { .. })).count();
        // A diamond needs at most 2 unconditional branches with decent
        // layout (often fewer).
        assert!(jumps <= 3, "{}", vpr::asm::function_asm(f));
    }
}
