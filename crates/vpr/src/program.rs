//! Machine functions, object modules, and the linker.
//!
//! The compiler second phase produces one [`ObjectModule`] per source module,
//! exactly as in the paper's Figure 1; [`link`] binds the modules together,
//! lays out the global data segment, resolves relocatable pseudo
//! instructions, and produces an [`Executable`] for the
//! [simulator](crate::sim).

use crate::inst::{AluOp, Inst, Label, MemClass};
use crate::target::{TargetDesc, TargetId};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// First word address of the global data segment. `DP` points here.
pub const GLOBALS_BASE: i64 = 16;

/// Largest displacement reachable from `DP` in a single `LDW`/`STW`
/// (models PA-RISC's 14-bit displacement field). Globals laid out beyond
/// this need an extra base-setup instruction (`ADDIL` in the paper).
pub const DP_DISP_LIMIT: i64 = 2048;

/// Default simulated memory size in words.
pub const DEFAULT_MEM_WORDS: usize = 1 << 21;

/// A compiled procedure: a straight-line vector of instructions plus a label
/// table mapping [`Label`] ids to instruction indices within the function.
///
/// # Examples
///
/// ```
/// use vpr::program::MachineFunction;
/// use vpr::inst::Inst;
/// use vpr::regs::Reg;
/// let mut f = MachineFunction::new("main");
/// f.push(Inst::Ldi { rd: Reg::RV, imm: 42 });
/// f.push(Inst::Bv { base: Reg::RP });
/// assert_eq!(f.insts().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineFunction {
    name: String,
    insts: Vec<Inst>,
    labels: Vec<Option<usize>>,
}

impl MachineFunction {
    /// Creates an empty function named `name`.
    pub fn new(name: impl Into<String>) -> MachineFunction {
        MachineFunction { name: name.into(), insts: Vec::new(), labels: Vec::new() }
    }

    /// The procedure's (module-qualified) link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction vector.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Mutable access to the instruction vector (used by peephole cleanups).
    pub fn insts_mut(&mut self) -> &mut Vec<Inst> {
        &mut self.insts
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Reserves a fresh, not-yet-placed label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label((self.labels.len() - 1) as u32)
    }

    /// Binds `label` to the *next* instruction to be pushed.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown or already bound.
    pub fn bind_label(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(self.insts.len());
    }

    /// The instruction index a label is bound to, if bound.
    pub fn label_target(&self, label: Label) -> Option<usize> {
        self.labels.get(label.0 as usize).copied().flatten()
    }

    /// Number of labels allocated so far.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Deletes every [`Inst::Nop`], shifting label bindings to keep them on
    /// the same following instruction. Used by peephole cleanups that blank
    /// out instructions in place.
    pub fn remove_nops(&mut self) {
        // new_pos[i] = index of instruction i after compaction (or of the
        // next surviving instruction, for labels bound to a removed NOP).
        let mut new_pos = Vec::with_capacity(self.insts.len() + 1);
        let mut kept = 0usize;
        for inst in &self.insts {
            new_pos.push(kept);
            if !matches!(inst, Inst::Nop) {
                kept += 1;
            }
        }
        new_pos.push(kept);
        for slot in self.labels.iter_mut().flatten() {
            *slot = new_pos[*slot];
        }
        self.insts.retain(|i| !matches!(i, Inst::Nop));
    }
}

/// A global variable definition contributed by one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalDef {
    /// Link name (module-qualified for `static` globals).
    pub sym: String,
    /// Size in words (1 for scalars).
    pub size: usize,
    /// Static initializer, padded with zeros to `size`.
    pub init: Vec<i64>,
}

/// The output of compiling one source module: functions plus global
/// definitions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectModule {
    /// Module name (diagnostic only).
    pub name: String,
    /// Compiled procedures.
    pub functions: Vec<MachineFunction>,
    /// Globals *defined* by this module (not mere `extern` references).
    pub globals: Vec<GlobalDef>,
    /// The target the module was compiled for. The linker refuses to mix
    /// targets. Serialized only when not [`TargetId::Vpr`], so VPR `.vo`
    /// artifacts keep their pre-machine-description bytes.
    #[serde(default, skip_default)]
    pub target: TargetId,
}

impl ObjectModule {
    /// A VPR-target module with the given functions and no globals (the
    /// common test and doc-example shape).
    pub fn new(name: impl Into<String>, functions: Vec<MachineFunction>) -> ObjectModule {
        ObjectModule {
            name: name.into(),
            functions,
            globals: Vec::new(),
            target: TargetId::default(),
        }
    }
}

/// Information about one linked procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncInfo {
    /// Link name.
    pub name: String,
    /// Absolute entry address.
    pub entry: usize,
    /// Number of instructions.
    pub len: usize,
}

/// Information about one linked global.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalInfo {
    /// Link name.
    pub sym: String,
    /// Absolute word address.
    pub addr: i64,
    /// Size in words.
    pub size: usize,
}

/// A fully linked program, ready for the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Executable {
    insts: Vec<Inst>,
    funcs: Vec<FuncInfo>,
    globals: Vec<GlobalInfo>,
    data_init: Vec<(i64, i64)>,
    // Ordered so serialized executables are byte-stable run-to-run.
    entry_to_func: BTreeMap<usize, usize>,
    // Serialized only when not VPR, keeping pre-existing `.vx` bytes.
    #[serde(default, skip_default)]
    target: TargetId,
}

impl Executable {
    /// The linked instruction stream. Execution starts at address 0.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The target the program was linked for. The simulators fetch their
    /// role registers (`sp`, `dp`, `rp`, `rv`) from this.
    pub fn target(&self) -> TargetId {
        self.target
    }

    /// Per-procedure link information, in link order.
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Per-global link information, in layout order.
    pub fn globals(&self) -> &[GlobalInfo] {
        &self.globals
    }

    /// `(address, value)` pairs of statically initialized data words.
    pub fn data_init(&self) -> &[(i64, i64)] {
        &self.data_init
    }

    /// Finds a function's index by its entry address (used by the profiler).
    pub fn func_at_entry(&self, entry: usize) -> Option<usize> {
        self.entry_to_func.get(&entry).copied()
    }

    /// Finds a function by name.
    pub fn func_named(&self, name: &str) -> Option<&FuncInfo> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Finds a global's address by name.
    pub fn global_addr(&self, sym: &str) -> Option<i64> {
        self.globals.iter().find(|g| g.sym == sym).map(|g| g.addr)
    }

    /// Resolves a code address to `proc+offset` via the function table.
    /// Returns `None` for addresses outside any linked procedure (the
    /// two-instruction startup stub, or a wild pc).
    pub fn symbolize(&self, pc: usize) -> Option<String> {
        let (&entry, &idx) = self.entry_to_func.range(..=pc).next_back()?;
        let f = &self.funcs[idx];
        if pc < entry + f.len {
            Some(format!("{}+{}", f.name, pc - entry))
        } else {
            None
        }
    }

    /// Total static code size in instructions.
    pub fn code_len(&self) -> usize {
        self.insts.len()
    }
}

/// Errors produced while linking object modules.
#[allow(missing_docs)] // variant fields are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The same global was defined by two modules.
    DuplicateGlobal(String),
    /// The same procedure was defined by two modules.
    DuplicateFunction(String),
    /// An instruction referenced an undefined global.
    UndefinedGlobal { sym: String, in_func: String },
    /// A call or address-of referenced an undefined procedure.
    UndefinedFunction { name: String, in_func: String },
    /// No `main` procedure was linked.
    NoMain,
    /// A branch used a label that was never bound.
    UnboundLabel { label: Label, in_func: String },
    /// Object modules compiled for different targets were linked together.
    TargetMismatch { expected: TargetId, found: TargetId, module: String },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateGlobal(s) => write!(f, "global `{s}` defined more than once"),
            LinkError::DuplicateFunction(s) => {
                write!(f, "procedure `{s}` defined more than once")
            }
            LinkError::UndefinedGlobal { sym, in_func } => {
                write!(f, "undefined global `{sym}` referenced from `{in_func}`")
            }
            LinkError::UndefinedFunction { name, in_func } => {
                write!(f, "undefined procedure `{name}` referenced from `{in_func}`")
            }
            LinkError::NoMain => write!(f, "no `main` procedure"),
            LinkError::UnboundLabel { label, in_func } => {
                write!(f, "unbound label {label} in `{in_func}`")
            }
            LinkError::TargetMismatch { expected, found, module } => {
                write!(
                    f,
                    "module `{module}` was compiled for target `{found}`, expected `{expected}`"
                )
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Linker options (see [`link_with`]).
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Permit procedure references no linked module defines — the
    /// library-build case where a `.vlib` member calls back into code the
    /// final program never provides. Each unresolved procedure gets a
    /// one-instruction *trap stub* appended after all real code, so the
    /// link succeeds, `symbolize` names it, and actually calling it raises
    /// a memory fault at `sym+0` instead of executing garbage. Undefined
    /// *globals* always stay hard errors.
    pub allow_undefined_functions: bool,
}

/// Links object modules into an [`Executable`].
///
/// Layout: a two-instruction startup stub (`CALL main; HALT`) at address 0,
/// followed by each module's functions in order. Globals are laid out from
/// [`GLOBALS_BASE`] in definition order, scalars first so that as many as
/// possible stay within single-instruction reach of `DP`.
///
/// # Errors
///
/// Returns a [`LinkError`] for duplicate or missing definitions, a missing
/// `main`, or an unbound branch label.
///
/// # Examples
///
/// ```
/// # use vpr::program::{link, MachineFunction, ObjectModule};
/// # use vpr::inst::Inst;
/// # use vpr::regs::Reg;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = MachineFunction::new("main");
/// f.push(Inst::Bv { base: Reg::RP });
/// let module = ObjectModule { name: "m".into(), functions: vec![f], globals: vec![], ..Default::default() };
/// let exe = link(&[module])?;
/// assert_eq!(exe.func_named("main").unwrap().entry, 2);
/// # Ok(())
/// # }
/// ```
pub fn link<M: Borrow<ObjectModule>>(modules: &[M]) -> Result<Executable, LinkError> {
    link_with(modules, &LinkOptions::default())
}

/// [`link`] with explicit [`LinkOptions`].
///
/// Symbol resolution happens *before* emission: duplicate definitions,
/// a missing `main`, and undefined references are all diagnosed from the
/// modules' [symbol tables](crate::object::program_symbols) up front, in
/// module order. With
/// [`allow_undefined_functions`](LinkOptions::allow_undefined_functions),
/// unresolved procedures link against synthesized trap stubs (appended in
/// name order after all real code) instead of failing.
///
/// The modules are owned or shared ([`Borrow`]): a caller that holds its
/// objects behind `Arc`s links them without copying them.
///
/// # Errors
///
/// Returns a [`LinkError`] as for [`link`]; undefined procedures are
/// errors only when not allowed by `opts`.
pub fn link_with<M: Borrow<ObjectModule>>(
    modules: &[M],
    opts: &LinkOptions,
) -> Result<Executable, LinkError> {
    let modules: Vec<&ObjectModule> = modules.iter().map(Borrow::borrow).collect();
    link_modules(&modules, opts)
}

/// [`link_with`] over the modules' references.
fn link_modules(modules: &[&ObjectModule], opts: &LinkOptions) -> Result<Executable, LinkError> {
    // 0. Every module must agree on the target; the executable carries it
    //    so the simulators can fetch their role registers.
    let target = modules.first().map(|m| m.target).unwrap_or_default();
    for m in modules {
        if m.target != target {
            return Err(LinkError::TargetMismatch {
                expected: target,
                found: m.target,
                module: m.name.clone(),
            });
        }
    }
    let desc = target.desc();

    // 1. Lay out globals: scalars first, then aggregates.
    let mut globals: Vec<GlobalInfo> = Vec::new();
    let mut global_addr: HashMap<&str, i64> = HashMap::new();
    let mut data_init: Vec<(i64, i64)> = Vec::new();
    let mut next = GLOBALS_BASE;
    let mut defs: Vec<&GlobalDef> = Vec::new();
    for m in modules {
        for g in &m.globals {
            defs.push(g);
        }
    }
    defs.sort_by_key(|g| g.size > 1); // stable: scalars first, otherwise module order
    for g in defs {
        if global_addr.contains_key(g.sym.as_str()) {
            return Err(LinkError::DuplicateGlobal(g.sym.clone()));
        }
        global_addr.insert(&g.sym, next);
        globals.push(GlobalInfo { sym: g.sym.clone(), addr: next, size: g.size });
        for (i, &v) in g.init.iter().enumerate().take(g.size) {
            if v != 0 {
                data_init.push((next + i as i64, v));
            }
        }
        next += g.size as i64;
    }

    // 2. Collect procedure definitions (duplicates are errors) and check
    //    for `main` — a stub never satisfies the entry point.
    let mut defined: HashSet<&str> = HashSet::new();
    for m in modules {
        for f in &m.functions {
            if !defined.insert(f.name()) {
                return Err(LinkError::DuplicateFunction(f.name().to_string()));
            }
        }
    }
    if !defined.contains("main") {
        return Err(LinkError::NoMain);
    }

    // 3. Resolve every relocation up front, in (module, function,
    //    instruction) order, collecting trap stubs where allowed.
    let mut stubs: BTreeSet<&str> = BTreeSet::new();
    for m in modules {
        for r in m.reloc_sites() {
            if r.kind.is_function() {
                if !defined.contains(r.sym) && !stubs.contains(r.sym) {
                    if !opts.allow_undefined_functions {
                        return Err(LinkError::UndefinedFunction {
                            name: r.sym.to_string(),
                            in_func: r.func.to_string(),
                        });
                    }
                    stubs.insert(r.sym);
                }
            } else if !global_addr.contains_key(r.sym) {
                return Err(LinkError::UndefinedGlobal {
                    sym: r.sym.to_string(),
                    in_func: r.func.to_string(),
                });
            }
        }
    }

    // 4. Measure expanded function sizes to fix every entry address; trap
    //    stubs (one instruction each) go after all real code, in name order.
    let stub_len = 2usize;
    let mut func_entry: HashMap<&str, usize> = HashMap::new();
    let mut infos: Vec<FuncInfo> = Vec::new();
    let mut pc = stub_len;
    for m in modules {
        for f in &m.functions {
            let len: usize = f.insts().iter().map(|i| expansion_len(i, &global_addr)).sum();
            func_entry.insert(f.name(), pc);
            infos.push(FuncInfo { name: f.name().to_string(), entry: pc, len });
            pc += len;
        }
    }
    for &s in &stubs {
        func_entry.insert(s, pc);
        infos.push(FuncInfo { name: s.to_string(), entry: pc, len: 1 });
        pc += 1;
    }
    let main_entry = func_entry["main"];

    // 5. Emit, resolving pseudos and labels.
    let mut insts: Vec<Inst> = Vec::with_capacity(pc);
    insts.push(Inst::CallAbs { entry: main_entry as u32 });
    insts.push(Inst::Halt);
    for m in modules {
        for f in &m.functions {
            emit_function(f, desc, &global_addr, &func_entry, &mut insts)?;
        }
    }
    for _ in &stubs {
        // Unconditional memory fault: address −1 is below every mapped
        // word, so an activated stub traps at `sym+0` (see `symbolize`).
        insts.push(Inst::Ldw {
            rd: desc.scratch1,
            base: desc.zero,
            disp: -1,
            class: MemClass::Indirect,
        });
    }
    debug_assert_eq!(insts.len(), pc);

    let entry_to_func = infos.iter().enumerate().map(|(i, fi)| (fi.entry, i)).collect();
    Ok(Executable { insts, funcs: infos, globals, data_init, entry_to_func, target })
}

/// How many real instructions `inst` expands to once linked.
fn expansion_len(inst: &Inst, global_addr: &HashMap<&str, i64>) -> usize {
    match inst {
        Inst::Ldg { sym, offset, .. } | Inst::Stg { sym, offset, .. } => {
            match global_addr.get(sym.as_str()) {
                Some(addr) => {
                    let disp = addr - GLOBALS_BASE + offset;
                    if disp < DP_DISP_LIMIT {
                        1
                    } else {
                        2 // needs an ADDIL-style base setup
                    }
                }
                None => 1, // error reported during emission
            }
        }
        _ => 1,
    }
}

fn emit_function(
    f: &MachineFunction,
    desc: &TargetDesc,
    global_addr: &HashMap<&str, i64>,
    func_entry: &HashMap<&str, usize>,
    out: &mut Vec<Inst>,
) -> Result<(), LinkError> {
    let base = out.len();
    // Map original instruction index -> emitted absolute address.
    let mut pos = Vec::with_capacity(f.insts().len() + 1);
    let mut pc = base;
    for inst in f.insts() {
        pos.push(pc);
        pc += expansion_len(inst, global_addr);
    }
    pos.push(pc); // labels may point one past the end

    let resolve_label = |l: Label| -> Result<Label, LinkError> {
        let idx = f
            .label_target(l)
            .ok_or_else(|| LinkError::UnboundLabel { label: l, in_func: f.name().to_string() })?;
        Ok(Label(pos[idx] as u32))
    };
    let resolve_global = |sym: &str| -> Result<i64, LinkError> {
        global_addr.get(sym).copied().ok_or_else(|| LinkError::UndefinedGlobal {
            sym: sym.to_string(),
            in_func: f.name().to_string(),
        })
    };
    let resolve_func = |name: &str| -> Result<usize, LinkError> {
        func_entry.get(name).copied().ok_or_else(|| LinkError::UndefinedFunction {
            name: name.to_string(),
            in_func: f.name().to_string(),
        })
    };

    for inst in f.insts() {
        match inst {
            Inst::Ldg { rd, sym, offset, class } => {
                let addr = resolve_global(sym)?;
                let disp = addr - GLOBALS_BASE + offset;
                if disp < DP_DISP_LIMIT {
                    out.push(Inst::Ldw { rd: *rd, base: desc.dp, disp, class: *class });
                } else {
                    // Base setup through the assembler temporary.
                    out.push(Inst::Alui {
                        op: AluOp::Add,
                        rd: desc.scratch1,
                        rs1: desc.dp,
                        imm: disp,
                    });
                    out.push(Inst::Ldw { rd: *rd, base: desc.scratch1, disp: 0, class: *class });
                }
            }
            Inst::Stg { rs, sym, offset, class } => {
                let addr = resolve_global(sym)?;
                let disp = addr - GLOBALS_BASE + offset;
                if disp < DP_DISP_LIMIT {
                    out.push(Inst::Stw { rs: *rs, base: desc.dp, disp, class: *class });
                } else {
                    out.push(Inst::Alui {
                        op: AluOp::Add,
                        rd: desc.scratch1,
                        rs1: desc.dp,
                        imm: disp,
                    });
                    out.push(Inst::Stw { rs: *rs, base: desc.scratch1, disp: 0, class: *class });
                }
            }
            Inst::Lga { rd, sym, offset } => {
                let addr = resolve_global(sym)?;
                out.push(Inst::Ldi { rd: *rd, imm: addr + offset });
            }
            Inst::Ldfa { rd, func } => {
                let entry = resolve_func(func)?;
                out.push(Inst::Ldi { rd: *rd, imm: entry as i64 });
            }
            Inst::Call { target } => {
                let entry = resolve_func(target)?;
                out.push(Inst::CallAbs { entry: entry as u32 });
            }
            Inst::B { target } => out.push(Inst::B { target: resolve_label(*target)? }),
            Inst::Comb { cond, rs1, rs2, target } => out.push(Inst::Comb {
                cond: *cond,
                rs1: *rs1,
                rs2: *rs2,
                target: resolve_label(*target)?,
            }),
            other => out.push(other.clone()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Cond, MemClass};
    use crate::regs::Reg;

    fn ret_fn(name: &str) -> MachineFunction {
        let mut f = MachineFunction::new(name);
        f.push(Inst::Bv { base: Reg::RP });
        f
    }

    #[test]
    fn link_requires_main() {
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![ret_fn("f")],
            globals: vec![],
            ..Default::default()
        };
        assert_eq!(link(&[m]).unwrap_err(), LinkError::NoMain);
    }

    #[test]
    fn link_rejects_duplicates() {
        let m1 = ObjectModule {
            name: "a".into(),
            functions: vec![ret_fn("main")],
            globals: vec![],
            ..Default::default()
        };
        let m2 = ObjectModule {
            name: "b".into(),
            functions: vec![ret_fn("main")],
            globals: vec![],
            ..Default::default()
        };
        assert!(matches!(
            link(&[m1, m2]).unwrap_err(),
            LinkError::DuplicateFunction(name) if name == "main"
        ));

        let g = GlobalDef { sym: "g".into(), size: 1, init: vec![] };
        let m1 = ObjectModule {
            name: "a".into(),
            functions: vec![ret_fn("main")],
            globals: vec![g.clone()],
            ..Default::default()
        };
        let m2 = ObjectModule {
            name: "b".into(),
            functions: vec![],
            globals: vec![g],
            ..Default::default()
        };
        assert!(matches!(link(&[m1, m2]).unwrap_err(), LinkError::DuplicateGlobal(_)));
    }

    #[test]
    fn scalars_precede_aggregates_in_layout() {
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![ret_fn("main")],
            globals: vec![
                GlobalDef { sym: "arr".into(), size: 100, init: vec![] },
                GlobalDef { sym: "x".into(), size: 1, init: vec![7] },
            ],
            ..Default::default()
        };
        let exe = link(&[m]).unwrap();
        let x = exe.global_addr("x").unwrap();
        let arr = exe.global_addr("arr").unwrap();
        assert_eq!(x, GLOBALS_BASE);
        assert_eq!(arr, GLOBALS_BASE + 1);
        assert_eq!(exe.data_init(), &[(x, 7)]);
    }

    #[test]
    fn near_global_is_one_instruction_far_global_two() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "near".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Ldg { rd: Reg::RV, sym: "far".into(), offset: 0, class: MemClass::Aggregate });
        f.push(Inst::Bv { base: Reg::RP });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![
                GlobalDef { sym: "near".into(), size: 1, init: vec![] },
                GlobalDef { sym: "pad".into(), size: DP_DISP_LIMIT as usize + 8, init: vec![] },
                GlobalDef { sym: "far".into(), size: 4, init: vec![] },
            ],
            ..Default::default()
        };
        let exe = link(&[m]).unwrap();
        let main = exe.func_named("main").unwrap();
        // 1 (near load) + 2 (far: base setup + load) + 1 (return)
        assert_eq!(main.len, 4);
        assert!(matches!(exe.insts()[main.entry], Inst::Ldw { base, .. } if base == Reg::DP));
        assert!(matches!(exe.insts()[main.entry + 1], Inst::Alui { .. }));
    }

    #[test]
    fn labels_resolve_across_pseudo_expansion() {
        let mut f = MachineFunction::new("main");
        let l = f.new_label();
        // Branch over a far global store (which expands to 2 instructions).
        f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, target: l });
        f.push(Inst::Stg {
            rs: Reg::ZERO,
            sym: "far".into(),
            offset: 0,
            class: MemClass::Aggregate,
        });
        f.bind_label(l);
        f.push(Inst::Bv { base: Reg::RP });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![
                GlobalDef { sym: "pad".into(), size: DP_DISP_LIMIT as usize, init: vec![] },
                GlobalDef { sym: "far".into(), size: 4, init: vec![] },
            ],
            ..Default::default()
        };
        let exe = link(&[m]).unwrap();
        let main = exe.func_named("main").unwrap();
        match &exe.insts()[main.entry] {
            Inst::Comb { target, .. } => {
                // Should land on the Bv, which sits after the 2-inst expansion.
                assert_eq!(target.0 as usize, main.entry + 3);
                assert!(matches!(exe.insts()[target.0 as usize], Inst::Bv { .. }));
            }
            other => panic!("expected Comb, got {other:?}"),
        }
    }

    #[test]
    fn symbolize_resolves_proc_plus_offset() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::RV, imm: 1 });
        f.push(Inst::Bv { base: Reg::RP });
        let m1 = ObjectModule {
            name: "a".into(),
            functions: vec![ret_fn("f")],
            globals: vec![],
            ..Default::default()
        };
        let m2 = ObjectModule {
            name: "b".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        let exe = link(&[m1, m2]).unwrap();
        // Layout: stub (0..2), f (2..3), main (3..5).
        assert_eq!(exe.symbolize(0), None); // startup stub
        assert_eq!(exe.symbolize(1), None);
        assert_eq!(exe.symbolize(2).as_deref(), Some("f+0"));
        assert_eq!(exe.symbolize(3).as_deref(), Some("main+0"));
        assert_eq!(exe.symbolize(4).as_deref(), Some("main+1"));
        assert_eq!(exe.symbolize(5), None); // past the end
        assert_eq!(exe.symbolize(1000), None);
    }

    #[test]
    fn undefined_symbols_are_reported() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Call { target: "ghost".into() });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        assert!(matches!(
            link(&[m]).unwrap_err(),
            LinkError::UndefinedFunction { name, .. } if name == "ghost"
        ));

        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "ghost".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        assert!(matches!(link(&[m]).unwrap_err(), LinkError::UndefinedGlobal { .. }));
    }

    #[test]
    fn unbound_label_is_reported() {
        let mut f = MachineFunction::new("main");
        let l = f.new_label();
        f.push(Inst::B { target: l });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        assert!(matches!(link(&[m]).unwrap_err(), LinkError::UnboundLabel { .. }));
    }

    #[test]
    fn allow_undefined_links_trap_stubs() {
        // main takes `ghost_b`'s address and would call `ghost_a` only
        // down a branch that never executes.
        let mut f = MachineFunction::new("main");
        let done = f.new_label();
        f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, target: done });
        f.push(Inst::Call { target: "ghost_a".into() });
        f.bind_label(done);
        f.push(Inst::Ldfa { rd: Reg::AT, func: "ghost_b".into() });
        f.push(Inst::Bv { base: Reg::RP });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f, ret_fn("present")],
            globals: vec![],
            ..Default::default()
        };

        // Without the option the link still fails.
        assert!(matches!(
            link(std::slice::from_ref(&m)).unwrap_err(),
            LinkError::UndefinedFunction { name, .. } if name == "ghost_a"
        ));

        let opts = LinkOptions { allow_undefined_functions: true };
        let exe = link_with(&[m], &opts).unwrap();
        // Stubs are appended after all real code, in name order, and are
        // symbolized like any procedure.
        let a = exe.func_named("ghost_a").unwrap();
        let b = exe.func_named("ghost_b").unwrap();
        assert_eq!((a.len, b.len), (1, 1));
        assert!(a.entry > exe.func_named("present").unwrap().entry);
        assert_eq!(b.entry, a.entry + 1);
        assert_eq!(exe.symbolize(a.entry).as_deref(), Some("ghost_a+0"));
        // The program never activates a stub, so it runs cleanly.
        let r = crate::sim::run(&exe).unwrap();
        assert_eq!(r.exit, 0);
    }

    #[test]
    fn activated_stub_traps_with_symbolized_fault() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Call { target: "ghost".into() });
        f.push(Inst::Bv { base: Reg::RP });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        let exe = link_with(&[m], &LinkOptions { allow_undefined_functions: true }).unwrap();
        match crate::sim::run(&exe).unwrap_err() {
            crate::sim::SimError::MemFault { sym, addr, .. } => {
                assert_eq!(sym.as_deref(), Some("ghost+0"));
                assert_eq!(addr, -1);
            }
            other => panic!("expected a memory fault, got {other:?}"),
        }
    }

    #[test]
    fn undefined_globals_stay_errors_even_when_allowed() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "ghost".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![],
            ..Default::default()
        };
        assert!(matches!(
            link_with(&[m], &LinkOptions { allow_undefined_functions: true }).unwrap_err(),
            LinkError::UndefinedGlobal { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_binding_panics() {
        let mut f = MachineFunction::new("f");
        let l = f.new_label();
        f.bind_label(l);
        f.bind_label(l);
    }
}
