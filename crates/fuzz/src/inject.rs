//! Self-validation: inject known miscompile classes into correctly
//! compiled machine code (and, for the stale-recompilation class, into
//! the program database) and demand that the verifier half of the oracle
//! flags each one. A fuzzer whose oracle never fires on broken code is
//! indistinguishable from one that checks nothing — this module is the
//! proof it would fire.
//!
//! The three classes mirror the repository's mutation-test suite:
//!
//! * **missing-restore** — a callee-saves restore dropped from an
//!   epilogue path;
//! * **promotion-clobber** — the paper's §6 recompilation hazard: one
//!   procedure's database entry loses a promotion (as if its module were
//!   rebuilt against an older database) and its code then clobbers the
//!   web's home register;
//! * **missing-cluster-save** — a cluster root's boundary save for an
//!   MSPILL register deleted (§4.2 spill-code motion contract).

use ipra_core::PaperConfig;
use ipra_driver::{compile, verify_program, CompileOptions, CompiledProgram, SourceFile};
use ipra_verify::{verify_modules, DiagKind};
use vpr::inst::{Inst, MemClass};
use vpr::regs::Reg;

/// A known miscompile class the fuzzer can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// Drop a callee-saves restore.
    MissingRestore,
    /// Stale-recompilation promotion-home clobber.
    PromotionClobber,
    /// Delete a cluster root's MSPILL boundary save.
    MissingClusterSave,
}

impl MutationClass {
    /// Every class, in a fixed order.
    pub const ALL: [MutationClass; 3] = [
        MutationClass::MissingRestore,
        MutationClass::PromotionClobber,
        MutationClass::MissingClusterSave,
    ];

    /// Kebab-case name (corpus metadata).
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::MissingRestore => "missing-restore",
            MutationClass::PromotionClobber => "promotion-clobber",
            MutationClass::MissingClusterSave => "missing-cluster-save",
        }
    }

    /// Parses [`MutationClass::name`].
    pub fn parse(name: &str) -> Option<MutationClass> {
        MutationClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The paper configuration whose codegen exhibits the machinery this
    /// class breaks (plain callee-saves for restores, promotion webs for
    /// clobbers, clusters for boundary saves).
    pub fn config(self) -> PaperConfig {
        match self {
            MutationClass::MissingRestore => PaperConfig::L2,
            MutationClass::PromotionClobber => PaperConfig::E,
            MutationClass::MissingClusterSave => PaperConfig::A,
        }
    }

    /// The diagnostic kind the verifier must report for this class.
    pub fn diag_kind(self) -> DiagKind {
        match self {
            MutationClass::MissingRestore => DiagKind::MissingRestore,
            MutationClass::PromotionClobber => DiagKind::PromotionClobber,
            MutationClass::MissingClusterSave => DiagKind::MissingClusterSave,
        }
    }
}

/// What an injection did: which procedure was sabotaged.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The class applied.
    pub class: MutationClass,
    /// The procedure whose code (or directives) were mutated.
    pub proc: String,
}

/// Finds `(module, function, instruction)` of the first instruction in
/// any procedure for which `pick` returns true, in program order.
pub fn find_inst(
    program: &CompiledProgram,
    pick: impl Fn(&str, usize, &Inst) -> bool,
) -> Option<(usize, usize, usize)> {
    for (mi, m) in program.objects.iter().enumerate() {
        for (fi, f) in m.functions.iter().enumerate() {
            for (ii, inst) in f.insts().iter().enumerate() {
                if pick(f.name(), ii, inst) {
                    return Some((mi, fi, ii));
                }
            }
        }
    }
    None
}

/// Applies `class` to a compiled program, mutating its objects (and for
/// [`MutationClass::PromotionClobber`] its database). Returns `None` —
/// with the program unchanged — when the program has no applicable site,
/// so callers can keep hunting seeds.
pub fn inject(program: &mut CompiledProgram, class: MutationClass) -> Option<Injection> {
    match class {
        MutationClass::MissingRestore => inject_missing_restore(program),
        MutationClass::PromotionClobber => inject_promotion_clobber(program),
        MutationClass::MissingClusterSave => inject_missing_cluster_save(program),
    }
}

/// Nop out a callee-saves restore (the classic "missed epilogue on an
/// early return" codegen bug).
fn inject_missing_restore(program: &mut CompiledProgram) -> Option<Injection> {
    let callee_saves = program.exe.target().desc().callee_saves;
    let (mi, fi, ii) = find_inst(program, |_, _, inst| {
        matches!(inst,
            Inst::Ldw { rd, base: Reg::SP, disp, class: MemClass::Spill }
                if *disp >= 0 && callee_saves.contains(*rd))
    })?;
    let proc = program.objects[mi].functions[fi].name().to_string();
    program.objects[mi].functions[fi].insts_mut()[ii] = Inst::Nop;
    Some(Injection { class: MutationClass::MissingRestore, proc })
}

/// Set up the §6 stale-recompilation hazard, then clobber. The victim is
/// chosen so its code doesn't touch the web's home register at all: the
/// database mutation alone must keep the program clean (checked — if it
/// doesn't, the site is rejected), so only the code mutation introduces
/// the violation.
fn inject_promotion_clobber(program: &mut CompiledProgram) -> Option<Injection> {
    let desc = program.exe.target().desc();
    let mut found = None;
    'procs: for d in program.database.iter() {
        if d.promotions.iter().any(|q| q.is_entry) {
            continue; // entries load/store the memory home; keep it simple
        }
        for q in &d.promotions {
            let touches_home = find_inst(program, |name, _, inst| {
                name == d.name && (inst.def() == Some(q.reg) || inst.uses().contains(q.reg))
            })
            .is_some();
            let has_scratch_def = find_inst(program, |name, _, inst| {
                name == d.name
                    && matches!(inst.def(),
                        Some(rd) if desc.caller_saves.contains(rd) && rd != desc.rv)
            })
            .is_some();
            let is_called = find_inst(
                program,
                |_, _, inst| matches!(inst, Inst::Call { target } if *target == d.name),
            )
            .is_some();
            if !touches_home && has_scratch_def && is_called {
                found = Some((d.name.clone(), q.sym.clone(), q.reg));
                break 'procs;
            }
        }
    }
    let (victim, sym, home) = found?;

    // Drop the promotion from the victim's directives, as if its module
    // were rebuilt against an older database. This alone must stay clean;
    // a site where it doesn't is not the hazard we're modeling.
    let mut stale = program.database.lookup_for(&victim, desc.id);
    stale.promotions.retain(|q| q.sym != sym);
    let original = program.database.lookup_for(&victim, desc.id);
    program.database.insert(stale);
    if !verify_modules(&program.objects, &program.database).is_clean() {
        program.database.insert(original);
        return None;
    }

    // Replace a scratch-register write in the victim with a write to the
    // web's home register (replacement, not insertion, keeps labels
    // valid).
    let (mi, fi, ii) = find_inst(program, |name, _, inst| {
        name == victim
            && matches!(inst.def(), Some(rd) if desc.caller_saves.contains(rd) && rd != desc.rv)
    })
    .expect("site selection guaranteed a scratch def");
    program.objects[mi].functions[fi].insts_mut()[ii] = Inst::Ldi { rd: home, imm: 0 };
    Some(Injection { class: MutationClass::PromotionClobber, proc: victim })
}

/// Nop out a cluster root's boundary save for an MSPILL register.
fn inject_missing_cluster_save(program: &mut CompiledProgram) -> Option<Injection> {
    let root = program
        .database
        .iter()
        .find(|d| d.is_cluster_root && !d.usage.mspill.is_empty())
        .map(|d| (d.name.clone(), d.usage.mspill))?;
    let (mi, fi, ii) = find_inst(program, |name, _, inst| {
        name == root.0
            && matches!(inst,
                Inst::Stw { rs, base: Reg::SP, disp, class: MemClass::Spill }
                    if *disp >= 0 && root.1.contains(*rs))
    })?;
    program.objects[mi].functions[fi].insts_mut()[ii] = Inst::Nop;
    Some(Injection { class: MutationClass::MissingClusterSave, proc: root.0 })
}

/// The reducer predicate and corpus replay check for self-validation
/// repros: the program compiles clean under the class's configuration,
/// the injection applies, and the verifier flags the expected diagnostic
/// kind afterwards.
pub fn injected_detectable(sources: &[SourceFile], class: MutationClass) -> bool {
    let Ok(program) = compile(sources, &CompileOptions::paper(class.config())) else {
        return false;
    };
    if !verify_program(&program).is_clean() {
        return false;
    }
    let mut mutated = program;
    inject(&mut mutated, class).is_some()
        && verify_modules(&mutated.objects, &mutated.database)
            .of_kind(class.diag_kind())
            .next()
            .is_some()
}
