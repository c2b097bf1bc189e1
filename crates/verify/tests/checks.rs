//! Check-family tests on hand-built machine functions: each discipline the
//! verifier enforces gets a passing (emit-shaped) case and at least one
//! violating case with the expected diagnostic kind.

use ipra_core::{ProcDirectives, ProgramDatabase, Promotion};
use ipra_verify::{verify_modules, DiagKind, VerifyReport};
use vpr::inst::{AluOp, Cond, Inst, MemClass};
use vpr::program::{MachineFunction, ObjectModule};
use vpr::regs::Reg;
use vpr::target::{TargetId, RV32};

fn ret() -> Inst {
    Inst::Bv { base: Reg::RP }
}

fn module(funcs: Vec<MachineFunction>) -> ObjectModule {
    ObjectModule { name: "t".into(), functions: funcs, globals: vec![], ..Default::default() }
}

/// A function with the standard prologue/epilogue shape: allocate a frame
/// of `saves.len()` words, save each register to its slot, run `body`,
/// restore in reverse, pop the frame, return.
fn framed(name: &str, saves: &[Reg], body: Vec<Inst>) -> MachineFunction {
    let mut f = MachineFunction::new(name);
    let frame = saves.len() as i64;
    if frame > 0 {
        f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: frame });
    }
    for (k, &r) in saves.iter().enumerate() {
        let class = if r == Reg::RP { MemClass::Frame } else { MemClass::Spill };
        f.push(Inst::Stw { rs: r, base: Reg::SP, disp: k as i64, class });
    }
    for i in body {
        f.push(i);
    }
    for (k, &r) in saves.iter().enumerate().rev() {
        let class = if r == Reg::RP { MemClass::Frame } else { MemClass::Spill };
        f.push(Inst::Ldw { rd: r, base: Reg::SP, disp: k as i64, class });
    }
    if frame > 0 {
        f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: frame });
    }
    f.push(ret());
    f
}

fn leaf(name: &str, body: Vec<Inst>) -> MachineFunction {
    framed(name, &[], body)
}

fn kinds(r: &VerifyReport) -> Vec<DiagKind> {
    r.diagnostics.iter().map(|d| d.kind).collect()
}

#[test]
fn clean_program_verifies_clean() {
    let r5 = Reg::new(5);
    let callee = leaf("g", vec![Inst::Ldi { rd: Reg::RV, imm: 3 }]);
    let caller = framed(
        "main",
        &[Reg::RP, r5],
        vec![
            Inst::Ldi { rd: r5, imm: 10 },
            Inst::Ldi { rd: Reg::ARGS[0], imm: 1 },
            Inst::Call { target: "g".into() },
            Inst::Alu { op: AluOp::Add, rd: Reg::RV, rs1: Reg::RV, rs2: r5 },
        ],
    );
    let report = verify_modules(&[module(vec![caller, callee])], &ProgramDatabase::new());
    assert!(report.is_clean(), "expected clean, got:\n{report}");
    assert_eq!(report.procs, 2);
}

#[test]
fn unsaved_callee_saves_clobber_is_flagged() {
    let f = leaf("main", vec![Inst::Ldi { rd: Reg::new(7), imm: 1 }]);
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::CalleeSavesClobber]);
    assert!(report.diagnostics[0].detail.contains("r7"));
}

/// A procedure the database has no entry for is held to its own target's
/// standard convention: on RV32, s2–s11 include x19–x26, which VPR's
/// convention leaves caller-saves.
#[test]
fn rv32_procedure_without_an_entry_is_held_to_the_rv32_convention() {
    for i in 19..=26 {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldi { rd: Reg::new(i), imm: 1 });
        f.push(Inst::Bv { base: RV32.rp });
        let m = ObjectModule { target: TargetId::Rv32, ..module(vec![f]) };
        let report = verify_modules(&[m], &ProgramDatabase::new());
        assert_eq!(kinds(&report), vec![DiagKind::CalleeSavesClobber], "x{i}");
    }
}

#[test]
fn restore_missing_on_one_path_is_flagged() {
    let r5 = Reg::new(5);
    let mut f = MachineFunction::new("main");
    let skip = f.new_label();
    f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
    f.push(Inst::Stw { rs: r5, base: Reg::SP, disp: 0, class: MemClass::Spill });
    f.push(Inst::Ldi { rd: r5, imm: 9 });
    f.push(Inst::Comb { cond: Cond::Eq, rs1: Reg::RV, rs2: Reg::ZERO, target: skip });
    f.push(Inst::Ldw { rd: r5, base: Reg::SP, disp: 0, class: MemClass::Spill });
    f.bind_label(skip); // the taken arm reaches the epilogue without restoring
    f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 1 });
    f.push(ret());
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::MissingRestore]);
}

#[test]
fn unbalanced_stack_is_flagged() {
    let mut f = MachineFunction::new("main");
    f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
    f.push(ret());
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::SpUnbalanced]);
}

#[test]
fn missing_rp_restore_is_flagged() {
    // A call dirties RP; returning without restoring it is flagged.
    let g = leaf("g", vec![]);
    let mut f = MachineFunction::new("main");
    f.push(Inst::Call { target: "g".into() });
    f.push(ret());
    let report = verify_modules(&[module(vec![f, g])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::ReturnAddressClobbered]);
}

#[test]
fn reserved_register_writes_are_flagged() {
    let f = leaf(
        "main",
        vec![
            Inst::Ldi { rd: Reg::ZERO, imm: 1 },
            Inst::Ldi { rd: Reg::DP, imm: 2 },
            Inst::Copy { rd: Reg::SP, rs: Reg::new(19) },
            Inst::Ldi { rd: Reg::RP, imm: 3 },
        ],
    );
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    // Four reserved writes; the bogus RP value is also caught at the return.
    assert_eq!(report.of_kind(DiagKind::ReservedRegWrite).count(), 4);
    assert_eq!(report.of_kind(DiagKind::ReturnAddressClobbered).count(), 1);
}

#[test]
fn non_return_indirect_jump_is_flagged() {
    let mut f = MachineFunction::new("main");
    f.push(Inst::Bv { base: Reg::new(19) });
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::NonReturnIndirectJump]);
}

#[test]
fn frame_out_of_bounds_access_is_flagged() {
    let f = framed(
        "main",
        &[Reg::new(5)],
        vec![Inst::Ldw { rd: Reg::RV, base: Reg::SP, disp: 5, class: MemClass::ScalarLocal }],
    );
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::FrameOutOfBounds]);
}

#[test]
fn store_into_callers_frame_is_flagged() {
    let mut f = MachineFunction::new("main");
    f.push(Inst::Stw { rs: Reg::RV, base: Reg::SP, disp: 3, class: MemClass::Frame });
    f.push(ret());
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::FrameOutOfBounds]);
}

#[test]
fn caller_saves_live_across_clobbering_call_is_flagged() {
    let r19 = Reg::new(19);
    let dirty = leaf("dirty", vec![Inst::Ldi { rd: r19, imm: 0 }]);
    let f = framed(
        "main",
        &[Reg::RP],
        vec![
            Inst::Ldi { rd: r19, imm: 7 },
            Inst::Call { target: "dirty".into() },
            Inst::Copy { rd: Reg::RV, rs: r19 },
        ],
    );
    let report = verify_modules(&[module(vec![f, dirty])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::CallerSavesLiveAcrossCall]);
    assert!(report.diagnostics[0].detail.contains("r19"));
}

#[test]
fn caller_saves_live_across_safe_call_is_clean() {
    // Same shape, but the callee provably leaves r19 alone: the
    // machine-level clobber fixpoint proves it safe (the §7.6.2 idea).
    let r19 = Reg::new(19);
    let safe = leaf("safe", vec![Inst::Ldi { rd: Reg::RV, imm: 1 }]);
    let f = framed(
        "main",
        &[Reg::RP],
        vec![
            Inst::Ldi { rd: r19, imm: 7 },
            Inst::Call { target: "safe".into() },
            Inst::Copy { rd: Reg::RV, rs: r19 },
        ],
    );
    let report = verify_modules(&[module(vec![f, safe])], &ProgramDatabase::new());
    assert!(report.is_clean(), "got:\n{report}");
}

#[test]
fn indirect_calls_union_address_taken_clobbers() {
    let r19 = Reg::new(19);
    let dirty = leaf("dirty", vec![Inst::Ldi { rd: r19, imm: 0 }]);
    let f = framed(
        "main",
        &[Reg::RP],
        vec![
            Inst::Ldi { rd: r19, imm: 7 },
            Inst::Ldfa { rd: Reg::new(20), func: "dirty".into() },
            Inst::CallInd { base: Reg::new(20) },
            Inst::Copy { rd: Reg::RV, rs: r19 },
        ],
    );
    let report = verify_modules(&[module(vec![f, dirty])], &ProgramDatabase::new());
    assert_eq!(kinds(&report), vec![DiagKind::CallerSavesLiveAcrossCall]);
}

/// Database for one promotion web: `entry` loads/stores global `gv` in
/// `reg`; `member` holds it without the entry protocol.
fn web_db(reg: Reg) -> ProgramDatabase {
    let mut db = ProgramDatabase::new();
    let mut e = ProcDirectives::standard_for("entry", TargetId::Vpr);
    e.promotions.push(Promotion { sym: "gv".into(), reg, is_entry: true, store_at_exit: true });
    db.insert(e);
    let mut m = ProcDirectives::standard_for("member", TargetId::Vpr);
    m.promotions.push(Promotion { sym: "gv".into(), reg, is_entry: false, store_at_exit: true });
    db.insert(m);
    db
}

/// The web-entry procedure, emit-shaped: save home reg, load the global,
/// run `body`, store the global back, restore, return.
fn web_entry(reg: Reg, body: Vec<Inst>) -> MachineFunction {
    let mut f = MachineFunction::new("entry");
    f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
    f.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
    f.push(Inst::Stw { rs: reg, base: Reg::SP, disp: 1, class: MemClass::Spill });
    f.push(Inst::Ldg { rd: reg, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal });
    for i in body {
        f.push(i);
    }
    f.push(Inst::Stg { rs: reg, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal });
    f.push(Inst::Ldw { rd: reg, base: Reg::SP, disp: 1, class: MemClass::Spill });
    f.push(Inst::Ldw { rd: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
    f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
    f.push(ret());
    f
}

#[test]
fn well_formed_web_verifies_clean() {
    let r5 = Reg::new(5);
    // member updates the global in its home register — no memory traffic.
    let member = leaf("member", vec![Inst::Alui { op: AluOp::Add, rd: r5, rs1: r5, imm: 1 }]);
    let entry = web_entry(r5, vec![Inst::Call { target: "member".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, member])], &web_db(r5));
    assert!(report.is_clean(), "got:\n{report}");
}

#[test]
fn residual_access_inside_web_is_flagged() {
    let r5 = Reg::new(5);
    let member = leaf(
        "member",
        vec![Inst::Ldg {
            rd: Reg::new(19),
            sym: "gv".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        }],
    );
    let entry = web_entry(r5, vec![Inst::Call { target: "member".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, member])], &web_db(r5));
    assert_eq!(report.of_kind(DiagKind::ResidualGlobalAccess).count(), 1);
}

#[test]
fn calling_web_interior_from_outside_is_flagged() {
    let r5 = Reg::new(5);
    let member = leaf("member", vec![Inst::Alui { op: AluOp::Add, rd: r5, rs1: r5, imm: 1 }]);
    let entry = web_entry(r5, vec![Inst::Call { target: "member".into() }]);
    // main calls the interior member directly, bypassing the entry's load.
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "member".into() }]);
    let report = verify_modules(&[module(vec![main, entry, member])], &web_db(r5));
    assert_eq!(report.of_kind(DiagKind::WebEntryBypass).count(), 1);
}

#[test]
fn disagreeing_home_registers_are_flagged() {
    let (r5, r6) = (Reg::new(5), Reg::new(6));
    let mut db = ProgramDatabase::new();
    let mut e = ProcDirectives::standard_for("entry", TargetId::Vpr);
    e.promotions.push(Promotion { sym: "gv".into(), reg: r5, is_entry: true, store_at_exit: true });
    db.insert(e);
    let mut m = ProcDirectives::standard_for("member", TargetId::Vpr);
    m.promotions.push(Promotion {
        sym: "gv".into(),
        reg: r6,
        is_entry: false,
        store_at_exit: true,
    });
    db.insert(m);
    let member = leaf("member", vec![Inst::Alui { op: AluOp::Add, rd: r6, rs1: r6, imm: 1 }]);
    let entry = web_entry(r5, vec![Inst::Call { target: "member".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, member])], &db);
    assert_eq!(report.of_kind(DiagKind::InconsistentWebReg).count(), 1);
}

#[test]
fn callee_clobbering_home_register_is_flagged() {
    let r5 = Reg::new(5);
    // `rogue` is outside the web and trashes r5 without saving it.
    let rogue = leaf("rogue", vec![Inst::Ldi { rd: r5, imm: 0 }]);
    let entry = web_entry(r5, vec![Inst::Call { target: "rogue".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, rogue])], &web_db(r5));
    assert_eq!(report.of_kind(DiagKind::PromotionClobber).count(), 1);
    // rogue's own discipline violation is flagged too.
    assert_eq!(report.of_kind(DiagKind::CalleeSavesClobber).count(), 1);
}

#[test]
fn reaching_the_globals_memory_home_from_inside_the_web_is_flagged() {
    let r5 = Reg::new(5);
    // `outside` legitimately uses gv's memory home — legal on its own,
    // but not reachable from inside the web, where the home is stale
    // because the entry updates the register copy before the call.
    let outside = leaf(
        "outside",
        vec![Inst::Ldg { rd: Reg::RV, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal }],
    );
    let entry = web_entry(
        r5,
        vec![
            Inst::Alui { op: AluOp::Add, rd: r5, rs1: r5, imm: 1 },
            Inst::Call { target: "outside".into() },
        ],
    );
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, outside])], &web_db(r5));
    assert_eq!(report.of_kind(DiagKind::WebEscape).count(), 1);
}

#[test]
fn cluster_root_missing_boundary_restore_is_flagged() {
    let r7 = Reg::new(7);
    let mut db = ProgramDatabase::new();
    let mut root = ProcDirectives::standard_for("root", TargetId::Vpr);
    root.is_cluster_root = true;
    root.usage.mspill.insert(r7);
    db.insert(root);
    let mut member = ProcDirectives::standard_for("member", TargetId::Vpr);
    member.usage.free.insert(r7);
    db.insert(member);

    // The member uses r7 with no save — legal, its FREE set covers it.
    let member_f = leaf("member", vec![Inst::Ldi { rd: r7, imm: 42 }]);
    // The root saves r7 at the cluster boundary but never restores it.
    let mut root_f = MachineFunction::new("root");
    root_f.push(Inst::Alui { op: AluOp::Sub, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
    root_f.push(Inst::Stw { rs: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
    root_f.push(Inst::Stw { rs: r7, base: Reg::SP, disp: 1, class: MemClass::Spill });
    root_f.push(Inst::Call { target: "member".into() });
    root_f.push(Inst::Ldw { rd: Reg::RP, base: Reg::SP, disp: 0, class: MemClass::Frame });
    root_f.push(Inst::Alui { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: 2 });
    root_f.push(ret());
    // main saves r7 itself so the cascaded clobber stops at the root.
    let main = framed("main", &[Reg::RP, r7], vec![Inst::Call { target: "root".into() }]);
    let report = verify_modules(&[module(vec![main, root_f, member_f])], &db);
    assert_eq!(kinds(&report), vec![DiagKind::MissingClusterSave]);
    assert_eq!(report.diagnostics[0].proc, "root");
}

#[test]
fn intact_cluster_boundary_verifies_clean() {
    let r7 = Reg::new(7);
    let mut db = ProgramDatabase::new();
    let mut root = ProcDirectives::standard_for("root", TargetId::Vpr);
    root.is_cluster_root = true;
    root.usage.mspill.insert(r7);
    db.insert(root);
    let mut member = ProcDirectives::standard_for("member", TargetId::Vpr);
    member.usage.free.insert(r7);
    db.insert(member);

    let member_f = leaf("member", vec![Inst::Ldi { rd: r7, imm: 42 }]);
    let root_f = framed("root", &[Reg::RP, r7], vec![Inst::Call { target: "member".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "root".into() }]);
    let report = verify_modules(&[module(vec![main, root_f, member_f])], &db);
    assert!(report.is_clean(), "got:\n{report}");
}

#[test]
fn undefined_callee_and_duplicate_definition_are_malformed() {
    let a = leaf("dup", vec![]);
    let b = leaf("dup", vec![]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "nowhere".into() }]);
    let report = verify_modules(&[module(vec![main, a, b])], &ProgramDatabase::new());
    assert_eq!(report.of_kind(DiagKind::MalformedCode).count(), 2);
}

#[test]
fn report_display_carries_provenance() {
    let f = leaf("main", vec![Inst::Ldi { rd: Reg::new(7), imm: 1 }]);
    let report = verify_modules(&[module(vec![f])], &ProgramDatabase::new());
    let text = report.to_string();
    assert!(text.contains("t::main"), "missing module/proc provenance: {text}");
    assert!(text.contains("callee-saves-clobber"), "missing kind: {text}");
}

/// A database promoting `gv` into `reg` for `main` alone, as the
/// alias-precision configuration does for a read-only aliased global:
/// single-node web, no store-back at exit.
fn read_only_db(reg: Reg) -> ProgramDatabase {
    let mut db = ProgramDatabase::new();
    let mut m = ProcDirectives::standard_for("main", TargetId::Vpr);
    m.promotions.push(Promotion { sym: "gv".into(), reg, is_entry: true, store_at_exit: false });
    db.insert(m);
    db
}

#[test]
fn read_only_aliasing_of_a_promoted_global_verifies_clean() {
    let (r5, p, v) = (Reg::new(5), Reg::new(19), Reg::new(20));
    // main holds gv in r5 (read-only web) and also reads it through a
    // pointer — legal: the memory home always matches the register copy.
    let main = framed(
        "main",
        &[Reg::RP, r5],
        vec![
            Inst::Ldg { rd: r5, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Ldw { rd: v, base: p, disp: 0, class: MemClass::Indirect },
            Inst::Alu { op: AluOp::Add, rd: Reg::RV, rs1: r5, rs2: v },
        ],
    );
    let report = verify_modules(&[module(vec![main])], &read_only_db(r5));
    assert!(report.is_clean(), "got:\n{report}");
}

#[test]
fn indirect_store_to_a_promoted_global_is_flagged() {
    let (r5, p) = (Reg::new(5), Reg::new(19));
    let main = framed(
        "main",
        &[Reg::RP, r5],
        vec![
            Inst::Ldg { rd: r5, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Stw { rs: Reg::ZERO, base: p, disp: 0, class: MemClass::Indirect },
        ],
    );
    let report = verify_modules(&[module(vec![main])], &read_only_db(r5));
    assert_eq!(report.of_kind(DiagKind::IndirectStoreToPromoted).count(), 1, "got:\n{report}");
    let d = report.of_kind(DiagKind::IndirectStoreToPromoted).next().unwrap();
    assert!(d.detail.contains("gv"), "{d}");
    assert_eq!(d.inst, Some(5), "the store, not the address-take");
}

#[test]
fn address_flow_survives_copies_and_address_arithmetic() {
    let (r5, p, q) = (Reg::new(5), Reg::new(19), Reg::new(20));
    let main = framed(
        "main",
        &[Reg::RP, r5],
        vec![
            Inst::Ldg { rd: r5, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Copy { rd: q, rs: p },
            Inst::Alui { op: AluOp::Add, rd: q, rs1: q, imm: 0 },
            Inst::Stw { rs: Reg::ZERO, base: q, disp: 0, class: MemClass::Indirect },
        ],
    );
    let report = verify_modules(&[module(vec![main])], &read_only_db(r5));
    assert_eq!(report.of_kind(DiagKind::IndirectStoreToPromoted).count(), 1, "got:\n{report}");
}

#[test]
fn pointer_load_from_a_written_web_global_is_flagged() {
    let (r5, p, v) = (Reg::new(5), Reg::new(19), Reg::new(20));
    // entry/member form a *written* web for gv; the member reads gv
    // through a pointer while the register copy may be newer.
    let member = leaf(
        "member",
        vec![
            Inst::Alui { op: AluOp::Add, rd: r5, rs1: r5, imm: 1 },
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Ldw { rd: v, base: p, disp: 0, class: MemClass::Indirect },
        ],
    );
    let entry = web_entry(r5, vec![Inst::Call { target: "member".into() }]);
    let main = framed("main", &[Reg::RP], vec![Inst::Call { target: "entry".into() }]);
    let report = verify_modules(&[module(vec![main, entry, member])], &web_db(r5));
    // Both the materialized address and the stale read are reported.
    assert_eq!(report.of_kind(DiagKind::ResidualGlobalAccess).count(), 2, "got:\n{report}");
}

#[test]
fn indirect_stores_in_unreachable_code_are_ignored() {
    let (r5, p) = (Reg::new(5), Reg::new(19));
    let main = framed(
        "main",
        &[Reg::RP, r5],
        vec![Inst::Ldg { rd: r5, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal }],
    );
    // `dead` is never called; its pointer write to gv cannot execute.
    let dead = leaf(
        "dead",
        vec![
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Stw { rs: Reg::ZERO, base: p, disp: 0, class: MemClass::Indirect },
        ],
    );
    let report = verify_modules(&[module(vec![main, dead])], &read_only_db(r5));
    assert!(report.is_clean(), "got:\n{report}");
}

#[test]
fn calls_kill_caller_saves_address_knowledge() {
    let (r5, p) = (Reg::new(5), Reg::new(19));
    // p (caller-saves) is clobbered by the call, so the store afterwards
    // is through an unknown pointer — not flagged (may-analysis resets).
    let callee = leaf("f", vec![Inst::Ldi { rd: p, imm: 0 }]);
    let main = framed(
        "main",
        &[Reg::RP, r5],
        vec![
            Inst::Ldg { rd: r5, sym: "gv".into(), offset: 0, class: MemClass::ScalarGlobal },
            Inst::Lga { rd: p, sym: "gv".into(), offset: 0 },
            Inst::Call { target: "f".into() },
            Inst::Stw { rs: Reg::ZERO, base: p, disp: 0, class: MemClass::Indirect },
        ],
    );
    let report = verify_modules(&[module(vec![main, callee])], &read_only_db(r5));
    assert_eq!(report.of_kind(DiagKind::IndirectStoreToPromoted).count(), 0, "got:\n{report}");
}
