//! Textual assembly rendering for VPR code.
//!
//! Purely diagnostic: `cminc objdump` and failing-test output use this to
//! show what the code generator and the linker produced.

use crate::inst::Inst;
use crate::program::{Executable, MachineFunction};
use crate::regs::Reg;
use crate::target::TargetDesc;
use std::fmt;

/// An instruction paired with an optional machine description: with one,
/// registers render as their ABI names (`a0`, `sp`, `rv`, …); without,
/// as raw `r<N>`.
struct InstWith<'a> {
    inst: &'a Inst,
    desc: Option<&'a TargetDesc>,
}

impl InstWith<'_> {
    fn reg(&self, r: Reg) -> String {
        match self.desc {
            Some(d) => d.reg_name(r).to_string(),
            None => r.to_string(),
        }
    }
}

impl fmt::Display for InstWith<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = |x: Reg| self.reg(x);
        match self.inst {
            Inst::Ldi { rd, imm } => write!(f, "ldi     {}, {imm}", r(*rd)),
            Inst::Copy { rd, rs } => write!(f, "copy    {}, {}", r(*rd), r(*rs)),
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{op:<7} {}, {}, {}", r(*rd), r(*rs1), r(*rs2))
            }
            Inst::Alui { op, rd, rs1, imm } => write!(
                f,
                "{op}i{:<width$} {}, {}, {imm}",
                "",
                r(*rd),
                r(*rs1),
                width = 6usize.saturating_sub(op.to_string().len() + 1)
            ),
            Inst::Cmp { cond, rd, rs1, rs2 } => {
                write!(f, "cmp{cond:<4} {}, {}, {}", r(*rd), r(*rs1), r(*rs2))
            }
            Inst::Ldw { rd, base, disp, class } => {
                write!(f, "ldw     {}, {disp}({})  ; {class:?}", r(*rd), r(*base))
            }
            Inst::Stw { rs, base, disp, class } => {
                write!(f, "stw     {}, {disp}({})  ; {class:?}", r(*rs), r(*base))
            }
            Inst::Ldg { rd, sym, offset, class } => {
                write!(f, "ldg     {}, {sym}+{offset}  ; {class:?}", r(*rd))
            }
            Inst::Stg { rs, sym, offset, class } => {
                write!(f, "stg     {}, {sym}+{offset}  ; {class:?}", r(*rs))
            }
            Inst::Lga { rd, sym, offset } => write!(f, "lga     {}, {sym}+{offset}", r(*rd)),
            Inst::Ldfa { rd, func } => write!(f, "ldfa    {}, {func}", r(*rd)),
            Inst::Call { target } => write!(f, "call    {target}"),
            Inst::CallAbs { entry } => write!(f, "call    @{entry}"),
            Inst::CallInd { base } => write!(f, "callind ({})", r(*base)),
            Inst::Bv { base } => write!(f, "bv      ({})", r(*base)),
            Inst::B { target } => write!(f, "b       {target}"),
            Inst::Comb { cond, rs1, rs2, target } => {
                write!(f, "comb{cond:<3} {}, {}, {target}", r(*rs1), r(*rs2))
            }
            Inst::Out { rs } => write!(f, "out     {}", r(*rs)),
            Inst::In { rd } => write!(f, "in      {}", r(*rd)),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        InstWith { inst: self, desc: None }.fmt(f)
    }
}

/// Renders a single pre-link function, with label markers and raw `r<N>`
/// register names.
pub fn function_asm(f: &MachineFunction) -> String {
    function_asm_impl(f, None)
}

/// [`function_asm`] with `desc`'s ABI register names.
pub fn function_asm_for(f: &MachineFunction, desc: &TargetDesc) -> String {
    function_asm_impl(f, Some(desc))
}

fn function_asm_impl(f: &MachineFunction, desc: Option<&TargetDesc>) -> String {
    use std::fmt::Write;
    let mut labels_at: Vec<Vec<usize>> = vec![Vec::new(); f.insts().len() + 1];
    for l in 0..f.label_count() {
        if let Some(idx) = f.label_target(crate::inst::Label(l as u32)) {
            labels_at[idx].push(l);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}:", f.name());
    for (i, inst) in f.insts().iter().enumerate() {
        for l in &labels_at[i] {
            let _ = writeln!(out, "  L{l}:");
        }
        let _ = writeln!(out, "    {}", InstWith { inst, desc });
    }
    for l in &labels_at[f.insts().len()] {
        let _ = writeln!(out, "  L{l}:");
    }
    out
}

/// Renders a full linked executable with function headers and addresses,
/// each call's target symbolized back to `proc+offset` through
/// [`Executable::symbolize`]. Registers render as the ABI names of the
/// executable's own target.
pub fn executable_asm(exe: &Executable) -> String {
    use std::fmt::Write;
    let desc = exe.target().desc();
    let mut out = String::new();
    let _ = writeln!(out, "; --- startup stub ({}) ---", desc.id.name());
    for (pc, inst) in exe.insts().iter().enumerate() {
        if let Some(fi) = exe.funcs().iter().find(|fi| fi.entry == pc) {
            let _ = writeln!(out, "\n{}:  ; @{}", fi.name, fi.entry);
        }
        let _ = write!(out, "  {pc:6}  {}", InstWith { inst, desc: Some(desc) });
        if let Inst::CallAbs { entry } = inst {
            if let Some(sym) = exe.symbolize(*entry as usize) {
                let _ = write!(out, "  ; -> {sym}");
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "\n; --- data ---");
    for g in exe.globals() {
        let _ = writeln!(out, ";   {} @ {} ({} words)", g.sym, g.addr, g.size);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, Label};
    use crate::program::{link, ObjectModule};
    use crate::regs::Reg;

    #[test]
    fn instruction_display_is_nonempty_and_distinct() {
        let insts = vec![
            Inst::Ldi { rd: Reg::RV, imm: 1 },
            Inst::Copy { rd: Reg::RV, rs: Reg::ZERO },
            Inst::Alu { op: AluOp::Add, rd: Reg::RV, rs1: Reg::ZERO, rs2: Reg::ZERO },
            Inst::Comb { cond: Cond::Lt, rs1: Reg::ZERO, rs2: Reg::RV, target: Label(0) },
            Inst::Halt,
            Inst::Nop,
        ];
        let mut seen = std::collections::HashSet::new();
        for i in &insts {
            let s = i.to_string();
            assert!(!s.is_empty());
            assert!(seen.insert(s));
        }
    }

    #[test]
    fn function_asm_shows_labels() {
        let mut f = MachineFunction::new("loopy");
        let top = f.new_label();
        f.bind_label(top);
        f.push(Inst::B { target: top });
        let text = function_asm(&f);
        assert!(text.contains("loopy:"));
        assert!(text.contains("L0:"));
        assert!(text.contains("b       L0"));
    }

    #[test]
    fn executable_asm_lists_functions_and_globals() {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Bv { base: Reg::RP });
        let m = ObjectModule {
            name: "m".into(),
            functions: vec![f],
            globals: vec![crate::program::GlobalDef { sym: "g".into(), size: 2, init: vec![] }],
            ..Default::default()
        };
        let exe = link(&[m]).unwrap();
        let text = executable_asm(&exe);
        assert!(text.contains("main:"));
        assert!(text.contains("g @ 16 (2 words)"));
        // The startup stub's call into `main` names its target.
        assert!(text.contains("call    @2  ; -> main+0"), "{text}");
    }
}
