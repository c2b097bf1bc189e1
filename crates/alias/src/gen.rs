//! Constraint generation: one IR function → one [`ProcConstraints`] record.
//!
//! Runs in the compiler first phase, per module, with no knowledge of the
//! rest of the program — exactly like the classic summary fields. Whether a
//! direct callee is defined, and what an indirect call may reach, is the
//! solver's business.

use crate::{Constraint, Node, ProcConstraints};
use cmin_ir::cfg::Cfg;
use cmin_ir::ir::{Callee, Function, Inst, Operand, Term};

fn node(op: Operand) -> Option<Node> {
    match op {
        Operand::Temp(t) => Some(Node::Var(t.0)),
        Operand::Const(_) => None,
    }
}

/// Derives the pointer-flow constraints of one function, whose CFG is
/// `cfg`.
///
/// Only reachable blocks contribute (an unreachable block can never
/// execute); within them, every instruction that can move or dereference
/// an address becomes a constraint. Arithmetic propagates both operands —
/// pointer arithmetic conservatively keeps the base's targets.
pub fn constraints_for(f: &Function, cfg: &Cfg) -> ProcConstraints {
    let mut out: Vec<Constraint> = Vec::new();
    for (i, &p) in f.params.iter().enumerate() {
        out.push(Constraint::Assign {
            dst: Node::Var(p.0),
            src: Node::Param(f.name.clone(), i as u32),
        });
    }
    let assign = |out: &mut Vec<Constraint>, dst: Node, src: Operand| {
        if let Some(s) = node(src) {
            out.push(Constraint::Assign { dst, src: s });
        }
    };
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for inst in &f.block(b).insts {
            match inst {
                Inst::Copy { dst, src } | Inst::Un { dst, src, .. } => {
                    assign(&mut out, Node::Var(dst.0), *src);
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    assign(&mut out, Node::Var(dst.0), *lhs);
                    assign(&mut out, Node::Var(dst.0), *rhs);
                }
                Inst::LoadGlobal { dst, sym } | Inst::LoadElem { dst, sym, .. } => {
                    out.push(Constraint::Assign {
                        dst: Node::Var(dst.0),
                        src: Node::Cell(sym.clone()),
                    });
                }
                Inst::StoreGlobal { sym, src } | Inst::StoreElem { sym, src, .. } => {
                    assign(&mut out, Node::Cell(sym.clone()), *src);
                }
                Inst::LoadInd { dst, addr } => {
                    if let Some(a) = node(*addr) {
                        out.push(Constraint::Load { dst: Node::Var(dst.0), addr: a });
                    }
                }
                Inst::StoreInd { addr, src } => {
                    if let Some(a) = node(*addr) {
                        out.push(Constraint::Store { addr: a, src: node(*src) });
                    }
                }
                Inst::AddrGlobal { dst, sym } => {
                    out.push(Constraint::AddrGlobal { dst: Node::Var(dst.0), sym: sym.clone() });
                }
                Inst::AddrFunc { dst, func } => {
                    out.push(Constraint::AddrFunc { dst: Node::Var(dst.0), func: func.clone() });
                }
                Inst::Call { dst, callee, args } => {
                    let args: Vec<Option<Node>> = args.iter().map(|&a| node(a)).collect();
                    let dst = dst.map(|d| Node::Var(d.0));
                    match callee {
                        Callee::Direct(n) => {
                            out.push(Constraint::CallDirect { callee: n.clone(), args, dst });
                        }
                        Callee::Indirect(o) => {
                            out.push(Constraint::CallIndirect { target: node(*o), args, dst });
                        }
                    }
                }
                Inst::In { .. } => {}
                Inst::Out { src } => {
                    // Printed values leave the analyzed world: conservatively
                    // feed them to the external node.
                    assign(&mut out, Node::Ext, *src);
                }
            }
        }
        if let Term::Ret(Some(v)) = &f.block(b).term {
            assign(&mut out, Node::Ret(f.name.clone()), *v);
        }
    }
    ProcConstraints { params: f.params.len() as u32, constraints: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint as C, Node as N};
    use cmin_frontend::{analyze, parse_module};
    use cmin_ir::{lower_module, optimize_module};

    fn gen(src: &str, name: &str) -> ProcConstraints {
        let m = parse_module("m", src).unwrap();
        let info = analyze(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        let f = ir.functions.iter().find(|f| f.name == name).unwrap();
        constraints_for(f, &Cfg::new(f))
    }

    #[test]
    fn pointer_store_and_load_become_constraints() {
        let pc = gen("int g; int f() { int p = &g; *p = 4; return *p; }", "f");
        assert!(pc
            .constraints
            .iter()
            .any(|c| matches!(c, C::AddrGlobal { sym, .. } if sym == "g")));
        assert!(pc.constraints.iter().any(|c| matches!(c, C::Store { .. })));
        assert!(pc.constraints.iter().any(|c| matches!(c, C::Load { .. })));
    }

    #[test]
    fn params_bind_and_generation_is_deterministic() {
        let src = "int g; int f(int p, int q) { *p = q; return 0; }";
        let pc = gen(src, "f");
        assert_eq!(pc.params, 2);
        assert!(pc
            .constraints
            .iter()
            .any(|c| matches!(c, C::Assign { src: N::Param(p, 0), .. } if p == "f")));
        assert_eq!(pc, gen(src, "f"));
    }

    #[test]
    fn calls_carry_argument_nodes() {
        let pc = gen("int g; extern int h(int, int); int f() { return h(&g, 3); }", "f");
        let call = pc
            .constraints
            .iter()
            .find_map(|c| match c {
                C::CallDirect { callee, args, dst } if callee == "h" => Some((args, dst)),
                _ => None,
            })
            .expect("call constraint");
        assert!(call.0[0].is_some(), "&g argument must carry a node");
        assert!(call.0[1].is_none(), "constant argument carries no node");
        assert!(call.1.is_some());
    }

    #[test]
    fn stored_addresses_flow_into_cells() {
        let pc = gen("int g; int q; int f() { q = &g; return 0; }", "f");
        assert!(pc
            .constraints
            .iter()
            .any(|c| matches!(c, C::Assign { dst: N::Cell(s), .. } if s == "q")));
    }
}
