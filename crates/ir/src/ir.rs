//! The `cmin` three-address intermediate representation.
//!
//! A conventional non-SSA, virtual-register IR: each function is a set of
//! basic blocks over an unbounded supply of [`Temp`]s, with explicit
//! terminators. Local variables and parameters live in temps (address-of on
//! locals is rejected by the frontend), so only spills, globals, arrays and
//! pointer dereferences touch memory — exactly the memory traffic the
//! paper's evaluation counts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A basic block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`Function::blocks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// An instruction operand: a temp or an immediate constant. Temps order
/// before constants, and each kind orders by its number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A virtual register.
    Temp(Temp),
    /// An immediate.
    Const(i64),
}

impl Operand {
    /// The temp inside, if this is one.
    pub fn as_temp(self) -> Option<Temp> {
        match self {
            Operand::Temp(t) => Some(t),
            Operand::Const(_) => None,
        }
    }

    /// The constant inside, if this is one.
    pub fn as_const(self) -> Option<i64> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Temp(_) => None,
        }
    }
}

impl From<Temp> for Operand {
    fn from(t: Temp) -> Operand {
        Operand::Temp(t)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Operand {
        Operand::Const(c)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Temp(t) => write!(f, "{t}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Pure binary operators (logical `&&`/`||` are lowered to control flow).
#[allow(missing_docs)] // variant names are the operators themselves
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Constant-folds the operation; `None` on division by zero.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
        })
    }

    /// Is this a comparison producing 0/1?
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Is `a op b == b op a` for all words?
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (1 if zero, else 0).
    Not,
}

impl UnOp {
    /// Constant-folds the operation.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => (a == 0) as i64,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// How a call reaches its callee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Callee {
    /// Direct call by link name.
    Direct(String),
    /// Indirect call through a computed function address.
    Indirect(Operand),
}

impl fmt::Display for Callee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Direct(n) => write!(f, "{n}"),
            Callee::Indirect(o) => write!(f, "*{o}"),
        }
    }
}

/// A non-terminating IR instruction.
#[allow(missing_docs)] // operand fields (dst, src, lhs, …) are self-describing
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst ← src`.
    Copy { dst: Temp, src: Operand },
    /// `dst ← op src`.
    Un { op: UnOp, dst: Temp, src: Operand },
    /// `dst ← lhs op rhs`.
    Bin { op: BinOp, dst: Temp, lhs: Operand, rhs: Operand },
    /// `dst ← global` (scalar global read, by link name).
    LoadGlobal { dst: Temp, sym: String },
    /// `global ← src` (scalar global write).
    StoreGlobal { sym: String, src: Operand },
    /// `dst ← array[index]`.
    LoadElem { dst: Temp, sym: String, index: Operand },
    /// `array[index] ← src`.
    StoreElem { sym: String, index: Operand, src: Operand },
    /// `dst ← mem[addr]` (pointer load).
    LoadInd { dst: Temp, addr: Operand },
    /// `mem[addr] ← src` (pointer store).
    StoreInd { addr: Operand, src: Operand },
    /// `dst ← &global`.
    AddrGlobal { dst: Temp, sym: String },
    /// `dst ← &procedure`.
    AddrFunc { dst: Temp, func: String },
    /// Call; `dst` receives the return value when used.
    Call { dst: Option<Temp>, callee: Callee, args: Vec<Operand> },
    /// `dst ← in()`.
    In { dst: Temp },
    /// `out(src)`.
    Out { src: Operand },
}

impl Inst {
    /// The temp this instruction defines, if any.
    pub fn def(&self) -> Option<Temp> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::LoadElem { dst, .. }
            | Inst::LoadInd { dst, .. }
            | Inst::AddrGlobal { dst, .. }
            | Inst::AddrFunc { dst, .. }
            | Inst::In { dst } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Invokes `f` on every operand this instruction uses.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::LoadGlobal { .. }
            | Inst::AddrGlobal { .. }
            | Inst::AddrFunc { .. }
            | Inst::In { .. } => {}
            Inst::StoreGlobal { src, .. } => f(*src),
            Inst::LoadElem { index, .. } => f(*index),
            Inst::StoreElem { index, src, .. } => {
                f(*index);
                f(*src);
            }
            Inst::LoadInd { addr, .. } => f(*addr),
            Inst::StoreInd { addr, src } => {
                f(*addr);
                f(*src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(o) = callee {
                    f(*o);
                }
                for a in args {
                    f(*a);
                }
            }
            Inst::Out { src } => f(*src),
        }
    }

    /// Rewrites every used operand with `f` (defs untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => *src = f(*src),
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::LoadGlobal { .. }
            | Inst::AddrGlobal { .. }
            | Inst::AddrFunc { .. }
            | Inst::In { .. } => {}
            Inst::StoreGlobal { src, .. } => *src = f(*src),
            Inst::LoadElem { index, .. } => *index = f(*index),
            Inst::StoreElem { index, src, .. } => {
                *index = f(*index);
                *src = f(*src);
            }
            Inst::LoadInd { addr, .. } => *addr = f(*addr),
            Inst::StoreInd { addr, src } => {
                *addr = f(*addr);
                *src = f(*src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(o) = callee {
                    *o = f(*o);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Out { src } => *src = f(*src),
        }
    }

    /// May this instruction observably affect the world (or trap)?
    /// Such instructions must survive dead-code elimination.
    pub fn has_side_effects(&self) -> bool {
        match self {
            Inst::StoreGlobal { .. }
            | Inst::StoreElem { .. }
            | Inst::StoreInd { .. }
            | Inst::Call { .. }
            | Inst::In { .. }
            | Inst::Out { .. } => true,
            // Loads can fault only through bad pointers/indices; element and
            // indirect accesses are kept for trap equivalence.
            Inst::LoadElem { .. } | Inst::LoadInd { .. } => true,
            Inst::Bin { op: BinOp::Div | BinOp::Rem, rhs, .. } => {
                // Division by a non-constant (or zero) divisor may trap.
                !matches!(rhs, Operand::Const(c) if *c != 0)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Un { op, dst, src } => write!(f, "{dst} = {op}{src}"),
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {lhs} {op} {rhs}"),
            Inst::LoadGlobal { dst, sym } => write!(f, "{dst} = @{sym}"),
            Inst::StoreGlobal { sym, src } => write!(f, "@{sym} = {src}"),
            Inst::LoadElem { dst, sym, index } => write!(f, "{dst} = @{sym}[{index}]"),
            Inst::StoreElem { sym, index, src } => write!(f, "@{sym}[{index}] = {src}"),
            Inst::LoadInd { dst, addr } => write!(f, "{dst} = mem[{addr}]"),
            Inst::StoreInd { addr, src } => write!(f, "mem[{addr}] = {src}"),
            Inst::AddrGlobal { dst, sym } => write!(f, "{dst} = &@{sym}"),
            Inst::AddrFunc { dst, func } => write!(f, "{dst} = &{func}"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::In { dst } => write!(f, "{dst} = in()"),
            Inst::Out { src } => write!(f, "out({src})"),
        }
    }
}

/// A block terminator.
#[allow(missing_docs)] // operand fields are self-describing
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// `if lhs cond rhs then t else f`.
    Branch { cond: BinOp, lhs: Operand, rhs: Operand, then_b: BlockId, else_b: BlockId },
    /// Procedure return (value 0 when absent).
    Ret(Option<Operand>),
}

impl Term {
    /// Successor block ids, `then_b` before `else_b`.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (pair, len) = match *self {
            Term::Jump(b) => ([b, b], 1),
            Term::Branch { then_b, else_b, .. } => ([then_b, else_b], 2),
            Term::Ret(_) => ([BlockId(0); 2], 0),
        };
        pair.into_iter().take(len)
    }

    /// Invokes `f` on every operand used.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Term::Jump(_) => {}
            Term::Branch { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Term::Ret(Some(o)) => f(*o),
            Term::Ret(None) => {}
        }
    }

    /// Rewrites every used operand with `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Term::Jump(_) => {}
            Term::Branch { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Term::Ret(Some(o)) => *o = f(*o),
            Term::Ret(None) => {}
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Jump(b) => write!(f, "jump {b}"),
            Term::Branch { cond, lhs, rhs, then_b, else_b } => {
                write!(f, "if {lhs} {cond} {rhs} then {then_b} else {else_b}")
            }
            Term::Ret(Some(o)) => write!(f, "ret {o}"),
            Term::Ret(None) => write!(f, "ret"),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

/// An IR function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Link name (module-qualified for statics).
    pub name: String,
    /// Temps holding the incoming parameters.
    pub params: Vec<Temp>,
    /// Basic blocks; [`BlockId`] indexes this vector.
    pub blocks: Vec<Block>,
    /// Entry block (always `BlockId(0)`).
    pub entry: BlockId,
    /// Number of temps allocated.
    pub temp_count: u32,
}

impl Function {
    /// The block for `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Allocates a fresh temp.
    pub fn new_temp(&mut self) -> Temp {
        let t = Temp(self.temp_count);
        self.temp_count += 1;
        t
    }

    /// Iterates over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total instruction count (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for id in self.block_ids() {
            writeln!(f, "{id}:")?;
            for inst in &self.block(id).insts {
                writeln!(f, "    {inst}")?;
            }
            writeln!(f, "    {}", self.block(id).term)?;
        }
        writeln!(f, "}}")
    }
}

/// A global variable carried through to the object module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrGlobal {
    /// Link name.
    pub sym: String,
    /// Size in words.
    pub size: u32,
    /// Static initializer (zero-padded).
    pub init: Vec<i64>,
    /// Declared `static` in the source module?
    pub is_static: bool,
    /// Is this an array (ineligible for promotion)?
    pub is_array: bool,
}

/// The IR for one source module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrModule {
    /// Module name.
    pub name: String,
    /// Globals defined by this module.
    pub globals: Vec<IrGlobal>,
    /// Lowered functions (link names).
    pub functions: Vec<Function>,
}

impl IrModule {
    /// Finds a function by link name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_matches_semantics() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Div.eval(1, 0), None);
        assert_eq!(BinOp::Lt.eval(1, 2), Some(1));
        assert_eq!(BinOp::Ge.eval(1, 2), Some(0));
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(7), 0);
        assert_eq!(UnOp::Neg.eval(i64::MIN), i64::MIN);
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin { op: BinOp::Add, dst: Temp(2), lhs: Temp(0).into(), rhs: 5.into() };
        assert_eq!(i.def(), Some(Temp(2)));
        let mut uses = Vec::new();
        i.for_each_use(|o| uses.push(o));
        assert_eq!(uses, vec![Operand::Temp(Temp(0)), Operand::Const(5)]);
    }

    #[test]
    fn map_uses_rewrites() {
        let mut i = Inst::Call {
            dst: Some(Temp(9)),
            callee: Callee::Indirect(Temp(1).into()),
            args: vec![Temp(2).into(), 3.into()],
        };
        i.map_uses(|o| match o {
            Operand::Temp(Temp(n)) => Operand::Temp(Temp(n + 10)),
            c => c,
        });
        let mut uses = Vec::new();
        i.for_each_use(|o| uses.push(o));
        assert_eq!(uses, vec![Operand::Temp(Temp(11)), Operand::Temp(Temp(12)), Operand::Const(3)]);
        assert_eq!(i.def(), Some(Temp(9)));
    }

    #[test]
    fn side_effects_classification() {
        assert!(Inst::Out { src: 1.into() }.has_side_effects());
        assert!(Inst::StoreGlobal { sym: "g".into(), src: 1.into() }.has_side_effects());
        assert!(!Inst::LoadGlobal { dst: Temp(0), sym: "g".into() }.has_side_effects());
        assert!(Inst::LoadInd { dst: Temp(0), addr: Temp(1).into() }.has_side_effects());
        // Division by a constant nonzero divisor cannot trap.
        assert!(!Inst::Bin { op: BinOp::Div, dst: Temp(0), lhs: Temp(1).into(), rhs: 2.into() }
            .has_side_effects());
        assert!(Inst::Bin {
            op: BinOp::Div,
            dst: Temp(0),
            lhs: Temp(1).into(),
            rhs: Temp(2).into()
        }
        .has_side_effects());
        assert!(Inst::Bin { op: BinOp::Div, dst: Temp(0), lhs: Temp(1).into(), rhs: 0.into() }
            .has_side_effects());
    }

    #[test]
    fn term_successors() {
        let succs = |t: &Term| t.successors().collect::<Vec<_>>();
        assert_eq!(succs(&Term::Jump(BlockId(3))), vec![BlockId(3)]);
        assert_eq!(succs(&Term::Ret(None)), vec![]);
        let b = Term::Branch {
            cond: BinOp::Ne,
            lhs: Temp(0).into(),
            rhs: 0.into(),
            then_b: BlockId(1),
            else_b: BlockId(2),
        };
        assert_eq!(succs(&b), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn display_smoke() {
        let f = Function {
            name: "f".into(),
            params: vec![Temp(0)],
            blocks: vec![Block {
                insts: vec![Inst::Bin {
                    op: BinOp::Add,
                    dst: Temp(1),
                    lhs: Temp(0).into(),
                    rhs: 1.into(),
                }],
                term: Term::Ret(Some(Temp(1).into())),
            }],
            entry: BlockId(0),
            temp_count: 2,
        };
        let text = f.to_string();
        assert!(text.contains("fn f(t0)"));
        assert!(text.contains("t1 = t0 + 1"));
        assert!(text.contains("ret t1"));
    }
}
