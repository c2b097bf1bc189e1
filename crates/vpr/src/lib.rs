//! # vpr — the Virtual Precision RISC
//!
//! The measurement substrate for the PLDI'90 interprocedural register
//! allocation reproduction: a PA-RISC-flavoured 32-register load/store
//! machine, an object-module linker, and a counting simulator.
//!
//! The paper evaluated on HP PA-RISC using a cycle-accurate simulator that
//! excluded cache effects; `vpr` plays that role here. It provides:
//!
//! * [`regs`] — the register file, the callee/caller-saves linkage
//!   convention, and the [`regs::RegSet`] bitset used throughout the
//!   analyzer,
//! * [`inst`] — the instruction set, including relocatable pseudo
//!   instructions for global and procedure references,
//! * [`cfg`] — per-instruction control-flow graphs over machine functions,
//!   the substrate for machine-level dataflow (the `ipra-verify` checker),
//! * [`object`] — symbolic relocation and symbol-table views of object
//!   modules (what the linker resolves and `objdump` renders),
//! * [`program`] — machine functions, object modules, and the
//!   [linker](program::link),
//! * [`sim`] — the reference simulator, with cycle, memory-reference
//!   (singleton vs. other), and call-profile accounting,
//! * [`exec`] — the fast pre-decoded execution engine, bit-identical to
//!   [`sim`] in every observable (selected via [`sim::Engine`]),
//! * [`profile`] — per-pc execution profiles recorded by both engines and
//!   their derived opcode/block/procedure hot tables,
//! * [`asm`] — diagnostic assembly rendering.
//!
//! # Examples
//!
//! ```
//! # use vpr::program::{link, MachineFunction, ObjectModule};
//! # use vpr::inst::Inst;
//! # use vpr::regs::Reg;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = MachineFunction::new("main");
//! f.push(Inst::Ldi { rd: Reg::RV, imm: 42 });
//! f.push(Inst::Bv { base: Reg::RP });
//! let exe = link(&[ObjectModule { name: "m".into(), functions: vec![f], globals: vec![], ..Default::default() }])?;
//! let result = vpr::sim::run(&exe)?;
//! assert_eq!(result.exit, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod cfg;
pub mod exec;
pub mod inst;
mod memory;
pub mod object;
pub mod profile;
pub mod program;
pub mod regs;
pub mod sim;
pub mod target;

pub use exec::{decode, DecodedProgram};
pub use inst::{AluOp, Cond, Inst, Label, MemClass};
pub use object::{program_symbols, RelocKind, Relocation, SymbolTable};
pub use profile::{BlockCount, ExecProfile, ProcProfileRow};
pub use program::{
    link, link_with, Executable, GlobalDef, LinkError, LinkOptions, MachineFunction, ObjectModule,
};
pub use regs::{Reg, RegSet};
pub use sim::{
    run, run_with, Attribution, Engine, ProcCost, RunResult, RunStats, SimError, SimOptions,
    STARTUP_PROC,
};
pub use target::{TargetDesc, TargetId};
