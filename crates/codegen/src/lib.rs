//! # cmin-codegen — the compiler second phase
//!
//! Translates optimized `cmin` IR into VPR machine code, consulting the
//! program database produced by the analyzer (paper §5). The two pieces:
//!
//! * [`alloc`] — priority-based intraprocedural register allocation over
//!   IR temps, drawing from the analyzer's `FREE`/`CALLER`/`CALLEE`/`MSPILL`
//!   register classes;
//! * [`emit`] — instruction selection, frames, calling convention,
//!   promoted-global register moves, web-entry load/store insertion, and
//!   the prologue/epilogue spill code the directives prescribe.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cmin_frontend::{analyze, parse_module};
//! use cmin_ir::{lower_module, optimize_module};
//! use cmin_codegen::compile_module_for;
//! use ipra_core::ProgramDatabase;
//! use vpr::target::TargetId;
//!
//! let m = parse_module("m", "int main() { return 6 * 7; }")?;
//! let info = analyze(&m)?;
//! let mut ir = lower_module(&m, &info);
//! optimize_module(&mut ir);
//! let object = compile_module_for(&ir, &ProgramDatabase::new(), TargetId::Vpr);
//! let exe = vpr::link(&[object])?;
//! assert_eq!(vpr::run(&exe)?.exit, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod emit;
pub mod promote;

pub use alloc::{Allocation, Loc};
pub use emit::compile_module_for;
