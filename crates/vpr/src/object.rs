//! Symbolic views of object modules: relocations and symbol tables.
//!
//! An [`ObjectModule`] carries its external
//! references as relocatable *pseudo* instructions (`LDG`/`STG`/`LGA`/
//! `LDFA`/`CALL`). This module exposes that implicit structure explicitly:
//! [`ObjectModule::relocations`] lists every symbolic reference with its
//! site, and [`ObjectModule::symbol_table`] / [`program_symbols`] split the
//! involved names into defined and undefined sets — what the
//! [linker](crate::program::link_with) resolves up front and what archive
//! member selection and `objdump` report on.

use crate::inst::Inst;
use crate::program::ObjectModule;
use std::collections::BTreeSet;
use std::fmt;

/// What kind of reference a relocation site makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RelocKind {
    /// `CALL sym` — a direct procedure call.
    Call,
    /// `LDFA rd, sym` — taking a procedure's address.
    FuncAddr,
    /// `LDG rd, sym+off` — a load from a global.
    GlobalLoad,
    /// `STG rs, sym+off` — a store to a global.
    GlobalStore,
    /// `LGA rd, sym+off` — taking a global's address.
    GlobalAddr,
}

impl RelocKind {
    /// Does this relocation name a procedure (as opposed to a global)?
    pub fn is_function(self) -> bool {
        matches!(self, RelocKind::Call | RelocKind::FuncAddr)
    }
}

impl fmt::Display for RelocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelocKind::Call => "call",
            RelocKind::FuncAddr => "funcaddr",
            RelocKind::GlobalLoad => "load",
            RelocKind::GlobalStore => "store",
            RelocKind::GlobalAddr => "addr",
        };
        f.write_str(s)
    }
}

/// One symbolic reference site inside an object module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// The referencing procedure.
    pub func: String,
    /// Instruction index within the procedure (pre-link numbering).
    pub inst: usize,
    /// Reference kind.
    pub kind: RelocKind,
    /// The referenced symbol.
    pub sym: String,
}

/// Defined and undefined symbol sets of one module (or a whole program —
/// see [`program_symbols`]). Ordered sets so every rendering is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    /// Procedures defined here.
    pub defined_funcs: BTreeSet<String>,
    /// Globals defined here.
    pub defined_globals: BTreeSet<String>,
    /// Procedures referenced but not defined here.
    pub undefined_funcs: BTreeSet<String>,
    /// Globals referenced but not defined here.
    pub undefined_globals: BTreeSet<String>,
}

impl SymbolTable {
    /// Are there no unresolved references?
    pub fn is_closed(&self) -> bool {
        self.undefined_funcs.is_empty() && self.undefined_globals.is_empty()
    }
}

/// A [`Relocation`] that borrows its names from the module, for callers
/// that only test them against symbol sets.
pub(crate) struct RelocSite<'a> {
    pub(crate) func: &'a str,
    pub(crate) inst: usize,
    pub(crate) kind: RelocKind,
    pub(crate) sym: &'a str,
}

impl ObjectModule {
    /// Every symbolic reference site, in (function, instruction) order.
    pub fn relocations(&self) -> Vec<Relocation> {
        self.reloc_sites()
            .map(|r| Relocation {
                func: r.func.to_string(),
                inst: r.inst,
                kind: r.kind,
                sym: r.sym.to_string(),
            })
            .collect()
    }

    /// [`relocations`](ObjectModule::relocations), borrowed: the same
    /// sites in the same order, with no string copied.
    pub(crate) fn reloc_sites(&self) -> impl Iterator<Item = RelocSite<'_>> {
        self.functions.iter().flat_map(|f| {
            f.insts().iter().enumerate().filter_map(move |(inst, op)| {
                let (kind, sym) = match op {
                    Inst::Call { target } => (RelocKind::Call, target),
                    Inst::Ldfa { func, .. } => (RelocKind::FuncAddr, func),
                    Inst::Ldg { sym, .. } => (RelocKind::GlobalLoad, sym),
                    Inst::Stg { sym, .. } => (RelocKind::GlobalStore, sym),
                    Inst::Lga { sym, .. } => (RelocKind::GlobalAddr, sym),
                    _ => return None,
                };
                Some(RelocSite { func: f.name(), inst, kind, sym })
            })
        })
    }

    /// The module's defined/undefined symbol split.
    pub fn symbol_table(&self) -> SymbolTable {
        program_symbols(std::slice::from_ref(self))
    }
}

/// The combined symbol table of a set of modules, as the linker sees them:
/// definitions are unioned, and a reference is undefined only if no module
/// in the set defines it.
pub fn program_symbols(modules: &[ObjectModule]) -> SymbolTable {
    let mut t = SymbolTable::default();
    for m in modules {
        for f in &m.functions {
            t.defined_funcs.insert(f.name().to_string());
        }
        for g in &m.globals {
            t.defined_globals.insert(g.sym.clone());
        }
    }
    for m in modules {
        for r in m.reloc_sites() {
            let (defined, undefined) = if r.kind.is_function() {
                (&t.defined_funcs, &mut t.undefined_funcs)
            } else {
                (&t.defined_globals, &mut t.undefined_globals)
            };
            if !defined.contains(r.sym) && !undefined.contains(r.sym) {
                undefined.insert(r.sym.to_string());
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemClass;
    use crate::program::{GlobalDef, MachineFunction};
    use crate::regs::Reg;

    fn module() -> ObjectModule {
        let mut f = MachineFunction::new("main");
        f.push(Inst::Ldg {
            rd: Reg::RV,
            sym: "g".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Stg {
            rs: Reg::RV,
            sym: "h".into(),
            offset: 0,
            class: MemClass::ScalarGlobal,
        });
        f.push(Inst::Lga { rd: Reg::RV, sym: "g".into(), offset: 0 });
        f.push(Inst::Ldfa { rd: Reg::RV, func: "helper".into() });
        f.push(Inst::Call { target: "ext".into() });
        f.push(Inst::Bv { base: Reg::RP });
        let mut helper = MachineFunction::new("helper");
        helper.push(Inst::Bv { base: Reg::RP });
        ObjectModule {
            name: "m".into(),
            functions: vec![f, helper],
            globals: vec![GlobalDef { sym: "g".into(), size: 1, init: vec![] }],
            ..Default::default()
        }
    }

    #[test]
    fn relocations_list_every_symbolic_site_in_order() {
        let relocs = module().relocations();
        let kinds: Vec<(RelocKind, &str)> =
            relocs.iter().map(|r| (r.kind, r.sym.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (RelocKind::GlobalLoad, "g"),
                (RelocKind::GlobalStore, "h"),
                (RelocKind::GlobalAddr, "g"),
                (RelocKind::FuncAddr, "helper"),
                (RelocKind::Call, "ext"),
            ]
        );
        assert!(relocs.iter().all(|r| r.func == "main"));
        assert_eq!(relocs[0].inst, 0);
        assert_eq!(relocs[4].inst, 4);
    }

    #[test]
    fn symbol_table_splits_defined_and_undefined() {
        let t = module().symbol_table();
        assert!(t.defined_funcs.contains("main") && t.defined_funcs.contains("helper"));
        assert!(t.defined_globals.contains("g"));
        assert_eq!(t.undefined_funcs.iter().collect::<Vec<_>>(), vec!["ext"]);
        assert_eq!(t.undefined_globals.iter().collect::<Vec<_>>(), vec!["h"]);
        assert!(!t.is_closed());
    }

    #[test]
    fn program_symbols_resolve_across_modules() {
        let mut ext = MachineFunction::new("ext");
        ext.push(Inst::Bv { base: Reg::RP });
        let lib = ObjectModule {
            name: "lib".into(),
            functions: vec![ext],
            globals: vec![GlobalDef { sym: "h".into(), size: 1, init: vec![] }],
            ..Default::default()
        };
        let t = program_symbols(&[module(), lib]);
        assert!(t.is_closed(), "{t:?}");
    }
}
