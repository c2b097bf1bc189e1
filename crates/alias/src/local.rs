//! Per-procedure classification of address-taken globals.
//!
//! The classic summary carried one lumped `address_taken` bit per global.
//! [`local_bits`] splits it three ways using only the procedure's own
//! constraints (no whole-program information, so the compiler first phase
//! can compute it per module):
//!
//! * `ptr_mod` — the address is used to *write* the global here,
//! * `ptr_ref` — the address is used to *read* the global here,
//! * `escapes` — the address leaves the local tracking domain (stored to
//!   memory, passed to a call, returned, printed, or used untrackably).
//!
//! The union of the three bits is exactly the old `address_taken` bit: any
//! `&g` in the procedure sets at least one of them, with `escapes` as the
//! conservative catch-all.

use crate::{Constraint, Node, ProcConstraints};
use std::collections::{BTreeMap, BTreeSet};

/// The split per-global alias bits for one procedure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalBits {
    /// May the procedure write this global through a pointer?
    pub ptr_mod: bool,
    /// May the procedure read this global through a pointer?
    pub ptr_ref: bool,
    /// Does the global's address escape the procedure's tracked temps?
    pub escapes: bool,
}

impl LocalBits {
    /// The lumped classic bit: was the address taken at all?
    pub fn address_taken(&self) -> bool {
        self.ptr_mod || self.ptr_ref || self.escapes
    }
}

/// The local temp points-to sets: which globals each `Var` may address.
/// Only `Var → Var` flow is tracked; anything arriving from parameters,
/// cells or calls is unknown here (the whole-program solver's job).
fn local_pts(pc: &ProcConstraints) -> BTreeMap<u32, BTreeSet<String>> {
    let mut pts: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    loop {
        let mut changed = false;
        for c in &pc.constraints {
            match c {
                Constraint::AddrGlobal { dst: Node::Var(v), sym } => {
                    changed |= pts.entry(*v).or_default().insert(sym.clone());
                }
                Constraint::Assign { dst: Node::Var(d), src: Node::Var(s) } => {
                    // Most temps hold no address: touch `pts` only when
                    // there is one to pass on.
                    let Some(from) = pts.get(s).filter(|x| !x.is_empty()) else { continue };
                    let add: Vec<String> = from.iter().cloned().collect();
                    let e = pts.entry(*d).or_default();
                    for sym in add {
                        changed |= e.insert(sym);
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return pts;
        }
    }
}

fn targets<'a>(
    pts: &'a BTreeMap<u32, BTreeSet<String>>,
    n: Option<&Node>,
) -> Option<&'a BTreeSet<String>> {
    match n {
        Some(Node::Var(v)) => pts.get(v),
        _ => None,
    }
}

/// Computes the split alias bits for every global whose address this
/// procedure takes.
pub fn local_bits(pc: &ProcConstraints) -> BTreeMap<String, LocalBits> {
    let pts = local_pts(pc);
    let mut bits: BTreeMap<String, LocalBits> = BTreeMap::new();
    let mark = |bits: &mut BTreeMap<String, LocalBits>,
                syms: Option<&BTreeSet<String>>,
                f: fn(&mut LocalBits)| {
        for s in syms.into_iter().flatten() {
            f(bits.entry(s.clone()).or_default());
        }
    };
    for c in &pc.constraints {
        match c {
            Constraint::Load { addr, .. } => {
                mark(&mut bits, targets(&pts, Some(addr)), |b| b.ptr_ref = true);
            }
            Constraint::Store { addr, src } => {
                mark(&mut bits, targets(&pts, Some(addr)), |b| b.ptr_mod = true);
                mark(&mut bits, targets(&pts, src.as_ref()), |b| b.escapes = true);
            }
            // An address copied anywhere outside the Var domain — into a
            // global cell, the return value, or the external world — is out
            // of local sight.
            Constraint::Assign { dst: Node::Var(_), .. } => {}
            Constraint::Assign { dst: _, src: Node::Var(v) } => {
                mark(&mut bits, pts.get(v), |b| b.escapes = true);
            }
            Constraint::Assign { .. } => {}
            Constraint::CallDirect { args, .. } => {
                for a in args {
                    mark(&mut bits, targets(&pts, a.as_ref()), |b| b.escapes = true);
                }
            }
            Constraint::CallIndirect { target, args, .. } => {
                mark(&mut bits, targets(&pts, target.as_ref()), |b| b.escapes = true);
                for a in args {
                    mark(&mut bits, targets(&pts, a.as_ref()), |b| b.escapes = true);
                }
            }
            Constraint::AddrGlobal { .. } | Constraint::AddrFunc { .. } => {}
        }
    }
    // Catch-all: an address with no classified use at all (dead or
    // untracked) keeps the conservative escape bit, so the union of the
    // split bits equals the classic address-taken bit exactly.
    for c in &pc.constraints {
        if let Constraint::AddrGlobal { sym, .. } = c {
            let b = bits.entry(sym.clone()).or_default();
            if !b.address_taken() {
                b.escapes = true;
            }
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::constraints_for;
    use cmin_frontend::{analyze, parse_module};
    use cmin_ir::cfg::Cfg;
    use cmin_ir::{lower_module, optimize_module};

    fn bits(src: &str, name: &str) -> BTreeMap<String, LocalBits> {
        let m = parse_module("m", src).unwrap();
        let info = analyze(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        let f = ir.functions.iter().find(|f| f.name == name).unwrap();
        local_bits(&constraints_for(f, &Cfg::new(f)))
    }

    #[test]
    fn read_only_deref_sets_only_ptr_ref() {
        let b = bits("int g; int f() { return *(&g); }", "f");
        let g = b["g"];
        assert!(g.ptr_ref && !g.ptr_mod && !g.escapes);
        assert!(g.address_taken());
    }

    #[test]
    fn pointer_write_sets_ptr_mod() {
        let b = bits("int g; int f() { int p = &g; *p = 3; return 0; }", "f");
        assert!(b["g"].ptr_mod);
        assert!(!b["g"].ptr_ref);
    }

    #[test]
    fn address_passed_to_call_escapes() {
        let b = bits("int g; extern int h(int); int f() { return h(&g); }", "f");
        assert!(b["g"].escapes);
        assert!(!b["g"].ptr_mod && !b["g"].ptr_ref);
    }

    #[test]
    fn address_stored_to_global_escapes() {
        let b = bits("int g; int q; int f() { q = &g; return 0; }", "f");
        assert!(b["g"].escapes);
    }

    #[test]
    fn pointer_reassignment_tracks_both_targets() {
        let b = bits(
            "int g1; int g2;
             int f(int k) { int p = &g1; if (k) { p = &g2; } *p = 7; return 0; }",
            "f",
        );
        assert!(b["g1"].ptr_mod && b["g2"].ptr_mod);
    }
}
