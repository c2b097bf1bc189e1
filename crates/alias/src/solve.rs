//! The whole-program solver: constraint records in, [`Solution`] out.
//!
//! Runs in the program analyzer, after every module's summary (and thus
//! every [`ProcConstraints`] record) has been read. The solve is two-pass:
//!
//! 1. solve the full system and close the call graph (direct edges plus
//!    indirect edges resolved through points-to sets) from the root
//!    procedures, giving an over-approximation of the procedures that can
//!    ever execute;
//! 2. re-solve using only the reachable procedures' constraints, so an
//!    address that escapes *only in dead code* imposes no mod/ref facts —
//!    the precision the blanket address-taken bit can never deliver.
//!
//! Unknown external code is one `Ext` node: arguments passed to undefined
//! procedures (and printed values) flow into it, and it is closed under
//! "anything it holds it may load from, store through, or call".

use crate::{Atom, Constraint, Node, ProcConstraints};
use std::collections::{BTreeMap, BTreeSet};

/// A whole-program node: [`Node`] with `Var`s qualified by procedure.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GNode {
    Var(String, u32),
    Param(String, u32),
    Ret(String),
    Cell(String),
    Ext,
}

impl GNode {
    fn of(proc: &str, n: &Node) -> GNode {
        match n {
            Node::Var(v) => GNode::Var(proc.to_string(), *v),
            Node::Param(p, i) => GNode::Param(p.clone(), *i),
            Node::Ret(p) => GNode::Ret(p.clone()),
            Node::Cell(s) => GNode::Cell(s.clone()),
            Node::Ext => GNode::Ext,
        }
    }
}

/// The result of the interprocedural analysis. All per-procedure maps and
/// the escape set cover *reachable* procedures only; effects confined to
/// dead code are absent by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Solution {
    /// Procedures that may execute, starting from the roots.
    pub reachable: BTreeSet<String>,
    /// Per procedure: globals it may write through a pointer (including
    /// writes unknown code may perform on its behalf).
    pub proc_ind_mod: BTreeMap<String, BTreeSet<String>>,
    /// Per procedure: globals it may read through a pointer.
    pub proc_ind_ref: BTreeMap<String, BTreeSet<String>>,
    /// Globals whose address reaches unknown external code.
    pub escaped: BTreeSet<String>,
    /// For escaped globals: the procedure that leaks the address (first in
    /// name order when several do).
    pub escape_witness: BTreeMap<String, String>,
    /// Resolved call edges (direct callees plus points-to-resolved
    /// indirect targets), defined procedures only.
    pub calls: BTreeMap<String, BTreeSet<String>>,
}

impl Solution {
    /// May `sym` be written through a pointer anywhere reachable? Returns
    /// the first witnessing procedure.
    pub fn ind_mod_witness(&self, sym: &str) -> Option<&str> {
        self.proc_ind_mod.iter().find(|(_, syms)| syms.contains(sym)).map(|(p, _)| p.as_str())
    }

    /// May `sym` be read through a pointer anywhere reachable? Returns the
    /// first witnessing procedure.
    pub fn ind_ref_witness(&self, sym: &str) -> Option<&str> {
        self.proc_ind_ref.iter().find(|(_, syms)| syms.contains(sym)).map(|(p, _)| p.as_str())
    }

    /// Does `sym`'s address reach unknown external code?
    pub fn is_escaped(&self, sym: &str) -> bool {
        self.escaped.contains(sym)
    }
}

struct Pass {
    pts: BTreeMap<GNode, BTreeSet<Atom>>,
    /// Per proc: does it call code the analysis cannot see?
    calls_unknown: BTreeSet<String>,
    /// Resolved call edges, defined procs only.
    calls: BTreeMap<String, BTreeSet<String>>,
}

fn locs(atoms: Option<&BTreeSet<Atom>>) -> Vec<String> {
    atoms
        .into_iter()
        .flatten()
        .filter_map(|a| match a {
            Atom::Loc(s) => Some(s.clone()),
            Atom::Fun(_) => None,
        })
        .collect()
}

fn funs(atoms: Option<&BTreeSet<Atom>>) -> Vec<String> {
    atoms
        .into_iter()
        .flatten()
        .filter_map(|a| match a {
            Atom::Fun(f) => Some(f.clone()),
            Atom::Loc(_) => None,
        })
        .collect()
}

/// Least-fixpoint solve over `active` procedures. `defined` is the full
/// program's procedure set (a call to a defined-but-inactive procedure is
/// a no-op here, not an unknown call), `params` its arities.
fn solve_pass(
    active: &BTreeMap<String, &ProcConstraints>,
    defined: &BTreeSet<String>,
    params: &BTreeMap<String, u32>,
) -> Pass {
    let mut pts: BTreeMap<GNode, BTreeSet<Atom>> = BTreeMap::new();
    let mut calls_unknown: BTreeSet<String> = BTreeSet::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    loop {
        let mut changed = false;
        let add = |pts: &mut BTreeMap<GNode, BTreeSet<Atom>>,
                   changed: &mut bool,
                   dst: GNode,
                   atom: Atom| {
            *changed |= pts.entry(dst).or_default().insert(atom);
        };
        let union = |pts: &mut BTreeMap<GNode, BTreeSet<Atom>>,
                     changed: &mut bool,
                     dst: &GNode,
                     src: &GNode| {
            let from: Vec<Atom> =
                pts.get(src).map(|s| s.iter().cloned().collect()).unwrap_or_default();
            if from.is_empty() {
                return;
            }
            let e = pts.entry(dst.clone()).or_default();
            for a in from {
                *changed |= e.insert(a);
            }
        };
        let bind_call = |pts: &mut BTreeMap<GNode, BTreeSet<Atom>>,
                         changed: &mut bool,
                         proc: &str,
                         callee: &str,
                         args: &[Option<Node>],
                         dst: &Option<Node>| {
            for (i, a) in args.iter().enumerate() {
                if let Some(a) = a {
                    union(
                        pts,
                        changed,
                        &GNode::Param(callee.to_string(), i as u32),
                        &GNode::of(proc, a),
                    );
                }
            }
            if let Some(d) = dst {
                union(pts, changed, &GNode::of(proc, d), &GNode::Ret(callee.to_string()));
            }
        };
        for (proc, pc) in active {
            for c in &pc.constraints {
                match c {
                    Constraint::AddrGlobal { dst, sym } => {
                        add(&mut pts, &mut changed, GNode::of(proc, dst), Atom::Loc(sym.clone()));
                    }
                    Constraint::AddrFunc { dst, func } => {
                        add(&mut pts, &mut changed, GNode::of(proc, dst), Atom::Fun(func.clone()));
                    }
                    Constraint::Assign { dst, src } => {
                        union(&mut pts, &mut changed, &GNode::of(proc, dst), &GNode::of(proc, src));
                    }
                    Constraint::Load { dst, addr } => {
                        for s in locs(pts.get(&GNode::of(proc, addr))) {
                            union(&mut pts, &mut changed, &GNode::of(proc, dst), &GNode::Cell(s));
                        }
                    }
                    Constraint::Store { addr, src } => {
                        if let Some(src) = src {
                            for s in locs(pts.get(&GNode::of(proc, addr))) {
                                union(
                                    &mut pts,
                                    &mut changed,
                                    &GNode::Cell(s),
                                    &GNode::of(proc, src),
                                );
                            }
                        }
                    }
                    Constraint::CallDirect { callee, args, dst } => {
                        if defined.contains(callee) {
                            changed |=
                                calls.entry(proc.clone()).or_default().insert(callee.clone());
                            bind_call(&mut pts, &mut changed, proc, callee, args, dst);
                        } else {
                            changed |= calls_unknown.insert(proc.clone());
                            for a in args.iter().flatten() {
                                union(&mut pts, &mut changed, &GNode::Ext, &GNode::of(proc, a));
                            }
                            if let Some(d) = dst {
                                union(&mut pts, &mut changed, &GNode::of(proc, d), &GNode::Ext);
                            }
                        }
                    }
                    Constraint::CallIndirect { target, args, dst } => {
                        let resolved = match target {
                            Some(t) => funs(pts.get(&GNode::of(proc, t))),
                            None => Vec::new(),
                        };
                        if target.is_none() {
                            changed |= calls_unknown.insert(proc.clone());
                            for a in args.iter().flatten() {
                                union(&mut pts, &mut changed, &GNode::Ext, &GNode::of(proc, a));
                            }
                            if let Some(d) = dst {
                                union(&mut pts, &mut changed, &GNode::of(proc, d), &GNode::Ext);
                            }
                        }
                        for f in resolved {
                            if defined.contains(&f) {
                                changed |= calls.entry(proc.clone()).or_default().insert(f.clone());
                                bind_call(&mut pts, &mut changed, proc, &f, args, dst);
                            } else {
                                changed |= calls_unknown.insert(proc.clone());
                                for a in args.iter().flatten() {
                                    union(&mut pts, &mut changed, &GNode::Ext, &GNode::of(proc, a));
                                }
                                if let Some(d) = dst {
                                    union(&mut pts, &mut changed, &GNode::of(proc, d), &GNode::Ext);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Close Ext: unknown code may load from, store through, and call
        // everything it holds.
        for s in locs(pts.get(&GNode::Ext)) {
            union(&mut pts, &mut changed, &GNode::Ext, &GNode::Cell(s.clone()));
            union(&mut pts, &mut changed, &GNode::Cell(s), &GNode::Ext);
        }
        for f in funs(pts.get(&GNode::Ext)) {
            if defined.contains(&f) {
                for i in 0..params.get(&f).copied().unwrap_or(0) {
                    union(&mut pts, &mut changed, &GNode::Param(f.clone(), i), &GNode::Ext);
                }
                union(&mut pts, &mut changed, &GNode::Ext, &GNode::Ret(f));
            }
        }
        if !changed {
            return Pass { pts, calls_unknown, calls };
        }
    }
}

/// Procedures executable from `roots`, over resolved call edges; a
/// procedure calling unknown code also reaches every address-taken
/// procedure unknown code holds.
fn reach(pass: &Pass, all: &BTreeSet<String>, roots: &[String]) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = if roots.is_empty() {
        all.clone()
    } else {
        roots.iter().filter(|r| all.contains(*r)).cloned().collect()
    };
    let ext_targets: Vec<String> =
        funs(pass.pts.get(&GNode::Ext)).into_iter().filter(|f| all.contains(f)).collect();
    let mut work: Vec<String> = seen.iter().cloned().collect();
    while let Some(p) = work.pop() {
        let mut nexts: Vec<String> = Vec::new();
        if let Some(cs) = pass.calls.get(&p) {
            nexts.extend(cs.iter().cloned());
        }
        if pass.calls_unknown.contains(&p) {
            nexts.extend(ext_targets.iter().cloned());
        }
        for n in nexts {
            if all.contains(&n) && seen.insert(n.clone()) {
                work.push(n);
            }
        }
    }
    seen
}

/// Runs the two-pass interprocedural analysis.
///
/// `procs` maps every defined procedure to its constraint record; `roots`
/// names the program entry points (an empty slice treats every procedure
/// as a root — the fully conservative open-world stance).
pub fn solve(procs: &BTreeMap<String, &ProcConstraints>, roots: &[String]) -> Solution {
    let defined: BTreeSet<String> = procs.keys().cloned().collect();
    let params: BTreeMap<String, u32> =
        procs.iter().map(|(n, pc)| (n.clone(), pc.params)).collect();

    let first = solve_pass(procs, &defined, &params);
    let reachable1 = reach(&first, &defined, roots);
    let live: BTreeMap<String, &ProcConstraints> = procs
        .iter()
        .filter(|(n, _)| reachable1.contains(*n))
        .map(|(n, pc)| (n.clone(), *pc))
        .collect();
    let pass = solve_pass(&live, &defined, &params);
    let reachable = reach(&pass, &defined, roots);

    let mut sol = Solution { reachable, ..Solution::default() };
    let ext_locs: BTreeSet<String> = locs(pass.pts.get(&GNode::Ext)).into_iter().collect();
    for (proc, pc) in &live {
        if !sol.reachable.contains(proc) {
            continue;
        }
        let mut ind_mod: BTreeSet<String> = BTreeSet::new();
        let mut ind_ref: BTreeSet<String> = BTreeSet::new();
        let mut fed: BTreeSet<String> = BTreeSet::new();
        let feed = |fed: &mut BTreeSet<String>, n: Option<&Node>| {
            if let Some(n) = n {
                fed.extend(locs(pass.pts.get(&GNode::of(proc, n))));
            }
        };
        for c in &pc.constraints {
            match c {
                Constraint::Load { addr, .. } => {
                    ind_ref.extend(locs(pass.pts.get(&GNode::of(proc, addr))));
                }
                Constraint::Store { addr, .. } => {
                    ind_mod.extend(locs(pass.pts.get(&GNode::of(proc, addr))));
                }
                Constraint::Assign { dst: Node::Ext, src } => feed(&mut fed, Some(src)),
                Constraint::CallDirect { callee, args, .. } if !defined.contains(callee) => {
                    for a in args {
                        feed(&mut fed, a.as_ref());
                    }
                }
                Constraint::CallIndirect { target: None, args, .. } => {
                    for a in args {
                        feed(&mut fed, a.as_ref());
                    }
                }
                _ => {}
            }
        }
        if pass.calls_unknown.contains(proc) {
            // Unknown code runs on this procedure's behalf and may touch
            // everything that ever escaped.
            ind_mod.extend(ext_locs.iter().cloned());
            ind_ref.extend(ext_locs.iter().cloned());
        }
        if !ind_mod.is_empty() {
            sol.proc_ind_mod.insert(proc.clone(), ind_mod);
        }
        if !ind_ref.is_empty() {
            sol.proc_ind_ref.insert(proc.clone(), ind_ref);
        }
        for s in fed {
            sol.escape_witness.entry(s).or_insert_with(|| proc.clone());
        }
        if let Some(cs) = pass.calls.get(proc) {
            sol.calls.insert(proc.clone(), cs.clone());
        }
    }
    sol.escaped = ext_locs;
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::constraints_for;
    use cmin_frontend::{analyze, parse_module};
    use cmin_ir::cfg::Cfg;
    use cmin_ir::{lower_module, optimize_module};

    fn solved(modules: &[(&str, &str)], roots: &[&str]) -> Solution {
        let mut records: Vec<(String, ProcConstraints)> = Vec::new();
        for (name, src) in modules {
            let m = parse_module(name, src).unwrap();
            let info = analyze(&m).unwrap();
            let mut ir = lower_module(&m, &info);
            optimize_module(&mut ir);
            for f in &ir.functions {
                records.push((f.name.clone(), constraints_for(f, &Cfg::new(f))));
            }
        }
        let map: BTreeMap<String, &ProcConstraints> =
            records.iter().map(|(n, pc)| (n.clone(), pc)).collect();
        let roots: Vec<String> = roots.iter().map(|s| s.to_string()).collect();
        solve(&map, &roots)
    }

    #[test]
    fn pointer_write_is_ind_mod() {
        let s = solved(&[("m", "int g; int main() { int p = &g; *p = 1; return *p; }")], &["main"]);
        assert_eq!(s.ind_mod_witness("g"), Some("main"));
        assert_eq!(s.ind_ref_witness("g"), Some("main"));
        assert!(!s.is_escaped("g"));
    }

    #[test]
    fn pointer_param_carries_mod_into_callee() {
        let s = solved(
            &[(
                "m",
                "int g; int h;
                 int wr(int p) { *p = 5; return 0; }
                 int main() { wr(&g); return h; }",
            )],
            &["main"],
        );
        assert_eq!(s.ind_mod_witness("g"), Some("wr"));
        assert_eq!(s.ind_mod_witness("h"), None);
    }

    #[test]
    fn address_through_global_cell_is_tracked() {
        let s = solved(
            &[(
                "m",
                "int g; int q;
                 int set() { q = &g; return 0; }
                 int use_it() { int p = q; *p = 9; return 0; }
                 int main() { set(); use_it(); return 0; }",
            )],
            &["main"],
        );
        assert_eq!(s.ind_mod_witness("g"), Some("use_it"));
        assert!(!s.is_escaped("g"));
    }

    #[test]
    fn dead_code_effects_are_dropped() {
        let s = solved(
            &[(
                "m",
                "int g;
                 extern int mystery(int);
                 int dead() { return mystery(&g); }
                 int main() { g = 2; return g; }",
            )],
            &["main"],
        );
        assert!(!s.reachable.contains("dead"));
        assert!(!s.is_escaped("g"), "escape in dead code must not count");
        assert_eq!(s.ind_mod_witness("g"), None);
        // With no roots (open world), the same program escapes g.
        let open = solved(
            &[(
                "m",
                "int g;
                 extern int mystery(int);
                 int dead() { return mystery(&g); }
                 int main() { g = 2; return g; }",
            )],
            &[],
        );
        assert!(open.is_escaped("g"));
        assert_eq!(open.escape_witness.get("g").map(String::as_str), Some("dead"));
    }

    #[test]
    fn unknown_callee_poisons_passed_addresses() {
        let s = solved(
            &[(
                "m",
                "int g; extern int ext(int);
                 int main() { return ext(&g); }",
            )],
            &["main"],
        );
        assert!(s.is_escaped("g"));
        // Unknown code may write what it holds, on behalf of the caller.
        assert_eq!(s.ind_mod_witness("g"), Some("main"));
    }

    #[test]
    fn indirect_calls_resolve_through_function_atoms() {
        let s = solved(
            &[(
                "m",
                "int g;
                 int wr(int p) { *p = 3; return 0; }
                 int main() { int f = &wr; return f(&g); }",
            )],
            &["main"],
        );
        assert!(s.calls.get("main").is_some_and(|c| c.contains("wr")));
        assert!(s.reachable.contains("wr"));
        assert_eq!(s.ind_mod_witness("g"), Some("wr"));
    }

    #[test]
    fn read_only_aliasing_is_ref_not_mod() {
        let s = solved(
            &[(
                "m",
                "int g;
                 int rd(int p) { return *p; }
                 int main() { g = 7; return rd(&g); }",
            )],
            &["main"],
        );
        assert_eq!(s.ind_ref_witness("g"), Some("rd"));
        assert_eq!(s.ind_mod_witness("g"), None);
        assert!(!s.is_escaped("g"));
    }
}
