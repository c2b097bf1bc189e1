//! # ipra-summary — compiler first phase summary records
//!
//! The paper's compiler first phase writes, for each procedure, "a record of
//! local information required to construct the program call graph and make
//! interprocedural register allocation decisions" (§3):
//!
//! * the global variables accessed, with local reference frequencies and
//!   flags (aliased, written),
//! * the procedures called, with local call frequencies,
//! * the procedures whose addresses are taken, and whether this procedure
//!   makes indirect calls,
//! * an estimate of the callee-saves registers the procedure needs.
//!
//! [`summarize_module`] derives one [`ModuleSummary`] from an (optimized) IR
//! module — the prototype in the paper likewise "was allowed to proceed
//! through the normal code generation and optimization phases before
//! generating summary files" to get better heuristic counts. Frequencies are
//! loop-depth weights (`10^depth`), the paper's control-flow-hierarchy
//! heuristic.
//!
//! Summaries serialize to JSON: they are the *summary files* of the paper's
//! Figure 1 and flow from the first phase to the program analyzer.

#![warn(missing_docs)]

use cmin_ir::cfg::{depth_weight, dominators, loop_depths, Cfg};
use cmin_ir::ir::{Callee, Inst, IrModule};
use cmin_ir::liveness::{live_across_calls, Liveness, TempSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a procedure uses one global variable.
///
/// The classic lumped *address-taken* flag is split three ways (`ptr_mod`,
/// `ptr_ref`, `escapes`), so a read-only `&g` is no longer treated as a
/// potential write; [`GlobalRef::address_taken`] recovers the old bit as
/// the union.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalRef {
    /// The global's link name.
    pub sym: String,
    /// Estimated dynamic reference frequency within this procedure
    /// (loads + stores, loop-depth weighted).
    pub freq: u64,
    /// Does the procedure write the global directly (by name)?
    pub written: bool,
    /// May the procedure write the global through a pointer?
    #[serde(default)]
    pub ptr_mod: bool,
    /// May the procedure read the global through a pointer?
    #[serde(default)]
    pub ptr_ref: bool,
    /// Does the global's address escape the procedure (stored to memory,
    /// passed to a call, returned, or printed)?
    #[serde(default)]
    pub escapes: bool,
}

impl GlobalRef {
    /// The classic lumped flag: is the global's address taken at all in
    /// this procedure? Exactly the union of the three split bits.
    pub fn address_taken(&self) -> bool {
        self.ptr_mod || self.ptr_ref || self.escapes
    }
}

/// One call site group: all calls from a procedure to one callee.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallRef {
    /// Callee link name.
    pub callee: String,
    /// Estimated local call frequency (loop-depth weighted).
    pub freq: u64,
}

/// The per-procedure summary record (paper §3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcSummary {
    /// Procedure link name.
    pub name: String,
    /// Defining module.
    pub module: String,
    /// Global variables accessed, with frequencies and flags.
    pub global_refs: Vec<GlobalRef>,
    /// Direct calls, grouped by callee.
    pub calls: Vec<CallRef>,
    /// Procedures whose addresses this procedure computes.
    pub taken_addresses: Vec<String>,
    /// Does this procedure contain indirect call sites?
    pub makes_indirect_calls: bool,
    /// Estimated number of callee-saves registers needed (values live
    /// across calls, capped at the size of the callee-saves file).
    pub callee_saves_estimate: u32,
    /// Estimated number of claimable caller-saves registers this procedure
    /// may use for local values (capped at the claim pool size). Feeds the
    /// §7.6.2 caller-saves preallocation extension.
    #[serde(default)]
    pub caller_saves_estimate: u32,
    /// Pointer-flow constraint record for the interprocedural alias
    /// analysis; the program analyzer composes these into one system.
    #[serde(default)]
    pub alias: ipra_alias::ProcConstraints,
}

/// Facts about a global definition, program-wide.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalFact {
    /// Link name.
    pub sym: String,
    /// Size in words.
    pub size: u32,
    /// Array (never promotable) or scalar?
    pub is_array: bool,
    /// Declared `static`?
    pub is_static: bool,
    /// Defining module.
    pub module: String,
    /// Static initializer.
    pub init: Vec<i64>,
}

/// The summary file for one module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleSummary {
    /// Module name.
    pub module: String,
    /// Per-procedure records.
    pub procs: Vec<ProcSummary>,
    /// Globals defined by the module.
    pub globals: Vec<GlobalFact>,
}

/// All summary files of a program, as handed to the program analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramSummary {
    /// One summary per module.
    pub modules: Vec<ModuleSummary>,
}

impl ProgramSummary {
    /// Iterates over all procedure records.
    pub fn procs(&self) -> impl Iterator<Item = &ProcSummary> {
        self.modules.iter().flat_map(|m| m.procs.iter())
    }

    /// Iterates over all global definitions.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalFact> {
        self.modules.iter().flat_map(|m| m.globals.iter())
    }

    /// Serializes to the on-disk summary-file format (JSON).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serialization cannot fail")
    }

    /// Reads back a summary file.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(s: &str) -> Result<ProgramSummary, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Maximum callee-saves estimate (size of the callee-saves register file).
pub const MAX_CALLEE_SAVES: u32 = 16;

/// Maximum caller-saves estimate (size of the claimable caller pool: the
/// caller-saves registers that are neither argument/return registers nor
/// emitter scratch).
pub const MAX_CALLER_SAVES: u32 = 5;

/// Derives the summary record for one module from its (optimized) IR.
pub fn summarize_module(ir: &IrModule) -> ModuleSummary {
    let globals = ir
        .globals
        .iter()
        .map(|g| GlobalFact {
            sym: g.sym.clone(),
            size: g.size,
            is_array: g.is_array,
            is_static: g.is_static,
            module: ir.name.clone(),
            init: g.init.clone(),
        })
        .collect();

    // One CFG per function serves the loop depths, the alias record and
    // liveness; both analyses refill the same buffers function to function.
    let mut cfg = Cfg::default();
    let mut liveness = Liveness::default();
    let procs = ir
        .functions
        .iter()
        .map(|f| {
            cfg.recompute(f);
            let idom = dominators(f, &cfg);
            let depths = loop_depths(f, &cfg, &idom);
            // BTreeMaps for deterministic summary files.
            let mut grefs: BTreeMap<String, GlobalRef> = BTreeMap::new();
            let mut calls: BTreeMap<String, u64> = BTreeMap::new();
            let mut taken: Vec<String> = Vec::new();
            let mut indirect = false;
            for b in f.block_ids() {
                if !cfg.is_reachable(b) {
                    continue;
                }
                let w = depth_weight(depths[b.index()]);
                for inst in &f.block(b).insts {
                    match inst {
                        Inst::LoadGlobal { sym, .. } => {
                            entry(&mut grefs, sym).freq += w;
                        }
                        Inst::StoreGlobal { sym, src: _ } => {
                            let e = entry(&mut grefs, sym);
                            e.freq += w;
                            e.written = true;
                        }
                        Inst::AddrFunc { func, .. } if !taken.contains(func) => {
                            taken.push(func.clone());
                        }
                        Inst::Call { callee, .. } => match callee {
                            Callee::Direct(n) => match calls.get_mut(n) {
                                Some(freq) => *freq += w,
                                None => {
                                    calls.insert(n.clone(), w);
                                }
                            },
                            Callee::Indirect(_) => indirect = true,
                        },
                        _ => {}
                    }
                }
            }
            // The alias constraint record doubles as the source of the
            // split per-global bits: address-taken is classified into
            // pointer-read, pointer-write and escape by local flow.
            let alias = ipra_alias::constraints_for(f, &cfg);
            for (sym, bits) in ipra_alias::local_bits(&alias) {
                let e = entry(&mut grefs, &sym);
                e.ptr_mod = bits.ptr_mod;
                e.ptr_ref = bits.ptr_ref;
                e.escapes = bits.escapes;
            }
            liveness.recompute(f, &cfg);
            let across = live_across_calls(f, &liveness);
            // Ever-live temps that do not cross calls want caller-saves
            // registers.
            let mut ever_live = TempSet::new(f.temp_count);
            for b in f.block_ids() {
                for t in liveness.live_in(b).iter().chain(liveness.live_out(b).iter()) {
                    ever_live.insert(t);
                }
                for d in f.block(b).insts.iter().filter_map(Inst::def) {
                    ever_live.insert(d);
                }
            }
            let ever_live_count = ever_live.len() as u32;
            ProcSummary {
                name: f.name.clone(),
                module: ir.name.clone(),
                global_refs: grefs.into_values().collect(),
                calls: calls.into_iter().map(|(callee, freq)| CallRef { callee, freq }).collect(),
                taken_addresses: taken,
                makes_indirect_calls: indirect,
                callee_saves_estimate: (across.len() as u32).min(MAX_CALLEE_SAVES),
                caller_saves_estimate: ever_live_count.min(MAX_CALLER_SAVES),
                alias,
            }
        })
        .collect();

    ModuleSummary { module: ir.name.clone(), procs, globals }
}

/// `sym`'s record, created empty on first use (the name is copied only
/// then).
fn entry<'a>(m: &'a mut BTreeMap<String, GlobalRef>, sym: &str) -> &'a mut GlobalRef {
    if !m.contains_key(sym) {
        let empty = GlobalRef {
            sym: sym.to_string(),
            freq: 0,
            written: false,
            ptr_mod: false,
            ptr_ref: false,
            escapes: false,
        };
        m.insert(sym.to_string(), empty);
    }
    m.get_mut(sym).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmin_frontend::{analyze, parse_module};
    use cmin_ir::{lower_module, optimize_module};

    fn summarize(src: &str) -> ModuleSummary {
        let m = parse_module("m", src).unwrap();
        let info = analyze(&m).unwrap();
        let mut ir = lower_module(&m, &info);
        optimize_module(&mut ir);
        summarize_module(&ir)
    }

    fn proc<'a>(s: &'a ModuleSummary, name: &str) -> &'a ProcSummary {
        s.procs.iter().find(|p| p.name == name).unwrap_or_else(|| panic!("no proc {name}"))
    }

    #[test]
    fn global_refs_with_loop_weighting() {
        let s = summarize(
            "int g; int h;
             int f(int n) {
                 h = 1;
                 for (int i = 0; i < n; i = i + 1) { g = g + i; }
                 return 0;
             }",
        );
        let f = proc(&s, "f");
        let g = f.global_refs.iter().find(|r| r.sym == "g").unwrap();
        let h = f.global_refs.iter().find(|r| r.sym == "h").unwrap();
        assert!(g.freq > h.freq, "loop-nested refs must weigh more: {g:?} vs {h:?}");
        assert!(g.written && h.written);
    }

    #[test]
    fn address_taken_flag() {
        let s = summarize("int g; int f() { return *(&g); }");
        let f = proc(&s, "f");
        let g = f.global_refs.iter().find(|r| r.sym == "g").unwrap();
        assert!(g.address_taken());
        // A read-only deref is a pointer ref, not a potential write.
        assert!(g.ptr_ref && !g.ptr_mod && !g.escapes);
    }

    #[test]
    fn split_alias_bits_classify_uses() {
        let s = summarize(
            "int a; int b; int c; int q;
             extern int ext(int);
             int f() { int p = &a; *p = 1; int x = *(&b); q = &c; return x + ext(&c); }",
        );
        let f = proc(&s, "f");
        let r = |sym: &str| f.global_refs.iter().find(|r| r.sym == sym).unwrap();
        assert!(r("a").ptr_mod && !r("a").ptr_ref && !r("a").escapes);
        assert!(r("b").ptr_ref && !r("b").ptr_mod);
        assert!(r("c").escapes && !r("c").ptr_mod && !r("c").ptr_ref);
        assert!(!r("q").address_taken(), "q stores an address but its own is not taken");
    }

    #[test]
    fn alias_constraints_ride_in_the_record() {
        let s = summarize("int g; int f(int p) { *p = 3; return g; }");
        let f = proc(&s, "f");
        assert_eq!(f.alias.params, 1);
        assert!(!f.alias.constraints.is_empty());
        // The record serializes with the rest of the summary.
        let prog = ProgramSummary { modules: vec![s] };
        let back = ProgramSummary::from_json(&prog.to_json()).unwrap();
        assert_eq!(prog, back);
    }

    #[test]
    fn call_frequencies_weighted_by_depth() {
        let s = summarize(
            "int leaf(int x) { return x; }
             int f(int n) {
                 int s = leaf(0);
                 for (int i = 0; i < n; i = i + 1) { s = s + leaf(i); }
                 return s;
             }",
        );
        let f = proc(&s, "f");
        let c = f.calls.iter().find(|c| c.callee == "leaf").unwrap();
        assert_eq!(c.freq, 1 + 10);
    }

    #[test]
    fn indirect_calls_and_taken_addresses() {
        let s = summarize(
            "int t(int x) { return x; }
             int f() { int p = &t; return p(3); }",
        );
        let f = proc(&s, "f");
        assert!(f.makes_indirect_calls);
        assert_eq!(f.taken_addresses, vec!["t"]);
        // The direct-call list does not include the indirect target.
        assert!(f.calls.is_empty());
    }

    #[test]
    fn callee_saves_estimate_counts_values_across_calls() {
        let s = summarize(
            "int w(int x) { return x; }
             int leaf(int a, int b) { return a * b; }
             int caller(int a, int b, int c) { int r = w(a); return r + b + c; }",
        );
        assert_eq!(proc(&s, "leaf").callee_saves_estimate, 0);
        // b and c live across the call to w.
        assert!(proc(&s, "caller").callee_saves_estimate >= 2);
    }

    #[test]
    fn statics_summarized_with_qualified_names() {
        let s = summarize("static int c; int f() { c = c + 1; return c; }");
        let f = proc(&s, "f");
        assert_eq!(f.global_refs[0].sym, "m$c");
        assert_eq!(s.globals[0].sym, "m$c");
        assert!(s.globals[0].is_static);
    }

    #[test]
    fn json_round_trip() {
        let s = summarize("int g; int f() { g = 1; return g; }");
        let prog = ProgramSummary { modules: vec![s] };
        let json = prog.to_json();
        let back = ProgramSummary::from_json(&json).unwrap();
        assert_eq!(prog, back);
        assert!(ProgramSummary::from_json("{broken").is_err());
    }

    #[test]
    fn arrays_reported_as_arrays() {
        let s = summarize("int a[8]; int f(int i) { return a[i]; }");
        assert!(s.globals[0].is_array);
        // Element accesses are not scalar global refs.
        assert!(proc(&s, "f").global_refs.is_empty());
    }

    #[test]
    fn program_summary_iterators() {
        let s1 = summarize("int f() { return 0; }");
        let prog = ProgramSummary { modules: vec![s1] };
        assert_eq!(prog.procs().count(), 1);
        assert_eq!(prog.globals().count(), 0);
    }
}
