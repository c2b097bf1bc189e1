//! The analyzer decision trace: a structured, serializable record of every
//! decision the program analyzer makes — webs formed, discarded (and by
//! which §5/§6.2 heuristic), colored; clusters formed; MSPILL hoisted to a
//! root; exit stores suppressed; caller-saves claims granted.
//!
//! The trace exists for observability only: [`crate::analyzer::analyze`]
//! never records one, and [`crate::analyzer::analyze_traced`] produces a
//! byte-identical [`crate::analyzer::Analysis`] alongside the trace, so
//! enabling tracing can never perturb the program database (the incremental
//! driver's fingerprints depend on that).
//!
//! Events carry procedure and global names (not internal node ids) so a
//! trace is meaningful on its own, after the analyzer's in-memory state is
//! gone. `cminc explain <symbol>` renders the events mentioning one symbol;
//! `cminc report` joins them with per-procedure dynamic cost deltas.

use serde::{Deserialize, Serialize};
use vpr::regs::{Reg, RegSet};
use vpr::target::TargetId;

/// Which heuristic discarded a web (paper §6.2 and §7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiscardReason {
    /// Too few member procedures actually reference the global
    /// (`L_REF` ratio below threshold).
    Sparse,
    /// A single-node web whose weighted reference count is too small to
    /// pay for its entry code.
    Trivial,
    /// Estimated entry cost meets or exceeds the estimated benefit.
    Unprofitable,
    /// A `static`'s web entry landed outside the defining module (§7.4).
    StaticCrossModule,
}

impl DiscardReason {
    /// Short human-readable description of the heuristic.
    pub fn describe(self) -> &'static str {
        match self {
            DiscardReason::Sparse => "too sparse (L_REF ratio below threshold)",
            DiscardReason::Trivial => "trivial singleton (too few weighted references)",
            DiscardReason::Unprofitable => "unprofitable (entry cost >= benefit)",
            DiscardReason::StaticCrossModule => {
                "static's web entry falls outside its defining module (§7.4)"
            }
        }
    }
}

/// One analyzer decision. Web indices refer to the web list of the same
/// analyzer run (`Analysis::webs`); statically discarded webs (§7.4) never
/// enter that list, so their `web` is `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A web was identified for `sym` over `nodes` (§4.1.1).
    WebFormed {
        /// Index into the run's web list.
        web: usize,
        /// The global's link name.
        sym: String,
        /// Member procedure names.
        nodes: Vec<String>,
        /// Entry procedure names.
        entries: Vec<String>,
        /// Does any member write the global?
        written: bool,
        /// Estimated dynamic references saved inside the web.
        benefit: u64,
        /// Estimated load/store/save/restore cost at web entries.
        entry_cost: u64,
    },
    /// A web was discarded before coloring.
    WebDiscarded {
        /// Index into the run's web list (`None` for §7.4 static discards,
        /// which are dropped before the list is built).
        web: Option<usize>,
        /// The global's link name.
        sym: String,
        /// Member procedure names.
        nodes: Vec<String>,
        /// Which heuristic fired.
        reason: DiscardReason,
        /// Estimated benefit at the time of the decision.
        benefit: u64,
        /// Estimated entry cost at the time of the decision.
        entry_cost: u64,
    },
    /// A web was colored to a dedicated callee-saves register (§4.1.3).
    WebColored {
        /// Index into the run's web list.
        web: usize,
        /// The global's link name.
        sym: String,
        /// Member procedure names.
        nodes: Vec<String>,
        /// Entry procedure names.
        entries: Vec<String>,
        /// The dedicated register.
        reg: Reg,
        /// The web's priority (benefit − entry cost) at coloring time.
        priority: i64,
    },
    /// A web survived the discard heuristics but found no free register.
    WebUncolored {
        /// Index into the run's web list.
        web: usize,
        /// The global's link name.
        sym: String,
        /// Member procedure names.
        nodes: Vec<String>,
    },
    /// A colored web's global is never written inside the web, so its
    /// entries need no store-back at exit (§5).
    ExitStoreSuppressed {
        /// Index into the run's web list.
        web: usize,
        /// The global's link name.
        sym: String,
        /// Entry procedure names that skip the store.
        entries: Vec<String>,
    },
    /// A spill-motion cluster was formed (§4.2).
    ClusterFormed {
        /// The cluster root's procedure name.
        root: String,
        /// Non-root member procedure names.
        members: Vec<String>,
    },
    /// Callee-saves save/restore code for `regs` was hoisted from the
    /// cluster members to the root's prologue/epilogue (MSPILL, §4.2.2).
    SpillHoisted {
        /// The cluster root's procedure name.
        root: String,
        /// The hoisted (MSPILL) register set.
        regs: RegSet,
        /// Member procedure names relieved of the spill code.
        members: Vec<String>,
    },
    /// A procedure may use `regs` without save/restore because an enclosing
    /// cluster root spills them on its behalf (FREE, §4.2.2).
    FreeRegsGranted {
        /// The procedure name.
        proc: String,
        /// The granted (FREE) register set.
        regs: RegSet,
    },
    /// Caller-saves preallocation (§7.6.2): the claim a procedure owns and
    /// the pool registers safe across its calls.
    CallerClaimGranted {
        /// The procedure name.
        proc: String,
        /// Registers this procedure claims for its own values.
        claimed: RegSet,
        /// Pool registers no callee in its subtree claims.
        safe_across: RegSet,
    },
    /// The interprocedural alias analysis kept an address-taken global
    /// promotable that the blanket rule would have rejected.
    AliasPromotable {
        /// The global's link name.
        sym: String,
        /// The points-to justification (why aliasing is harmless).
        justification: String,
    },
    /// The interprocedural alias analysis confirmed a global must stay in
    /// memory, with the witnessing procedure.
    AliasDemoted {
        /// The global's link name.
        sym: String,
        /// The points-to justification (which effect demands memory).
        justification: String,
    },
}

impl TraceEvent {
    /// Does this event mention `symbol` (as a global or a procedure)?
    pub fn mentions(&self, symbol: &str) -> bool {
        let hit = |s: &str| s == symbol;
        let any = |v: &[String]| v.iter().any(|s| hit(s));
        match self {
            TraceEvent::WebFormed { sym, nodes, entries, .. }
            | TraceEvent::WebColored { sym, nodes, entries, .. } => {
                hit(sym) || any(nodes) || any(entries)
            }
            TraceEvent::WebDiscarded { sym, nodes, .. }
            | TraceEvent::WebUncolored { sym, nodes, .. } => hit(sym) || any(nodes),
            TraceEvent::ExitStoreSuppressed { sym, entries, .. } => hit(sym) || any(entries),
            TraceEvent::ClusterFormed { root, members }
            | TraceEvent::SpillHoisted { root, members, .. } => hit(root) || any(members),
            TraceEvent::FreeRegsGranted { proc, .. }
            | TraceEvent::CallerClaimGranted { proc, .. } => hit(proc),
            TraceEvent::AliasPromotable { sym, justification }
            | TraceEvent::AliasDemoted { sym, justification } => {
                hit(sym) || justification.contains(symbol)
            }
        }
    }
}

/// The full decision trace of one analyzer run, in emission order: web
/// events first (in web-index order), then cluster/spill events, then
/// caller-saves claims. The order is deterministic for a given summary and
/// options.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerTrace {
    /// All recorded events.
    pub events: Vec<TraceEvent>,
    /// The target the analyzer ran for, which names the events' registers.
    /// Serialized only when not [`TargetId::Vpr`], so VPR traces keep their
    /// bytes and a trace that names no target reads as VPR.
    #[serde(default, skip_default)]
    pub target: TargetId,
}

impl AnalyzerTrace {
    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Every event mentioning `symbol`, in emission order.
    pub fn for_symbol(&self, symbol: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.mentions(symbol)).collect()
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Parses a trace back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying deserialization error message.
    pub fn from_json(text: &str) -> Result<AnalyzerTrace, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalyzerTrace {
        let mut t = AnalyzerTrace::default();
        t.push(TraceEvent::WebFormed {
            web: 0,
            sym: "g1".into(),
            nodes: vec!["B".into(), "D".into()],
            entries: vec!["B".into()],
            written: true,
            benefit: 40,
            entry_cost: 4,
        });
        t.push(TraceEvent::WebColored {
            web: 0,
            sym: "g1".into(),
            nodes: vec!["B".into(), "D".into()],
            entries: vec!["B".into()],
            reg: Reg::new(3),
            priority: 36,
        });
        t.push(TraceEvent::ClusterFormed { root: "r".into(), members: vec!["s".into()] });
        t
    }

    #[test]
    fn symbol_query_finds_globals_and_procs() {
        let t = sample();
        assert_eq!(t.for_symbol("g1").len(), 2);
        assert_eq!(t.for_symbol("B").len(), 2);
        assert_eq!(t.for_symbol("s").len(), 1);
        assert!(t.for_symbol("nothing").is_empty());
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = t.to_json();
        let back = AnalyzerTrace::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn discard_reasons_describe_themselves() {
        for r in [
            DiscardReason::Sparse,
            DiscardReason::Trivial,
            DiscardReason::Unprofitable,
            DiscardReason::StaticCrossModule,
        ] {
            assert!(!r.describe().is_empty());
        }
    }
}
