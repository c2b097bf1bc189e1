//! Rendering of analyzer trace events as human-readable causal statements.
//!
//! Registers render with their ABI names (`a0`, `sp`, `s3`, …) from the
//! machine description the program was analyzed for, never as raw `r<N>`
//! indices — the same convention `cminc objdump` uses.

use ipra_core::trace::{AnalyzerTrace, TraceEvent};
use vpr::regs::RegSet;
use vpr::target::TargetDesc;

/// Renders a name list, truncating long ones (blanket webs span every
/// procedure in the program).
fn list(names: &[String]) -> String {
    const SHOWN: usize = 6;
    if names.len() <= SHOWN {
        format!("{{{}}}", names.join(", "))
    } else {
        format!("{{{}, … +{} more}}", names[..SHOWN].join(", "), names.len() - SHOWN)
    }
}

/// Renders a register set with the target's ABI names, e.g. `{s0, s1, t3}`.
pub(crate) fn regset_names(set: RegSet, desc: &TargetDesc) -> String {
    let names: Vec<&str> = set.iter().map(|r| desc.reg_name(r)).collect();
    format!("{{{}}}", names.join(", "))
}

/// Renders one trace event as a single human-readable line, naming
/// registers in `desc`'s ABI convention.
pub fn render_event(e: &TraceEvent, desc: &TargetDesc) -> String {
    match e {
        TraceEvent::WebFormed { web, sym, nodes, entries, written, benefit, entry_cost } => {
            format!(
                "web #{web}: formed for global `{sym}` over {} (entries {}), {}; \
                 benefit {benefit}, entry cost {entry_cost}",
                list(nodes),
                list(entries),
                if *written { "written" } else { "read-only" },
            )
        }
        TraceEvent::WebDiscarded { web, sym, nodes, reason, benefit, entry_cost } => {
            let which = match web {
                Some(i) => format!("web #{i}"),
                None => "web".to_string(),
            };
            format!(
                "{which}: discarded for global `{sym}` over {} — {}; \
                 benefit {benefit}, entry cost {entry_cost}",
                list(nodes),
                reason.describe(),
            )
        }
        TraceEvent::WebColored { web, sym, nodes, entries, reg, priority } => {
            format!(
                "web #{web}: global `{sym}` promoted to {} across {} \
                 (loaded at entries {}); priority {priority}",
                desc.reg_name(*reg),
                list(nodes),
                list(entries),
            )
        }
        TraceEvent::WebUncolored { web, sym, nodes } => {
            format!("web #{web}: no register available for `{sym}` over {}", list(nodes))
        }
        TraceEvent::ExitStoreSuppressed { web, sym, entries } => {
            format!(
                "web #{web}: exit store of `{sym}` suppressed at entries {} \
                 (never written inside the web)",
                list(entries),
            )
        }
        TraceEvent::ClusterFormed { root, members } => {
            format!("cluster rooted at `{root}` with members {}", list(members))
        }
        TraceEvent::SpillHoisted { root, regs, members } => {
            format!(
                "MSPILL {} hoisted to cluster root `{root}` on behalf of {}",
                regset_names(*regs, desc),
                list(members)
            )
        }
        TraceEvent::FreeRegsGranted { proc, regs } => {
            format!(
                "`{proc}` granted FREE {} \
                 (save/restore executed by an enclosing cluster root)",
                regset_names(*regs, desc),
            )
        }
        TraceEvent::CallerClaimGranted { proc, claimed, safe_across } => {
            format!(
                "`{proc}`: caller-saves claim {}; safe across its calls {}",
                regset_names(*claimed, desc),
                regset_names(*safe_across, desc),
            )
        }
        TraceEvent::AliasPromotable { sym, justification } => {
            format!("`{sym}` stays promotable despite its address being taken: {justification}")
        }
        TraceEvent::AliasDemoted { sym, justification } => {
            format!("`{sym}` must stay memory-resident: {justification}")
        }
    }
}

/// Renders the causal chain for one symbol (a global or a procedure) from a
/// decision trace, one event per line in emission order, naming registers
/// in the ABI convention of the trace's target.
pub fn explain(trace: &AnalyzerTrace, symbol: &str) -> String {
    let events = trace.for_symbol(symbol);
    if events.is_empty() {
        return format!("no analyzer decisions mention `{symbol}`\n");
    }
    let mut out = format!(
        "analyzer decisions mentioning `{symbol}` ({} of {} events):\n",
        events.len(),
        trace.events.len()
    );
    for e in events {
        out.push_str("  - ");
        out.push_str(&render_event(e, trace.target.desc()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr::regs::Reg;

    #[test]
    fn renders_each_event_kind() {
        let mut t = AnalyzerTrace::default();
        t.push(TraceEvent::WebColored {
            web: 3,
            sym: "g".into(),
            nodes: vec!["f".into(), "h".into()],
            entries: vec!["f".into()],
            reg: Reg::new(12),
            priority: 1232,
        });
        t.push(TraceEvent::ClusterFormed { root: "main".into(), members: vec!["f".into()] });
        let text = explain(&t, "f");
        assert!(text.contains("web #3"), "{text}");
        // r12 is s9 in the VPR ABI naming; raw r<N> indices never appear.
        assert!(text.contains("promoted to s9"), "{text}");
        assert!(text.contains("cluster rooted at `main`"), "{text}");
        assert!(explain(&t, "zzz").contains("no analyzer decisions"));
    }

    #[test]
    fn abi_names_follow_the_target_description() {
        let mut t = AnalyzerTrace::default();
        t.push(TraceEvent::WebColored {
            web: 0,
            sym: "g".into(),
            nodes: vec!["f".into()],
            entries: vec!["f".into()],
            reg: Reg::new(8),
            priority: 10,
        });
        let vpr_text = explain(&t, "g");
        t.target = vpr::target::TargetId::Rv32;
        let rv_text = explain(&t, "g");
        assert!(vpr_text.contains("promoted to s5"), "{vpr_text}");
        assert!(rv_text.contains("promoted to s0"), "{rv_text}");
    }

    #[test]
    fn long_name_lists_truncate() {
        let names: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
        let rendered = list(&names);
        assert!(rendered.contains("+34 more"), "{rendered}");
        assert!(rendered.len() < 200);
    }
}
