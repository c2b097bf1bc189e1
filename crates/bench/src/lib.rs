//! # ipra-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) over
//! the workload suite:
//!
//! * **Table 3** — the benchmark programs;
//! * **Table 4** — percentage performance improvement (simulator cycles)
//!   over level-2 optimization, configurations A–F;
//! * **Table 5** — percentage reduction in dynamic singleton memory
//!   references, configurations A–F;
//! * **§6.2 statistics** — webs found / considered / colored (reserved vs
//!   greedy coloring) and cluster counts/sizes;
//! * **ablations** — the §7.6.2 precise web/cluster interaction, the web
//!   discard heuristics, and the cluster root gain threshold.
//!
//! Four binaries use it:
//!
//! * `tables` prints any of these; `EXPERIMENTS.md` records a full run
//!   against the paper's numbers;
//! * `compile_bench` times cold, warm, one-edit and disk-cached builds and
//!   a cold-build scaling series to 4096 modules (`BENCH_compile.json`);
//! * `sim_bench` compares the fast and reference simulator engines
//!   (`BENCH_sim.json`);
//! * `daemon_bench` measures `cmind` build throughput, cold and warm
//!   (`BENCH_daemon.json`).
//!
//! The three benches share [`harness`]: one flag parser, one best-of-N
//! timer, and one report shape, `{bench, host, rows, gates}`.

#![warn(missing_docs)]

pub mod harness;

use ipra_core::analyzer::{AnalyzerOptions, PromotionMode};
use ipra_core::PaperConfig;
use ipra_driver::{
    compile, compile_configured, run_program, CompilationCache, CompileOptions, CompiledProgram,
};
use ipra_workloads::Workload;
use std::fmt::Write as _;

/// Cycle and memory-reference measurements for one (workload, config) cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Simulator cycles.
    pub cycles: u64,
    /// Dynamic singleton memory references.
    pub singleton_refs: u64,
    /// All dynamic memory references.
    pub mem_refs: u64,
}

/// One workload's measurements across every configuration.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: String,
    /// Baseline (L2) measurement.
    pub baseline: Cell,
    /// Measurements for A–F, in [`PaperConfig::ALL`] order (without L2).
    pub configs: Vec<(PaperConfig, Cell)>,
    /// Analyzer statistics under configuration C.
    pub stats_c: ipra_core::AnalyzerStats,
    /// Webs colored under greedy coloring (configuration D).
    pub greedy_colored: usize,
}

/// Measures one workload under every configuration.
///
/// `fast` selects the training input for the measured runs as well
/// (useful for smoke tests); the real tables use each workload's full
/// input with the training input reserved for profile collection.
///
/// # Panics
///
/// Panics on compile errors or simulator traps: the workloads are part of
/// the repository and must always run.
pub fn measure_workload(w: &Workload, fast: bool) -> WorkloadRow {
    let input = if fast { &w.training_input } else { &w.input };
    let run = |p: &CompiledProgram| {
        let r = run_program(p, input).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        Cell {
            cycles: r.stats.cycles,
            singleton_refs: r.stats.singleton_refs(),
            mem_refs: r.stats.mem_refs(),
        }
    };

    // Profiles for B/F come from a training run of the L2 build; all
    // configurations share one cache.
    let mut cache = CompilationCache::new();
    let mut build = |config: PaperConfig| {
        compile_configured(
            &w.sources,
            config,
            &w.training_input,
            &CompileOptions::default(),
            &mut cache,
        )
        .unwrap_or_else(|e| panic!("{}/{config}: {e}", w.name))
        .unwrap_or_else(|e| panic!("{}/{config}: {e}", w.name))
    };
    let baseline = run(&build(PaperConfig::L2));

    let mut configs = Vec::new();
    let mut stats_c = None;
    let mut greedy_colored = 0;
    for config in PaperConfig::ALL {
        if config == PaperConfig::L2 {
            continue;
        }
        let p = build(config);
        if config == PaperConfig::C {
            stats_c = Some(p.stats.clone());
        }
        if config == PaperConfig::D {
            greedy_colored = p.stats.webs_colored;
        }
        configs.push((config, run(&p)));
    }
    WorkloadRow {
        name: w.name.to_string(),
        baseline,
        configs,
        stats_c: stats_c.expect("config C measured"),
        greedy_colored,
    }
}

/// Percentage improvement of `new` over `base` (positive = better).
pub fn improvement_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    100.0 * (base as f64 - new as f64) / base as f64
}

/// Renders Table 3 (the benchmark suite).
pub fn table3(workloads: &[Workload]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Benchmark Programs");
    let _ = writeln!(out, "{:<12} {:>8} {:>8}  Description", "Name", "Modules", "Lines");
    for w in workloads {
        let lines: usize = w.sources.iter().map(|s| s.text.lines().count()).sum();
        let _ =
            writeln!(out, "{:<12} {:>8} {:>8}  {}", w.name, w.sources.len(), lines, w.description);
    }
    out
}

/// Renders Table 4 (percentage cycle improvement over L2, configs A–F).
pub fn table4(rows: &[WorkloadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 4: Percentage Performance Improvement Over Level 2 Optimization");
    let _ = writeln!(out, "(total simulator cycles, no cache modeled)");
    let _ = write!(out, "{:<12}", "Benchmark");
    for c in PaperConfig::ALL.iter().filter(|c| **c != PaperConfig::L2) {
        let _ = write!(out, "{:>8}", c.label());
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<12}", row.name);
        for (_, cell) in &row.configs {
            let _ = write!(out, "{:>8.1}", improvement_pct(row.baseline.cycles, cell.cycles));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Table 5 (percentage reduction in dynamic singleton memory
/// references over L2).
pub fn table5(rows: &[WorkloadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: Percent Reduction in Dynamic Singleton Memory References");
    let _ = writeln!(out, "(over Level 2 Optimization)");
    let _ = write!(out, "{:<12}", "Benchmark");
    for c in PaperConfig::ALL.iter().filter(|c| **c != PaperConfig::L2) {
        let _ = write!(out, "{:>8}", c.label());
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<12}", row.name);
        for (_, cell) in &row.configs {
            let _ = write!(
                out,
                "{:>8.1}",
                improvement_pct(row.baseline.singleton_refs, cell.singleton_refs)
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the §6.2 web/cluster statistics (the PA-Optimizer-style
/// breakdown: eligible globals → webs → considered → colored; cluster
/// count and average size; greedy comparison).
pub fn stats_table(rows: &[WorkloadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Analyzer statistics (config C; greedy = config D)");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>6} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "Benchmark", "eligible", "webs", "considered", "colored", "greedy", "clusters", "avg size"
    );
    for row in rows {
        let s = &row.stats_c;
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>6} {:>10} {:>8} {:>8} {:>9} {:>9.1}",
            row.name,
            s.eligible_globals,
            s.webs_total,
            s.webs_considered,
            s.webs_colored,
            row.greedy_colored,
            s.clusters,
            s.avg_cluster_size
        );
    }
    out
}

/// Renders the per-procedure breakdown of one configuration against the L2
/// baseline: for each workload, the procedures whose exact attributed self
/// cycles moved, each linked to the first analyzer decision that explains
/// it (`cminc report` prints the full chain).
///
/// # Panics
///
/// Panics on compile errors, simulator traps, or an attribution whose
/// per-procedure sums diverge from the whole-program totals.
pub fn breakdown_table(workloads: &[Workload], config: PaperConfig, fast: bool) -> String {
    const SHOWN: usize = 8;
    let mut out = String::new();
    let _ = writeln!(out, "Per-procedure breakdown: L2 -> {config} (exact self cycles)");
    for w in workloads {
        let input = if fast { &w.training_input } else { &w.input };
        let report = ipra_driver::diff_report(&w.sources, PaperConfig::L2, config, input, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .unwrap_or_else(|e| panic!("{}: simulator trap {e}", w.name));
        assert!(report.sums_match(), "{}: attribution sums diverge from totals", w.name);
        let _ = writeln!(
            out,
            "\n{}: {} -> {} cycles ({:+.1}%)",
            w.name,
            report.totals_a.cycles,
            report.totals_b.cycles,
            -improvement_pct(report.totals_a.cycles, report.totals_b.cycles)
        );
        let moved: Vec<_> = report.procs.iter().filter(|p| p.cycles_delta != 0).collect();
        if moved.is_empty() {
            let _ = writeln!(out, "  (no per-procedure movement)");
            continue;
        }
        for p in moved.iter().take(SHOWN) {
            let cause = p.reasons.first().map(String::as_str).unwrap_or("-");
            let _ = writeln!(
                out,
                "  {:<16} {:>9} -> {:>9} ({:+})  {}",
                p.name, p.cycles_a, p.cycles_b, p.cycles_delta, cause
            );
        }
        if moved.len() > SHOWN {
            let _ = writeln!(out, "  ... and {} more procedures", moved.len() - SHOWN);
        }
    }
    out
}

/// One ablation variant: a label plus the analyzer options to apply.
pub fn ablation_variants() -> Vec<(&'static str, AnalyzerOptions)> {
    let base = AnalyzerOptions::default();
    vec![
        ("C-baseline", base.clone()),
        (
            "precise-web-cluster",
            AnalyzerOptions { precise_web_cluster_interaction: true, ..base.clone() },
        ),
        (
            "no-discard",
            AnalyzerOptions {
                discard: ipra_core::color::DiscardHeuristics {
                    min_lref_ratio: 0.0,
                    min_singleton_refs: 0,
                },
                ..base.clone()
            },
        ),
        (
            "roots-gain-0.5",
            AnalyzerOptions {
                cluster: ipra_core::cluster::ClusterHeuristics { root_gain: 0.5 },
                ..base.clone()
            },
        ),
        (
            "roots-gain-4",
            AnalyzerOptions {
                cluster: ipra_core::cluster::ClusterHeuristics { root_gain: 4.0 },
                ..base.clone()
            },
        ),
        (
            "12-web-regs",
            AnalyzerOptions {
                promotion: PromotionMode::Coloring { registers: 12 },
                ..base.clone()
            },
        ),
        ("caller-prealloc", AnalyzerOptions { caller_preallocation: true, ..base }),
    ]
}

/// Renders the ablation table: cycles and singleton refs per variant, per
/// workload, as improvement over L2.
pub fn ablation_table(workloads: &[Workload], fast: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablations (cycle improvement % / singleton-ref reduction % over L2)");
    let variants = ablation_variants();
    let _ = write!(out, "{:<12}", "Benchmark");
    for (label, _) in &variants {
        let _ = write!(out, " {:>21}", label);
    }
    let _ = writeln!(out);
    for w in workloads {
        let input = if fast { &w.training_input } else { &w.input };
        let l2 = compile(&w.sources, &CompileOptions::paper(PaperConfig::L2)).expect("compile");
        let rb = run_program(&l2, input).expect("run");
        let _ = write!(out, "{:<12}", w.name);
        for (_, opts) in &variants {
            let p = compile(
                &w.sources,
                &CompileOptions { analyzer: Some(opts.clone()), ..Default::default() },
            )
            .expect("compile");
            let r = run_program(&p, input).expect("run");
            let cyc = improvement_pct(rb.stats.cycles, r.stats.cycles);
            let refs = improvement_pct(rb.stats.singleton_refs(), r.stats.singleton_refs());
            let _ = write!(out, " {:>14.1} /{:>5.1}", cyc, refs);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100, 90), 10.0);
        assert_eq!(improvement_pct(100, 110), -10.0);
        assert_eq!(improvement_pct(0, 5), 0.0);
    }

    #[test]
    fn fast_measurement_smoke() {
        let w = ipra_workloads::dhrystone();
        let row = measure_workload(&w, true);
        assert_eq!(row.configs.len(), 6);
        assert!(row.baseline.cycles > 0);
        assert!(row.baseline.singleton_refs > 0);
        assert!(row.baseline.mem_refs >= row.baseline.singleton_refs);
        // Config C must reduce singleton refs on dhrystone.
        let c = row.configs.iter().find(|(c, _)| *c == PaperConfig::C).unwrap().1;
        assert!(c.singleton_refs < row.baseline.singleton_refs);
    }

    #[test]
    fn tables_render() {
        let w = vec![ipra_workloads::dhrystone()];
        let rows = vec![measure_workload(&w[0], true)];
        let t3 = table3(&w);
        assert!(t3.contains("dhrystone"));
        let t4 = table4(&rows);
        assert!(t4.contains("Benchmark") && t4.contains("dhrystone"));
        let t5 = table5(&rows);
        assert!(t5.contains("Singleton"));
        let st = stats_table(&rows);
        assert!(st.contains("clusters"));
    }

    #[test]
    fn ablation_variants_all_run() {
        let w = ipra_workloads::dhrystone();
        for (label, opts) in ablation_variants() {
            let p =
                compile(&w.sources, &CompileOptions { analyzer: Some(opts), ..Default::default() })
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            let r = run_program(&p, &w.training_input).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(!r.output.is_empty(), "{label}");
        }
    }
}
