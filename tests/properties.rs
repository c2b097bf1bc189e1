//! Property-based tests over the analyzer's structural invariants, on
//! randomly generated call graphs (not programs — raw summaries, so the
//! graphs include shapes the source language cannot easily produce:
//! dense recursion, deep diamonds, indirect-call fans).
//!
//! Each property runs over a fixed fan of seeds (the offline toolchain has
//! no proptest, and derived seeds cover the same shape space a proptest
//! `any::<u64>()` run would).

use ipra_core::analyzer::{analyze, AnalyzerOptions, PromotionMode};
use ipra_core::callgraph::CallGraph;
use ipra_core::cluster::{identify_clusters, ClusterHeuristics};
use ipra_core::color::{
    color_webs_for, interferes, prioritize, ColoringStrategy, DiscardHeuristics,
};
use ipra_core::dataflow::{Eligibility, RefSets};
use ipra_core::regsets::compute_register_sets_for;
use ipra_core::webs::identify_webs;
use ipra_summary::{CallRef, GlobalFact, GlobalRef, ModuleSummary, ProcSummary, ProgramSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpr::regs::RegSet;
use vpr::target::TargetId;

/// Seeds for one property run: 64 well-spread 64-bit values.
fn seeds() -> impl Iterator<Item = u64> {
    (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
}

/// A random program summary: `n` procedures with random call edges (cycles
/// allowed), `g` globals with random reference sets.
fn random_summary(seed: u64) -> ProgramSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..25usize);
    let g = rng.gen_range(1..8usize);
    let procs = (0..n)
        .map(|i| {
            let n_calls = rng.gen_range(0..4usize);
            let calls = (0..n_calls)
                .map(|_| CallRef {
                    callee: format!("p{}", rng.gen_range(0..n)),
                    freq: rng.gen_range(1..200),
                })
                .collect();
            let n_refs = rng.gen_range(0..3usize.min(g) + 1);
            let global_refs = (0..n_refs)
                .map(|_| GlobalRef {
                    sym: format!("g{}", rng.gen_range(0..g)),
                    freq: rng.gen_range(1..100),
                    written: rng.gen_bool(0.7),
                    ptr_mod: rng.gen_bool(0.05),
                    ptr_ref: rng.gen_bool(0.05),
                    escapes: rng.gen_bool(0.05),
                })
                .collect();
            ProcSummary {
                name: format!("p{i}"),
                module: format!("m{}", i % 3),
                global_refs,
                calls,
                taken_addresses: if rng.gen_bool(0.1) {
                    vec![format!("p{}", rng.gen_range(0..n))]
                } else {
                    vec![]
                },
                makes_indirect_calls: rng.gen_bool(0.1),
                callee_saves_estimate: rng.gen_range(0..8),
                caller_saves_estimate: 2,
                alias: Default::default(),
            }
        })
        .collect::<Vec<_>>();
    let globals = (0..g)
        .map(|i| GlobalFact {
            sym: format!("g{i}"),
            size: 1,
            is_array: false,
            is_static: false,
            module: "m0".into(),
            init: vec![],
        })
        .collect();
    ProgramSummary { modules: vec![ModuleSummary { module: "m0".into(), procs, globals }] }
}

/// Web invariants (paper §4.1.2): per-variable webs are disjoint; entry
/// nodes have no predecessor inside the web; internal nodes have no
/// predecessor outside it.
#[test]
fn web_invariants() {
    for seed in seeds() {
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let elig = Eligibility::compute(&graph, &s);
        let refs = RefSets::compute(&graph, &elig);
        let (webs, _) = identify_webs(&graph, &elig, &refs);
        for (i, a) in webs.iter().enumerate() {
            for b in webs.iter().skip(i + 1) {
                if a.global == b.global {
                    assert!(
                        a.nodes.iter().all(|n| !b.contains(*n)),
                        "seed {seed}: webs for the same global overlap"
                    );
                }
            }
            for &n in &a.nodes {
                let internal_preds = graph.predecessors(n).filter(|p| a.contains(*p)).count();
                let external_preds = graph.predecessors(n).filter(|p| !a.contains(*p)).count();
                if a.is_entry(n) {
                    assert_eq!(internal_preds, 0, "seed {seed}: entry with internal pred");
                } else {
                    assert_eq!(external_preds, 0, "seed {seed}: internal node with external pred");
                }
            }
        }
    }
}

/// Coloring validity, on every target: interfering webs never share a
/// register, every color is one of the target's callee-saves registers,
/// and the reserved-K strategy uses at most K registers.
#[test]
fn coloring_validity() {
    for target in TargetId::ALL {
        let desc = target.desc();
        for seed in seeds() {
            let k = 1 + (seed % 6) as u32;
            let s = random_summary(seed);
            let graph = CallGraph::build(&s, None);
            let elig = Eligibility::compute(&graph, &s);
            let refs = RefSets::compute(&graph, &elig);
            let (webs, _) = identify_webs(&graph, &elig, &refs);
            let prio = prioritize(&webs, &graph, &elig, &DiscardHeuristics::default());
            let strategy = ColoringStrategy::Reserved { count: k };
            let coloring = color_webs_for(&webs, &prio, strategy, &graph, desc);
            let mut used = std::collections::HashSet::new();
            for (i, a) in webs.iter().enumerate() {
                if let Some(r) = coloring.assignment[i] {
                    used.insert(r);
                    assert!(desc.callee_saves.contains(r), "{target} seed {seed}");
                    for (j, b) in webs.iter().enumerate().skip(i + 1) {
                        if interferes(a, b) {
                            assert_ne!(Some(r), coloring.assignment[j], "{target} seed {seed}");
                        }
                    }
                }
            }
            assert!(used.len() <= k as usize, "{target} seed {seed}: used {} > k {k}", used.len());
        }
    }
}

/// Cluster invariants (paper §4.2.1): the root dominates every member,
/// non-root members have all predecessors inside the cluster, and no
/// member lies on a recursive chain.
#[test]
fn cluster_invariants() {
    for seed in seeds() {
        let s = random_summary(seed);
        let graph = CallGraph::build(&s, None);
        let clustering = identify_clusters(&graph, &ClusterHeuristics::default());
        for c in &clustering.clusters {
            for &m in &c.members {
                assert!(!graph.is_recursive(m), "seed {seed}: recursive member");
                assert!(graph.node(m).defined, "seed {seed}: undefined member");
                for p in graph.predecessors(m) {
                    assert!(c.contains(p), "seed {seed}: member {m} has external pred {p}");
                }
                assert!(
                    ipra_core::cluster::cg_dominates(
                        &(0..graph.len() as u32)
                            .map(|i| clustering.idom(ipra_core::NodeId(i)))
                            .collect::<Vec<_>>(),
                        c.root,
                        m
                    ),
                    "seed {seed}: root does not dominate member"
                );
            }
        }
    }
}

/// Register-set invariants (paper §4.2.3), on every target: classes are
/// disjoint, FREE and MSPILL hold only the target's callee-saves
/// registers, MSPILL appears only at cluster roots, and every FREE
/// register of a member is spilled by a root on its cluster chain.
#[test]
fn register_set_invariants() {
    for target in TargetId::ALL {
        let desc = target.desc();
        for seed in seeds() {
            let s = random_summary(seed);
            let graph = CallGraph::build(&s, None);
            let clustering = identify_clusters(&graph, &ClusterHeuristics::default());
            let web_regs = vec![RegSet::new(); graph.len()];
            let usage = compute_register_sets_for(&graph, &clustering, &web_regs, false, desc);
            for n in graph.node_ids() {
                let u = &usage[n.index()];
                assert!(u.free.is_disjoint(u.caller), "{target} seed {seed}");
                assert!(u.free.is_disjoint(u.callee), "{target} seed {seed}");
                assert!(u.caller.is_disjoint(u.callee), "{target} seed {seed}");
                assert!(u.free.is_subset(desc.callee_saves), "{target} seed {seed}");
                assert!(u.mspill.is_subset(desc.callee_saves), "{target} seed {seed}");
                if !u.mspill.is_empty() {
                    assert!(clustering.is_root(n), "{target} seed {seed}");
                }
            }
            for c in &clustering.clusters {
                // Union of MSPILL along the enclosing-roots chain.
                let mut chain = usage[c.root.index()].mspill;
                let mut roots = vec![c.root];
                loop {
                    let mut grew = false;
                    for outer in &clustering.clusters {
                        if roots.iter().any(|r| outer.members.contains(r))
                            && !roots.contains(&outer.root)
                        {
                            roots.push(outer.root);
                            chain |= usage[outer.root.index()].mspill;
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                for &m in &c.members {
                    assert!(
                        usage[m.index()].free.is_subset(chain),
                        "{target} seed {seed}: member FREE not covered by chain MSPILL"
                    );
                }
            }
        }
    }
}

/// The full analyzer never panics and produces a database covering all
/// defined procedures, whatever the configuration.
#[test]
fn analyzer_total_on_random_graphs() {
    for seed in seeds().take(32) {
        let s = random_summary(seed);
        for mode in 0u8..4 {
            let promotion = match mode {
                0 => PromotionMode::Off,
                1 => PromotionMode::Coloring { registers: 6 },
                2 => PromotionMode::Greedy,
                _ => PromotionMode::Blanket { count: 4 },
            };
            let opts = AnalyzerOptions { promotion, ..AnalyzerOptions::default() };
            let analysis = analyze(&s, &opts);
            assert_eq!(analysis.database.len(), s.procs().count(), "seed {seed} mode {mode}");
        }
    }
}
