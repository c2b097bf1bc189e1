//! The register allocator's interference graph against the dense matrix it
//! replaced.
//!
//! Phase 2 keeps interference as neighbour lists. For every function of
//! the 200 generated programs the analysis and IR goldens use, each temp's
//! list must name exactly the temps its row of a `temp_count`² matrix,
//! filled the way the allocator used to fill it, names, and each only
//! once.

use cmin_codegen::alloc::interference;
use cmin_ir::cfg::Cfg;
use cmin_ir::ir::{Function, Temp};
use cmin_ir::liveness::Liveness;
use cmin_ir::{lower_module, optimize_module};
use ipra_workloads::generator::{random_program_with, GenConfig};
use std::collections::BTreeSet;

/// Generated programs checked, in [`GenConfig::rotating`] order.
const SEEDS: u64 = 200;

/// The dense reference: at each definition, the defined temp interferes
/// with every other temp live after it; the parameters interfere with each
/// other and with every temp live into the entry.
fn dense(f: &Function, lv: &Liveness) -> Vec<Vec<bool>> {
    let n = f.temp_count as usize;
    let mut matrix = vec![vec![false; n]; n];
    let mut edge = |a: Temp, b: Temp| {
        if a != b {
            matrix[a.0 as usize][b.0 as usize] = true;
            matrix[b.0 as usize][a.0 as usize] = true;
        }
    };
    for b in f.block_ids() {
        let mut live: BTreeSet<Temp> = lv.live_out(b).iter().collect();
        f.block(b).term.for_each_use(|o| live.extend(o.as_temp()));
        for inst in f.block(b).insts.iter().rev() {
            if let Some(d) = inst.def() {
                for &l in &live {
                    edge(d, l);
                }
                live.remove(&d);
            }
            inst.for_each_use(|o| live.extend(o.as_temp()));
        }
    }
    for (i, &p) in f.params.iter().enumerate() {
        for l in lv.live_in(f.entry).iter() {
            edge(p, l);
        }
        for &q in &f.params[i + 1..] {
            edge(p, q);
        }
    }
    matrix
}

#[test]
fn neighbour_lists_equal_the_dense_matrix_on_generated_programs() {
    let mut functions = 0;
    for seed in 0..SEEDS {
        let (shape, config) = GenConfig::rotating(seed);
        let sources = random_program_with(seed, &config);
        for (m, info) in ipra_driver::frontend(&sources).expect("generated programs compile") {
            let mut ir = lower_module(&m, &info);
            optimize_module(&mut ir);
            for f in &ir.functions {
                let lv = Liveness::compute(f, &Cfg::new(f));
                let graph = interference(f, &lv);
                for (t, row) in dense(f, &lv).iter().enumerate() {
                    let mut listed: Vec<u32> =
                        graph.neighbours(Temp(t as u32)).map(|u| u.0).collect();
                    listed.sort_unstable();
                    let want: Vec<u32> =
                        (0..row.len() as u32).filter(|&u| row[u as usize]).collect();
                    assert_eq!(listed, want, "seed {seed} ({shape}), {} t{t}", f.name);
                }
                functions += 1;
            }
        }
    }
    assert!(functions > 2 * SEEDS as usize, "only {functions} functions checked");
}
