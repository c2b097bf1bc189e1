//! Byte-identity goldens for the IR optimizer.
//!
//! The analysis goldens (`golden_analysis.rs`) see phase 1 only through
//! the summaries, and the `.vx` goldens only through what codegen makes of
//! it. This test pins phase 1's output itself: for every module of every
//! input below, the FNV-64 of the optimized [`IrModule`]'s binary encoding
//! must equal the golden. That hash is the module's `ir_fp`, the key the
//! build cache and the `.csum`/`.vo` artifacts carry.
//!
//! Inputs: every Table 3 workload, the scaled programs at 64 and 256
//! modules, and the generated programs of `golden_analysis.rs`, in the
//! same shape rotation.
//!
//! A pure performance change to the optimizer must leave this file alone.
//! Regenerate only when an *intentional* change to lowering or
//! optimization lands, with:
//!
//! ```sh
//! IPRA_UPDATE_GOLDENS=1 cargo test -p ipra-workloads --test golden_ir
//! ```

mod common;

use cmin_ir::IrModule;
use common::{check_golden, optimized_ir, shape, SEEDS};
use ipra_core::fingerprint::Fnv64;
use ipra_driver::SourceFile;
use ipra_workloads::generator::random_program_with;
use ipra_workloads::scaled::scaled_program;
use serde::BinSerialize;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/ir_fingerprints.txt")
}

/// FNV-64 over the module's binary encoding.
fn ir_fingerprint(ir: &IrModule) -> u64 {
    let mut encoded = Vec::new();
    ir.bin_serialize(&mut encoded);
    let mut h = Fnv64::new();
    h.write(&encoded);
    h.finish()
}

/// One golden line per module: the input's label, the module name and
/// its fingerprint.
fn lines(out: &mut String, label: &str, sources: &[SourceFile]) {
    for ir in optimized_ir(sources) {
        let _ = writeln!(out, "{label} {} fnv64:{:016x}", ir.name, ir_fingerprint(&ir));
    }
}

fn current_fingerprints() -> String {
    let mut out = String::new();
    for w in ipra_workloads::all() {
        lines(&mut out, w.name, &w.sources);
    }
    for n in [64, 256] {
        lines(&mut out, &format!("scaled-{n}"), &scaled_program(n));
    }
    for seed in 0..SEEDS {
        let (name, cfg) = shape(seed);
        lines(&mut out, &format!("seed-{seed} {name}"), &random_program_with(seed, &cfg));
    }
    out
}

#[test]
fn optimized_ir_matches_goldens() {
    check_golden(&golden_path(), &current_fingerprints(), "optimized IR");
}
