//! Quickstart: compile a two-module program through the full two-pass
//! pipeline, run it on the simulator, and compare the baseline against
//! interprocedural register allocation.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ipra_core::PaperConfig;
use ipra_driver::{compile, run_program, CompileOptions, SourceFile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little two-module program: a counter module with a module-private
    // (static) global and an application that hammers it.
    let sources = [
        SourceFile::new(
            "counter",
            "static int hits;
             int total;
             int bump(int k) { hits = hits + 1; total = total + k; return total; }
             int hits_seen() { return hits; }",
        ),
        SourceFile::new(
            "app",
            "extern int total;
             extern int bump(int);
             extern int hits_seen();
             int main() {
                 for (int i = 0; i < 1000; i = i + 1) { bump(i % 10); }
                 out(total);
                 out(hits_seen());
                 return 0;
             }",
        ),
    ];

    println!("== two-pass pipeline (paper Figure 1) ==");
    println!("phase 1: parse, check, optimize, summarize each module");
    println!("analyzer: build call graph, promote webs, move spill code");
    println!("phase 2: allocate registers under the directives, emit, link\n");

    let baseline = compile(&sources, &CompileOptions::paper(PaperConfig::L2))?;
    let rb = run_program(&baseline, &[])?;

    let optimized = compile(&sources, &CompileOptions::paper(PaperConfig::C))?;
    let ro = run_program(&optimized, &[])?;

    assert_eq!(rb.output, ro.output, "optimization must not change behavior");
    println!("program output: {:?}\n", ro.output);

    println!("analyzer statistics (config C):");
    println!("  call graph nodes: {}", optimized.stats.nodes);
    println!("  eligible globals: {}", optimized.stats.eligible_globals);
    println!(
        "  webs: {} found, {} colored",
        optimized.stats.webs_total, optimized.stats.webs_colored
    );
    println!("  clusters: {}\n", optimized.stats.clusters);

    let cyc_gain =
        100.0 * (rb.stats.cycles as f64 - ro.stats.cycles as f64) / rb.stats.cycles as f64;
    let ref_gain = 100.0 * (rb.stats.singleton_refs() as f64 - ro.stats.singleton_refs() as f64)
        / rb.stats.singleton_refs() as f64;
    println!("            {:>14} {:>14}", "L2 baseline", "config C");
    println!("cycles      {:>14} {:>14}", rb.stats.cycles, ro.stats.cycles);
    println!("singleton   {:>14} {:>14}", rb.stats.singleton_refs(), ro.stats.singleton_refs());
    println!("\nimprovement: {cyc_gain:.1}% cycles, {ref_gain:.1}% singleton memory references");

    // Show the directives the analyzer computed for the hot procedure.
    let bump = optimized.database.lookup_for("bump", optimized.exe.target());
    println!("\ndirectives for `bump`:");
    for p in &bump.promotions {
        println!(
            "  promote {} -> {} ({})",
            p.sym,
            p.reg,
            if p.is_entry { "web entry" } else { "member" }
        );
    }
    println!("  FREE   = {}", bump.usage.free);
    println!("  CALLER = {}", bump.usage.caller);
    println!("  CALLEE = {}", bump.usage.callee);
    println!("  MSPILL = {}", bump.usage.mspill);
    Ok(())
}
