//! Spill code motion in action (paper §4.2, Figure 4): a call-intensive
//! region where a root procedure executes the callee-saves spill code for
//! its hot children, who then use the registers for free.
//!
//! ```sh
//! cargo run --example spill_motion
//! ```

use ipra_core::PaperConfig;
use ipra_driver::{compile, run_program, CompileOptions, SourceFile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // R is entered once per outer iteration but calls S and T in a hot
    // loop; S and T each need callee-saves registers (values live across
    // their own calls to W).
    let sources = [SourceFile::new(
        "cluster",
        "int acc;
         int w(int x) { return x + 1; }
         int s(int a, int b) {
             int keep1 = a * 2;
             int keep2 = b * 3;
             int r = w(a);
             return keep1 + keep2 + r;
         }
         int t(int a) {
             int keep = a * 5;
             int r = w(a);
             return keep - r;
         }
         int r(int n) {
             int sum = 0;
             for (int i = 0; i < n; i = i + 1) {
                 sum = sum + s(i, n) + t(i);
             }
             return sum;
         }
         int main() {
             acc = 0;
             for (int outer = 0; outer < 20; outer = outer + 1) {
                 acc = acc + r(50);
             }
             out(acc);
             return 0;
         }",
    )];

    let baseline = compile(&sources, &CompileOptions::paper(PaperConfig::L2))?;
    let moved = compile(&sources, &CompileOptions::paper(PaperConfig::A))?;

    println!("== cluster identification (config A: spill motion only) ==\n");
    println!("clusters found: {}", moved.stats.clusters);
    println!("average cluster size: {:.1} (paper reports 2-4)\n", moved.stats.avg_cluster_size);

    for name in ["main", "r", "s", "t", "w"] {
        let d = moved.database.lookup_for(name, moved.exe.target());
        println!(
            "{name:<5} root={:<5} FREE={:<16} MSPILL={:<16} CALLEE={}",
            d.is_cluster_root,
            d.usage.free.to_string(),
            d.usage.mspill.to_string(),
            d.usage.callee
        );
    }

    let rb = run_program(&baseline, &[])?;
    let rm = run_program(&moved, &[])?;
    assert_eq!(rb.output, rm.output);

    println!("\n== effect (Figure 4's intuition) ==\n");
    println!("            {:>12} {:>12}", "L2", "A (motion)");
    println!("cycles      {:>12} {:>12}", rb.stats.cycles, rm.stats.cycles);
    println!("spill refs  {:>12} {:>12}", rb.stats.singleton_refs(), rm.stats.singleton_refs());
    let gain = 100.0 * (rb.stats.singleton_refs() as f64 - rm.stats.singleton_refs() as f64)
        / rb.stats.singleton_refs() as f64;
    println!("\nthe root now saves the registers once per entry; its children");
    println!("run save/restore-free: {gain:.1}% fewer singleton memory references");
    Ok(())
}
