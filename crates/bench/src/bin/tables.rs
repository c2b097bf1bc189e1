//! Regenerates the paper's evaluation tables.
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin tables            # all tables
//! cargo run --release -p ipra-bench --bin tables -- --table 4
//! cargo run --release -p ipra-bench --bin tables -- --fast  # training inputs
//! ```

use ipra_bench::{
    ablation_table, breakdown_table, measure_workload, stats_table, table3, table4, table5,
};
use ipra_core::PaperConfig;
use ipra_driver::args::Args;

/// The `--table` ids.
const TABLES: [&str; 7] = ["3", "4", "5", "stats", "ablation", "breakdown", "all"];

fn main() {
    let mut args = Args::new("tables", std::env::args().skip(1));
    let fast = args.switch("--fast");
    let which = args
        .value("--table", "3|4|5|stats|ablation|breakdown|all", |v| {
            TABLES.contains(&v).then(|| v.to_string())
        })
        .unwrap_or_else(|| "all".to_string());
    args.finish();

    let workloads = ipra_workloads::all();

    if which == "3" {
        print!("{}", table3(&workloads));
        return;
    }
    if which == "ablation" {
        print!("{}", ablation_table(&workloads, fast));
        return;
    }
    if which == "breakdown" {
        print!("{}", breakdown_table(&workloads, PaperConfig::C, fast));
        return;
    }

    eprintln!(
        "measuring {} workloads x 7 configurations ({} inputs)...",
        workloads.len(),
        if fast { "training" } else { "full" }
    );
    let rows: Vec<_> = workloads
        .iter()
        .map(|w| {
            eprintln!("  {}", w.name);
            measure_workload(w, fast)
        })
        .collect();

    match which.as_str() {
        "4" => print!("{}", table4(&rows)),
        "5" => print!("{}", table5(&rows)),
        "stats" => print!("{}", stats_table(&rows)),
        _ => {
            // "all": the parser admits no other id.
            println!("{}", table3(&workloads));
            println!("{}", table4(&rows));
            println!("{}", table5(&rows));
            println!("{}", stats_table(&rows));
            println!("{}", ablation_table(&workloads, fast));
            println!("{}", breakdown_table(&workloads, PaperConfig::C, fast));
        }
    }
}
