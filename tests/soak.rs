//! Deep differential soak: hundreds of random programs across every
//! configuration. Ignored by default (minutes of work); run explicitly:
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```

use ipra_core::PaperConfig;
use ipra_driver::{
    compile_configured, interpret_sources, run_program, CompilationCache, CompileOptions,
};
use ipra_workloads::generator::{random_program_with, GenConfig};

#[test]
#[ignore = "long-running soak; run with --ignored"]
fn five_hundred_seeds_across_all_configs() {
    let cfg = GenConfig {
        modules: 3,
        funcs_per_module: 5,
        globals_per_module: 6,
        ..GenConfig::default()
    };
    for seed in 0..500u64 {
        let sources = random_program_with(seed.wrapping_mul(2654435761), &cfg);
        let oracle = interpret_sources(&sources, &[]).unwrap().unwrap();
        let mut cache = CompilationCache::new();
        for config in PaperConfig::ALL {
            let opts = CompileOptions::default();
            let program =
                compile_configured(&sources, config, &[], &opts, &mut cache).unwrap().unwrap();
            let r = run_program(&program, &[]).unwrap();
            assert_eq!(r.output, oracle.output, "seed {seed} config {config}");
            assert_eq!(r.exit, oracle.exit, "seed {seed} config {config}");
        }
    }
}
