//! Byte-identity goldens for the VPR backend.
//!
//! The target-description refactor promises that VPR output is *byte
//! identical* to what the backend produced before the machine-description
//! layer existed. This test pins that promise: for every Table 3 workload
//! under every paper configuration (the seven configs plus alias-precision
//! P), the serialized executable's fingerprint must equal the golden
//! recorded from the pre-refactor tree. The scaled program at 64 modules
//! and the long-procedure programs at 1,000 and 2,000 statements are
//! pinned too, under L2 and C: they are the inputs whose compile time the
//! benchmarks track, so a faster phase 1 or phase 2 must leave them alone.
//!
//! The golden file was generated from the last commit in which the VPR
//! convention was still hardcoded; regenerate only when an *intentional*
//! codegen change lands, with:
//!
//! ```sh
//! IPRA_UPDATE_GOLDENS=1 cargo test -p ipra-workloads --test golden_vx
//! ```

use ipra_core::fingerprint::Fnv64;
use ipra_core::PaperConfig;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions, SourceFile};
use ipra_workloads::scaled::{long_program, scaled_program};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/vx_fingerprints.txt")
}

/// FNV-64 over the serialized executable — the same bytes a `.vx` artifact
/// carries as its payload.
fn exe_fingerprint(exe: &vpr::Executable) -> u64 {
    let json = serde_json::to_string(exe).expect("executable serialization cannot fail");
    let mut h = Fnv64::new();
    h.write(json.as_bytes());
    h.finish()
}

/// One golden line per config: the input's name, the config and the
/// executable's fingerprint.
fn lines(
    out: &mut String,
    name: &str,
    sources: &[SourceFile],
    configs: &[PaperConfig],
    training: &[i64],
) {
    let mut cache = CompilationCache::new();
    for &config in configs {
        let opts = CompileOptions::default();
        let program = compile_configured(sources, config, training, &opts, &mut cache)
            .unwrap_or_else(|e| panic!("{name}/{config}: {e}"))
            .unwrap_or_else(|e| panic!("{name}/{config}: training trap {e}"));
        let _ = writeln!(out, "{name} {config} fnv64:{:016x}", exe_fingerprint(&program.exe));
    }
}

fn current_fingerprints() -> String {
    let mut out = String::new();
    for w in ipra_workloads::all() {
        lines(&mut out, w.name, &w.sources, &PaperConfig::ALL_WITH_ALIAS, &w.training_input);
    }
    let configs = [PaperConfig::L2, PaperConfig::C];
    lines(&mut out, "scaled-64", &scaled_program(64), &configs, &[]);
    for n in [1000, 2000] {
        lines(&mut out, &format!("long-{n}"), &long_program(n), &configs, &[]);
    }
    out
}

#[test]
fn vpr_executables_match_pre_refactor_goldens() {
    let current = current_fingerprints();
    let path = golden_path();
    if std::env::var_os("IPRA_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!("golden_vx: wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        golden_lines.len(),
        current_lines.len(),
        "workload x config matrix changed; regenerate goldens deliberately"
    );
    let mut diffs = String::new();
    for (g, c) in golden_lines.iter().zip(&current_lines) {
        if g != c {
            let _ = writeln!(diffs, "  golden: {g}\n  now:    {c}");
        }
    }
    assert!(
        diffs.is_empty(),
        "VPR output is no longer byte-identical to the pre-refactor backend:\n{diffs}"
    );
}
