//! A disk-served build hands the program what it decoded.
//!
//! When a fresh cache's disk tier serves a lookup, the memory tier keeps
//! only the frame it read, and the build moves the decoded summary,
//! object and analysis into the program it returns; a later build through
//! the same cache decodes the held frames into memory and copies from
//! there. Either way the program must be the one [`compile`] builds, so
//! these tests compare every product, not only the executable: a value
//! moved from the wrong module, or left out, shows.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile, compile_incremental, CompilationCache, CompileOptions, CompiledProgram,
};
use ipra_workloads::scaled::{perturb, scaled_program};

/// Modules in the program under test.
const N: usize = 12;

fn assert_same(got: &CompiledProgram, want: &CompiledProgram, label: &str) {
    assert_eq!(got.objects, want.objects, "{label}: objects");
    assert_eq!(got.summary, want.summary, "{label}: summary");
    assert_eq!(got.database, want.database, "{label}: database");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.exe, want.exe, "{label}: exe");
}

#[test]
fn disk_served_builds_return_what_compile_returns() {
    for jobs in [1, 2] {
        let dir =
            std::env::temp_dir().join(format!("ipra-disk-served-{jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CompileOptions { jobs, ..CompileOptions::paper(PaperConfig::C) };
        let mut sources = scaled_program(N);
        let cold = {
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &opts, &mut cache).unwrap()
        };
        assert_same(&cold, &compile(&sources, &opts).unwrap(), &format!("jobs {jobs}, cold"));
        for edited in [false, true] {
            if edited {
                // A re-tuned constant: one module's code moves, no summary.
                perturb(&mut sources, N / 2, 7);
            }
            let label = format!("jobs {jobs}, edited {edited}");
            let want = compile(&sources, &opts).unwrap();
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            let first = compile_incremental(&sources, &opts, &mut cache).unwrap();
            let served = N - usize::from(edited);
            let b = &first.build;
            assert_eq!((b.phase1.disk_hits, b.phase2.disk_hits), (served, served), "{label}");
            assert_eq!(b.analyze.disk_hits, 1, "{label}");
            assert_eq!(b.recompiled.len(), usize::from(edited), "{label}");
            assert_same(&first, &want, &format!("{label}, first build"));

            let second = compile_incremental(&sources, &opts, &mut cache).unwrap();
            let b = &second.build;
            for (step, s) in [("phase1", b.phase1), ("phase2", b.phase2)] {
                assert_eq!((s.hits, s.disk_hits), (N, 0), "{label}, second build: {step}");
            }
            assert_eq!((b.analyze.hits, b.analyze.disk_hits), (1, 0), "{label}, second build");
            assert!(b.recompiled.is_empty(), "{label}, second build");
            assert_same(&second, &want, &format!("{label}, second build"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
