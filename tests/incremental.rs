//! Cache-correctness tests for the parallel, incremental driver.
//!
//! The contract under test: a [`CompilationCache`] is an *invisible*
//! optimization. Whatever mix of cold, warm, edited, serial, or parallel
//! builds produced an executable, it must be bit-identical to a fresh
//! serial compile of the same sources — across every paper configuration —
//! and the cache accounting must prove the skipped work was really skipped.

use ipra_core::{AnalyzerOptions, PaperConfig};
use ipra_driver::{
    collect_profile_from, compile_configured, compile_incremental, run_program, verify_program,
    BuildReport, CompilationCache, CompileOptions, CompiledProgram, DriverError,
};
use ipra_telemetry::Telemetry;
use ipra_workloads::scaled::{perturb, scaled_program};
use std::sync::mpsc::TryRecvError;
use std::sync::Mutex;
use vpr::target::TargetId;

/// Editing one module of twenty re-runs the first phase for that module
/// alone, and — because the edit is summary-invariant — the second phase
/// for that module alone, while still producing exactly the executable a
/// fresh build produces.
#[test]
fn one_edit_of_twenty_recompiles_only_the_changed_slice() {
    let mut sources = scaled_program(20);
    let opts = CompileOptions::paper(PaperConfig::C);
    let mut cache = CompilationCache::new();
    let cold = compile_incremental(&sources, &opts, &mut cache).unwrap();
    assert_eq!(cold.build.phase1.misses, 20);
    assert_eq!(cold.build.recompiled.len(), 20);

    perturb(&mut sources, 10, 7);
    let edited = compile_incremental(&sources, &opts, &mut cache).unwrap();
    assert_eq!(edited.build.phase1.hits, 19, "only s10's source changed");
    assert_eq!(edited.build.phase1.misses, 1);
    assert_eq!(
        edited.build.recompiled,
        vec!["s10".to_string()],
        "a summary-invariant edit must re-run codegen for the edited module alone"
    );
    assert_eq!(edited.build.phase2.hits, 19);

    let fresh = compile_incremental(&sources, &opts, &mut CompilationCache::new()).unwrap();
    assert_eq!(edited.exe, fresh.exe, "incremental build must match a fresh build bit-for-bit");
    assert_ne!(edited.exe, cold.exe, "the edit is observable in the machine code");
}

/// A warm rebuild is bit-identical to the cold build under every paper
/// configuration: same executable, clean verification, and identical
/// simulator behavior down to the instruction counts.
#[test]
fn warm_rebuild_is_bit_identical_across_all_configs() {
    let sources = scaled_program(8);
    for config in PaperConfig::ALL {
        let mut cache = CompilationCache::new();
        let opts = CompileOptions::default();
        let cold = compile_configured(&sources, config, &[], &opts, &mut cache)
            .unwrap_or_else(|e| panic!("{config}: {e}"))
            .unwrap_or_else(|e| panic!("{config}: training trap {e}"));
        let warm = compile_configured(&sources, config, &[], &opts, &mut cache).unwrap().unwrap();
        // A profile-fed build's baseline and final objects sit under
        // different keys, so both configurations rebuild from hits alone.
        assert_eq!(warm.build.phase1.hits, 8, "{config}: warm phase 1 must be all hits");
        assert_eq!(warm.build.phase2.hits, 8, "{config}: warm phase 2 must be all hits");
        assert!(warm.build.recompiled.is_empty(), "{config}: nothing changed");
        assert_eq!(warm.exe, cold.exe, "{config}: warm build must be bit-identical");
        let report = verify_program(&warm);
        assert!(report.is_clean(), "{config}: warm build failed verification:\n{report}");
        let rc = run_program(&cold, &[]).unwrap();
        let rw = run_program(&warm, &[]).unwrap();
        assert_eq!(rc.output, rw.output, "{config}: output");
        assert_eq!(rc.exit, rw.exit, "{config}: exit");
        assert_eq!(rc.stats, rw.stats, "{config}: dynamic instruction accounting");
    }
}

/// The worker-pool width is a pure wall-clock knob: any `jobs` value
/// produces the same executable as the serial build.
#[test]
fn jobs_never_change_the_executable() {
    let sources = scaled_program(12);
    for config in [PaperConfig::L2, PaperConfig::C] {
        let serial = compile_incremental(
            &sources,
            &CompileOptions::paper(config),
            &mut CompilationCache::new(),
        )
        .unwrap();
        for jobs in [0, 4] {
            let opts = CompileOptions { jobs, ..CompileOptions::paper(config) };
            let parallel =
                compile_incremental(&sources, &opts, &mut CompilationCache::new()).unwrap();
            assert_eq!(
                parallel.exe, serial.exe,
                "{config}: jobs={jobs} must match the serial build bit-for-bit"
            );
        }
        let report = verify_program(&serial);
        assert!(report.is_clean(), "{config}: verification:\n{report}");
    }
}

/// The profile-feedback loop shares one cache between its baseline and
/// profile-fed builds, so the final build's first phase is pure cache hits
/// — the sources did not change between the two compiles.
#[test]
fn profile_recompile_front_end_is_all_cache_hits() {
    let sources = scaled_program(6);
    let mut cache = CompilationCache::new();
    let opts = CompileOptions::default();
    let program =
        compile_configured(&sources, PaperConfig::B, &[], &opts, &mut cache).unwrap().unwrap();
    assert_eq!(program.build.phase1.hits, sources.len());
    assert_eq!(program.build.phase1.misses, 0);
    let report = verify_program(&program);
    assert!(report.is_clean(), "profile-fed build failed verification:\n{report}");
}

/// A whitespace-only edit re-runs the first phase for the touched module
/// (its source fingerprint moved) but no codegen at all: the optimized IR
/// is unchanged, so every phase-2 probe still hits.
#[test]
fn whitespace_edit_skips_codegen_entirely() {
    let mut sources = scaled_program(5);
    let opts = CompileOptions::paper(PaperConfig::C);
    let mut cache = CompilationCache::new();
    let cold = compile_incremental(&sources, &opts, &mut cache).unwrap();

    sources[3].text.push_str("\n\n");
    let rebuilt = compile_incremental(&sources, &opts, &mut cache).unwrap();
    assert_eq!(rebuilt.build.phase1.misses, 1);
    assert_eq!(rebuilt.build.phase2.hits, 5, "identical IR must not re-run codegen");
    assert!(rebuilt.build.recompiled.is_empty());
    assert_eq!(rebuilt.exe, cold.exe);
}

/// The `.vx` artifact bytes of a build.
fn vx(program: &ipra_driver::CompiledProgram) -> String {
    ipra_daemon::protocol::executable_artifact(&program.exe).0
}

/// Two branches of one program — the same module names, every module of
/// `B` re-tuned — built A, B, A, B through one memory-only cache: each
/// branch keeps its entries beside the other's, so from the third build
/// on both phases are all hits and nothing recompiles.
#[test]
fn alternating_branches_hit_in_both_phases() {
    const N: usize = 12;
    let a = scaled_program(N);
    let mut b = a.clone();
    for i in 0..N {
        perturb(&mut b, i, 500 + i as i64);
    }
    let opts = CompileOptions::paper(PaperConfig::C);
    let fresh: Vec<String> =
        [&a, &b].iter().map(|s| vx(&ipra_driver::compile(s, &opts).unwrap())).collect();
    assert_ne!(fresh[0], fresh[1], "the branches differ in their code");
    let mut cache = CompilationCache::new();
    for round in 0..4 {
        let branch = round % 2;
        let built = compile_incremental([&a, &b][branch], &opts, &mut cache).unwrap();
        assert_eq!(vx(&built), fresh[branch], "build {round}: bytes");
        if round >= 2 {
            let r = &built.build;
            assert_eq!((r.phase1.hits, r.phase2.hits), (N, N), "build {round}");
            assert!(r.recompiled.is_empty(), "build {round}: {:?}", r.recompiled);
            assert_eq!((r.phase1.evictions, r.phase2.evictions), (0, 0), "build {round}");
        }
    }
}

/// An entry stays in memory while any of the cache's last
/// `RETAINED_BUILDS` builds used it: after 15 builds that do not touch a
/// program it is still a memory hit, and after 16 it has left memory —
/// a recompute on a memory-only cache, a disk hit with a disk tier.
#[test]
fn entries_idle_for_sixteen_builds_leave_memory_but_not_disk() {
    const N: usize = 4;
    assert_eq!(ipra_driver::RETAINED_BUILDS, 16);
    let kept = scaled_program(N);
    // Programs sharing no module source (and so no entry) with `kept`.
    let mut tune = 0;
    let mut other = || {
        tune += 1;
        let mut s = scaled_program(N);
        for i in 0..N {
            perturb(&mut s, i, 1000 * tune + i as i64);
        }
        s
    };
    let opts = CompileOptions::paper(PaperConfig::C);
    let dir = std::env::temp_dir().join(format!("ipra-retention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for with_disk in [false, true] {
        let mut cache = if with_disk {
            CompilationCache::with_disk(&dir).unwrap()
        } else {
            CompilationCache::new()
        };
        compile_incremental(&kept, &opts, &mut cache).unwrap();
        for _ in 0..15 {
            compile_incremental(&other(), &opts, &mut cache).unwrap();
        }
        let warm = compile_incremental(&kept, &opts, &mut cache).unwrap().build;
        assert_eq!((warm.phase1.hits, warm.phase1.disk_hits), (N, 0), "after 15: memory hits");
        assert_eq!((warm.phase2.hits, warm.phase2.disk_hits), (N, 0), "after 15: memory hits");
        let mut retired = 0;
        for _ in 0..16 {
            let r = compile_incremental(&other(), &opts, &mut cache).unwrap().build;
            retired += r.phase1.evictions;
        }
        assert!(retired >= N, "idle entries are counted as evictions");
        let cold = compile_incremental(&kept, &opts, &mut cache).unwrap().build;
        if with_disk {
            assert_eq!((cold.phase1.hits, cold.phase1.disk_hits), (N, N), "after 16: disk hits");
            assert_eq!((cold.phase2.hits, cold.phase2.disk_hits), (N, N), "after 16: disk hits");
            assert!(cold.recompiled.is_empty());
        } else {
            assert_eq!((cold.phase1.misses, cold.phase2.misses), (N, N), "after 16: gone");
            assert_eq!(cold.recompiled.len(), N);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A build's cache accounting: each step's (hits, disk hits, misses,
/// evictions), then the modules recompiled.
type Counts = ([(usize, usize, usize, usize); 3], Vec<String>);

fn counts(b: &BuildReport) -> Counts {
    let step = |s: &ipra_driver::PhaseStats| (s.hits, s.disk_hits, s.misses, s.evictions);
    ([step(&b.phase1), step(&b.analyze), step(&b.phase2)], b.recompiled.clone())
}

/// One build under `opts` with a fresh collector attached: the program and
/// the collector's counters as `metrics_json`.
fn counted(
    opts: &CompileOptions,
    build: impl FnOnce(&CompileOptions) -> Result<CompiledProgram, DriverError>,
) -> (CompiledProgram, String) {
    let tele = Telemetry::new();
    let opts = CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() };
    (build(&opts).unwrap(), tele.metrics_json())
}

/// `compile()` runs the stages `compile_incremental` runs on its misses,
/// with no cache. So it builds what a build through a fresh cache and one
/// through a warm cache build, down to the objects, summaries, database,
/// statistics and decision trace, and it counts what the fresh-cache build
/// counts: every module a miss in both phases, the analyzer one miss.
/// Every configuration, with a profile where it wants one, plus C with
/// the optimizer off and C for rv32, each at pool widths 1 and 4,
/// untraced and traced.
#[test]
fn one_shot_compile_equals_the_cached_build_fresh_and_warm() {
    const N: usize = 12;
    let sources = scaled_program(N);
    let l2 = ipra_driver::compile(&sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
    let profile = collect_profile_from(&l2.exe, &run_program(&l2, &[]).unwrap());
    let mut cases: Vec<(PaperConfig, CompileOptions)> = PaperConfig::ALL_WITH_ALIAS
        .into_iter()
        .map(|config| {
            let profile = config.wants_profile().then(|| profile.clone());
            let analyzer = AnalyzerOptions::paper_config(config, profile);
            (config, CompileOptions { analyzer, ..CompileOptions::default() })
        })
        .collect();
    let c = CompileOptions::paper(PaperConfig::C);
    cases.push((PaperConfig::C, CompileOptions { optimize: false, ..c.clone() }));
    cases.push((PaperConfig::C, CompileOptions { target: TargetId::Rv32, ..c }));
    let every: Vec<String> = sources.iter().map(|s| s.name.clone()).collect();
    let cold = ([(0, 0, N, 0), (0, 0, 1, 0), (0, 0, N, 0)], every);
    for (config, case) in &cases {
        for (jobs, trace) in [(1, false), (4, false), (1, true), (4, true)] {
            let opts = CompileOptions { jobs, trace, ..case.clone() };
            let label = format!(
                "{config} optimize={} target={} jobs={jobs} trace={trace}",
                opts.optimize,
                opts.target.name()
            );
            let (oneshot, oneshot_metrics) = counted(&opts, |o| ipra_driver::compile(&sources, o));
            let mut cache = CompilationCache::new();
            let (fresh, fresh_metrics) =
                counted(&opts, |o| compile_incremental(&sources, o, &mut cache));
            let warm = compile_incremental(&sources, &opts, &mut cache).unwrap();
            assert!(warm.build.recompiled.is_empty(), "{label}: the warm build hits");
            for (built, how) in [(&fresh, "fresh cache"), (&warm, "warm cache")] {
                assert_eq!(oneshot.exe, built.exe, "{label}, {how}: exe");
                assert_eq!(oneshot.objects, built.objects, "{label}, {how}: objects");
                assert_eq!(oneshot.summary, built.summary, "{label}, {how}: summary");
                assert_eq!(oneshot.database, built.database, "{label}, {how}: database");
                assert_eq!(oneshot.stats, built.stats, "{label}, {how}: stats");
                assert_eq!(oneshot.trace, built.trace, "{label}, {how}: trace");
            }
            assert_eq!(oneshot.trace.is_some(), trace, "{label}: trace");
            assert_eq!(counts(&oneshot.build), cold, "{label}: one-shot counts");
            assert_eq!(counts(&fresh.build), cold, "{label}: fresh-cache counts");
            assert_eq!(oneshot_metrics, fresh_metrics, "{label}: counters");
            assert_eq!(oneshot.build.cache_seconds, 0.0, "{label}: no disk tier");
        }
    }
}

/// The span names a collector recorded, sorted: which spans a build
/// opened, whatever order its workers closed them in.
fn span_names(tele: &Telemetry) -> Vec<String> {
    let trace = tele.chrome_trace_json();
    let mut names: Vec<String> = trace
        .lines()
        .filter(|l| l.trim_start().starts_with("\"name\""))
        .map(|l| l.trim().to_string())
        .collect();
    names.sort();
    names
}

/// A request's build through the artifact path and through
/// `compile_configured` + `executable_artifact`: the `.vx` text and
/// fingerprint, the report, the counters (the `.vx` tier's left out) and
/// the span names.
type Observed = ((String, u64), BuildReport, std::collections::BTreeMap<String, u64>, Vec<String>);

fn observed(
    opts: &CompileOptions,
    build: impl FnOnce(&CompileOptions) -> ((String, u64), BuildReport),
) -> Observed {
    let tele = Telemetry::new();
    let (artifact, report) =
        build(&CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() });
    let mut counters = tele.counters();
    counters.retain(|name, _| !name.starts_with("vx."));
    (artifact, report, counters, span_names(&tele))
}

/// `compile_artifact` builds and counts what `compile_configured` does,
/// and hands out the text `executable_artifact` writes for its
/// executable. Two caches see the same mixed sequence of requests, one
/// through each path: under every configuration (B and F trained on an
/// input), branch switches, one-module edits and never-seen programs, at
/// pool widths 1 and 2, through memory-only caches that serve every
/// request and through disk-backed ones reopened before each. The `.vx`
/// tier serves a branch's third build when the cache stays open.
#[test]
fn the_artifact_path_builds_and_counts_what_compile_configured_does() {
    const N: usize = 6;
    let a = scaled_program(N);
    let mut b = a.clone();
    for i in 0..N {
        perturb(&mut b, i, 500 + i as i64);
    }
    let input = [3, 5];
    let dirs = ["artifact", "configured"]
        .map(|side| std::env::temp_dir().join(format!("ipra-twin-{side}-{}", std::process::id())));
    for reopened in [false, true] {
        for jobs in [1, 2] {
            for dir in &dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
            let open = || dirs.each_ref().map(|d| CompilationCache::with_disk(d).unwrap());
            let [artifact_cache, mut configured_cache] =
                if reopened { open() } else { [CompilationCache::new(), CompilationCache::new()] };
            let mut artifact_shard = Mutex::new(artifact_cache);
            let opts = CompileOptions { jobs, ..CompileOptions::default() };
            let mut fresh = 0;
            for config in PaperConfig::ALL_WITH_ALIAS {
                let mut edit = a.clone();
                perturb(&mut edit, fresh % N, 900 + fresh as i64);
                let mut never_seen = scaled_program(N);
                for i in 0..N {
                    fresh += 1;
                    perturb(&mut never_seen, i, 2000 + fresh as i64);
                }
                let requests = [&a, &b, &a, &b, &a, &edit, &never_seen, &b];
                for (k, sources) in requests.into_iter().enumerate() {
                    let label = format!("reopened={reopened} jobs={jobs} {config} request {k}");
                    if reopened {
                        let [artifact_cache, reopened_cache] = open();
                        *artifact_shard.get_mut().unwrap() = artifact_cache;
                        configured_cache = reopened_cache;
                    }
                    let got = observed(&opts, |o| {
                        let built = ipra_driver::compile_artifact(
                            sources,
                            config,
                            &input,
                            o,
                            &artifact_shard,
                        )
                        .unwrap()
                        .unwrap();
                        ((built.vx, built.fingerprint), built.build)
                    });
                    let want = observed(&opts, |o| {
                        let program =
                            compile_configured(sources, config, &input, o, &mut configured_cache)
                                .unwrap()
                                .unwrap();
                        (ipra_daemon::protocol::executable_artifact(&program.exe), program.build)
                    });
                    assert_eq!(got.0, want.0, "{label}: .vx text and fingerprint");
                    assert_eq!(counts(&got.1), counts(&want.1), "{label}: report");
                    assert_eq!(got.2, want.2, "{label}: counters");
                    assert_eq!(got.3, want.3, "{label}: spans");
                    let tier = (got.1.vx.hits, got.1.vx.misses);
                    let third = !reopened && (k == 4 || k == 7);
                    assert_eq!(tier, if third { (1, 0) } else { (tier.0, 1 - tier.0) }, "{label}");
                    assert!(
                        !reopened || tier == (0, 1),
                        "{label}: a reopened cache's tier is empty"
                    );
                }
            }
        }
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Two threads build one project through one shared cache, and their
/// batches of cache operations interleave: one edits a different module
/// before each build, the other re-requests the primed program until the
/// edits are done. Every text is the one a `compile()` of the same
/// sources links, and no re-request recompiles anything, through a
/// memory-only cache and a disk-backed one.
#[test]
fn an_editing_and_a_re_requesting_thread_share_one_cache() {
    const N: usize = 24;
    const EDITS: usize = 10;
    let base = scaled_program(N);
    let opts = CompileOptions::paper(PaperConfig::C);
    let want =
        |sources: &[ipra_driver::SourceFile]| vx(&ipra_driver::compile(sources, &opts).unwrap());
    let base_vx = want(&base);
    let dir = std::env::temp_dir().join(format!("ipra-shared-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for cache in [CompilationCache::new(), CompilationCache::with_disk(&dir).unwrap()] {
        let shard = Mutex::new(cache);
        let build = |sources: &[ipra_driver::SourceFile]| {
            ipra_driver::compile_artifact(sources, PaperConfig::C, &[], &opts, &shard)
                .unwrap()
                .unwrap()
        };
        assert_eq!(build(&base).vx, base_vx, "priming build");
        // The editor holds the sender until it returns or panics.
        let (editing, edits_done) = std::sync::mpsc::channel::<()>();
        let (mut sources, build, want) = (base.clone(), &build, &want);
        std::thread::scope(|s| {
            let editor = s.spawn(move || {
                let _editing = editing;
                for edit in 0..EDITS {
                    perturb(&mut sources, edit * 7 % N, 300 + edit as i64);
                    assert_eq!(build(&sources).vx, want(&sources), "edit {edit}");
                }
            });
            let mut requests = 0;
            while edits_done.try_recv() != Err(TryRecvError::Disconnected) || requests < 2 {
                let built = build(&base);
                assert_eq!(built.vx, base_vx, "re-request {requests}");
                assert!(built.build.recompiled.is_empty(), "re-request {requests}");
                requests += 1;
            }
            editor.join().unwrap();
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}
