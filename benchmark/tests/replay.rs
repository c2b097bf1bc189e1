//! The layer-by-layer replay reproduces `ipra_driver`'s output byte for byte,
//! for one op of each kind of build the workloads make.

use ipra_benchmark::replay::{self, Counts, ModuleCache, Phase2};
use ipra_benchmark::trace::Recorder;
use ipra_core::analyzer::{AnalyzerOptions, PaperConfig};
use ipra_daemon::protocol::executable_artifact;
use ipra_driver::{compile_configured, compile_incremental, CompilationCache, CompileOptions};
use ipra_workloads::scaled::{perturb, scaled_program};

fn vx(exe: &vpr::program::Executable) -> String {
    executable_artifact(exe).0
}

#[test]
fn cold_build_replay_is_byte_identical() {
    let sources = scaled_program(32);
    let opts = CompileOptions { jobs: 2, ..CompileOptions::paper(PaperConfig::C) };
    let p = compile_incremental(&sources, &opts, &mut CompilationCache::new()).unwrap();
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let built = replay::build(
        &mut rec,
        &mut ModuleCache::default(),
        &sources,
        &AnalyzerOptions::paper_config(PaperConfig::C, None),
        Phase2::All,
        &mut counts,
    )
    .unwrap();
    assert_eq!(vx(&built.exe), vx(&p.exe));
    assert_eq!(built.database, p.database);
    assert_eq!(built.objects, p.objects);
    assert_eq!(counts.codegen_modules, 32);
    assert_eq!(counts.analyzer, p.stats);
    assert_eq!(counts.link_insts, p.exe.code_len());
    assert_eq!(rec.spans.iter().filter(|s| s.name == "frontend.parse").count(), 32);
    // The analyzer's sub-steps are split out after the build, under one
    // span, and find what the analyzer found.
    let [(opts, stats)] = &built.analyses[..] else { panic!("one analyzer run") };
    replay::analyzer_steps(&mut rec, &built.summary, opts, stats).unwrap();
    let steps = rec.spans.iter().position(|s| s.name == "core.steps").unwrap();
    for name in ["core.callgraph", "core.refsets", "core.webs", "core.color", "core.regsets"] {
        let s = rec.spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(s.parent, Some(steps), "{name}");
    }
    let mut wrong = stats.clone();
    wrong.webs_colored += 1;
    assert!(replay::analyzer_steps(&mut rec, &built.summary, opts, &wrong).is_err());
}

#[test]
fn edit_build_replay_is_byte_identical() {
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("replay-edit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sources = scaled_program(24);
    let opts = CompileOptions::paper(PaperConfig::C);
    let analyzer = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let mut module_cache = ModuleCache::default();
    compile_incremental(&sources, &opts, &mut CompilationCache::with_disk(&dir).unwrap()).unwrap();
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    replay::build(&mut rec, &mut module_cache, &sources, &analyzer, Phase2::All, &mut counts)
        .unwrap();

    perturb(&mut sources, 11, 5);
    let p = compile_incremental(&sources, &opts, &mut CompilationCache::with_disk(&dir).unwrap())
        .unwrap();
    assert_eq!(p.build.recompiled, vec!["s11".to_string()]);
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let phase2 = Phase2::Only { names: &p.build.recompiled, reuse: p.objects.clone() };
    let built =
        replay::build(&mut rec, &mut module_cache, &sources, &analyzer, phase2, &mut counts)
            .unwrap();
    assert_eq!(vx(&built.exe), vx(&p.exe));
    assert_eq!(built.objects, p.objects);
    // Only the edited module went through phase 1 and phase 2.
    assert_eq!(rec.spans.iter().filter(|s| s.name == "frontend.parse").count(), 1);
    assert_eq!(counts.codegen_modules, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sweep_configuration_replays_byte_identically() {
    let w = ipra_workloads::dhrystone();
    for config in PaperConfig::ALL_WITH_ALIAS {
        let p = compile_configured(
            &w.sources,
            config,
            &w.training_input,
            &CompileOptions::default(),
            &mut CompilationCache::new(),
        )
        .unwrap()
        .unwrap();
        let mut rec = Recorder::new();
        let built = replay::configured(
            &mut rec,
            &w.sources,
            config,
            &w.training_input,
            &p.build.recompiled,
            &mut Counts::default(),
        )
        .unwrap();
        assert_eq!(vx(&built.exe), vx(&p.exe), "{config}");
        assert_eq!(built.database, p.database, "{config}");
        let trained = rec.spans.iter().any(|s| s.name == "sim.train");
        assert_eq!(trained, config.wants_profile(), "{config}: training run only for B/F");
        // B and F analyze twice: the L2 build the training run needs, then
        // the profile-fed build.
        assert_eq!(built.analyses.len(), if config.wants_profile() { 2 } else { 1 }, "{config}");
        assert_eq!(built.analyses.last().unwrap().1, p.stats, "{config}");
        for (opts, stats) in &built.analyses {
            replay::analyzer_steps(&mut rec, &built.summary, opts, stats).unwrap();
        }
        let solved = rec.spans.iter().any(|s| s.name == "alias.solve");
        assert_eq!(solved, config == PaperConfig::P, "{config}: alias solve only under P");
        let r = replay::run(&mut rec, &built.exe, &w.input, true).unwrap();
        let direct = ipra_driver::run_program(&p, &w.input).unwrap();
        assert_eq!(r.output, direct.output, "{config}");
        assert_eq!(r.stats, direct.stats, "{config}");
    }
}
