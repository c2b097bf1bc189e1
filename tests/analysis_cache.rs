//! The analysis cache's key covers everything the analyzer reads.
//!
//! `compile_incremental` skips the program analyzer when the module
//! summaries and the resolved analyzer options both repeat. A key that
//! missed an option would serve one configuration's database to another,
//! so these builds interleave every paper configuration on both targets,
//! profile-fed configurations under two different profiles, an explicit
//! option set one threshold away from C, and a program whose summary
//! differs — first through one in-memory cache, then through one cache
//! directory with a fresh cache instance per build. Every build must match
//! a fresh compile, and a hit may only ever be reported for a repeat.

use ipra_artifact::{ArtifactKind, ExecutableArtifact};
use ipra_core::analyzer::{AnalyzerOptions, PaperConfig};
use ipra_core::color::DiscardHeuristics;
use ipra_core::ProfileData;
use ipra_driver::{
    collect_profile_from, compile, compile_incremental, run_program, CompilationCache,
    CompileOptions, CompiledProgram, SourceFile,
};
use std::collections::BTreeSet;
use vpr::target::TargetId;

/// Two modules whose call counts follow the input, so two training runs
/// give two different profiles.
fn program() -> Vec<SourceFile> {
    vec![
        SourceFile::new(
            "counter",
            "static int hits;
             int total;
             int bump(int k) { hits = hits + 1; total = total + k; return total; }
             int hits_of() { return hits; }",
        ),
        SourceFile::new(
            "app",
            "extern int total;
             extern int bump(int);
             extern int hits_of();
             int twice(int k) { bump(k); return bump(k + 1); }
             int main() {
                 int n = in();
                 for (int i = 0; i < n; i = i + 1) { bump(i); }
                 for (int j = 0; j < 10 - n; j = j + 1) { twice(j); }
                 out(total);
                 out(hits_of());
                 return 0;
             }",
        ),
    ]
}

/// The same program with one more global reference in `hits_of`: its
/// summary, and so the analysis key, differs.
fn edited_program() -> Vec<SourceFile> {
    let mut sources = program();
    sources[0].text = sources[0].text.replace("return hits; }", "return hits + total; }");
    sources
}

/// The call profile of `sources`' L2 build run on `input`.
fn profile(sources: &[SourceFile], target: TargetId, input: &[i64]) -> ProfileData {
    let mut opts = CompileOptions::paper(PaperConfig::L2);
    opts.analyzer.target = target;
    let baseline = compile(sources, &opts).expect("baseline compiles");
    let run = run_program(&baseline, input).expect("training run");
    collect_profile_from(&baseline.exe, &run)
}

/// One build of the interleaving: its sources, options, and what the
/// analyzer will see — the program and the resolved options as JSON, an
/// oracle independent of the binary key.
struct Variant {
    label: String,
    sources: Vec<SourceFile>,
    opts: CompileOptions,
    identity: (String, String),
}

fn variant(
    label: String,
    program: &str,
    sources: &[SourceFile],
    opts: CompileOptions,
    resolved: AnalyzerOptions,
) -> Variant {
    let identity = (program.to_string(), serde_json::to_string(&resolved).expect("options"));
    Variant { label, sources: sources.to_vec(), opts, identity }
}

fn variants() -> Vec<Variant> {
    let sources = program();
    let mut out = Vec::new();
    for target in TargetId::ALL {
        let profiles = [profile(&sources, target, &[2]), profile(&sources, target, &[7])];
        assert_ne!(profiles[0], profiles[1], "the training inputs must disagree");
        for config in PaperConfig::ALL_WITH_ALIAS {
            let trained: Vec<Option<&ProfileData>> = if config.wants_profile() {
                profiles.iter().map(Some).collect()
            } else {
                vec![None]
            };
            for (k, p) in trained.into_iter().enumerate() {
                let resolved =
                    AnalyzerOptions { target, ..AnalyzerOptions::paper_config(config, p.cloned()) };
                let opts =
                    CompileOptions { analyzer: resolved.clone(), ..CompileOptions::default() };
                let label = format!("{config}/{}/{k}", target.name());
                out.push(variant(label, "base", &sources, opts, resolved));
            }
        }
        // Explicit options one threshold away from C.
        let c = AnalyzerOptions { target, ..AnalyzerOptions::paper_config(PaperConfig::C, None) };
        let explicit = AnalyzerOptions {
            discard: DiscardHeuristics { min_lref_ratio: 0.9, ..c.discard },
            ..c
        };
        let opts = CompileOptions { analyzer: explicit.clone(), ..CompileOptions::default() };
        let label = format!("explicit/{}", target.name());
        out.push(variant(label, "base", &sources, opts, explicit));
    }
    // The same options as C on VPR over a program whose summary differs.
    let edited = edited_program();
    let resolved = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let label = "C/vpr/edited".to_string();
    out.push(variant(label, "edited", &edited, CompileOptions::paper(PaperConfig::C), resolved));
    let identities: BTreeSet<&(String, String)> = out.iter().map(|v| &v.identity).collect();
    assert_eq!(identities.len(), out.len(), "every variant must differ in what it analyzes");
    out
}

fn vx(p: &CompiledProgram, target: TargetId) -> String {
    let exe = ExecutableArtifact { exe: p.exe.clone() };
    ipra_artifact::encode_for(ArtifactKind::Executable, &exe, target)
}

/// Each variant once, then again in reverse: every repeat is interleaved
/// with other keys except the turn in the middle, where the last variant
/// repeats back to back.
fn schedule(n: usize) -> Vec<usize> {
    (0..n).chain((0..n).rev()).collect()
}

/// Checks one build against a fresh compile of its variant.
fn check_build(v: &Variant, built: &CompiledProgram, fresh: &CompiledProgram) {
    let target = v.opts.analyzer.target;
    assert_eq!(built.database, fresh.database, "{}: database", v.label);
    assert_eq!(built.stats, fresh.stats, "{}: stats", v.label);
    assert_eq!(vx(built, target), vx(fresh, target), "{}: .vx bytes", v.label);
    let a = &built.build.analyze;
    assert_eq!(a.hits + a.misses, 1, "{}: one analysis lookup per build", v.label);
}

#[test]
fn analysis_hits_only_when_summaries_and_options_repeat() {
    let variants = variants();
    let fresh: Vec<CompiledProgram> =
        variants.iter().map(|v| compile(&v.sources, &v.opts).expect("fresh compile")).collect();
    for f in &fresh {
        assert_eq!(f.build.analyze.misses, 1, "a fresh compile runs the analyzer");
    }

    // One in-memory cache: its one slot holds the most recent analysis, so
    // a hit is exactly a repeat of the previous build's key.
    let mut cache = CompilationCache::new();
    let mut previous: Option<&(String, String)> = None;
    let mut memory_hits = 0;
    for i in schedule(variants.len()) {
        let v = &variants[i];
        let built = compile_incremental(&v.sources, &v.opts, &mut cache).expect("memory build");
        check_build(v, &built, &fresh[i]);
        let hit = built.build.analyze.hits == 1;
        assert_eq!(hit, previous == Some(&v.identity), "{}: memory hit iff a repeat", v.label);
        assert_eq!(built.build.analyze.disk_hits, 0, "{}: no disk tier", v.label);
        memory_hits += usize::from(hit);
        previous = Some(&v.identity);
    }
    assert_eq!(memory_hits, 1, "the back-to-back repeat hits the slot");

    // One cache directory, a fresh instance (empty memory tier) per build:
    // every repeat, however far back, is a disk hit; nothing else is.
    let dir = std::env::temp_dir().join(format!("ipra-analysis-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut seen: BTreeSet<&(String, String)> = BTreeSet::new();
    for i in schedule(variants.len()) {
        let v = &variants[i];
        let mut cache = CompilationCache::with_disk(&dir).expect("cache dir");
        let built = compile_incremental(&v.sources, &v.opts, &mut cache).expect("disk build");
        check_build(v, &built, &fresh[i]);
        let repeat = !seen.insert(&v.identity);
        let a = &built.build.analyze;
        assert_eq!(a.hits == 1, repeat, "{}: disk hit iff a repeat", v.label);
        assert_eq!(a.disk_hits, a.hits, "{}: a fresh instance hits only on disk", v.label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
