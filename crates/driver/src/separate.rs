//! True separate compilation: the Figure-1 pipeline staged through real
//! artifact files.
//!
//! Where [`crate::compile`] passes summaries, directives and objects
//! between phases as in-memory values, this module writes each product to
//! disk in its [`ipra_artifact`] format and **re-reads it** before the
//! next stage consumes it — the paper's file-based toolchain, literally:
//!
//! ```text
//! <module>.csum --analyze--> program.cdir --phase 2--> <module>.vo --link--> prog.vx
//! ```
//!
//! [`artifact_build_configured_for`] runs the whole staged pipeline into a
//! directory and is required (and tested, see `tests/artifacts.rs`) to be
//! *bit-identical* to the in-memory path: same `.vx` bytes, same simulator
//! statistics. [`build_module_for`] is the `cminc c` core — one module's
//! phase 1 + phase 2 against a given directives database, through the
//! shared [`CompilationCache`] (and its on-disk tier, when attached). Both
//! run the phases through the same cached steps as
//! [`crate::compile_incremental`].

use crate::stages::{self, BuildCache, Front, Pool};
use crate::{BuildReport, CompilationCache, CompileOptions, DriverError, SourceFile};
use cmin_frontend::CompileError;
use ipra_artifact::{
    ArtifactKind, DirectivesArtifact, ExecutableArtifact, ObjectArtifact, SummaryArtifact,
};
use ipra_core::analyzer::{analyze, AnalyzerOptions, PaperConfig};
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_summary::ProgramSummary;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vpr::program::Executable;
use vpr::sim::SimError;
use vpr::target::TargetId;

/// One module's separate-compilation products (`cminc c` output).
#[derive(Debug, Clone)]
pub struct ModuleProduct {
    /// The `.csum` payload (phase-1 summary + provenance fingerprints).
    pub summary: SummaryArtifact,
    /// The `.vo` payload (relocatable code + provenance fingerprints).
    pub object: ObjectArtifact,
    /// Whether phase 1 was served from the cache.
    pub phase1_hit: bool,
    /// Whether phase 2 was served from the cache (a miss means register
    /// allocation actually re-ran for this module).
    pub phase2_hit: bool,
}

/// Compiles one module through both phases against `database` for
/// `target`, using (and filling) `cache` exactly like
/// [`crate::compile_incremental`] does. The target participates in the
/// phase-2 cache key, so VPR and RV32 builds of the same module coexist in
/// one cache directory.
///
/// This is the core of `cminc c`: with `--cache-dir` attached, a second
/// invocation in a *fresh process* is a pure cache hit unless the source
/// or this module's directive slice changed.
///
/// # Errors
///
/// Returns the module's first frontend diagnostic.
pub fn build_module_for(
    src: &SourceFile,
    database: &ProgramDatabase,
    optimize: bool,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<ModuleProduct, CompileError> {
    let mut report = BuildReport::default();
    let sources = std::slice::from_ref(src);
    let front = phase1(sources, optimize, cache, &mut report)?;
    let object = phase2(sources, optimize, &front, database, target, cache, &mut report)?.remove(0);
    let (source_fp, ir_fp) = (front.entries()[0].head.key, front.entries()[0].head.ir_fp);
    let summary = front.into_summary().modules.remove(0);
    Ok(ModuleProduct {
        summary: SummaryArtifact { summary, source_fp, ir_fp },
        object,
        phase1_hit: report.phase1.hits == 1,
        phase2_hit: report.phase2.hits == 1,
    })
}

/// The staged builds' pool: serial, with no collector.
const SERIAL: Pool<'static> = Pool { jobs: 1, tele: None };

/// Phase 1 of `sources`, serially through `cache`.
fn phase1(
    sources: &[SourceFile],
    optimize: bool,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Result<Front, CompileError> {
    stages::lend(cache, |shard| {
        stages::phase1(sources, optimize, SERIAL, Some(&mut BuildCache::new(shard, None)), report)
    })
}

/// Phase 2 of `front`'s modules under `database` for `target`, serially
/// through `cache`, then one burst of disk-tier writes (see `DiskCache`):
/// each module's `.vo` payload, its object with the key codegen consumed.
fn phase2(
    sources: &[SourceFile],
    optimize: bool,
    front: &Front,
    database: &ProgramDatabase,
    target: TargetId,
    cache: &mut CompilationCache,
    report: &mut BuildReport,
) -> Result<Vec<ObjectArtifact>, CompileError> {
    let (keys, objects) = stages::lend(cache, |shard| {
        let c = &mut BuildCache::new(shard, None);
        let probe = stages::probe_phase2(front, database, target, false, Some(c), report);
        let (keys, found) = (probe.keys, probe.objects);
        let objects = stages::phase2(
            sources,
            optimize,
            front,
            &keys,
            found,
            database,
            target,
            SERIAL,
            Some(c),
            report,
        )?;
        c.batch(|c, io| c.flush(io));
        Ok::<_, CompileError>((keys, objects))
    })?;
    // What the build alone holds (a disk hit's object) moves in; what it
    // shares with memory is copied.
    let artifacts = keys.iter().zip(objects).map(|(&(ir_fp, dir_fp), object)| ObjectArtifact {
        object: Arc::unwrap_or_clone(object),
        ir_fp,
        dir_fp,
    });
    Ok(artifacts.collect())
}

/// Where a staged build left every artifact, plus the re-read results.
#[derive(Debug, Clone)]
pub struct ArtifactBuild {
    /// The linked program, as re-read from `executable_path`.
    pub exe: Executable,
    /// The analyzer database, as re-read from `directives_path`.
    pub database: ProgramDatabase,
    /// One `.csum` per source module, in source order.
    pub summary_paths: Vec<PathBuf>,
    /// The `program.cdir` directives file.
    pub directives_path: PathBuf,
    /// One `.vo` per source module, in source order.
    pub object_paths: Vec<PathBuf>,
    /// The linked `prog.vx`.
    pub executable_path: PathBuf,
    /// Modules whose phase 2 actually re-ran (cache misses), in source
    /// order.
    pub recompiled: Vec<String>,
}

fn io_err(path: &Path, e: std::io::Error) -> DriverError {
    DriverError::Artifact(ipra_artifact::ArtifactError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Runs the four-stage separate-compilation pipeline into `dir` under
/// `config`, staging every intermediate product through its on-disk
/// artifact format (each stage re-reads its inputs from the files the
/// previous stage wrote). The profile-fed configurations first run
/// [`crate::compile_configured`]'s training build, in memory through the
/// same `cache`. Directives, objects and the executable are built for
/// `target`, whose name their headers carry.
///
/// # Errors
///
/// Frontend diagnostics, link failures, and artifact I/O all surface as
/// [`DriverError`]; a training-run trap surfaces as the `Err` of the inner
/// result.
pub fn artifact_build_configured_for(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    dir: &Path,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<Result<ArtifactBuild, SimError>, DriverError> {
    let mut options = CompileOptions::default();
    options.analyzer.target = target;
    let trained = stages::lend(cache, |shard| {
        crate::configured_options(sources, config, training_input, &options, shard)
    })?;
    let profile = match trained {
        Ok(options) => options.analyzer.profile,
        Err(e) => return Ok(Err(e)),
    };
    Ok(Ok(artifact_build_for(sources, config, profile, dir, cache, target)?))
}

/// [`artifact_build_configured_for`] with the profile given rather than
/// trained.
///
/// # Errors
///
/// Frontend diagnostics, link failures, and artifact I/O all surface as
/// [`DriverError`].
pub fn artifact_build_for(
    sources: &[SourceFile],
    config: PaperConfig,
    profile: Option<ProfileData>,
    dir: &Path,
    cache: &mut CompilationCache,
    target: TargetId,
) -> Result<ArtifactBuild, DriverError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut report = BuildReport::default();

    // ---- Stage 1: summaries to disk, one `.csum` per module.
    let front = phase1(sources, true, cache, &mut report)?;
    let mut summary_paths = Vec::with_capacity(sources.len());
    for (src, entry) in sources.iter().zip(front.entries()) {
        let path = dir.join(format!("{}.csum", src.name));
        let payload = SummaryArtifact {
            summary: entry.head.summary.clone(),
            source_fp: entry.head.key,
            ir_fp: entry.head.ir_fp,
        };
        ipra_artifact::write_file(ArtifactKind::Summary, &path, &payload)?;
        summary_paths.push(path);
    }

    // ---- Stage 2: the analyzer, over summaries re-read from disk.
    let mut modules = Vec::with_capacity(summary_paths.len());
    for path in &summary_paths {
        let a: SummaryArtifact = ipra_artifact::read_file(ArtifactKind::Summary, path)?;
        modules.push(a.summary);
    }
    let summary = ProgramSummary { modules };
    let opts = AnalyzerOptions { target, ..AnalyzerOptions::paper_config(config, profile) };
    let analysis = analyze(&summary, &opts);
    let directives_path = dir.join("program.cdir");
    let payload = DirectivesArtifact { config: config.to_string(), database: analysis.database };
    // Directives, objects and the executable are target-dependent, so
    // their headers carry the build's target stamp (`.csum` summaries are
    // phase-1 products — target-independent and left unstamped).
    ipra_artifact::write_file_for(ArtifactKind::Directives, &directives_path, &payload, target)?;

    // ---- Stage 3: phase 2 per module, under directives re-read from disk.
    let directives: DirectivesArtifact =
        ipra_artifact::read_file(ArtifactKind::Directives, &directives_path)?;
    let database = &directives.database;
    let objects = phase2(sources, true, &front, database, target, cache, &mut report)?;
    let mut object_paths = Vec::with_capacity(sources.len());
    for (src, object) in sources.iter().zip(&objects) {
        let path = dir.join(format!("{}.vo", src.name));
        ipra_artifact::write_file_for(ArtifactKind::Object, &path, object, target)?;
        object_paths.push(path);
    }

    // ---- Stage 4: link objects re-read from disk; write and re-read the
    // executable so what we return is literally what is on disk.
    let mut objects = Vec::with_capacity(object_paths.len());
    for path in &object_paths {
        let a: ObjectArtifact = ipra_artifact::read_file(ArtifactKind::Object, path)?;
        objects.push(a.object);
    }
    let exe = vpr::link(&objects)?;
    let executable_path = dir.join("prog.vx");
    ipra_artifact::write_file_for(
        ArtifactKind::Executable,
        &executable_path,
        &ExecutableArtifact { exe },
        target,
    )?;
    let exe =
        ipra_artifact::read_file::<ExecutableArtifact>(ArtifactKind::Executable, &executable_path)?
            .exe;

    Ok(ArtifactBuild {
        exe,
        database: directives.database,
        summary_paths,
        directives_path,
        object_paths,
        executable_path,
        recompiled: report.recompiled,
    })
}
