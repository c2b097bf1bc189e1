//! # ipra-driver — the two-pass compilation driver
//!
//! Drives the paper's Figure 1 pipeline over in-memory sources:
//!
//! 1. **Compiler first phase** (per module): parse, check, lower, run the
//!    level-2 optimizer, and derive the summary record.
//! 2. **Program analyzer**: build the call graph from all summaries and
//!    compute the program database ([`ipra_core::analyze`]).
//! 3. **Compiler second phase** (per module, any order): allocate registers
//!    under the database directives and emit VPR code.
//! 4. **Link** the object modules and, on demand, **run** the executable on
//!    the counting simulator.
//!
//! Because phases 1 and 3 are per-module and order-independent — the whole
//! point of the paper's summary-file design — the driver fans them out
//! across a [`std::thread::scope`] worker pool ([`CompileOptions::jobs`])
//! and makes recompilation **incremental** through a [`CompilationCache`]:
//!
//! * phase 1 is keyed on a content fingerprint of the module's source;
//! * the analyzer is keyed on the module summaries and its options, so an
//!   edit that leaves every summary unchanged does not re-run it;
//! * phase 2 is keyed on the pair (module IR fingerprint, fingerprint of
//!   the *module-relevant slice* of the [`ProgramDatabase`]), so an edit to
//!   one module re-runs codegen only for modules whose directives actually
//!   changed — the paper's recompilation story (§3) made real.
//!
//! Each stage exists once; the cache is a layer around it. [`compile`] is
//! one-shot: it runs the stages on every module with no cache at all, so
//! it computes no keys or fingerprints and stores and clones nothing.
//! [`compile_incremental`] reuses a cache across builds: it probes the
//! cache and runs the same stages on the misses. Both report per-phase
//! timings and hit/miss counts in [`CompiledProgram::build`] (a one-shot
//! build misses everywhere). [`compile_artifact`] is the cached build for
//! a caller that wants only the `.vx` executable artifact (the `cmind`
//! daemon): the cache's `.vx` tier serves the text of a link whose
//! objects' keys repeat, so a repeated program costs its keys and
//! lookups. It builds through a cache that other builds share (a
//! `Mutex`), and holds it only around its batches of lookups and stores:
//! the front end, the analyzer, codegen and the link run with it
//! released, so a build that hits everywhere never waits for one that
//! compiles. [`compile_incremental`] runs the same steps through a cache
//! it has to itself. A cache opened with
//! [`CompilationCache::with_disk`] additionally persists its entries to a
//! cache directory, so the same fingerprints keep working across *process*
//! invocations (`cminc --cache-dir`).
//!
//! The [`separate`] module stages the same pipeline through real on-disk
//! artifacts (`.csum`/`.cdir`/`.vo`/`.vx`, see [`ipra_artifact`]) —
//! required to be bit-identical to the in-memory path. The [`args`] module
//! is the command-line parser that `cminc` and the bench binaries share.
//!
//! Profile feedback (configurations B and F) is a closed loop here
//! ([`compile_configured`]): compile at the baseline, run on a training
//! input, convert the simulator's exact edge counts into [`ProfileData`],
//! and recompile — the moral equivalent of the paper's `gprof` pass. The
//! recompile shares the baseline's cache, so its first phase is pure cache
//! hits.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ipra_driver::{compile, CompileOptions, SourceFile};
//!
//! let sources = [SourceFile::new("app", "int main() { return 40 + 2; }")];
//! let program = compile(&sources, &CompileOptions::default())?;
//! let result = ipra_driver::run_program(&program, &[])?;
//! assert_eq!(result.exit, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod args;
mod cache;
pub mod framed;
pub mod separate;
mod stages;

pub use cache::{BuildReport, CompilationCache, Phase1Steps, PhaseStats, RETAINED_BUILDS};

use cache::Linked;
use cmin_frontend::{analyze as check_module, parse_module, CompileError, Module, ModuleInfo};
use cmin_ir::interp::{interpret_with, InterpOptions, InterpResult};
use cmin_ir::IrModule;
use ipra_artifact::ArtifactKind;
use ipra_core::analyzer::{AnalyzerOptions, AnalyzerStats, PaperConfig};
use ipra_core::trace::AnalyzerTrace;
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_obsv::DiffReport;
use ipra_summary::ProgramSummary;
use ipra_telemetry::{span, Telemetry};
use ipra_verify::VerifyReport;
use serde::{Deserialize, Serialize};
use stages::{BuildCache, Shard};
use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, Mutex};
use vpr::program::{link, Executable, LinkError, ObjectModule};
use vpr::sim::{run_with, RunResult, SimError, SimOptions};

/// One source module (name + text). `cmind`'s wire carries it as is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceFile {
    /// Module name.
    pub name: String,
    /// `cmin` source text.
    pub text: String,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile { name: name.into(), text: text.into() }
    }
}

/// Driver options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The program analyzer's options: a paper configuration's
    /// ([`AnalyzerOptions::paper_config`], with profile data for B and F)
    /// or any other, as the ablation benchmarks set. Plain level-2 by
    /// default. Their `target` gives way to [`CompileOptions::target`].
    pub analyzer: AnalyzerOptions,
    /// Run the level-2 global optimizer (on by default; turning it off
    /// gives the unoptimized baseline used to validate the optimizer and
    /// to quantify baseline quality).
    pub optimize: bool,
    /// Worker threads for the per-module phases (1 = serial, 0 = one per
    /// available core). Any value produces bit-identical output; this only
    /// trades wall-clock time.
    pub jobs: usize,
    /// Record the analyzer's decision trace in
    /// [`CompiledProgram::trace`]. Tracing is pure observation: the
    /// resulting program is bit-identical with or without it.
    pub trace: bool,
    /// Telemetry collector for this build: timed spans (whole build,
    /// per-module phase tasks tagged with their worker lane, analyze,
    /// link, cache I/O) and deterministic counters. `None` records
    /// nothing; either way the compiled program is bit-identical —
    /// telemetry is pure observation, like [`trace`](CompileOptions::trace).
    pub telemetry: Option<Telemetry>,
    /// The machine description codegen, the analyzer and the linker build
    /// against. The driver's target is authoritative: it overrides the
    /// `target` field of [`CompileOptions::analyzer`].
    pub target: vpr::target::TargetId,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            analyzer: AnalyzerOptions::paper_config(PaperConfig::L2, None),
            optimize: true,
            jobs: 1,
            trace: false,
            telemetry: None,
            target: vpr::target::TargetId::Vpr,
        }
    }
}

impl CompileOptions {
    /// Options for one of the paper's configurations (without profile
    /// data: [`compile_configured`] trains B and F).
    pub fn paper(config: PaperConfig) -> CompileOptions {
        let analyzer = AnalyzerOptions::paper_config(config, None);
        CompileOptions { analyzer, ..CompileOptions::default() }
    }

    /// The worker-pool width this build will actually use.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// A fully compiled program plus everything the experiments report on.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The linked executable.
    pub exe: Executable,
    /// The pre-link object modules (kept so the machine-code verifier can
    /// check each procedure against the database that produced it).
    pub objects: Vec<ObjectModule>,
    /// Phase-1 summary files.
    pub summary: ProgramSummary,
    /// The analyzer's program database.
    pub database: ProgramDatabase,
    /// Analyzer statistics (webs, clusters, …).
    pub stats: AnalyzerStats,
    /// Per-phase timing and cache accounting for the build that produced
    /// this program.
    pub build: BuildReport,
    /// The analyzer's decision trace, when [`CompileOptions::trace`] was
    /// set (`None` otherwise).
    pub trace: Option<AnalyzerTrace>,
}

/// Driver errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// A frontend diagnostic.
    Compile(CompileError),
    /// A link failure.
    Link(LinkError),
    /// An artifact file could not be written or read back (separate
    /// compilation only).
    Artifact(ipra_artifact::ArtifactError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "{e}"),
            DriverError::Link(e) => write!(f, "{e}"),
            DriverError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CompileError> for DriverError {
    fn from(e: CompileError) -> DriverError {
        DriverError::Compile(e)
    }
}

impl From<LinkError> for DriverError {
    fn from(e: LinkError) -> DriverError {
        DriverError::Link(e)
    }
}

impl From<ipra_artifact::ArtifactError> for DriverError {
    fn from(e: ipra_artifact::ArtifactError) -> DriverError {
        DriverError::Artifact(e)
    }
}

/// Parses and checks every module (the frontend part of phase 1).
///
/// # Errors
///
/// Returns the first lexical, syntax or semantic error.
pub fn frontend(sources: &[SourceFile]) -> Result<Vec<(Module, ModuleInfo)>, CompileError> {
    sources
        .iter()
        .map(|s| {
            let m = parse_module(&s.name, &s.text)?;
            let info = check_module(&m)?;
            Ok((m, info))
        })
        .collect()
}

/// Compiles a multi-module program through the full two-pass pipeline,
/// once. It runs the stages [`compile_incremental`] runs on its cache
/// misses, on every module, with no cache: no keys or fingerprints are
/// computed, nothing is stored, and each stage's products move into the
/// next stage and the result. [`CompiledProgram::build`] counts every
/// module as a phase-1 and a phase-2 miss and the analyzer as one miss,
/// exactly as a cold [`compile_incremental`] into an empty cache does.
///
/// # Errors
///
/// Returns a [`DriverError`] on any frontend diagnostic or link failure.
pub fn compile(
    sources: &[SourceFile],
    options: &CompileOptions,
) -> Result<CompiledProgram, DriverError> {
    let tele = options.telemetry.as_ref();
    let build_timer = span(tele, "build", "build");
    let pool = stages::Pool { jobs: options.effective_jobs(), tele };
    let mut report = BuildReport::default();

    // ---- Compiler first phase, every module on the pool.
    let phase1_timer = span(tele, "build", "phase1");
    let every: Vec<usize> = (0..sources.len()).collect();
    let mut modules = Vec::with_capacity(sources.len());
    let mut irs = Vec::with_capacity(sources.len());
    let steps = &mut report.phase1_steps;
    let keep = |_, (summary, ir)| {
        modules.push(summary);
        irs.push(ir);
    };
    stages::run_phase1(pool, sources, &every, options.optimize, steps, |_, s, ir| (s, ir), keep)?;
    report.phase1.misses = sources.len();
    report.phase1.seconds = phase1_timer.finish();

    // ---- The program analyzer.
    let analyze_timer = span(tele, "build", "analyze");
    let summary = ProgramSummary { modules };
    let opts = stages::analyzer_options(options);
    let (analysis, trace) = stages::run_analyzer(&summary, &opts, options.trace);
    report.analyze.misses = 1;
    report.analyze.seconds = analyze_timer.finish();

    // ---- Compiler second phase, every module on the pool.
    let phase2_timer = span(tele, "build", "phase2");
    let mut objects = Vec::with_capacity(sources.len());
    let keep = |ir: &IrModule, object, _| {
        report.recompiled.push(ir.name.clone());
        objects.push(object);
    };
    stages::run_phase2(pool, &irs, |ir| &ir.name, &analysis.database, options.target, Ok, keep)?;
    // Every object is emitted, so the IR goes before the link.
    drop(irs);
    report.phase2.misses = sources.len();
    report.phase2.seconds = phase2_timer.finish();

    let exe = link_objects(tele, &objects, &mut report)?;
    report.total_seconds = build_timer.finish();
    count_build(tele, &report, &analysis.stats, objects.len(), exe.code_len());
    Ok(CompiledProgram {
        exe,
        objects,
        summary,
        database: analysis.database,
        stats: analysis.stats,
        build: report,
        trace,
    })
}

/// Compiles a multi-module program, reusing `cache` across builds.
///
/// Phase 1 re-runs only for modules whose source changed; the analyzer
/// only when a summary or the resolved analyzer options changed; phase 2
/// only for modules whose IR or whose slice of the program database
/// changed. The result is bit-identical to a [`compile`] of the same
/// sources and options; [`CompiledProgram::build`] reports what was reused.
/// When the cache has an on-disk tier ([`CompilationCache::with_disk`]),
/// entries persisted by earlier *processes* count as hits too
/// ([`PhaseStats::disk_hits`]). As the build ends, entries that none of
/// the cache's last [`RETAINED_BUILDS`] builds used leave its memory tier.
///
/// # Errors
///
/// Returns a [`DriverError`] on any frontend diagnostic or link failure.
/// On error the cache keeps the entries of modules that did compile, so a
/// fixed-up rebuild stays incremental.
pub fn compile_incremental(
    sources: &[SourceFile],
    options: &CompileOptions,
    cache: &mut CompilationCache,
) -> Result<CompiledProgram, DriverError> {
    program_incremental(sources, options, Shard::Own(cache))
}

/// [`compile_incremental`]'s build, through `shard`.
fn program_incremental(
    sources: &[SourceFile],
    options: &CompileOptions,
    shard: Shard<'_>,
) -> Result<CompiledProgram, DriverError> {
    let tele = options.telemetry.as_ref();
    let cache = &mut BuildCache::new(shard, options.telemetry.clone());
    let build_timer = span(tele, "build", "build");
    let jobs = options.effective_jobs();
    let mut report = BuildReport::default();
    cache.batch(|c, _| c.begin_build());

    // ---- Compiler first phase, cache-probed then fanned out per module.
    let phase1_timer = span(tele, "build", "phase1");
    let entries = stages::phase1(sources, options.optimize, jobs, cache, &mut report)?;
    report.phase1.seconds = phase1_timer.finish();

    // ---- The program analyzer: whole-program, keyed on the summaries and
    // the resolved options.
    let analyze_timer = span(tele, "build", "analyze");
    let (analysis, summary, trace) = stages::analyze(&entries, options, cache, &mut report);
    report.analyze.seconds = analyze_timer.finish();

    // ---- Compiler second phase: per module, keyed on (IR, database slice).
    let phase2_timer = span(tele, "build", "phase2");
    let objects: Vec<ObjectModule> = stages::phase2(
        sources,
        options.optimize,
        &entries,
        &analysis.database,
        options.target,
        jobs,
        cache,
        &mut report,
    )?
    .into_iter()
    .map(|a| a.object)
    .collect();
    report.phase2.seconds = phase2_timer.finish();

    let exe = link_objects(tele, &objects, &mut report)?;
    // Entries no recent build used leave memory (not disk), then one burst
    // of disk-tier writes per build (entries stay served from memory either
    // way; see `DiskCache`). Both are charged to the build total.
    cache.batch(|c, io| c.end_build(&mut report, io));
    // What the build alone holds, a first disk hit's decoded values, moves
    // into the program; what memory shares is copied. On an analyzer hit
    // the summary is assembled only now, once phase 2 is done reading it.
    let summary = summary.unwrap_or_else(|| stages::program_summary(entries));
    let (database, stats) = match Arc::try_unwrap(analysis) {
        Ok(analysis) => (analysis.database, analysis.stats),
        Err(shared) => (shared.database.clone(), shared.stats.clone()),
    };
    report.total_seconds = build_timer.finish();
    count_build(tele, &report, &stats, objects.len(), exe.code_len());
    Ok(CompiledProgram { exe, objects, summary, database, stats, build: report, trace })
}

/// Links a build's objects (whole-program; always runs) in the build's
/// `link` span.
fn link_objects(
    tele: Option<&Telemetry>,
    objects: &[impl Borrow<ObjectModule>],
    report: &mut BuildReport,
) -> Result<Executable, LinkError> {
    let link_timer = span(tele, "build", "link");
    let exe = link(objects)?;
    report.link_seconds = link_timer.finish();
    Ok(exe)
}

/// The tail every build shares: writes the build's `build.*`, `phase*.*`,
/// `analyze.*` and `link.*` counters into its collector, when it has one,
/// for a program of `modules` modules linked into `insts` instructions.
/// A `vx.*` counter is written once it is nonzero, so a build through a
/// cache whose `.vx` tier was never used writes what it always has.
fn count_build(
    tele: Option<&Telemetry>,
    report: &BuildReport,
    stats: &AnalyzerStats,
    modules: usize,
    insts: usize,
) {
    let Some(t) = tele else { return };
    t.add("build.builds", 1);
    t.add("build.modules", modules as u64);
    t.add("phase1.hits", report.phase1.hits as u64);
    t.add("phase1.disk_hits", report.phase1.disk_hits as u64);
    t.add("phase1.misses", report.phase1.misses as u64);
    t.add("phase1.evictions", report.phase1.evictions as u64);
    t.add("analyze.hits", report.analyze.hits as u64);
    t.add("analyze.disk_hits", report.analyze.disk_hits as u64);
    t.add("analyze.misses", report.analyze.misses as u64);
    t.add("phase2.hits", report.phase2.hits as u64);
    t.add("phase2.disk_hits", report.phase2.disk_hits as u64);
    t.add("phase2.misses", report.phase2.misses as u64);
    t.add("phase2.evictions", report.phase2.evictions as u64);
    t.add("phase2.recompiled", report.recompiled.len() as u64);
    t.add("analyze.nodes", stats.nodes as u64);
    t.add("analyze.webs", stats.webs_total as u64);
    t.add("link.objects", modules as u64);
    t.add("link.insts", insts as u64);
    let vx = &report.vx;
    for (name, n) in
        [("vx.hits", vx.hits), ("vx.misses", vx.misses), ("vx.evictions", vx.evictions)]
    {
        if n > 0 {
            t.add(name, n as u64);
        }
    }
}

/// Runs the interprocedural register-discipline verifier over a compiled
/// program's object modules, against the database that directed codegen.
/// A clean report (see [`VerifyReport::is_clean`]) certifies that the
/// emitted machine code honors the callee-saves, promotion, cluster and
/// linkage disciplines the analyzer committed to.
pub fn verify_program(program: &CompiledProgram) -> VerifyReport {
    ipra_verify::verify_modules(&program.objects, &program.database)
}

/// Runs a compiled program on the simulator.
///
/// # Errors
///
/// Propagates simulator traps ([`SimError`]).
pub fn run_program(program: &CompiledProgram, input: &[i64]) -> Result<RunResult, SimError> {
    let opts = SimOptions { input: input.to_vec(), ..SimOptions::default() };
    run_with(&program.exe, &opts)
}

/// Runs a compiled program with exact per-procedure attribution enabled
/// ([`RunResult::attribution`] is `Some`). Attribution is pure observation:
/// output, exit code and every [`vpr::sim::RunStats`] field are identical to
/// a plain [`run_program`].
///
/// # Errors
///
/// Propagates simulator traps ([`SimError`]).
pub fn run_program_attributed(
    program: &CompiledProgram,
    input: &[i64],
) -> Result<RunResult, SimError> {
    let opts = SimOptions { input: input.to_vec(), attribute: true, ..SimOptions::default() };
    run_with(&program.exe, &opts)
}

/// Converts a run's call accounting into analyzer-ready profile data,
/// mapping function indices back to link names.
pub fn collect_profile_from(exe: &Executable, result: &RunResult) -> ProfileData {
    let mut profile = ProfileData::new();
    let funcs = exe.funcs();
    for (&(caller, callee), &count) in &result.stats.call_edges {
        let callee_name = match funcs.get(callee) {
            Some(f) => f.name.as_str(),
            None => continue,
        };
        let caller_name = match funcs.get(caller) {
            Some(f) => f.name.as_str(),
            None => continue, // startup stub
        };
        profile.record_edge(caller_name, callee_name, count);
    }
    profile
}

/// Compiles under any paper configuration. For the profile-fed ones (B and
/// F) this is the full feedback loop: compile at L2, run on
/// `training_input`, and recompile with the collected profile. The two
/// builds share `cache`, so the recompile's first phase is pure cache hits
/// and its second phase re-runs only where the profile moved the database.
/// The caller's `options` (jobs, trace, optimize, telemetry, target) are
/// honored; its analyzer options are replaced by `config`'s in each
/// build, and the baseline build never traces.
///
/// # Errors
///
/// Returns a [`DriverError`] for compilation problems; a training-run trap
/// surfaces as the `Err` of the inner result.
pub fn compile_configured(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    options: &CompileOptions,
    cache: &mut CompilationCache,
) -> Result<Result<CompiledProgram, SimError>, DriverError> {
    let mut shard = Shard::Own(cache);
    let opts = match configured_options(sources, config, training_input, options, &mut shard)? {
        Ok(opts) => opts,
        Err(e) => return Ok(Err(e)),
    };
    Ok(Ok(program_incremental(sources, &opts, shard)?))
}

/// A build's linked program as `.vx` artifact text, as
/// [`compile_artifact`] returns it.
#[derive(Debug, Clone)]
pub struct BuiltArtifact {
    /// The `.vx` text: byte for byte [`ipra_artifact`]'s encoding, for the
    /// build's target, of the executable a [`compile`] of the same inputs
    /// links.
    pub vx: String,
    /// The body fingerprint the text's header carries (its `fnv64:`
    /// token).
    pub fingerprint: u64,
    /// Per-phase timing and cache accounting for the build that produced
    /// the text, the `.vx` tier's included.
    pub build: BuildReport,
}

/// [`compile_configured`] for a caller that wants only the executable
/// artifact: the same training build for B and F, then the same phase 1,
/// analyzer and phase 2 through `shard`, and the `.vx` text of the link.
/// No [`CompiledProgram`] is assembled.
///
/// `shard` is a cache other builds may share, and each build locks it only
/// for its batches of cache operations: its phase-1 lookups and stores,
/// the analysis lookup and store, the phase-2 probe with the `.vx` lookup,
/// the phase-2 and `.vx` stores, and the end of the build. Key hashing,
/// the front end, the analyzer, codegen, the link and the artifact's
/// encoding run with it released, and the build keeps what its lookups
/// returned, so concurrent builds interleave only whole batches. A lock
/// acquisition that finds the shard held is recorded as a `shard_wait`
/// span in the build's collector ([`CompileOptions::telemetry`]). A serial
/// sequence of builds performs the cache operations a [`compile_configured`]
/// sequence on one cache would, in the same order.
///
/// The text is a function of the target and each module's phase-2 key, so
/// the cache's memory-only `.vx` tier keeps it under those keys: a build
/// whose every object hits and whose key list the tier holds copies no
/// object, links nothing and neither writes nor hashes the text. The tier
/// keeps a text from the second link of its key list on, and drops it by
/// the retention rule ([`RETAINED_BUILDS`]). The report's phase-1,
/// analyzer and phase-2 accounting, its `recompiled` list, and the build's
/// spans and counters other than `vx.*` are those [`compile_configured`]
/// records for the same sequence of builds.
///
/// # Errors
///
/// As [`compile_configured`].
pub fn compile_artifact(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    options: &CompileOptions,
    shard: &Mutex<CompilationCache>,
) -> Result<Result<BuiltArtifact, SimError>, DriverError> {
    let mut shard = Shard::Shared(shard);
    let opts = match configured_options(sources, config, training_input, options, &mut shard)? {
        Ok(opts) => opts,
        Err(e) => return Ok(Err(e)),
    };
    Ok(Ok(artifact_incremental(sources, &opts, shard)?))
}

/// [`compile_incremental`]'s build, ending in `.vx` text rather than a
/// [`CompiledProgram`]: see [`compile_artifact`].
fn artifact_incremental(
    sources: &[SourceFile],
    options: &CompileOptions,
    shard: Shard<'_>,
) -> Result<BuiltArtifact, DriverError> {
    let tele = options.telemetry.as_ref();
    let cache = &mut BuildCache::new(shard, options.telemetry.clone());
    let build_timer = span(tele, "build", "build");
    let jobs = options.effective_jobs();
    let mut report = BuildReport::default();
    cache.batch(|c, _| c.begin_build());

    let phase1_timer = span(tele, "build", "phase1");
    let entries = stages::phase1(sources, options.optimize, jobs, cache, &mut report)?;
    report.phase1.seconds = phase1_timer.finish();

    // ---- The analyzer, which assembles the program summary only to run.
    let analyze_timer = span(tele, "build", "analyze");
    let (analysis, _, _) = stages::analyze(&entries, options, cache, &mut report);
    report.analyze.seconds = analyze_timer.finish();

    // ---- Phase 2's lookups, one batch. When every object hits, the `.vx`
    // tier may hold their link; otherwise, or when it does not, phase 2
    // finishes.
    let phase2_timer = span(tele, "build", "phase2");
    let (database, target) = (&analysis.database, options.target);
    let keys = stages::phase2_keys(&entries, database, target);
    let link_key = stages::link_key(&keys, target);
    let (probe, served) = cache.batch(|c, io| {
        let probe = stages::probe_phase2(&keys, c, io, &mut report);
        let served = if probe.stale.is_empty() { c.lookup_vx(link_key, &keys) } else { None };
        (probe, served)
    });
    let objects = match served {
        Some(_) => Vec::new(),
        None => stages::phase2_objects(
            sources,
            options.optimize,
            &entries,
            &keys,
            probe,
            database,
            target,
            jobs,
            cache,
            &mut report,
        )?,
    };
    report.phase2.seconds = phase2_timer.finish();

    let linked = match served {
        Some(linked) => {
            report.vx.hits = 1;
            // The link step keeps its span, empty: the tier served it.
            report.link_seconds = span(tele, "build", "link").finish();
            cache.batch(|c, io| c.end_build(&mut report, io));
            linked
        }
        None => {
            report.vx.misses = 1;
            // The objects link as the build holds them, with no copy.
            let exe = link_objects(tele, &objects, &mut report)?;
            let view = ipra_artifact::ExecutableView { exe: &exe };
            let (vx, fingerprint) =
                ipra_artifact::encode_fingerprinted(ArtifactKind::Executable, &view, target);
            let linked = Arc::new(Linked { vx, fingerprint, insts: exe.code_len() });
            cache.batch(|c, io| {
                c.store_vx(link_key, keys, &linked);
                c.end_build(&mut report, io);
            });
            linked
        }
    };
    // The text the tier keeps is shared, and copied with the shard released.
    let Linked { vx, fingerprint, insts } = Arc::unwrap_or_clone(linked);
    report.total_seconds = build_timer.finish();
    count_build(tele, &report, &analysis.stats, sources.len(), insts);
    Ok(BuiltArtifact { vx, fingerprint, build: report })
}

/// The training half of [`compile_configured`], which
/// [`compile_artifact`] and the staged artifact build
/// ([`separate::artifact_build_configured_for`]) share: `options` under
/// `config`'s analyzer options, whose profile, when `config` wants one, is
/// the call-edge counts of the L2 build through `shard` run on
/// `training_input`.
pub(crate) fn configured_options(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    options: &CompileOptions,
    shard: &mut Shard<'_>,
) -> Result<Result<CompileOptions, SimError>, DriverError> {
    let configured = |profile| {
        let analyzer = AnalyzerOptions::paper_config(config, profile);
        CompileOptions { analyzer, ..options.clone() }
    };
    if !config.wants_profile() {
        return Ok(Ok(configured(None)));
    }
    let analyzer = AnalyzerOptions::paper_config(PaperConfig::L2, None);
    let baseline_opts = CompileOptions { analyzer, trace: false, ..options.clone() };
    let baseline = program_incremental(sources, &baseline_opts, shard.reborrow())?;
    let tele = options.telemetry.as_ref();
    let training_timer = span(tele, "sim", "training-run");
    let training = match run_program(&baseline, training_input) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    training_timer.finish();
    if let Some(t) = tele {
        t.add("sim.training.runs", 1);
        t.add("sim.training.cycles", training.stats.cycles);
    }
    Ok(Ok(configured(Some(collect_profile_from(&baseline.exe, &training)))))
}

/// Compiles `sources` under two configurations (decision tracing on), runs
/// both with attribution on `input`, and joins the per-procedure deltas
/// with configuration B's directives and trace into a [`DiffReport`].
/// Profile-fed configurations train on the same `input`. The two builds
/// share one [`CompilationCache`], so common phases compile once.
///
/// # Errors
///
/// Returns a [`DriverError`] for compilation problems; simulator traps (in
/// training or measured runs) surface as the `Err` of the inner result.
pub fn diff_report(
    sources: &[SourceFile],
    config_a: PaperConfig,
    config_b: PaperConfig,
    input: &[i64],
    jobs: usize,
) -> Result<Result<DiffReport, SimError>, DriverError> {
    let mut cache = CompilationCache::new();
    let base = CompileOptions { trace: true, jobs, ..CompileOptions::default() };
    let prog_a = match compile_configured(sources, config_a, input, &base, &mut cache)? {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let prog_b = match compile_configured(sources, config_b, input, &base, &mut cache)? {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let ra = match run_program_attributed(&prog_a, input) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    let rb = match run_program_attributed(&prog_b, input) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    let report = DiffReport::build(
        &config_a.to_string(),
        &config_b.to_string(),
        ra.attribution.as_ref().expect("attribution was requested"),
        rb.attribution.as_ref().expect("attribution was requested"),
        &ra.stats,
        &rb.stats,
        &prog_b.database,
        prog_b.trace.as_ref().expect("tracing was requested"),
    );
    Ok(Ok(report))
}

/// Runs the reference interpreter on the same sources (the differential
/// oracle).
///
/// # Errors
///
/// Returns frontend diagnostics as `Err`; interpreter traps surface in the
/// inner result.
pub fn interpret_sources(
    sources: &[SourceFile],
    input: &[i64],
) -> Result<Result<InterpResult, cmin_ir::interp::InterpError>, CompileError> {
    let modules = frontend(sources)?;
    let opts = InterpOptions { input: input.to_vec(), ..InterpOptions::default() };
    Ok(interpret_with(&modules, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::parallel_map;
    use std::path::PathBuf;

    fn src(name: &str, text: &str) -> SourceFile {
        SourceFile::new(name, text)
    }

    /// A fresh temp directory, unique per test, wiped before use.
    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ipra-driver-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A two-module program with shared globals, statics, indirect calls
    /// and a hot call region — touches every analyzer feature.
    fn two_module_program() -> Vec<SourceFile> {
        vec![
            src(
                "counter",
                "static int hits;
                 int total;
                 int bump(int k) { hits = hits + 1; total = total + k; return total; }
                 int hits_of() { return hits; }",
            ),
            src(
                "app",
                "extern int total;
                 extern int bump(int);
                 extern int hits_of();
                 int noop(int k) { return k; }
                 int pick(int which) { if (which) { return &bump; } return &noop; }
                 int main() {
                     int f = pick(1);
                     for (int i = 0; i < 50; i = i + 1) { f(i); }
                     out(total);
                     out(hits_of());
                     return total;
                 }",
            ),
        ]
    }

    #[test]
    fn all_configs_agree_on_observable_behavior() {
        let sources = two_module_program();
        let oracle = interpret_sources(&sources, &[]).unwrap().unwrap();
        assert_eq!(oracle.output, vec![1225, 50]);
        let mut cache = CompilationCache::new();
        for config in PaperConfig::ALL_WITH_ALIAS {
            let program =
                compile_configured(&sources, config, &[], &CompileOptions::default(), &mut cache)
                    .unwrap()
                    .unwrap();
            let r = run_program(&program, &[]).unwrap();
            assert_eq!(r.output, oracle.output, "config {config} output diverged");
            assert_eq!(r.exit, oracle.exit, "config {config} exit diverged");
        }
    }

    #[test]
    fn every_config_passes_the_machine_code_verifier() {
        let sources = two_module_program();
        let mut cache = CompilationCache::new();
        for config in PaperConfig::ALL_WITH_ALIAS {
            let program =
                compile_configured(&sources, config, &[], &CompileOptions::default(), &mut cache)
                    .unwrap()
                    .unwrap();
            let report = verify_program(&program);
            assert!(report.is_clean(), "config {config} emitted undisciplined code:\n{report}");
            assert!(report.procs >= 5);
        }
    }

    #[test]
    fn promotion_reduces_singleton_refs() {
        let sources = two_module_program();
        let l2 = compile(&sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let c = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let rl2 = run_program(&l2, &[]).unwrap();
        let rc = run_program(&c, &[]).unwrap();
        assert!(
            rc.stats.singleton_refs() < rl2.stats.singleton_refs(),
            "C = {} refs, L2 = {} refs",
            rc.stats.singleton_refs(),
            rl2.stats.singleton_refs()
        );
        // Cycle counts on a program this small are dominated by one-time
        // web-entry overhead in main; allow a small regression while the
        // memory-reference reduction (the paper's Table 5 metric) holds.
        assert!(rc.stats.cycles <= rl2.stats.cycles + rl2.stats.cycles / 20);
        assert!(c.stats.webs_colored >= 1);
    }

    #[test]
    fn profile_feedback_round_trip() {
        let sources = two_module_program();
        let baseline = compile(&sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let r = run_program(&baseline, &[]).unwrap();
        let profile = collect_profile_from(&baseline.exe, &r);
        // bump is called 50 times through the function pointer.
        assert_eq!(profile.calls("bump"), 50);
        assert_eq!(profile.calls("hits_of"), 1);
        assert_eq!(profile.edge("main", "pick"), 1);
    }

    #[test]
    fn compile_errors_are_reported() {
        let e = compile(&[src("bad", "int f( {")], &CompileOptions::default());
        assert!(matches!(e, Err(DriverError::Compile(_))));
        let e = compile(&[src("a", "int f() { return 0; }")], &CompileOptions::default());
        assert!(matches!(e, Err(DriverError::Link(LinkError::NoMain))));
        // Error values format.
        let err = compile(&[src("bad", "int f( {")], &CompileOptions::default()).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn parallel_build_reports_the_first_module_error() {
        // Two broken modules: the diagnostic must be module 0's regardless
        // of which worker finishes first.
        let sources = vec![src("a", "int f( {"), src("b", "int g( {")];
        for jobs in [1, 4] {
            let opts = CompileOptions { jobs, ..CompileOptions::default() };
            let err = compile(&sources, &opts).unwrap_err();
            assert!(err.to_string().contains('a'), "jobs={jobs}: {err}");
        }
    }

    #[test]
    fn statics_with_same_name_do_not_collide() {
        let sources = vec![
            src("m1", "static int c = 1; int f1() { c = c + 10; return c; }"),
            src("m2", "static int c = 2; extern int f1(); int main() { f1(); return c; }"),
        ];
        let p = compile(&sources, &CompileOptions::default()).unwrap();
        let r = run_program(&p, &[]).unwrap();
        assert_eq!(r.exit, 2);
    }

    #[test]
    fn analyzer_stats_populate() {
        let sources = two_module_program();
        let c = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        assert!(c.stats.nodes >= 5);
        assert!(c.stats.eligible_globals >= 2); // hits (static) and total
        assert!(c.stats.webs_total >= 1);
        assert!(!c.database.is_empty());
    }

    #[test]
    fn input_is_threaded_through() {
        let sources =
            vec![src("io", "int main() { int a = in(); int b = in(); out(a * b); return 0; }")];
        let p = compile(&sources, &CompileOptions::default()).unwrap();
        let r = run_program(&p, &[6, 7]).unwrap();
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn parallel_map_preserves_order_and_balances() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 8, 64] {
            let out = parallel_map(&items, jobs, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(parallel_map(&Vec::<usize>::new(), 4, |&i: &usize| i).is_empty());
    }

    #[test]
    fn warm_rebuild_is_all_hits_and_bit_identical() {
        let sources = two_module_program();
        let opts = CompileOptions::paper(PaperConfig::C);
        let mut cache = CompilationCache::new();
        let cold = compile_incremental(&sources, &opts, &mut cache).unwrap();
        assert_eq!(cold.build.phase1.misses, 2);
        assert_eq!(cold.build.phase2.misses, 2);
        let warm = compile_incremental(&sources, &opts, &mut cache).unwrap();
        assert_eq!(warm.build.phase1.hits, 2);
        assert_eq!(warm.build.analyze.hits, 1, "unchanged summaries skip the analyzer");
        assert_eq!(warm.build.phase2.hits, 2);
        assert_eq!(warm.build.phase1.disk_hits, 0);
        assert!(warm.build.recompiled.is_empty());
        assert_eq!(warm.exe, cold.exe);
        assert_eq!(warm.database, cold.database);
    }

    #[test]
    fn editing_one_module_reruns_only_its_first_phase() {
        let mut sources = two_module_program();
        let opts = CompileOptions::default();
        let mut cache = CompilationCache::new();
        compile_incremental(&sources, &opts, &mut cache).unwrap();
        // A whitespace-only edit changes the source hash but not the IR:
        // phase 1 re-runs for that module, phase 2 for nothing at all.
        sources[0].text.push_str("\n\n");
        let rebuilt = compile_incremental(&sources, &opts, &mut cache).unwrap();
        assert_eq!(rebuilt.build.phase1.misses, 1);
        assert_eq!(rebuilt.build.phase1.hits, 1);
        assert_eq!(rebuilt.build.phase2.hits, 2);
        assert!(rebuilt.build.recompiled.is_empty());
    }

    #[test]
    fn disk_cache_persists_across_cache_instances() {
        let sources = two_module_program();
        let dir = tmpdir("disk-cache");
        let opts = CompileOptions::paper(PaperConfig::C);
        let cold = {
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &opts, &mut cache).unwrap()
        };
        assert_eq!(cold.build.phase1.misses, 2);
        // A *fresh* cache instance over the same directory — the in-process
        // stand-in for a separate cminc invocation — must be all disk hits.
        let mut cache = CompilationCache::with_disk(&dir).unwrap();
        let warm = compile_incremental(&sources, &opts, &mut cache).unwrap();
        assert_eq!(warm.build.phase1.hits, 2);
        assert_eq!(warm.build.phase1.disk_hits, 2);
        assert_eq!(warm.build.analyze.disk_hits, 1);
        assert_eq!(warm.build.phase2.hits, 2);
        assert_eq!(warm.build.phase2.disk_hits, 2);
        assert!(warm.build.recompiled.is_empty());
        assert_eq!(warm.exe, cold.exe);
        assert_eq!(warm.database, cold.database);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_misses() {
        let sources = two_module_program();
        let dir = tmpdir("disk-corrupt");
        let original = {
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &CompileOptions::default(), &mut cache).unwrap()
        };
        // Overwrite the start of every persisted frame in the pack; the
        // rebuild must recompute, not fail or produce wrong code.
        let pack = dir.join(cache::PACK_FILE);
        let mut bytes = std::fs::read(&pack).unwrap();
        let records = cache::testing::records(&dir);
        for r in &records {
            bytes[r.offset as usize..][..8].copy_from_slice(b"{garbage");
        }
        std::fs::write(&pack, bytes).unwrap();
        assert_eq!(records.len(), 5, "two p1, two p2 and one an frame");
        let mut cache = CompilationCache::with_disk(&dir).unwrap();
        let tele = Telemetry::new();
        let opts = CompileOptions { telemetry: Some(tele.clone()), ..CompileOptions::default() };
        let rebuilt = compile_incremental(&sources, &opts, &mut cache).unwrap();
        assert_eq!(rebuilt.build.phase1.misses, 2);
        assert_eq!(rebuilt.build.analyze.misses, 1, "the analyzer re-ran");
        assert_eq!(rebuilt.build.phase2.misses, 2);
        assert_eq!(tele.counter("cache.disk.corrupt"), 5, "two p1, two p2 and one an frame");
        assert_eq!(rebuilt.exe, original.exe);
        assert_eq!(rebuilt.database, original.database);
        let r = run_program(&rebuilt, &[]).unwrap();
        assert_eq!(r.output, vec![1225, 50]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two directories from older layouts: one with a frame per file under
    /// `p1/`, `p2/` and `an/`, and one whose pack holds frames of version
    /// 5, whose checksum was FNV-64. Both read as misses; the per-file
    /// frames are neither read nor deleted, and the flush appends frames
    /// that the next build hits.
    #[test]
    fn per_file_directories_and_version_5_frames_read_as_misses() {
        let sources = two_module_program();
        let dir = tmpdir("v5-frames");
        let original = {
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &CompileOptions::default(), &mut cache).unwrap()
        };
        let pack = dir.join(cache::PACK_FILE);
        let current = std::fs::read(&pack).unwrap();
        let records = cache::testing::records(&dir);
        assert_eq!(records.len(), 5, "two p1, two p2 and one an frame");
        let per_file = tmpdir("per-file");
        let mut v5 = current.clone();
        for r in &records {
            let frame = &mut v5[r.offset as usize..][..r.len as usize];
            let sum = frame.len() - 8;
            let mut fnv = ipra_core::fingerprint::Fnv64::new();
            fnv.write(&frame[10..sum]);
            frame[4] = 5;
            frame[sum..].copy_from_slice(&fnv.finish().to_le_bytes());
            // The per-file layout named a phase-2 frame by the FNV-64 of
            // its key's two words.
            let (sub, name) = match r.kind {
                framed::KIND_PHASE1 => ("p1", r.key.0),
                framed::KIND_PHASE2 => {
                    let mut h = ipra_core::fingerprint::Fnv64::new();
                    h.write_u64(r.key.0);
                    h.write_u64(r.key.1);
                    ("p2", h.finish())
                }
                _ => ("an", r.key.0),
            };
            std::fs::create_dir_all(per_file.join(sub)).unwrap();
            let path = per_file.join(sub).join(format!("{name:016x}.bin"));
            std::fs::write(path, &current[r.offset as usize..][..r.len as usize]).unwrap();
        }
        std::fs::write(&pack, &v5).unwrap();
        let build = |dir: &PathBuf| {
            let tele = Telemetry::new();
            let opts =
                CompileOptions { telemetry: Some(tele.clone()), ..CompileOptions::default() };
            let mut cache = CompilationCache::with_disk(dir).unwrap();
            let built = compile_incremental(&sources, &opts, &mut cache).unwrap();
            (built, tele.counter("cache.disk.corrupt"))
        };
        let (from_files, corrupt) = build(&per_file);
        assert_eq!(from_files.build.phase1.misses, 2);
        assert_eq!(from_files.build.analyze.misses, 1);
        assert_eq!(from_files.build.phase2.misses, 2);
        assert_eq!(corrupt, 0, "the per-file frames are not read");
        assert_eq!(from_files.exe, original.exe);
        let old_files = ["p1", "p2", "an"]
            .iter()
            .flat_map(|sub| std::fs::read_dir(per_file.join(sub)).unwrap())
            .count();
        assert_eq!(old_files, 5, "nor deleted");
        let (rebuilt, corrupt) = build(&dir);
        assert_eq!(rebuilt.build.phase1.misses, 2);
        assert_eq!(rebuilt.build.analyze.misses, 1);
        assert_eq!(rebuilt.build.phase2.misses, 2);
        assert_eq!(corrupt, 5);
        assert_eq!(rebuilt.exe, original.exe);
        let after = std::fs::read(&pack).unwrap();
        assert_eq!(after.len(), 2 * current.len(), "the flush appended a whole set of frames");
        assert_eq!(after[..v5.len()], v5[..], "and rewrote nothing");
        assert_eq!(after[v5.len()..], current[..], "the same bytes as the first build's");
        let (warm, corrupt) = build(&dir);
        assert_eq!(warm.build.phase1.disk_hits, 2);
        assert_eq!(warm.build.analyze.disk_hits, 1);
        assert_eq!(warm.build.phase2.disk_hits, 2);
        assert_eq!(corrupt, 0);
        assert_eq!(warm.exe, original.exe);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&per_file);
    }

    /// A phase-1 frame whose IR tail does not decode behind a valid
    /// checksum: the head serves phase 1 and the analyzer, and the phase-2
    /// miss that needs the IR re-runs phase 1 from source and appends a
    /// whole frame, whose index record replaces the forged one's.
    #[test]
    fn an_undecodable_ir_tail_reruns_phase1_from_source() {
        use crate::cache::{testing, DiskCache, Io, Phase1Head};
        use crate::framed::{CACHE, KIND_PHASE1, KIND_PHASE2};
        use std::io::Write;
        let sources = two_module_program();
        let dir = tmpdir("forged-tail");
        let opts = CompileOptions::paper(PaperConfig::C);
        let original = {
            let mut cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &opts, &mut cache).unwrap()
        };
        let pack_path = dir.join(cache::PACK_FILE);
        let pack = std::fs::read(&pack_path).unwrap();
        let mut records = testing::records(&dir);
        // Without phase-2 entries every module's IR is needed: the index
        // is rewritten without their records.
        records.retain(|r| r.kind != KIND_PHASE2);
        let mut forged = None;
        for r in &records {
            let frame = &pack[r.offset as usize..][..r.len as usize];
            let Ok((head, _)) = CACHE.decode_head::<Phase1Head>(frame, KIND_PHASE1) else {
                continue;
            };
            if head.summary.module == "counter" {
                // `u64::MAX` reads as a name length past the end of the tail.
                let mut frame = Vec::new();
                CACHE.append_frame(KIND_PHASE1, &(&head, &u64::MAX), &mut frame).unwrap();
                forged = Some((head.key, frame));
            }
        }
        let (forged_key, frame) = forged.expect("counter's phase-1 frame");
        let mut pack_file = std::fs::OpenOptions::new().append(true).open(&pack_path).unwrap();
        pack_file.write_all(&frame).unwrap();
        records.push(cache::IndexRecord {
            kind: KIND_PHASE1,
            key: (forged_key, 0),
            offset: pack.len() as u64,
            len: frame.len() as u64,
        });
        std::fs::write(dir.join(cache::INDEX_FILE), b"").unwrap();
        testing::append_records(&dir, &records);
        let tele = Telemetry::new();
        let traced = CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() };
        let mut cache = CompilationCache::with_disk(&dir).unwrap();
        let rebuilt = compile_incremental(&sources, &traced, &mut cache).unwrap();
        assert_eq!(rebuilt.build.phase1.disk_hits, 2, "the forged head passes");
        assert_eq!(rebuilt.build.analyze.disk_hits, 1);
        assert_eq!(rebuilt.build.recompiled, vec!["counter".to_string(), "app".to_string()]);
        assert_eq!(tele.counter("cache.disk.corrupt"), 1);
        assert_eq!(rebuilt.exe, original.exe);
        drop(cache);
        // The flush appended a whole frame, and its record wins.
        let mut disk = DiskCache::open(&dir).unwrap();
        let (_, entry) = disk.load_phase1(forged_key, &mut Io::default()).expect("rewritten frame");
        assert!(entry.ir().is_some(), "the rewritten tail decodes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn separate_build_matches_in_memory_compile() {
        let sources = two_module_program();
        let dir = tmpdir("separate");
        let mut cache = CompilationCache::new();
        let staged = separate::artifact_build_for(
            &sources,
            PaperConfig::C,
            None,
            &dir,
            &mut cache,
            vpr::target::TargetId::Vpr,
        )
        .unwrap();
        let in_memory = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        assert_eq!(staged.exe, in_memory.exe);
        assert_eq!(staged.database, in_memory.database);
        assert_eq!(staged.recompiled, vec!["counter".to_string(), "app".to_string()]);
        // The artifacts really are on disk, self-describing and re-readable.
        assert_eq!(staged.summary_paths.len(), 2);
        for p in staged.summary_paths.iter().chain(staged.object_paths.iter()) {
            assert!(p.exists(), "{} missing", p.display());
        }
        let (kind, v, target) = ipra_artifact::sniff_file(&staged.executable_path).unwrap();
        assert_eq!(
            (kind, v, target),
            (
                ipra_artifact::ArtifactKind::Executable,
                ipra_artifact::FORMAT_VERSION,
                vpr::target::TargetId::Vpr
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn module_builds_share_the_in_memory_builds_cache_entries() {
        // `cminc c`'s core runs the same cached steps as the in-memory
        // build: after a build, compiling one module against the same
        // database hits in both phases and yields the object the build
        // linked.
        let sources = two_module_program();
        let target = vpr::target::TargetId::Vpr;
        let mut cache = CompilationCache::new();
        let opts = CompileOptions::paper(PaperConfig::C);
        let program = compile_incremental(&sources, &opts, &mut cache).unwrap();
        for (src, object) in sources.iter().zip(&program.objects) {
            let product =
                separate::build_module_for(src, &program.database, true, &mut cache, target)
                    .unwrap();
            assert!(product.phase1_hit && product.phase2_hit, "{}", src.name);
            assert_eq!(&product.object.object, object);
        }
        // A cold cache misses both phases and compiles the same object.
        let mut cold_cache = CompilationCache::new();
        let cold = separate::build_module_for(
            &sources[0],
            &program.database,
            true,
            &mut cold_cache,
            target,
        )
        .unwrap();
        assert!(!cold.phase1_hit && !cold.phase2_hit);
        assert_eq!(cold.object.object, program.objects[0]);
    }

    #[test]
    fn profile_recompile_reuses_the_cache() {
        let sources = two_module_program();
        let mut cache = CompilationCache::new();
        let program = compile_configured(
            &sources,
            PaperConfig::F,
            &[],
            &CompileOptions::default(),
            &mut cache,
        )
        .unwrap()
        .unwrap();
        // The profile-fed build is the second compile through the cache:
        // its first phase must be pure hits.
        assert_eq!(program.build.phase1.hits, sources.len());
        assert_eq!(program.build.phase1.misses, 0);
        let r = run_program(&program, &[]).unwrap();
        assert_eq!(r.output, vec![1225, 50]);
    }

    #[test]
    fn tracing_is_pure_observation() {
        let sources = two_module_program();
        let plain = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let traced_opts = CompileOptions { trace: true, ..CompileOptions::paper(PaperConfig::C) };
        let traced = compile(&sources, &traced_opts).unwrap();
        assert!(plain.trace.is_none());
        let trace = traced.trace.as_ref().expect("trace requested");
        assert!(!trace.events.is_empty());
        assert_eq!(traced.exe, plain.exe);
        assert_eq!(traced.database, plain.database);
        // A traced build runs the analyzer even when the cache holds the
        // analysis.
        let mut cache = CompilationCache::new();
        compile_incremental(&sources, &CompileOptions::paper(PaperConfig::C), &mut cache).unwrap();
        let again = compile_incremental(&sources, &traced_opts, &mut cache).unwrap();
        assert_eq!(again.build.analyze.misses, 1);
        assert_eq!(again.trace, traced.trace);
    }

    #[test]
    fn attributed_run_is_cycle_neutral_and_exact() {
        let sources = two_module_program();
        let p = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let plain = run_program(&p, &[]).unwrap();
        let attr = run_program_attributed(&p, &[]).unwrap();
        assert_eq!(attr.stats, plain.stats);
        assert_eq!(attr.output, plain.output);
        let a = attr.attribution.as_ref().expect("attribution requested");
        assert!(a.matches(&attr.stats), "per-procedure sums must equal RunStats");
        assert!(a.get("bump").expect("bump ran").calls == 50);
    }

    #[test]
    fn diff_report_sums_and_explains() {
        let sources = two_module_program();
        for config_b in [PaperConfig::C, PaperConfig::F] {
            let r = diff_report(&sources, PaperConfig::L2, config_b, &[], 1).unwrap().unwrap();
            assert!(r.sums_match(), "{config_b}: per-proc sums must equal totals");
            assert_eq!(r.totals_b.cycles, r.procs.iter().map(|p| p.cycles_b).sum::<u64>());
            // Every procedure whose cost moved is linked to at least one
            // concrete analyzer decision.
            for p in r.procs.iter().filter(|p| p.cycles_delta != 0) {
                if p.name == vpr::sim::STARTUP_PROC {
                    continue;
                }
                assert!(!p.reasons.is_empty(), "{config_b}: `{}` moved with no reason", p.name);
            }
            // Determinism: building it again yields byte-identical JSON.
            let again = diff_report(&sources, PaperConfig::L2, config_b, &[], 1).unwrap().unwrap();
            assert_eq!(r.to_json(), again.to_json());
        }
    }

    #[test]
    fn the_artifact_path_serves_a_programs_third_build_from_the_vx_tier() {
        use vpr::target::TargetId;
        let sources = two_module_program();
        for target in TargetId::ALL {
            let opts = CompileOptions { target, ..CompileOptions::paper(PaperConfig::C) };
            let exe = compile(&sources, &opts).unwrap().exe;
            let view = ipra_artifact::ExecutableView { exe: &exe };
            let want = ipra_artifact::encode_fingerprinted(ArtifactKind::Executable, &view, target);
            let shard = Mutex::new(CompilationCache::new());
            for (build, tier) in [(1, (0, 1)), (2, (0, 1)), (3, (1, 0)), (4, (1, 0))] {
                let tele = Telemetry::new();
                let traced = CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() };
                let built = compile_artifact(&sources, PaperConfig::C, &[], &traced, &shard)
                    .unwrap()
                    .unwrap();
                let label = format!("{} build {build}", target.name());
                assert_eq!((built.vx, built.fingerprint), want.clone(), "{label}");
                assert_eq!((built.build.vx.hits, built.build.vx.misses), tier, "{label}");
                let counted = (tele.counter("vx.hits"), tele.counter("vx.misses"));
                assert_eq!(counted, (tier.0 as u64, tier.1 as u64), "{label}");
                assert_eq!(tele.counter("link.insts"), exe.code_len() as u64, "{label}");
            }
        }
    }

    #[test]
    fn jobs_do_not_change_the_executable() {
        let sources = two_module_program();
        let serial =
            compile(&sources, &CompileOptions { jobs: 1, ..CompileOptions::paper(PaperConfig::C) })
                .unwrap();
        let parallel =
            compile(&sources, &CompileOptions { jobs: 4, ..CompileOptions::paper(PaperConfig::C) })
                .unwrap();
        assert_eq!(serial.exe, parallel.exe);
        assert_eq!(serial.database, parallel.database);
        assert!(CompileOptions { jobs: 0, ..Default::default() }.effective_jobs() >= 1);
    }
}
