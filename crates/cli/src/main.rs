//! `cminc` — the two-pass `cmin` compiler driver, file based.
//!
//! Mirrors the paper's Figure 1 as an actual command-line workflow over
//! versioned on-disk artifacts (summaries `.csum`, directives `.cdir`,
//! objects `.vo`, executables `.vx`, libraries `.vlib`):
//!
//! ```sh
//! cminc c a.cmin -o a.vo --cache-dir .ccache      # phase 1 + 2, emits a.csum too
//! cminc c b.cmin -o b.vo --cache-dir .ccache
//! cminc analyze a.csum b.csum --config C -o prog.cdir
//! cminc c a.cmin -o a.vo --dir prog.cdir --cache-dir .ccache   # phase 1 is a cache hit
//! cminc c b.cmin -o b.vo --dir prog.cdir --cache-dir .ccache
//! cminc link a.vo b.vo -o prog.vx
//! cminc run prog.vx --input "3 4 5" --stats
//! ```
//!
//! or, in one step:
//!
//! ```sh
//! cminc build a.cmin b.cmin --config C -o prog.vx --run --stats
//! ```
//!
//! `objdump` pretty-prints any artifact; `lib` archives objects (plus
//! their summaries) into a `.vlib` that `analyze` and `link` both accept,
//! pulling only the members the program needs. Every command reads an
//! input's kind from its artifact header, whatever the file is called.

mod artifacts;

use ipra_core::analyzer::{analyze, analyze_traced, AnalyzerOptions, PaperConfig};
use ipra_core::trace::AnalyzerTrace;
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_driver::args::{parsed, Args};
use ipra_driver::{CompilationCache, CompileOptions, CompiledProgram, SourceFile};
use ipra_summary::ProgramSummary;
use ipra_telemetry::Telemetry;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use vpr::target::TargetId;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let sub = if cmd == "remote" { argv.next().unwrap_or_default() } else { String::new() };
    // Each command declares its own flags, and usage lines name it in full.
    let args = |name: &str| Args::new(format!("cminc {name}"), argv);
    let result = match (cmd.as_str(), sub.as_str()) {
        ("c", _) => artifacts::c_cmd(args("c")),
        ("lib", _) => artifacts::lib_cmd(args("lib")),
        ("objdump", _) => artifacts::objdump_cmd(args("objdump")),
        ("analyze", _) => analyze_cmd(args("analyze")),
        ("link", _) => link_cmd(args("link")),
        ("verify", _) => verify_cmd(args("verify")),
        ("run", _) => run_cmd(args("run")),
        ("build", _) => build_cmd(args("build")),
        ("profile", _) => profile_cmd(args("profile")),
        ("explain", _) => explain_cmd(args("explain")),
        ("report", _) => report_cmd(args("report")),
        ("fuzz", _) => fuzz_cmd(args("fuzz")),
        ("serve", _) => serve_cmd(args("serve")),
        ("remote", "build") => remote_build(args("remote build")),
        ("remote", "ping" | "stats" | "shutdown") => {
            remote_cmd(&sub, args(&format!("remote {sub}")))
        }
        ("--help" | "-h" | "help", _) => {
            println!("{USAGE}");
            Ok(())
        }
        _ => {
            if !cmd.is_empty() {
                eprintln!("cminc: unknown command `{}`", format!("{cmd} {sub}").trim_end());
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cminc: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cminc c <src.cmin> [-o <mod.vo>] [--summary <mod.csum>] [--dir <prog.cdir>] [--cache-dir DIR] [--target vpr|rv32]
  cminc analyze <mod.csum|lib.vlib>... [--config L2|A|B|C|D|E|F|P] [--profile <prof.json>] [--report] [--dot <graph.dot>] [--decisions-out <decisions.json>] [--target vpr|rv32] -o <prog.cdir>
  cminc link <mod.vo|lib.vlib>... [--allow-undefined] -o <prog.vx>
  cminc lib <mod.vo>... -o <lib.vlib>
  cminc verify <mod.vo>... [--db <prog.cdir>]
  cminc run <prog.vx> [--input \"v v v\"] [--engine fast|ref] [--stats] [--stats-json <out.json>] [--metrics-out <m.json>] [--profile-out <prof.json>]
  cminc build <src.cmin>... [--config ...] [--target vpr|rv32] [-o <prog.vx>] [--cache-dir DIR] [-j|--jobs N] [--repeat N] [--verify] [--run] [--stats] [--decisions-out <decisions.json>] [--trace-out <t.json>] [--metrics-out <m.json>] [--input \"v v v\"]
  cminc profile <prog.vx | src.cmin...> [--config ...] [--input \"v v v\"] [--engine fast|ref] [--top N] [--json <out.json>]
  cminc objdump <artifact-file>
  cminc explain <symbol> (--decisions <decisions.json> | <src.cmin>... [--config ...] [--input \"v v v\"]) [--target vpr|rv32]
  cminc report <src.cmin>... --config-b L2|A|B|C|D|E|F|P [--config-a ...] [--input \"v v v\"] [--json <out.json>]
  cminc fuzz [--seed N] [--iters N | --time-budget SECS] [-j|--jobs N] [--corpus DIR] [--reduce-budget N] [--self-validate] [--metrics-out <m.json>]
  cminc serve --socket PATH [--cache-dir DIR] [-j|--jobs N] [--shards N] [--timeout SECS]
  cminc remote build <src.cmin>... --socket PATH [--config ...] [-o <prog.vx>] [--input \"v v v\"]
  cminc remote ping|stats|shutdown --socket PATH

artifacts (`objdump` prints any of them):
  .csum  per-module summary     .cdir  analyzer directives   .vo  object code
  .vx    linked executable      .vlib  object+summary archive
  inputs are recognized by their artifact header, not their file name

a bad command line (an unknown flag, another command's flag, a missing or
unparsable value) exits 2 with that command's usage line before any file
is read or written

separate compilation:
  c              one module, both phases; --dir supplies the analyzer's
                 directives (standard conventions without it); the summary
                 goes beside the -o object unless --summary names a path
  --cache-dir D  persist phase fingerprints under D: across separate cminc
                 invocations only modules whose source or directive slice
                 changed are recompiled (c, build)
  --allow-undefined  (link) resolve missing functions to trap stubs; linking
                 against a .vlib pulls only the members the program needs

build flags:
  --target T     machine description to compile for: vpr (default) or rv32;
                 link/verify/run read the target from the artifacts themselves
  -j, --jobs N   worker threads for the per-module phases (default 1, 0 = all cores)
  --repeat N     build N times through one incremental cache (recompilation demo)
  -o FILE        write the linked executable (a .vx artifact)
  --stats        per-phase wall-clock and cache hit/miss table (plus run stats with --run)
  --decisions-out FILE  persist the analyzer's decision trace as JSON (also:
                 analyze); explain --decisions reads it back

telemetry (spans + counters, see docs/telemetry.md):
  --trace-out FILE    (build) export pipeline spans as Chrome trace-event
                      JSON — open in Perfetto or about://tracing; per-module
                      phase tasks carry their worker lane as the tid
  --metrics-out FILE  (build, run, fuzz) export the counters registry as
                      canonical JSON: byte-identical across --jobs widths,
                      engines, and machines (never contains wall-clock data)
  profile             run a program with per-pc execution counts and print
                      symbolized per-procedure / hot-block / opcode tables;
                      identical on both engines, totals equal run cycles

observability:
  explain        render every analyzer decision that mentions one global or
                 procedure, from a saved --decisions-out file or by compiling
                 sources
  report         compile under two configs (A defaults to L2), run both with
                 exact per-procedure attribution, and explain each delta;
                 --json writes the full deterministic report
  --stats-json   (run) write RunStats + exact per-procedure attribution as JSON

fuzz:
  random differential testing: generated programs are interpreted and
  compiled under all seven paper configurations; any divergence (or verify,
  attribution, incremental-build or trace-purity violation) is shrunk to a
  minimal repro. stdout is deterministic for a given --seed/--iters,
  independent of --jobs; timing goes to stderr.
  --seed N           master seed (default 1)
  --iters N          iterations (default 100)
  --time-budget SECS run until the budget elapses instead (not jobs-deterministic)
  --corpus DIR       save reduced repros as corpus entries under DIR
  --reduce-budget N  predicate evaluations per reduction (default 1200)
  --self-validate    inject the known miscompile classes and prove the
                     oracle detects them; repros shrink into --corpus too";

pub(crate) fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

pub(crate) fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

pub(crate) fn module_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "module".into())
}

/// Declares a configuration flag (`--config`, `--config-a`, `--config-b`).
fn config(a: &mut Args, flag: &'static str) -> Option<PaperConfig> {
    a.value(flag, "L2|A|B|C|D|E|F|P", PaperConfig::parse)
}

/// Declares `--target`, the machine description (default: VPR).
pub(crate) fn target(a: &mut Args) -> TargetId {
    a.value("--target", "vpr|rv32", TargetId::parse).unwrap_or(TargetId::Vpr)
}

/// Declares `--input`, the program's input values.
fn input(a: &mut Args) -> Vec<i64> {
    a.value("--input", "\"v v v\"", |text| text.split_whitespace().map(parsed).collect())
        .unwrap_or_default()
}

/// Declares `--engine`, the simulator engine (default: fast).
fn engine(a: &mut Args) -> vpr::Engine {
    a.value("--engine", "fast|ref", |v| match v {
        "fast" => Some(vpr::Engine::Fast),
        "ref" | "reference" => Some(vpr::Engine::Reference),
        _ => None,
    })
    .unwrap_or(vpr::Engine::Fast)
}

fn analyze_cmd(mut a: Args) -> Result<(), String> {
    let config = config(&mut a, "--config").unwrap_or(PaperConfig::L2);
    let profile = a.path("--profile", "<prof.json>");
    let report = a.switch("--report");
    let dot = a.path("--dot", "<graph.dot>");
    let decisions_out = a.path("--decisions-out", "<decisions.json>");
    let target = target(&mut a);
    let out = a.path("-o", "<prog.cdir>");
    let sums = a.positionals("<mod.csum|lib.vlib>...");
    a.finish();
    if sums.is_empty() {
        return Err("analyze needs at least one summary file".into());
    }
    let out = out.ok_or("analyze needs -o <prog.cdir>")?;
    let mut program = ProgramSummary::default();
    for s in &sums {
        program.modules.extend(artifacts::load_summaries(s)?);
    }
    let profile = match profile {
        Some(p) => {
            Some(serde_json::from_str::<ProfileData>(&read(&p)?).map_err(|e| format!("{p}: {e}"))?)
        }
        None => {
            if config.wants_profile() {
                return Err(format!("config {config} needs --profile <prof.json>"));
            }
            None
        }
    };
    let analyzer_opts = AnalyzerOptions::paper_config_for(config, profile, target);
    let (analysis, trace) = match &decisions_out {
        Some(_) => {
            let (a, t) = analyze_traced(&program, &analyzer_opts);
            (a, Some(t))
        }
        None => (analyze(&program, &analyzer_opts), None),
    };
    artifacts::write_database_for(&out, &config.to_string(), &analysis.database, target)?;
    if let (Some(path), Some(t)) = (&decisions_out, &trace) {
        write(path, &t.to_json())?;
        eprintln!("decisions: {} events -> {path}", t.events.len());
    }
    let s = &analysis.stats;
    eprintln!(
        "analyze: {} nodes, {} eligible globals, {}/{} webs colored, {} clusters -> {out}",
        s.nodes, s.eligible_globals, s.webs_colored, s.webs_total, s.clusters
    );
    if let Some(path) = dot {
        write(&path, &ipra_core::dot::call_graph_dot(&program, &analysis))?;
        eprintln!("dot: -> {path}");
    }
    if report {
        for w in &analysis.webs {
            println!(
                "web {:<14} reg {:<4} entries [{}] nodes [{}]{}",
                w.sym,
                w.reg.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                w.entries.join(" "),
                w.nodes.join(" "),
                if w.written { "" } else { " (read-only)" }
            );
        }
        for d in analysis.database.iter() {
            if d.is_cluster_root {
                println!("cluster root {:<14} MSPILL {}", d.name, d.usage.mspill);
            }
        }
    }
    Ok(())
}

fn link_cmd(mut a: Args) -> Result<(), String> {
    let allow_undefined_functions = a.switch("--allow-undefined");
    let out = a.path("-o", "<prog.vx>");
    let objs = a.positionals("<mod.vo|lib.vlib>...");
    a.finish();
    if objs.is_empty() {
        return Err("link needs at least one object or library file".into());
    }
    let out = out.ok_or("link needs -o <prog.vx>")?;
    let modules = artifacts::collect_link_inputs(&objs)?;
    let opts = vpr::LinkOptions { allow_undefined_functions };
    let exe = vpr::link_with(&modules, &opts).map_err(|e| e.to_string())?;
    artifacts::write_executable(&out, &exe)?;
    eprintln!("link: {} instructions -> {out}", exe.code_len());
    Ok(())
}

/// Runs the register-discipline verifier over already-compiled object
/// modules, against the program database that directed their codegen
/// (without `--db`, every procedure is held to the standard convention).
fn verify_cmd(mut a: Args) -> Result<(), String> {
    let db = a.path("--db", "<prog.cdir>");
    let objs = a.positionals("<mod.vo>...");
    a.finish();
    if objs.is_empty() {
        return Err("verify needs at least one object file".into());
    }
    let db = match db {
        Some(p) => artifacts::load_database(&p)?,
        None => ProgramDatabase::new(),
    };
    let mut modules = Vec::new();
    for o in &objs {
        modules.push(artifacts::load_object(o)?);
    }
    let report = ipra_verify::verify_modules(&modules, &db);
    report_verify(&report)
}

/// Prints a verification report; `Err` (with every diagnostic) if dirty.
fn report_verify(report: &ipra_verify::VerifyReport) -> Result<(), String> {
    if report.is_clean() {
        eprintln!("verify: {} procedures, {} instructions: clean", report.procs, report.insts);
        Ok(())
    } else {
        Err(format!("verification failed ({} diagnostics):\n{report}", report.diagnostics.len()))
    }
}

/// Deterministic simulator counters for one run: `sim.cycles`, memory and
/// call totals, and `sim.op.<class>` instructions-retired per opcode class
/// (from the run's [`vpr::ExecProfile`], so both engines agree exactly).
/// The run must have been profiled.
fn sim_counters(exe: &vpr::Executable, result: &vpr::RunResult) -> BTreeMap<String, u64> {
    let profile = result.profile.as_ref().expect("profiling was requested");
    let mut c = profile.sim_counters(exe, &result.stats);
    c.insert("sim.runs".to_string(), 1);
    c
}

fn run_cmd(mut a: Args) -> Result<(), String> {
    let input = input(&mut a);
    let engine = engine(&mut a);
    let stats = a.switch("--stats");
    let stats_json = a.path("--stats-json", "<out.json>");
    let metrics_out = a.path("--metrics-out", "<m.json>");
    let profile_out = a.path("--profile-out", "<prof.json>");
    let files = a.positionals("<prog.vx>");
    a.finish();
    let [exe_path] = files.as_slice() else {
        return Err("run takes exactly one executable".into());
    };
    let exe = artifacts::load_executable(exe_path)?;
    let opts = vpr::SimOptions {
        input,
        attribute: stats_json.is_some(),
        profile: metrics_out.is_some(),
        engine,
        ..vpr::SimOptions::default()
    };
    let result = vpr::run_with(&exe, &opts).map_err(|e| e.to_string())?;
    for v in &result.output {
        println!("{v}");
    }
    eprintln!("exit: {}", result.exit);
    if let Some(path) = &stats_json {
        /// `--stats-json` payload: the function-index → name table (which
        /// makes `call_counts`/`call_edges` interpretable), the full run
        /// statistics, and the exact per-procedure attribution.
        #[derive(Serialize)]
        struct StatsDump {
            funcs: Vec<String>,
            exit: i64,
            stats: vpr::RunStats,
            attribution: vpr::Attribution,
        }
        let dump = StatsDump {
            funcs: exe.funcs().iter().map(|f| f.name.clone()).collect(),
            exit: result.exit,
            stats: result.stats.clone(),
            attribution: result.attribution.clone().expect("attribution was requested"),
        };
        write(path, &serde_json::to_string_pretty(&dump).expect("serialize"))?;
        eprintln!("stats: -> {path}");
    }
    if let Some(path) = &metrics_out {
        write(path, &ipra_telemetry::metrics_json_from(&sim_counters(&exe, &result)))?;
        eprintln!("metrics: -> {path}");
    }
    if stats {
        let s = &result.stats;
        eprintln!(
            "cycles: {}  loads: {}  stores: {}  singleton refs: {}  calls: {}",
            s.cycles,
            s.loads,
            s.stores,
            s.singleton_refs(),
            s.calls
        );
    }
    if let Some(path) = profile_out {
        let profile = ipra_driver::collect_profile_from(&exe, &result);
        write(&path, &serde_json::to_string_pretty(&profile).expect("serialize"))?;
        eprintln!("profile: -> {path}");
    }
    Ok(())
}

/// Reads source files into driver [`SourceFile`]s.
fn read_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    paths.iter().map(|p| Ok(SourceFile::new(module_name(p), read(p)?))).collect()
}

/// Compiles `sources` under `config` (with its training run on `input`
/// when the configuration is profile-fed) through `cache`.
fn compile(
    sources: &[SourceFile],
    config: PaperConfig,
    input: &[i64],
    opts: &CompileOptions,
    cache: &mut CompilationCache,
) -> Result<CompiledProgram, String> {
    ipra_driver::compile_configured(sources, config, input, opts, cache)
        .map_err(|e| e.to_string())?
        .map_err(|e| format!("training run trapped: {e}"))
}

/// `cminc explain <symbol>`: renders every analyzer decision mentioning one
/// global or procedure, from a saved `--decisions-out` file or by compiling
/// the given sources with tracing on. Registers are named for the trace's
/// own target; a `--target` that contradicts a saved file's is an error.
fn explain_cmd(mut a: Args) -> Result<(), String> {
    let decisions = a.path("--decisions", "<decisions.json>");
    let config = config(&mut a, "--config").unwrap_or(PaperConfig::L2);
    let input = input(&mut a);
    let target = a.value("--target", "vpr|rv32", TargetId::parse);
    let pos = a.positionals("<symbol> [<src.cmin>...]");
    a.finish();
    let Some((symbol, srcs)) = pos.split_first() else {
        return Err("explain needs a <symbol> (a global or procedure name)".into());
    };
    let trace = match decisions {
        Some(path) => {
            let trace =
                AnalyzerTrace::from_json(&read(&path)?).map_err(|e| format!("{path}: {e}"))?;
            match target {
                Some(t) if t != trace.target => {
                    return Err(format!(
                        "{path} records decisions for target {}, not --target {t}",
                        trace.target
                    ));
                }
                _ => trace,
            }
        }
        None => {
            if srcs.is_empty() {
                return Err(
                    "explain needs --decisions <decisions.json> or source files to compile".into(),
                );
            }
            let sources = read_sources(srcs)?;
            let target = target.unwrap_or_default();
            let opts = CompileOptions { trace: true, target, ..Default::default() };
            let program = compile(&sources, config, &input, &opts, &mut CompilationCache::new())?;
            program.trace.expect("tracing was requested")
        }
    };
    print!("{}", ipra_obsv::explain(&trace, symbol));
    Ok(())
}

/// `cminc report`: compile under two configurations, run both with exact
/// attribution, and explain every per-procedure delta.
fn report_cmd(mut a: Args) -> Result<(), String> {
    let config_b = config(&mut a, "--config-b");
    let config_a = config(&mut a, "--config-a").unwrap_or(PaperConfig::L2);
    let input = input(&mut a);
    let json = a.path("--json", "<out.json>");
    let srcs = a.positionals("<src.cmin>...");
    a.finish();
    if srcs.is_empty() {
        return Err("report needs at least one source file".into());
    }
    let config_b = config_b.ok_or("report needs --config-b <config>")?;
    let sources = read_sources(&srcs)?;
    let report = ipra_driver::diff_report(&sources, config_a, config_b, &input, 1)
        .map_err(|e| e.to_string())?
        .map_err(|e| format!("run trapped: {e}"))?;
    if !report.sums_match() {
        return Err("internal error: per-procedure sums diverge from program totals".into());
    }
    print!("{}", report.render_table());
    if let Some(path) = json {
        write(&path, &report.to_json())?;
        eprintln!("report: -> {path}");
    }
    Ok(())
}

/// `cminc fuzz`: run the differential fuzzer (and/or oracle
/// self-validation). The report on stdout is deterministic for a given
/// `--seed`/`--iters` regardless of `--jobs`; wall-clock goes to stderr.
fn fuzz_cmd(mut a: Args) -> Result<(), String> {
    let defaults = ipra_fuzz::FuzzOptions::default();
    let seed = a.value("--seed", "N", parsed).unwrap_or(defaults.seed);
    let iters = a.value("--iters", "N", parsed);
    let time_budget =
        a.value("--time-budget", "SECS", |v| parsed(v).map(std::time::Duration::from_secs));
    let jobs = a.jobs().unwrap_or(0);
    let corpus_dir = a.path("--corpus", "DIR").map(std::path::PathBuf::from);
    let reduce_checks = a
        .value("--reduce-budget", "N", parsed)
        .unwrap_or(ipra_fuzz::ReduceOptions::default().max_checks);
    let self_validate = a.switch("--self-validate");
    let metrics_out = a.path("--metrics-out", "<m.json>");
    a.finish();
    let opts = ipra_fuzz::FuzzOptions {
        seed,
        iters: iters.unwrap_or(defaults.iters),
        time_budget,
        jobs,
        corpus_dir,
        reduce_checks,
        max_reported: defaults.max_reported,
    };

    let start = std::time::Instant::now();
    let mut failed = false;
    if self_validate {
        let results = ipra_fuzz::self_validate(&opts)?;
        for r in &results {
            println!(
                "self-validate: {} injected at seed {:#x}, detected, reduced {} -> {} module(s)",
                r.class.name(),
                r.seed,
                r.original_modules,
                r.sources.len()
            );
            if let Some(p) = &r.corpus_path {
                println!("  saved {}", p.display());
            }
        }
    }
    if !self_validate || iters.is_some() || opts.time_budget.is_some() {
        let outcome = ipra_fuzz::fuzz(&opts);
        print!("{}", outcome.render());
        failed = outcome.total_failures > 0;
        if let Some(path) = metrics_out {
            let mut counters = BTreeMap::new();
            counters.insert("fuzz.iterations".to_string(), outcome.iterations as u64);
            counters.insert("fuzz.failures".to_string(), outcome.total_failures as u64);
            write(&path, &ipra_telemetry::metrics_json_from(&counters))?;
            eprintln!("metrics: -> {path}");
        }
    }
    eprintln!("fuzz: {:.1}s", start.elapsed().as_secs_f64());
    if failed {
        return Err("the fuzzer found failures (see report above)".into());
    }
    Ok(())
}

/// Renders the per-phase wall-clock and cache hit/miss table for one build
/// (the `disk` column counts hits served from `--cache-dir`).
fn phase_table(b: &ipra_driver::BuildReport) -> String {
    let mut out = String::new();
    let row = |name: &str, secs: f64, phase: Option<&ipra_driver::PhaseStats>| {
        let fmt_opt = |v: Option<usize>| v.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        format!(
            "  {:<8} {:>10.3}ms {:>6} {:>7} {:>6}\n",
            name,
            secs * 1e3,
            fmt_opt(phase.map(|p| p.hits)),
            fmt_opt(phase.map(|p| p.misses)),
            fmt_opt(phase.map(|p| p.disk_hits)),
        )
    };
    out.push_str("  phase          time   hits  misses   disk\n");
    out.push_str(&row("phase1", b.phase1.seconds, Some(&b.phase1)));
    out.push_str(&row("analyze", b.analyze.seconds, Some(&b.analyze)));
    out.push_str(&row("phase2", b.phase2.seconds, Some(&b.phase2)));
    out.push_str(&row("link", b.link_seconds, None));
    out.push_str(&row("total", b.total_seconds, None));
    if b.recompiled.is_empty() {
        out.push_str("  recompiled: (none)\n");
    } else {
        out.push_str(&format!("  recompiled: {}\n", b.recompiled.join(" ")));
    }
    out
}

fn build_cmd(mut a: Args) -> Result<(), String> {
    let config = config(&mut a, "--config").unwrap_or(PaperConfig::L2);
    let target = target(&mut a);
    let out = a.path("-o", "<prog.vx>");
    let cache_dir = a.path("--cache-dir", "DIR");
    let jobs = a.jobs().unwrap_or(1);
    let repeat = a.value("--repeat", "N", parsed).map_or(1, |n: usize| n.max(1));
    let verify = a.switch("--verify");
    let run = a.switch("--run");
    let stats = a.switch("--stats");
    let decisions_out = a.path("--decisions-out", "<decisions.json>");
    let trace_out = a.path("--trace-out", "<t.json>");
    let metrics_out = a.path("--metrics-out", "<m.json>");
    let input = input(&mut a);
    let srcs = a.positionals("<src.cmin>...");
    a.finish();
    if srcs.is_empty() {
        return Err("build needs at least one source file".into());
    }
    let sources = read_sources(&srcs)?;
    // One cache across every repetition: iteration 1 is the cold build,
    // the rest demonstrate the paper's recompilation story (§3) — pure
    // cache hits when nothing changed. With --cache-dir the cache is also
    // persistent, so the story holds across separate cminc processes.
    let telemetry = (trace_out.is_some() || metrics_out.is_some()).then(Telemetry::new);
    let mut cache = artifacts::open_cache(cache_dir.as_deref())?;
    let mut program = None;
    for i in 0..repeat {
        let opts = CompileOptions {
            jobs,
            trace: decisions_out.is_some(),
            telemetry: telemetry.clone(),
            target,
            ..CompileOptions::default()
        };
        let built = compile(&sources, config, &input, &opts, &mut cache)?;
        if stats && repeat > 1 && i + 1 < repeat {
            eprintln!("build {} of {repeat}:", i + 1);
            eprint!("{}", phase_table(&built.build));
        }
        program = Some(built);
    }
    let program = program.expect("repeat >= 1");
    let s = &program.stats;
    eprintln!(
        "build: config {config}; {} nodes, {}/{} webs colored, {} clusters",
        s.nodes, s.webs_colored, s.webs_total, s.clusters
    );
    if let Some(path) = &decisions_out {
        let t = program.trace.as_ref().expect("tracing was requested");
        write(path, &t.to_json())?;
        eprintln!("decisions: {} events -> {path}", t.events.len());
    }
    if let Some(out) = out {
        artifacts::write_executable(&out, &program.exe)?;
        eprintln!("build: {} instructions -> {out}", program.exe.code_len());
    }
    if stats {
        if repeat > 1 {
            eprintln!("build {repeat} of {repeat}:");
        }
        eprint!("{}", phase_table(&program.build));
    }
    if verify {
        report_verify(&ipra_driver::verify_program(&program))?;
    }
    if run {
        // With a collector attached, the run also profiles so `sim.*`
        // counters (cycles, memory traffic, per-opcode-class retirement)
        // land in the exported metrics. Profiling is pure observation.
        let opts = vpr::SimOptions {
            input: input.clone(),
            profile: telemetry.is_some(),
            ..vpr::SimOptions::default()
        };
        let tele = telemetry.as_ref();
        let run_span = ipra_telemetry::span(tele, "sim", "run");
        let result = vpr::run_with(&program.exe, &opts).map_err(|e| e.to_string())?;
        run_span.finish();
        if let Some(t) = tele {
            for (k, n) in sim_counters(&program.exe, &result) {
                t.add(&k, n);
            }
        }
        for v in &result.output {
            println!("{v}");
        }
        eprintln!("exit: {}", result.exit);
        if stats {
            let st = &result.stats;
            eprintln!(
                "cycles: {}  singleton refs: {}  calls: {}",
                st.cycles,
                st.singleton_refs(),
                st.calls
            );
        }
    }
    if let Some(t) = &telemetry {
        if let Some(path) = &trace_out {
            write(path, &t.chrome_trace_json())?;
            eprintln!("trace-out: {} span events -> {path}", t.event_count());
        }
        if let Some(path) = &metrics_out {
            write(path, &t.metrics_json())?;
            eprintln!("metrics: {} counters -> {path}", t.counters().len());
        }
    }
    Ok(())
}

/// `cminc profile`: run a program (an existing `.vx`, or sources compiled
/// on the spot) with per-pc execution counts, and print symbolized
/// per-procedure, hot-block and opcode-class tables. The profile is
/// recorded identically by both engines, and every table totals to the
/// run's cycle count exactly.
fn profile_cmd(mut a: Args) -> Result<(), String> {
    let config = config(&mut a, "--config").unwrap_or(PaperConfig::L2);
    let input = input(&mut a);
    let engine = engine(&mut a);
    let top = a.value("--top", "N", parsed).unwrap_or(10);
    let json = a.path("--json", "<out.json>");
    let files = a.positionals("<prog.vx | src.cmin...>");
    a.finish();
    if files.is_empty() {
        return Err("profile needs an executable or source files".into());
    }
    // Inputs go by their header: a lone executable runs as is, any other
    // artifact is an error, and a file without a header is a source.
    let mut sources = Vec::new();
    let mut exe = None;
    for path in &files {
        let text = read(path)?;
        match ipra_artifact::sniff(&text) {
            Err(ipra_artifact::ArtifactError::BadMagic) => {
                sources.push(SourceFile::new(module_name(path), text));
            }
            Ok((ipra_artifact::ArtifactKind::Executable, ..)) if files.len() == 1 => {
                exe = Some(artifacts::decode_executable(path, &text)?);
            }
            Ok((kind, ..)) => {
                return Err(format!(
                    "{path}: {kind} artifact; profile takes one executable or source files"
                ))
            }
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    let exe = match exe {
        Some(exe) => exe,
        None => {
            let opts = CompileOptions::default();
            compile(&sources, config, &input, &opts, &mut CompilationCache::new())?.exe
        }
    };
    let opts = vpr::SimOptions { input, profile: true, engine, ..vpr::SimOptions::default() };
    let result = vpr::run_with(&exe, &opts).map_err(|e| e.to_string())?;
    let profile = result.profile.as_ref().expect("profiling was requested");
    if profile.total() != result.stats.cycles {
        return Err("internal error: profile total diverges from cycle count".into());
    }

    let mut procs = profile.proc_table(&exe);
    procs.sort_by(|a, b| b.self_cycles.cmp(&a.self_cycles).then_with(|| a.name.cmp(&b.name)));
    let blocks = {
        let mut bs = profile.block_counts(&exe);
        bs.retain(|b| b.cycles > 0);
        bs.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.start.cmp(&b.start)));
        bs
    };
    let histogram = profile.opcode_histogram(&exe);

    if let Some(path) = json {
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::Str("ipra-profile-v1".to_string())),
            ("total_cycles".to_string(), Value::UInt(result.stats.cycles)),
            ("procs".to_string(), procs.serialize()),
            ("blocks".to_string(), blocks.serialize()),
            ("opcode_histogram".to_string(), ipra_telemetry::counters_value(&histogram)),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("serialize");
        s.push('\n');
        write(&path, &s)?;
        eprintln!("profile: -> {path}");
    }

    let total = result.stats.cycles.max(1);
    println!("profile: {} cycles, exit {}", result.stats.cycles, result.exit);
    println!("\nprocedures (self cycles):");
    for row in procs.iter().take(top) {
        println!(
            "  {:<20} {:>12} {:>6.2}%",
            row.name,
            row.self_cycles,
            row.self_cycles as f64 * 100.0 / total as f64
        );
    }
    println!("\nhot blocks:");
    for b in blocks.iter().take(top) {
        println!(
            "  {:<20} pc {:>5}..{:<5} {:>10} entries {:>12} cycles {:>6.2}%",
            b.sym.as_deref().unwrap_or("?"),
            b.start,
            b.end,
            b.entries,
            b.cycles,
            b.cycles as f64 * 100.0 / total as f64
        );
    }
    println!("\ninstructions retired by opcode class:");
    for (class, n) in &histogram {
        println!("  {:<8} {:>12} {:>6.2}%", class, n, *n as f64 * 100.0 / total as f64);
    }
    Ok(())
}

/// `cminc serve`: run `cmind`, the build-service daemon, until a client
/// sends a shutdown request. All sessions share one sharded, optionally
/// persistent compilation cache, whose memory holds what each shard's
/// recent builds used.
fn serve_cmd(mut a: Args) -> Result<(), String> {
    let socket = a.path("--socket", "PATH");
    let cache_dir = a.path("--cache-dir", "DIR");
    let jobs = a.jobs().unwrap_or(1);
    let shards = a.value("--shards", "N", parsed).unwrap_or(4);
    let request_timeout =
        a.value("--timeout", "SECS", |v| parsed(v).map(std::time::Duration::from_secs));
    a.finish();
    let socket = socket.ok_or("serve needs --socket PATH")?;
    let opts = ipra_daemon::ServerOptions {
        socket: socket.clone().into(),
        jobs,
        cache_dir: cache_dir.map(Into::into),
        shards,
        request_timeout,
    };
    let server = ipra_daemon::Server::start(opts).map_err(|e| format!("serve: {socket}: {e}"))?;
    eprintln!("cmind: listening on {socket}");
    server.wait();
    eprintln!("cmind: drained, exiting");
    Ok(())
}

/// `cminc remote ping|stats|shutdown`: talk to a running `cmind`.
fn remote_cmd(sub: &str, mut a: Args) -> Result<(), String> {
    let socket = a.path("--socket", "PATH");
    a.finish();
    let socket = socket.ok_or("remote needs --socket PATH")?;
    let mut client = connect_daemon(&socket)?;
    match sub {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
        }
        "stats" => {
            let counters = client.stats().map_err(|e| e.to_string())?;
            let map: BTreeMap<String, u64> =
                counters.into_iter().map(|c| (c.name, c.value)).collect();
            print!("{}", ipra_telemetry::metrics_json_from(&map));
        }
        _ => {
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("cmind at {socket}: shutting down");
        }
    }
    Ok(())
}

fn connect_daemon(socket: &str) -> Result<ipra_daemon::Client, String> {
    ipra_daemon::Client::connect(socket).map_err(|e| e.to_string())
}

/// `cminc remote build`: build on a running `cmind`, falling back to a
/// local compile when the daemon is unreachable, so scripts can use it
/// unconditionally.
fn remote_build(mut a: Args) -> Result<(), String> {
    let socket = a.path("--socket", "PATH");
    let config = config(&mut a, "--config").unwrap_or(PaperConfig::L2);
    let out = a.path("-o", "<prog.vx>");
    let input = input(&mut a);
    let srcs = a.positionals("<src.cmin>...");
    a.finish();
    let socket = socket.ok_or("remote needs --socket PATH")?;
    if srcs.is_empty() {
        return Err("remote build needs at least one source file".into());
    }
    let sources = read_sources(&srcs)?;
    let vx = match connect_daemon(&socket) {
        Ok(mut client) => {
            let request = ipra_daemon::BuildRequest {
                config: config.to_string(),
                optimize: true,
                sources,
                training_input: input,
            };
            let built = client.build(&request).map_err(|e| e.to_string())?;
            eprintln!(
                "cmind: {} modules, {} recompiled{}",
                request.sources.len(),
                built.recompiled.len(),
                if built.coalesced { " (coalesced with an identical in-flight build)" } else { "" }
            );
            built.vx
        }
        Err(e) => {
            // The daemon being down must not break builds: degrade to a
            // local build of the same inputs through the daemon's own build
            // path — byte-identical output by construction.
            eprintln!("cminc: daemon unavailable ({e}); building locally");
            let opts = CompileOptions::default();
            let shard = std::sync::Mutex::new(CompilationCache::new());
            ipra_driver::compile_artifact(&sources, config, &input, &opts, &shard)
                .map_err(|e| e.to_string())?
                .map_err(|e| format!("training run trapped: {e}"))?
                .vx
        }
    };
    match out {
        Some(path) => write(&path, &vx),
        None => Ok(()),
    }
}
