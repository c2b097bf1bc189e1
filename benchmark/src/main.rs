//! `bench` — runs the benchmark.
//!
//! ```sh
//! # one run of one workload; the last stdout line is the JSON result
//! bench --workload cold-build --seed 1 --seconds 20 --trace 0
//! # every workload, each in a fresh child process, plus a traced run each
//! bench --seed 1 --runs 5 --out results.json --trace-out trace.json
//! # per-workload, per-metric verdicts between two results files
//! bench --compare base.json new.json
//! ```

use ipra_benchmark::harness::{RunConfig, Spec};
use ipra_benchmark::{report, trace, workloads};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Flags that take one value (`--compare` takes two).
const FLAGS: [&str; 7] = ["workload", "seed", "seconds", "trace", "out", "trace-out", "runs"];

/// Flag → value, from `--flag value` pairs.
fn parse_args() -> Result<BTreeMap<String, String>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        if name == "compare" {
            let base = it.next().ok_or("--compare needs BASE.json NEW.json")?;
            let new = it.next().ok_or("--compare needs BASE.json NEW.json")?;
            out.insert("compare".to_string(), format!("{base}\n{new}"));
            continue;
        }
        if !FLAGS.contains(&name) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    args: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

/// `--seconds`, which must be a positive, finite number of seconds.
fn window(args: &BTreeMap<String, String>, spec: &Spec) -> Result<f64, String> {
    let seconds = parsed(args, "seconds", spec.run_seconds)?;
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be positive, not {seconds}"))
    }
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    write_text(path, &(text + "\n"))
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    serde_json::from_str(&read_text(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload: prints metric lines, then the result line.
fn run_one(args: &BTreeMap<String, String>, spec: &Spec) -> Result<(), String> {
    let workload = args.get("workload").expect("dispatched on --workload");
    let seed = parsed(args, "seed", 1u64)?;
    let seconds = window(args, spec)?;
    let trace = match args.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
    };
    if !spec.workloads.contains(workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            spec.workloads
        ));
    }
    let cfg = RunConfig::new(workload, seed, seconds, trace);
    let out = workloads::run(&cfg, spec)?;
    out.check_complete(spec, trace)?;
    if let Some(path) = args.get("out") {
        write_json(Path::new(path), &report::detail(workload, seed, trace, &out, spec))?;
    }
    if let (Some(path), Some(rec)) = (args.get("trace-out"), &out.trace) {
        // One trace lane per workload, numbered in BENCHMARK.json order.
        let pid = spec.workloads.iter().position(|w| w == workload).map_or(0, |i| i + 1);
        write_text(Path::new(path), &trace::chrome_trace(&rec.chrome_events(pid)))?;
    }
    print!("{}", report::metric_lines(workload, &out, spec));
    println!("{}", report::result_line(&out, spec));
    Ok(())
}

/// Runs `bench` again as a child for one workload run; returns its detail.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
    trace_out: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let detail = scratch.join(format!("{workload}-{seed}-{}.json", u8::from(trace)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&detail)
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    print!("{}", String::from_utf8_lossy(&output.stdout));
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) exited with {}",
            output.status
        ));
    }
    read_json(&detail)
}

fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host description recorded with every results file.
fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".to_string()));
    let dirty = tool_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Value::Object(vec![
        ("nproc".to_string(), Value::UInt(nproc as u64)),
        ("jobs".to_string(), Value::UInt(workloads::JOBS as u64)),
        ("daemon_clients".to_string(), Value::UInt(workloads::CLIENTS as u64)),
        ("rustc".to_string(), text(tool_output("rustc", &["-V"]))),
        ("git_head".to_string(), text(tool_output("git", &["rev-parse", "HEAD"]))),
        ("git_dirty".to_string(), dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// Every workload: `--runs` untraced runs (seeds `seed`, `seed+1`, …)
/// and one traced run, each in a fresh process.
fn run_suite(args: &BTreeMap<String, String>, spec: &Spec) -> Result<bool, String> {
    let seed = parsed(args, "seed", 1u64)?;
    let seconds = window(args, spec)?;
    let runs = parsed(args, "runs", 5u64)?.max(1);
    let scratch = PathBuf::from(".bench_work").join(format!("suite-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut per_workload = Vec::new();
    let mut events = Vec::new();
    let mut all_correct = true;
    for w in &spec.workloads {
        let mut details = Vec::new();
        for r in 0..runs {
            details.push(child(w, seed.wrapping_add(r), seconds, false, &scratch, None)?);
        }
        let trace_file = scratch.join(format!("{w}-trace.json"));
        let traced = child(
            w,
            seed,
            seconds,
            true,
            &scratch,
            args.contains_key("trace-out").then_some(&*trace_file),
        )?;
        if args.contains_key("trace-out") {
            events.extend(trace::event_lines(&read_text(&trace_file)?));
        }
        all_correct &= details
            .iter()
            .chain([&traced])
            .all(|d| matches!(d.get("failed"), Some(Value::UInt(0) | Value::Int(0))));
        per_workload.push((
            w.clone(),
            Value::Object(vec![
                ("end_to_end".to_string(), report::across_runs(&details, spec)),
                ("per_layer".to_string(), traced.get("metrics").cloned().unwrap_or(Value::Null)),
                ("runs".to_string(), Value::Array(details)),
                ("traced_run".to_string(), traced),
            ]),
        ));
    }
    let results = Value::Object(vec![
        ("schema".to_string(), Value::Str("ipra-bench-results-v1".to_string())),
        ("host".to_string(), host()),
        ("seed".to_string(), Value::UInt(seed)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("runs".to_string(), Value::UInt(runs)),
        ("workloads".to_string(), Value::Object(per_workload)),
    ]);
    if let Some(path) = args.get("out") {
        write_json(Path::new(path), &results)?;
        println!("results -> {path}");
    }
    if let Some(path) = args.get("trace-out") {
        write_text(Path::new(path), &trace::chrome_trace(&events))?;
        println!("trace -> {path}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(all_correct)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let result = parse_args().and_then(|args| {
        if let Some(pair) = args.get("compare") {
            let (base, new) = pair.split_once('\n').expect("two compare paths");
            let (table, regressed) =
                report::compare(&read_json(Path::new(base))?, &read_json(Path::new(new))?, &spec);
            print!("{table}");
            Ok(!regressed)
        } else if args.contains_key("workload") {
            run_one(&args, &spec).map(|()| true)
        } else {
            run_suite(&args, &spec)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
