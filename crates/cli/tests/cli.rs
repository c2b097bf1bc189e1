//! End-to-end test of the `cminc` command-line driver: the full file-based
//! Figure 1 pipeline — `c` per module, analyze, `c --dir` per module, link,
//! run — plus the profile round trip, the one-shot `build`, and the
//! per-command flag checking.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cminc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cminc"))
}

/// Runs `cminc <args>` in `dir` and asserts that it succeeded.
fn ok(dir: &Path, args: &[&str]) -> Output {
    let out = cminc().current_dir(dir).args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cminc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const LIB_SRC: &str = "static int calls;
int total;
int add_in(int v) { calls = calls + 1; total = total + v; return total; }
int call_count() { return calls; }";

const MAIN_SRC: &str = "extern int total;
extern int add_in(int);
extern int call_count();
int main() {
    int v = in();
    while (v >= 0) { add_in(v); v = in(); }
    out(total);
    out(call_count());
    return total;
}";

/// Stages `counterlib.cmin` + `app.cmin` in `dir` through the artifact
/// files under `config` (`c` per module, `analyze`, `c --dir`, `link`) into
/// `prog.vx`. The second phase runs in reverse module order, which the
/// paper's design explicitly allows.
fn staged_build(dir: &Path, config: &str) {
    for src in ["counterlib.cmin", "app.cmin"] {
        ok(dir, &["c", src]);
    }
    ok(dir, &["analyze", "counterlib.csum", "app.csum", "--config", config, "-o", "program.cdir"]);
    for stem in ["app", "counterlib"] {
        let (src, obj) = (format!("{stem}.cmin"), format!("{stem}.vo"));
        ok(dir, &["c", &src, "--dir", "program.cdir", "-o", &obj]);
    }
    ok(dir, &["link", "counterlib.vo", "app.vo", "-o", "prog.vx"]);
}

#[test]
fn file_based_pipeline_end_to_end() {
    let dir = tempdir("pipeline");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    staged_build(&dir, "C");
    assert!(dir.join("counterlib.csum").exists());
    assert!(dir.join("app.vo").exists());
    let db_text = std::fs::read_to_string(dir.join("program.cdir")).unwrap();
    assert!(db_text.contains("add_in"));

    let out = ok(
        &dir,
        &["run", "prog.vx", "--input", "5 10 15", "--stats", "--profile-out", "prof.json"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim().lines().collect::<Vec<_>>(), vec!["30", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cycles:"), "{stderr}");

    // Profile file exists and names the hot procedure.
    let prof = std::fs::read_to_string(dir.join("prof.json")).unwrap();
    assert!(prof.contains("add_in"));

    // Profile-fed analysis (config F) consumes it.
    ok(
        &dir,
        &[
            "analyze",
            "counterlib.csum",
            "app.csum",
            "--config",
            "F",
            "--profile",
            "prof.json",
            "-o",
            "program_f.cdir",
        ],
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `c -o sub/m.vo` leaves the summary beside the object, where `lib`
/// looks for it.
#[test]
fn c_writes_the_summary_beside_its_object() {
    let dir = tempdir("csum-beside");
    write(&dir, "counterlib.cmin", LIB_SRC);
    std::fs::create_dir_all(dir.join("out")).unwrap();
    ok(&dir, &["c", "counterlib.cmin", "-o", "out/counterlib.vo"]);
    assert!(dir.join("out/counterlib.csum").exists());
    assert!(!dir.join("counterlib.csum").exists(), "no summary in the working directory");
    ok(&dir, &["lib", "out/counterlib.vo", "-o", "counter.vlib"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inputs are recognized by their artifact header: a bare-JSON file is a
/// clean error naming the path, whatever its extension, and never a panic.
#[test]
fn bare_json_inputs_are_artifact_errors() {
    let dir = tempdir("bare-json");
    for name in ["m.csum", "m.vo", "p.cdir", "p.vx", "m.json"] {
        write(&dir, name, "{\"name\": \"m\", \"functions\": []}");
    }
    for args in [
        vec!["analyze", "m.csum", "-o", "out.cdir"],
        vec!["analyze", "m.json", "-o", "out.cdir"],
        vec!["link", "m.vo", "-o", "out.vx"],
        vec!["link", "m.json", "-o", "out.vx"],
        vec!["verify", "m.vo"],
        vec!["verify", "m.json"],
        vec!["run", "p.vx"],
        vec!["run", "m.json"],
    ] {
        let out = cminc().current_dir(&dir).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{}: not an artifact", args[1])), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_one_shot_matches_pipeline() {
    let dir = tempdir("build");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let out = cminc()
        .current_dir(&dir)
        .args([
            "build",
            "counterlib.cmin",
            "app.cmin",
            "--config",
            "C",
            "--run",
            "--stats",
            "--input",
            "1 2 3 4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "build: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim().lines().collect::<Vec<_>>(), vec!["10", "4"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_is_deterministic_and_names_the_decisions() {
    let dir = tempdir("explain");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let run = |symbol: &str| {
        cminc()
            .current_dir(&dir)
            .args(["explain", symbol, "counterlib.cmin", "app.cmin", "--config", "C"])
            .output()
            .unwrap()
    };
    let out = run("total");
    assert!(out.status.success(), "explain: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("analyzer decisions mentioning `total`"), "{text}");
    assert!(text.contains("formed for global `total`"), "{text}");
    // Promotions land on callee-saves registers, rendered with the
    // target's ABI names (`s0`, `s1`, …) rather than raw indices.
    assert!(text.contains("promoted to s"), "{text}");
    assert_eq!(out.stdout, run("total").stdout, "explain must be deterministic");
    let missing = run("no_such_symbol");
    assert!(missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stdout).contains("no analyzer decisions"));

    // The saved-decisions path renders the same chain.
    let out = cminc()
        .current_dir(&dir)
        .args([
            "build",
            "counterlib.cmin",
            "app.cmin",
            "--config",
            "C",
            "--decisions-out",
            "t.json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "build --decisions-out: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let from_file = cminc()
        .current_dir(&dir)
        .args(["explain", "total", "--decisions", "t.json"])
        .output()
        .unwrap();
    assert!(from_file.status.success());
    assert_eq!(String::from_utf8_lossy(&from_file.stdout), text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A saved decisions file names registers for the target it was traced
/// for, with or without a matching `--target`, exactly as explaining the
/// sources for that target does; a `--target` that contradicts the file is
/// an error naming both.
#[test]
fn explain_names_registers_for_the_saved_traces_target() {
    let dir = tempdir("explain-target");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let build = ["build", "counterlib.cmin", "app.cmin", "--config", "C", "--decisions-out"];
    ok(&dir, &[&build[..], &["rv.json", "--target", "rv32"]].concat());
    ok(&dir, &[&build[..], &["vpr.json"]].concat());
    let stdout = |args: &[&str]| String::from_utf8(ok(&dir, args).stdout).unwrap();
    let explain = ["explain", "total", "counterlib.cmin", "app.cmin", "--config", "C"];
    let compiled = stdout(&[&explain[..], &["--target", "rv32"]].concat());
    assert!(compiled.contains("promoted to s"), "{compiled}");
    for extra in [&[][..], &["--target", "rv32"][..]] {
        let args = [&["explain", "total", "--decisions", "rv.json"][..], extra].concat();
        assert_eq!(stdout(&args), compiled, "{args:?}");
    }
    assert_eq!(stdout(&["explain", "total", "--decisions", "vpr.json"]), stdout(&explain));
    // A VPR trace names no target, so its bytes are what they were.
    assert!(!std::fs::read_to_string(dir.join("vpr.json")).unwrap().contains("target"));

    let out = cminc()
        .current_dir(&dir)
        .args(["explain", "total", "--decisions", "rv.json", "--target", "vpr"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("rv32") && stderr.contains("--target vpr"), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_is_byte_deterministic_and_sums() {
    let dir = tempdir("report");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let run = |json: &str| {
        cminc()
            .current_dir(&dir)
            .args([
                "report",
                "counterlib.cmin",
                "app.cmin",
                "--config-b",
                "C",
                "--input",
                "5 10 15",
                "--json",
                json,
            ])
            .output()
            .unwrap()
    };
    let out = run("r1.json");
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(table.contains("per-procedure breakdown: L2 → C"), "{table}");
    assert!(table.contains("add_in"), "{table}");
    assert!(table.contains("cycles"), "{table}");
    let again = run("r2.json");
    assert_eq!(out.stdout, again.stdout, "report table must be deterministic");
    let j1 = std::fs::read(dir.join("r1.json")).unwrap();
    let j2 = std::fs::read(dir.join("r2.json")).unwrap();
    assert_eq!(j1, j2, "report JSON must be byte-identical run to run");
    let json = String::from_utf8(j1).unwrap();
    assert!(json.contains("\"config_b\": \"C\""), "{json}");
    assert!(json.contains("\"reasons\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_stats_json_dumps_exact_attribution() {
    let dir = tempdir("statsjson");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    let out = cminc()
        .current_dir(&dir)
        .args(["build", "counterlib.cmin", "app.cmin", "--config", "C"])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Rebuild through the file pipeline to get an exe on disk.
    staged_build(&dir, "C");
    let out = cminc()
        .current_dir(&dir)
        .args(["run", "prog.vx", "--input", "5 10 15", "--stats-json", "s.json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
    let dump = std::fs::read_to_string(dir.join("s.json")).unwrap();
    for key in ["funcs", "call_counts", "call_edges", "attribution", "inclusive_cycles", "add_in"] {
        assert!(dump.contains(key), "missing `{key}` in {dump}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let dir = tempdir("errors");
    let bad = write(&dir, "bad.cmin", "int f( {");
    let out = cminc().current_dir(&dir).args(["c", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad"));

    let out = cminc().args(["analyze", "-o", "x.cdir"]).output().unwrap();
    assert!(!out.status.success());

    let out = cminc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_b_requires_profile() {
    let dir = tempdir("needprof");
    write(&dir, "m.cmin", "int main() { return 0; }");
    ok(&dir, &["c", "m.cmin"]);
    let out = cminc()
        .current_dir(&dir)
        .args(["analyze", "m.csum", "--config", "B", "-o", "x.cdir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `profile` goes by the artifact header, not the file name: an executable
/// under any name runs as is, a source under any name is compiled, and any
/// other artifact is an error naming its kind.
#[test]
fn profile_reads_the_header_not_the_suffix() {
    let dir = tempdir("profile-header");
    write(&dir, "counterlib.cmin", LIB_SRC);
    write(&dir, "app.cmin", MAIN_SRC);
    staged_build(&dir, "C");
    std::fs::copy(dir.join("prog.vx"), dir.join("prog.bin")).unwrap();
    let from_vx = ok(&dir, &["profile", "prog.vx", "--input", "5 10 15"]);
    let from_bin = ok(&dir, &["profile", "prog.bin", "--input", "5 10 15"]);
    assert_eq!(from_vx.stdout, from_bin.stdout);
    write(&dir, "solo.src", "int main() { out(7); return 0; }");
    let out = ok(&dir, &["profile", "solo.src"]);
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("profile: "));
    let out = cminc().current_dir(&dir).args(["profile", "app.vo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("app.vo: object artifact"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command (each `remote` subcommand included): a plausible command
/// line, and a flag that only other commands take. The inputs need not
/// exist, since a bad flag is rejected before any file is read, and the
/// socket's directory does not exist either, so nothing can bind to it.
const COMMANDS: [(&[&str], &[&str], [&str; 2]); 17] = [
    (&["c"], &["m.cmin", "-o", "m.vo"], ["--config", "C"]),
    (&["lib"], &["m.vo", "-o", "l.vlib"], ["--target", "rv32"]),
    (&["objdump"], &["p.vx"], ["-o", "dump.txt"]),
    (&["analyze"], &["m.csum", "-o", "p.cdir"], ["--jobs", "2"]),
    (&["link"], &["m.vo", "-o", "p.vx"], ["--config", "C"]),
    (&["verify"], &["m.vo"], ["--target", "rv32"]),
    (&["run"], &["p.vx"], ["--shards", "9"]),
    (&["build"], &["m.cmin", "-o", "p.vx"], ["--engine", "ref"]),
    (&["profile"], &["p.vx", "--json", "p.json"], ["--metrics-out", "m.json"]),
    (&["explain"], &["g", "m.cmin"], ["--decisions-out", "d.json"]),
    (&["report"], &["m.cmin", "--config-b", "C", "--json", "r.json"], ["--config", "C"]),
    (&["fuzz"], &["--iters", "1", "--metrics-out", "f.json"], ["--top", "5"]),
    (&["serve"], &["--socket", "none/s.sock"], ["--config", "C"]),
    (
        &["remote", "build"],
        &["m.cmin", "--socket", "none/s.sock", "-o", "r.vx"],
        ["--target", "rv32"],
    ),
    (&["remote", "ping"], &["--socket", "none/s.sock"], ["--config", "C"]),
    (&["remote", "stats"], &["--socket", "none/s.sock"], ["-o", "stats.json"]),
    (&["remote", "shutdown"], &["--socket", "none/s.sock"], ["--input", "1"]),
];

/// Runs `cminc <cmd> <base> <bad>` in an empty directory, asserts that it
/// was rejected as a bad command line naming `bad[0]` having done nothing,
/// and returns the usage line it printed.
fn rejected(dir: &Path, cmd: &[&str], base: &[&str], bad: &[&str]) -> String {
    let out = cminc().current_dir(dir).args(cmd).args(base).args(bad).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let line = format!("{cmd:?} {bad:?}");
    assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(bad[0]), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line} printed before rejecting");
    assert_eq!(std::fs::read_dir(dir).unwrap().count(), 0, "{line} created a file");
    let usage = stderr.lines().find(|l| l.starts_with("usage: ")).unwrap_or_default();
    assert!(usage.starts_with(&format!("usage: cminc {}", cmd.join(" "))), "{line}: {stderr}");
    usage.to_string()
}

#[test]
fn bad_flags_exit_2_with_the_command_usage_before_any_io() {
    let dir = tempdir("bad-flags");
    for (cmd, base, foreign) in COMMANDS {
        rejected(&dir, cmd, base, &["--bogus"]);
        rejected(&dir, cmd, base, &foreign);
    }
    // A flag missing its value or with a value that does not parse.
    rejected(&dir, &["build"], &["m.cmin"], &["--config", "Z"]);
    rejected(&dir, &["run"], &["p.vx"], &["--input", "1 x"]);
    rejected(&dir, &["fuzz"], &[], &["--jobs"]);
    rejected(&dir, &["serve"], &["--socket", "none/s.sock"], &["--shards", "many"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flags a usage line names: `[-j|--jobs N]` names `-j` and `--jobs`.
fn flags_of(line: &str) -> BTreeSet<&str> {
    line.split(|c: char| c.is_whitespace() || "[]()|".contains(c))
        .filter(|w| w.len() > 1 && w.starts_with('-'))
        .collect()
}

/// Each command's usage line, made from the flags it declares, names the
/// same flags as its line of `cminc --help`, and every `--help` line is
/// some command's.
#[test]
fn help_synopsis_lists_exactly_the_declared_flags() {
    let help = ok(Path::new("."), &["--help"]);
    let help = String::from_utf8(help.stdout).unwrap();
    let synopsis: Vec<Vec<&str>> = help
        .lines()
        .filter(|l| l.starts_with("  cminc "))
        .map(|l| l.split_whitespace().collect())
        .collect();
    // `cminc remote ping|stats|shutdown ...` is the line of all three.
    let names = |words: &[&str], cmd: &[&str]| {
        let word = |i: usize| words.get(1 + i).copied().unwrap_or_default();
        cmd.iter().enumerate().all(|(i, c)| word(i).split('|').any(|w| w == *c))
    };
    let dir = tempdir("synopsis");
    for (cmd, base, _) in COMMANDS {
        let usage = rejected(&dir, cmd, base, &["--bogus"]);
        let line = synopsis.iter().find(|w| names(w, cmd)).expect("command listed in --help");
        assert_eq!(flags_of(&usage), flags_of(&line.join(" ")), "cminc {}", cmd.join(" "));
    }
    for words in &synopsis {
        assert!(
            COMMANDS.iter().any(|(cmd, ..)| names(words, cmd)),
            "`{}` has no case in COMMANDS",
            words.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
