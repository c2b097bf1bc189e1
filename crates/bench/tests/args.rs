//! Every bench binary rejects a bad command line with exit status 2 and a
//! usage line naming the flag, before it measures anything.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_measuring() {
    let cases: [(&str, &[&str], &str); 8] = [
        (env!("CARGO_BIN_EXE_compile_bench"), &["--modlues", "8", "--check"], "`--modlues`"),
        (env!("CARGO_BIN_EXE_compile_bench"), &["--modules"], "--modules needs a value"),
        (env!("CARGO_BIN_EXE_compile_bench"), &["--modules", "8,x"], "`8,x` for --modules"),
        (env!("CARGO_BIN_EXE_compile_bench"), &["--sim-json", "BENCH_sim.json"], "`--sim-json`"),
        (env!("CARGO_BIN_EXE_sim_bench"), &["--chekc"], "`--chekc`"),
        (env!("CARGO_BIN_EXE_sim_bench"), &["--min-speedup", "1.5"], "`--min-speedup`"),
        (env!("CARGO_BIN_EXE_daemon_bench"), &["--clients", "4"], "`--clients`"),
        (env!("CARGO_BIN_EXE_tables"), &["--table", "6"], "`6` for --table"),
    ];
    for (bin, args, named) in cases {
        let out = Command::new(bin).args(args).output().expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("\nusage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed before rejecting");
    }
}
