//! Simulated memory costs only the pages a run touches.
//!
//! Every run gets `SimOptions::mem_words` words that read zero (16 MiB by
//! default), but a small program touches a few pages of them: the globals
//! and the top of the stack. This test makes 20 default-sized runs on each
//! engine and checks the process's peak resident set (`VmHWM`) grows by
//! less than half of one simulated memory. Memory that is zero-filled
//! eagerly fails it: when each 16 MiB block is cleared in full, all of it
//! becomes resident.
//!
//! The file holds a single test so that it runs in a process of its own:
//! no other test's allocations move the peak. It runs where `vpr` maps
//! simulated memory per run (`crates/vpr/src/memory.rs`).
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
))]

use ipra_driver::{compile, CompileOptions, SourceFile};
use vpr::program::DEFAULT_MEM_WORDS;
use vpr::{Engine, SimOptions};

/// The process's peak resident set size, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmHWM value in kB")
}

#[test]
fn default_sized_runs_keep_untouched_memory_out_of_the_resident_set() {
    let counter = "static int hits;\n\
                   int bump() { hits = hits + 1; return hits; }\n\
                   int peek() { return hits; }\n";
    let app = "extern int bump();\n\
               extern int peek();\n\
               int main() { for (int i = 0; i < 100; i = i + 1) { bump(); } out(peek()); return 0; }\n";
    let sources = [SourceFile::new("counter", counter), SourceFile::new("app", app)];
    let program = compile(&sources, &CompileOptions::default()).expect("program compiles");

    let before = peak_rss_kib();
    for engine in [Engine::Fast, Engine::Reference] {
        let opts = SimOptions { engine, ..SimOptions::default() };
        assert_eq!(opts.mem_words, DEFAULT_MEM_WORDS);
        for _ in 0..20 {
            let r = vpr::run_with(&program.exe, &opts).expect("program runs");
            assert_eq!(r.output, vec![100]);
        }
    }
    let grown = peak_rss_kib() - before;
    let half_memory_kib = (DEFAULT_MEM_WORDS * std::mem::size_of::<i64>() / 1024 / 2) as u64;
    assert!(
        grown < half_memory_kib,
        "peak RSS grew by {grown} KiB over 40 runs (bound {half_memory_kib} KiB)"
    );
}
