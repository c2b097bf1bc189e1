//! Deterministic N-module programs for compile-time benchmarking.
//!
//! The paper's recompilation argument (§3) only bites at scale: with dozens
//! of modules, re-running the compiler second phase everywhere after a
//! one-line edit dwarfs the analyzer's own cost. [`scaled_program`] builds
//! a program of any module count with the cross-module structure the
//! analyzer cares about — shared globals referenced by neighbors, statics,
//! a cross-module call chain — while staying cheap to *run* (bounded loops,
//! call depth linear in the module count).
//!
//! [`perturb`] regenerates one module at a new tune value, changing only a
//! function-body constant: the module's IR changes but its summary record
//! does not, so the program database is unchanged and an incremental driver
//! should re-run codegen for that module alone. This is the workload behind
//! `BENCH_compile.json` and the cache-correctness test suite.
//!
//! [`long_program`] scales the other axis: one procedure of any length,
//! the input on which the compiler phases' cost per procedure shows.

use crate::SourceFile;
use std::fmt::Write;

/// Generates the source text of module `i` of an `n`-module scaled
/// program. `tune` perturbs one constant in a leaf function body —
/// IR-visible, summary-invisible.
///
/// # Panics
///
/// Panics when `i >= n` or `n == 0`.
pub fn scaled_module(i: usize, n: usize, tune: i64) -> SourceFile {
    scaled_module_with_outer(i, n, tune, 4)
}

/// [`scaled_module`] with a configurable `main` loop count: the same
/// cross-module structure, but `main` drives the call chain `outer` times
/// instead of 4. With a large `outer` the program's *execution* scales
/// into the millions of instructions while its compile cost stays put —
/// the workload behind `sim_bench` / `BENCH_sim.json`, where per-run
/// setup must be noise against the dispatch loop being measured.
///
/// # Panics
///
/// Panics when `i >= n` or `n == 0`.
pub fn scaled_module_with_outer(i: usize, n: usize, tune: i64, outer: i64) -> SourceFile {
    assert!(n > 0 && i < n, "module index {i} out of range for {n} modules");
    let mut out = String::new();
    if i > 0 {
        let _ = writeln!(out, "extern int w{};", i - 1);
        let _ = writeln!(out, "extern int s{}_entry(int);", i - 1);
    }
    let _ = writeln!(out, "int w{i} = {};", i as i64 + 1);
    let _ = writeln!(out, "static int c{i} = 1;");
    // A loop-heavy worker: hot global refs give the analyzer promotion
    // candidates in every module.
    let _ = writeln!(out, "int s{i}_work(int x) {{");
    let _ = writeln!(out, "    c{i} = c{i} + 1;");
    let _ = writeln!(out, "    for (int j = 0; j < 3; j = j + 1) {{ w{i} = w{i} + x + j; }}");
    if i > 0 {
        let _ = writeln!(out, "    return w{i} + c{i} + w{};", i - 1);
    } else {
        let _ = writeln!(out, "    return w{i} + c{i};");
    }
    let _ = writeln!(out, "}}");
    // The tunable leaf: editing `tune` changes this module's IR but not
    // its summary (same refs, same calls, same frequencies).
    let _ = writeln!(out, "int s{i}_tune() {{ return {}; }}", 1000 + i as i64 + tune);
    // The entry chains into the previous module, building one long
    // cross-module call path from main down to module 0.
    let _ = writeln!(out, "int s{i}_entry(int x) {{");
    if i > 0 {
        let _ = writeln!(out, "    return s{i}_work(x) + s{}_entry(x + 1) + s{i}_tune();", i - 1);
    } else {
        let _ = writeln!(out, "    return s{i}_work(x) + s{i}_tune();");
    }
    let _ = writeln!(out, "}}");
    // main lives in module 0 and drives the whole chain from the top.
    if i == 0 {
        if n > 1 {
            let _ = writeln!(out, "extern int s{}_entry(int);", n - 1);
        }
        let _ = writeln!(out, "int main() {{");
        let _ = writeln!(out, "    int t = 0;");
        let _ = writeln!(
            out,
            "    for (int k = 0; k < {outer}; k = k + 1) {{ t = t + s{}_entry(k); }}",
            n - 1
        );
        let _ = writeln!(out, "    out(t);");
        let _ = writeln!(out, "    out(w0);");
        let _ = writeln!(out, "    return 0;");
        let _ = writeln!(out, "}}");
    }
    SourceFile::new(format!("s{i}"), out)
}

/// A deterministic `n`-module program (all tune values zero).
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn scaled_program(n: usize) -> Vec<SourceFile> {
    (0..n).map(|i| scaled_module(i, n, 0)).collect()
}

/// A deterministic `n`-module program whose `main` loop runs `outer`
/// times — the execution-scaled variant for simulator benchmarking.
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn scaled_sim_program(n: usize, outer: i64) -> Vec<SourceFile> {
    (0..n).map(|i| scaled_module_with_outer(i, n, 0, outer)).collect()
}

/// A one-module program whose `main` is a single procedure of
/// `statements` statements: the workload that exposes how the compiler's
/// two phases grow with the length of one procedure (the scaled programs
/// keep every procedure short).
///
/// `main` reads `a`, `b` and `i` with `in()`, then alternates
/// `a = a * k + b;` and `b = b + a - i;` with `k` cycling through 3..=9.
/// Every 16th statement is instead a small `for` loop, so the procedure
/// has loop depths to weigh and a liveness fixpoint that iterates. The
/// program prints `a` and `b`.
pub fn long_program(statements: usize) -> Vec<SourceFile> {
    let mut out = String::from("int main() {\n    int a = in();\n    int b = in();\n");
    out.push_str("    int i = in();\n");
    for s in 0..statements {
        let _ = if s % 16 == 15 {
            writeln!(out, "    for (int j = 0; j < 3; j = j + 1) {{ b = b + a * j; }}")
        } else if s % 2 == 0 {
            writeln!(out, "    a = a * {} + b;", 3 + (s / 2) % 7)
        } else {
            writeln!(out, "    b = b + a - i;")
        };
    }
    out.push_str("    out(a);\n    out(b);\n    return 0;\n}\n");
    vec![SourceFile::new(format!("long{statements}"), out)]
}

/// Replaces module `index` with a re-tuned copy: the canonical "edit one
/// module" of the incremental-build benchmark. The edit changes the
/// module's IR (a returned constant) without changing its summary record,
/// so only the edited module's database slice can move.
///
/// # Panics
///
/// Panics when `index` is out of range.
pub fn perturb(sources: &mut [SourceFile], index: usize, tune: i64) {
    let n = sources.len();
    sources[index] = scaled_module(index, n, tune);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_core::PaperConfig;
    use ipra_driver::{compile, interpret_sources, run_program, CompileOptions};

    #[test]
    fn scaled_program_compiles_and_matches_interpreter() {
        let sources = scaled_program(6);
        assert_eq!(sources.len(), 6);
        let oracle = interpret_sources(&sources, &[]).unwrap().unwrap();
        let p = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let r = run_program(&p, &[]).unwrap();
        assert_eq!(r.output, oracle.output);
        assert_eq!(r.exit, oracle.exit);
        let report = ipra_driver::verify_program(&p);
        assert!(report.is_clean(), "scaled/C failed verification:\n{report}");
    }

    #[test]
    fn single_module_program_works() {
        let sources = scaled_program(1);
        let p = compile(&sources, &CompileOptions::default()).unwrap();
        run_program(&p, &[]).unwrap();
    }

    #[test]
    fn perturb_changes_ir_but_not_summary() {
        let mut sources = scaled_program(5);
        let before = compile(&sources, &CompileOptions::default()).unwrap();
        perturb(&mut sources, 2, 3);
        assert_ne!(sources[2], scaled_module(2, 5, 0));
        let after = compile(&sources, &CompileOptions::default()).unwrap();
        // Same summary records -> same database; different machine code.
        assert_eq!(before.summary, after.summary);
        assert_eq!(before.database, after.database);
        assert_ne!(before.exe, after.exe);
        // And the observable output moves with the constant.
        let rb = run_program(&before, &[]).unwrap();
        let ra = run_program(&after, &[]).unwrap();
        assert_ne!(rb.output, ra.output);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(scaled_program(8), scaled_program(8));
        assert_eq!(long_program(64), long_program(64));
    }

    #[test]
    fn long_program_matches_interpreter_with_loops() {
        let sources = long_program(100);
        assert_eq!(sources[0].text.matches("for (").count(), 100 / 16);
        let input = [3, -5, 7];
        let oracle = interpret_sources(&sources, &input).unwrap().unwrap();
        let p = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let r = run_program(&p, &input).unwrap();
        assert_eq!(r.output, oracle.output);
        assert_eq!(r.output.len(), 2);
    }

    #[test]
    fn sim_variant_scales_execution_not_sources() {
        // `outer = 4` is exactly the compile-bench program.
        assert_eq!(scaled_sim_program(4, 4), scaled_program(4));
        let short = compile(&scaled_sim_program(4, 2), &CompileOptions::default()).unwrap();
        let long = compile(&scaled_sim_program(4, 20), &CompileOptions::default()).unwrap();
        let rs = run_program(&short, &[]).unwrap();
        let rl = run_program(&long, &[]).unwrap();
        assert!(
            rl.stats.cycles > 5 * rs.stats.cycles,
            "outer=20 ran {} cycles vs {} for outer=2",
            rl.stats.cycles,
            rs.stats.cycles
        );
    }
}
