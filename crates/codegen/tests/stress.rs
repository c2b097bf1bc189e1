//! Code-generation stress tests: adversarial combinations of register
//! pressure, argument counts, directives and indirection, each verified by
//! running the generated machine code on the simulator against values
//! computed in Rust.

use cmin_frontend::{analyze as sema, parse_module};
use cmin_ir::{lower_module, optimize_module};
use ipra_core::{ProcDirectives, ProgramDatabase, Promotion};
use vpr::program::link;
use vpr::regs::{Reg, RegSet};
use vpr::sim::{run_with, SimOptions};
use vpr::target::{TargetId, VPR};

fn run_src(src: &str, db: &ProgramDatabase, input: &[i64]) -> vpr::sim::RunResult {
    let m = parse_module("m", src).unwrap();
    let info = sema(&m).unwrap();
    let mut ir = lower_module(&m, &info);
    optimize_module(&mut ir);
    let obj = cmin_codegen::compile_module_for(&ir, db, TargetId::Vpr);
    let exe = link(&[obj]).unwrap();
    run_with(&exe, &SimOptions { input: input.to_vec(), ..SimOptions::default() })
        .unwrap_or_else(|e| panic!("trap: {e}"))
}

#[test]
fn ten_arguments_with_pressure_on_both_sides() {
    // 10 arguments (6 on the stack), with enough live values around the
    // call to force callee-saves usage and spills in the caller.
    let src = "
        int digest(int a, int b, int c, int d, int e, int f, int g, int h, int i, int j) {
            return a + b * 2 + c * 3 + d * 5 + e * 7 + f * 11 + g * 13 + h * 17 + i * 19 + j * 23;
        }
        int main() {
            int k0 = in(); int k1 = in(); int k2 = in(); int k3 = in(); int k4 = in();
            int k5 = k0 * k1; int k6 = k1 * k2; int k7 = k2 * k3; int k8 = k3 * k4;
            int r = digest(k0, k1, k2, k3, k4, k5, k6, k7, k8, k0 + k4);
            // All inputs still live after the call:
            return r + k0 + k1 + k2 + k3 + k4 + k5 + k6 + k7 + k8;
        }";
    let ks = [3i64, 5, 7, 11, 13];
    let (k0, k1, k2, k3, k4) = (ks[0], ks[1], ks[2], ks[3], ks[4]);
    let (k5, k6, k7, k8) = (k0 * k1, k1 * k2, k2 * k3, k3 * k4);
    let digest = k0
        + k1 * 2
        + k2 * 3
        + k3 * 5
        + k4 * 7
        + k5 * 11
        + k6 * 13
        + k7 * 17
        + k8 * 19
        + (k0 + k4) * 23;
    let expect = digest + k0 + k1 + k2 + k3 + k4 + k5 + k6 + k7 + k8;
    let r = run_src(src, &ProgramDatabase::new(), &ks);
    assert_eq!(r.exit, expect);
}

#[test]
fn nested_indirect_calls_with_spilled_pointers() {
    let src = "
        int inc(int x) { return x + 1; }
        int dbl(int x) { return x * 2; }
        int sq(int x) { return x * x; }
        int chain(int f, int g, int h, int x) { return f(g(h(x))); }
        int main() {
            int a = chain(&inc, &dbl, &sq, 3);   // inc(dbl(sq(3))) = 19
            int b = chain(&sq, &inc, &dbl, 4);   // sq(inc(dbl(4))) = 81
            out(a);
            out(b);
            return a + b;
        }";
    let r = run_src(src, &ProgramDatabase::new(), &[]);
    assert_eq!(r.output, vec![19, 81]);
    assert_eq!(r.exit, 100);
}

#[test]
fn deep_expression_trees_exhaust_registers() {
    // A single expression with ~40 live intermediate values.
    let mut expr = String::from("x1");
    for i in 2..=40 {
        expr = format!("({expr} + x{i} * {i})");
    }
    let mut src = String::from("int main() {\n");
    for i in 1..=40 {
        src.push_str(&format!("int x{i} = {i} * 3 - 1;\n"));
    }
    src.push_str(&format!("return {expr};\n}}"));
    let expect: i64 = {
        let x = |i: i64| i * 3 - 1;
        let mut acc = x(1);
        for i in 2..=40 {
            acc += x(i) * i;
        }
        acc
    };
    let r = run_src(&src, &ProgramDatabase::new(), &[]);
    assert_eq!(r.exit, expect);
}

#[test]
fn every_directive_class_at_once() {
    // One procedure carrying: a promoted web register (entry), FREE
    // registers, a trimmed CALLEE set, an MSPILL set (cluster root), and a
    // restricted caller claim — all simultaneously.
    let src = "
        int acc;
        int helper(int x) { return x * 3 + 1; }
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + helper(i);
                s = s + acc % 97;
            }
            return s;
        }
        int main() {
            acc = 0;
            out(work(50));
            out(acc);
            return 0;
        }";
    // Baseline.
    let expect = run_src(src, &ProgramDatabase::new(), &[]);

    let mut db = ProgramDatabase::new();
    let mut work = ProcDirectives::standard_for("work", TargetId::Vpr);
    work.promotions.push(Promotion {
        sym: "acc".into(),
        reg: Reg::new(3),
        is_entry: true,
        store_at_exit: true,
    });
    work.is_cluster_root = true;
    work.usage.mspill = [Reg::new(10), Reg::new(11)].into_iter().collect();
    work.usage.free = [Reg::new(4)].into_iter().collect();
    work.usage.callee = VPR.callee_saves
        - work.usage.mspill
        - work.usage.free
        - [Reg::new(3)].into_iter().collect::<RegSet>();
    // Restrict the claim to two registers.
    work.claimed_caller = [Reg::new(19), Reg::new(20)].into_iter().collect();
    db.insert(work);

    let mut helper = ProcDirectives::standard_for("helper", TargetId::Vpr);
    helper.usage.free = [Reg::new(10)].into_iter().collect();
    helper.usage.callee = VPR.callee_saves - helper.usage.free;
    helper.safe_caller_across = [Reg::new(21), Reg::new(22), Reg::new(29)].into_iter().collect();
    db.insert(helper);

    let got = run_src(src, &db, &[]);
    assert_eq!(got.output, expect.output);
    assert_eq!(got.exit, expect.exit);
}

#[test]
fn zero_claim_forces_preserved_registers_yet_stays_correct() {
    // claimed_caller = ∅: every scratch value must go to FREE/CALLEE or
    // spill; behavior must not change.
    let src = "
        int f(int a, int b, int c) { return a * b + c; }
        int main() {
            int s = 0;
            for (int i = 0; i < 20; i = i + 1) { s = s + f(i, i + 1, i + 2); }
            return s;
        }";
    let expect = run_src(src, &ProgramDatabase::new(), &[]);
    let mut db = ProgramDatabase::new();
    for name in ["main", "f"] {
        let mut d = ProcDirectives::standard_for(name, TargetId::Vpr);
        d.claimed_caller = RegSet::new();
        db.insert(d);
    }
    let got = run_src(src, &db, &[]);
    assert_eq!(got.exit, expect.exit);
}

#[test]
fn recursion_with_promoted_global() {
    // A recursive procedure inside a web: the register must survive the
    // recursion via the web-entry save/restore at the entry node.
    let src = "
        int depth_max;
        int probe(int d) {
            if (d > depth_max) { depth_max = d; }
            if (d >= 12) { return d; }
            int left = probe(d + 1);
            int right = probe(d + 2);
            if (left > right) { return left; }
            return right;
        }
        int main() {
            depth_max = 0;
            out(probe(0));
            out(depth_max);
            return depth_max;
        }";
    let expect = run_src(src, &ProgramDatabase::new(), &[]);

    // Promote depth_max over {main (entry), probe}.
    let mut db = ProgramDatabase::new();
    let mut main_d = ProcDirectives::standard_for("main", TargetId::Vpr);
    main_d.promotions.push(Promotion {
        sym: "depth_max".into(),
        reg: Reg::new(5),
        is_entry: true,
        store_at_exit: true,
    });
    main_d.usage.callee.remove(Reg::new(5));
    db.insert(main_d);
    let mut probe_d = ProcDirectives::standard_for("probe", TargetId::Vpr);
    probe_d.promotions.push(Promotion {
        sym: "depth_max".into(),
        reg: Reg::new(5),
        is_entry: false,
        store_at_exit: false,
    });
    probe_d.usage.callee.remove(Reg::new(5));
    db.insert(probe_d);

    let got = run_src(src, &db, &[]);
    assert_eq!(got.output, expect.output);
    assert_eq!(got.exit, expect.exit);
    // And the global's memory traffic inside the recursion is gone.
    assert!(got.stats.singleton_refs() < expect.stats.singleton_refs());
}
