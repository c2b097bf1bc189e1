//! Seeded random `cmin` program generator for differential testing.
//!
//! Produces well-formed multi-module programs that terminate and never
//! trap, by construction:
//!
//! * loops are bounded counted `for` loops;
//! * call targets are always earlier-declared procedures (the call graph is
//!   a DAG, so recursion depth is bounded);
//! * divisors have the shape `(e % 7) + 8`, which is never zero;
//! * array indices have the shape `((e % N) + N) % N`, always in bounds.
//!
//! Generated programs still exercise the analyzer's hard cases: shared and
//! `static` globals, address-taken (aliased) globals, function pointers and
//! indirect calls, and cross-module webs.

use ipra_driver::SourceFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Shape limits for generation.
///
/// The `bool` knobs gate shapes the default generator does not (or
/// only rarely) produces; they are off by default so that existing seeds
/// keep their exact random streams, and the fuzzer rotates them on.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of modules (1..=3 recommended).
    pub modules: usize,
    /// Globals per module.
    pub globals_per_module: usize,
    /// Procedures per module (besides `main`).
    pub funcs_per_module: usize,
    /// Maximum statements per block.
    pub max_stmts: usize,
    /// Maximum block nesting depth.
    pub max_depth: usize,
    /// Generate bounded recursive procedures: one self-recursive procedure
    /// per module plus a cross-module mutually-recursive pair, so the call
    /// graph has nontrivial SCCs (the paper's §4.1.2 "simple solution"
    /// path and §6.2 recursive-arc weighting).
    pub recursion: bool,
    /// Aliasing mixes: a `static` scalar with the *same source name* in
    /// every module (distinct `module$name` link names), some `static`
    /// procedures, and a higher rate of `&g`/`*p` accesses.
    pub alias_mix: bool,
    /// A function pointer stored in a plain global scalar, assigned once at
    /// the top of `main` and called indirectly from anywhere below the
    /// target in the call order.
    pub global_fn_ptrs: bool,
    /// Pointer-heavy shapes for the interprocedural alias analysis: a pair
    /// of template procedures that read (`pread`) and write (`pwrite`)
    /// through a pointer *parameter*, called with `&global` arguments from
    /// anywhere — so mod/ref effects must flow through call bindings — and
    /// a local pointer that is conditionally *reassigned* between two
    /// globals before being dereferenced, so points-to sets grow past one
    /// element.
    pub ptr_shapes: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            modules: 2,
            globals_per_module: 4,
            funcs_per_module: 4,
            max_stmts: 5,
            max_depth: 3,
            recursion: false,
            alias_mix: false,
            global_fn_ptrs: false,
            ptr_shapes: false,
        }
    }
}

#[derive(Clone)]
struct GlobalSym {
    name: String,
    module: usize,
    is_static: bool,
    array: Option<u32>,
}

/// How a procedure's body is produced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FuncKind {
    /// Random statements from [`Gen::block`].
    Normal,
    /// Templated bounded self-recursion.
    SelfRec,
    /// Templated mutual recursion, first half (calls its partner).
    MutualA,
    /// Templated mutual recursion, second half (calls back).
    MutualB,
    /// Template reading through its pointer parameter (`return (*p0) + p1`).
    PtrRead,
    /// Template writing through its pointer parameter (`*p0 = p1`).
    PtrWrite,
}

#[derive(Clone)]
struct FuncSym {
    name: String,
    module: usize,
    arity: usize,
    is_static: bool,
    kind: FuncKind,
}

struct Gen {
    rng: StdRng,
    globals: Vec<GlobalSym>,
    funcs: Vec<FuncSym>,
    cfg: GenConfig,
    /// Calls emitted in the current procedure (capped to bound the total
    /// work a generated program can do).
    calls_in_fn: usize,
    /// Function-pointer local counter (their names never enter the value
    /// scope: pointer tokens are opaque and must not be printed or mixed
    /// into arithmetic — the interpreter and the machine use different
    /// representations).
    fp_counter: usize,
    /// With [`GenConfig::global_fn_ptrs`]: the index in `funcs` whose
    /// address `main` stores into the global scalar `fptr`. Only callers
    /// with a strictly larger index may call through `fptr`, which keeps
    /// the *dynamic* call relation acyclic even though the analyzer must
    /// treat the edge as unresolved.
    fptr_target: Option<usize>,
}

/// Generates a random multi-module program from `seed`.
///
/// The result is guaranteed to terminate quickly: candidates whose
/// interpreter run exceeds a small step budget are rejected and the seed is
/// re-derived, deterministically.
pub fn random_program(seed: u64) -> Vec<SourceFile> {
    random_program_with(seed, &GenConfig::default())
}

impl GenConfig {
    /// The shape of the `i`-th program of a rotating suite (the analysis
    /// and IR goldens, and the interference check): each rotation slot
    /// turns on one of the shape knobs, and the last turns on all of them
    /// at once. Returns the slot's name with the shape.
    pub fn rotating(i: u64) -> (&'static str, GenConfig) {
        let g = GenConfig::default;
        match i % 5 {
            0 => {
                ("recursion", GenConfig { modules: 3, funcs_per_module: 6, recursion: true, ..g() })
            }
            1 => (
                "alias_mix",
                GenConfig { globals_per_module: 8, funcs_per_module: 5, alias_mix: true, ..g() },
            ),
            2 => ("global_fn_ptrs", GenConfig { global_fn_ptrs: true, ..g() }),
            3 => (
                "ptr_shapes",
                GenConfig { globals_per_module: 6, alias_mix: true, ptr_shapes: true, ..g() },
            ),
            _ => (
                "all",
                GenConfig {
                    modules: 3,
                    recursion: true,
                    alias_mix: true,
                    global_fn_ptrs: true,
                    ptr_shapes: true,
                    ..g()
                },
            ),
        }
    }
}

/// Generates a random program with explicit shape limits.
///
/// # Panics
///
/// Panics if 64 consecutive candidates blow the step budget (practically
/// unreachable).
pub fn random_program_with(seed: u64, cfg: &GenConfig) -> Vec<SourceFile> {
    use cmin_ir::interp::{interpret_with, InterpError, InterpOptions};
    for attempt in 0..64u64 {
        let candidate = generate_candidate(seed ^ attempt.wrapping_mul(0x9e3779b97f4a7c15), cfg);
        // Nested loops around call chains can make a rare candidate do
        // astronomically much work; reject those with a bounded dry run.
        let modules =
            ipra_driver::frontend(&candidate).expect("generator must produce well-formed programs");
        let opts = InterpOptions { fuel: 3_000_000, ..InterpOptions::default() };
        match interpret_with(&modules, &opts) {
            Ok(_) => return candidate,
            Err(InterpError::FuelExhausted) => continue,
            Err(e) => panic!("generator produced a trapping program: {e}"),
        }
    }
    panic!("no terminating candidate after 64 attempts for seed {seed}");
}

fn generate_candidate(seed: u64, cfg: &GenConfig) -> Vec<SourceFile> {
    let mut rng = StdRng::seed_from_u64(seed);

    // Symbol tables first, so every module can reference every earlier
    // procedure and all non-static globals.
    let mut globals = Vec::new();
    let mut funcs = Vec::new();
    // Pointer templates sit at the very front: every other procedure may
    // pass them a `&global`. They are excluded from the generic callable
    // list — their pointer parameter must never receive a plain integer
    // (address tokens are opaque; dereferencing an integer would trap).
    if cfg.ptr_shapes {
        for (name, kind) in [("pread", FuncKind::PtrRead), ("pwrite", FuncKind::PtrWrite)] {
            funcs.push(FuncSym { name: name.into(), module: 0, arity: 2, is_static: false, kind });
        }
    }
    // Recursive procedures sit at the *front* of the table so every normal
    // procedure (which may only call strictly-earlier indices) can reach
    // them; their own bodies are templates with a built-in depth clamp.
    if cfg.recursion {
        for m in 0..cfg.modules {
            funcs.push(FuncSym {
                name: format!("rec{m}"),
                module: m,
                arity: 1,
                is_static: false,
                kind: FuncKind::SelfRec,
            });
        }
        if cfg.modules >= 2 {
            funcs.push(FuncSym {
                name: "mrec_a".into(),
                module: 0,
                arity: 1,
                is_static: false,
                kind: FuncKind::MutualA,
            });
            funcs.push(FuncSym {
                name: "mrec_b".into(),
                module: 1,
                arity: 1,
                is_static: false,
                kind: FuncKind::MutualB,
            });
        }
    }
    for m in 0..cfg.modules {
        for gi in 0..cfg.globals_per_module {
            let array = if rng.gen_ratio(1, 4) { Some(rng.gen_range(2..10u32)) } else { None };
            globals.push(GlobalSym {
                name: format!("g{m}_{gi}"),
                module: m,
                is_static: array.is_none() && rng.gen_ratio(1, 4),
                array,
            });
        }
        // Same-named statics: every module defines `static int amix;`,
        // giving the analyzer same-source-name globals with distinct
        // module-qualified link names (§7.4).
        if cfg.alias_mix {
            globals.push(GlobalSym {
                name: "amix".into(),
                module: m,
                is_static: true,
                array: None,
            });
        }
        for fi in 0..cfg.funcs_per_module {
            funcs.push(FuncSym {
                name: format!("f{m}_{fi}"),
                module: m,
                arity: rng.gen_range(0..=3),
                is_static: cfg.alias_mix && rng.gen_ratio(1, 4),
                kind: FuncKind::Normal,
            });
        }
    }

    // The function-pointer global's target: an early non-static procedure,
    // so every later procedure may call through `fptr` without creating a
    // dynamic cycle (`main` stores the address before anything else runs).
    let fptr_target = if cfg.global_fn_ptrs {
        let lo: Vec<usize> = (0..funcs.len().min(4))
            .filter(|&i| {
                !funcs[i].is_static
                    && !matches!(funcs[i].kind, FuncKind::PtrRead | FuncKind::PtrWrite)
            })
            .collect();
        if lo.is_empty() {
            None
        } else {
            Some(lo[rng.gen_range(0..lo.len())])
        }
    } else {
        None
    };

    let mut g =
        Gen { rng, globals, funcs, cfg: cfg.clone(), calls_in_fn: 0, fp_counter: 0, fptr_target };
    (0..cfg.modules).map(|m| g.module(m)).collect()
}

impl Gen {
    fn module(&mut self, m: usize) -> SourceFile {
        let mut out = String::new();
        // Extern declarations for foreign non-static globals and all
        // earlier foreign procedures.
        for gsym in self.globals.clone() {
            if gsym.module != m && !gsym.is_static {
                match gsym.array {
                    Some(_) => {
                        let _ = writeln!(out, "extern int {}[];", gsym.name);
                    }
                    None => {
                        let _ = writeln!(out, "extern int {};", gsym.name);
                    }
                }
            }
        }
        for fsym in self.funcs.clone() {
            if fsym.module != m && !fsym.is_static {
                let params = vec!["int"; fsym.arity].join(", ");
                let _ = writeln!(out, "extern int {}({});", fsym.name, params);
            }
        }
        // Global definitions.
        for gsym in self.globals.clone() {
            if gsym.module != m {
                continue;
            }
            let kw = if gsym.is_static { "static " } else { "" };
            match gsym.array {
                Some(n) => {
                    let init: Vec<String> =
                        (0..n).map(|_| self.rng.gen_range(-9..40).to_string()).collect();
                    let _ = writeln!(out, "{kw}int {}[{n}] = {{{}}};", gsym.name, init.join(", "));
                }
                None => {
                    let v: i64 = self.rng.gen_range(-20..60);
                    let _ = writeln!(out, "{kw}int {} = {v};", gsym.name, v = v);
                }
            }
        }
        // The function-pointer global: defined (zero) in module 0, extern
        // elsewhere; `main` stores the target's address before any other
        // user code runs, so a zero-value indirect call can never happen.
        if self.fptr_target.is_some() {
            if m == 0 {
                let _ = writeln!(out, "int fptr;");
            } else {
                let _ = writeln!(out, "extern int fptr;");
            }
        }
        // Procedures.
        let my_funcs: Vec<(usize, FuncSym)> =
            self.funcs.clone().into_iter().enumerate().filter(|(_, f)| f.module == m).collect();
        for (idx, fsym) in my_funcs {
            let params: Vec<String> = (0..fsym.arity).map(|i| format!("int p{i}")).collect();
            let kw = if fsym.is_static { "static " } else { "" };
            let _ = writeln!(out, "{kw}int {}({}) {{", fsym.name, params.join(", "));
            match fsym.kind {
                FuncKind::Normal => {
                    self.calls_in_fn = 0;
                    let mut scope: Vec<String> = (0..fsym.arity).map(|i| format!("p{i}")).collect();
                    let body = self.block(idx, &mut scope, 1);
                    out.push_str(&body);
                    let ret = self.expr(idx, &scope, 2);
                    let _ = writeln!(out, "    return {ret};");
                }
                // Fixed bodies: the only procedures whose parameter holds
                // an address, so their mod/ref effects are entirely a
                // matter of what flows into the call.
                FuncKind::PtrRead => {
                    let _ = writeln!(out, "    return (*p0) + p1;");
                }
                FuncKind::PtrWrite => {
                    let _ = writeln!(out, "    *p0 = p1;");
                    let _ = writeln!(out, "    return (*p0);");
                }
                _ => out.push_str(&self.recursive_body(idx, &fsym)),
            }
            let _ = writeln!(out, "}}");
        }
        // `main` lives in module 0 and may call everything.
        if m == 0 {
            let _ = writeln!(out, "int main() {{");
            self.calls_in_fn = 0;
            let mut scope: Vec<String> = Vec::new();
            let n_funcs = self.funcs.len();
            if let Some(t) = self.fptr_target {
                let _ = writeln!(out, "    fptr = &{};", self.funcs[t].name);
            }
            let body = self.block(n_funcs, &mut scope, 1);
            out.push_str(&body);
            // Guarantee observable output.
            for gsym in self.globals.clone() {
                if gsym.array.is_none() && (gsym.module == 0 || !gsym.is_static) {
                    let _ = writeln!(out, "    out({});", gsym.name);
                }
            }
            let ret = self.expr(n_funcs, &scope, 2);
            let _ = writeln!(out, "    return {ret};");
            let _ = writeln!(out, "}}");
        }
        SourceFile::new(format!("m{m}"), out)
    }

    /// Templated body for a recursive procedure: clamps its argument so any
    /// caller-supplied value terminates, touches a visible global so the
    /// allocator sees live state across the recursive call, and recurses on
    /// a strictly smaller argument.
    fn recursive_body(&mut self, idx: usize, fsym: &FuncSym) -> String {
        let g = self.scalar_global(idx);
        let mut s = String::new();
        let _ = writeln!(s, "    if (p0 > 9) {{ p0 = 9; }}");
        match fsym.kind {
            FuncKind::SelfRec => {
                let _ = writeln!(s, "    if (p0 < 1) {{ return p0; }}");
                if let Some(g) = g {
                    let _ = writeln!(s, "    {g} = {g} + p0;");
                    let _ = writeln!(s, "    return {}(p0 - 1) + {g};", fsym.name);
                } else {
                    let _ = writeln!(s, "    return {}(p0 - 1) + p0;", fsym.name);
                }
            }
            FuncKind::MutualA => {
                let _ = writeln!(s, "    if (p0 < 1) {{ return 0; }}");
                if let Some(g) = g {
                    let _ = writeln!(s, "    {g} = {g} + 1;");
                }
                let _ = writeln!(s, "    return mrec_b(p0 - 1) + 1;");
            }
            FuncKind::MutualB => {
                let _ = writeln!(s, "    if (p0 < 1) {{ return 1; }}");
                if let Some(g) = g {
                    let _ = writeln!(s, "    {g} = {g} - 1;");
                }
                let _ = writeln!(s, "    return mrec_a(p0 - 1) + 2;");
            }
            FuncKind::Normal | FuncKind::PtrRead | FuncKind::PtrWrite => {
                unreachable!("only recursive templates come here")
            }
        }
        s
    }

    /// A block of statements. `caller` is the index of the containing
    /// procedure in `funcs` (or `funcs.len()` for `main`); only procedures
    /// with smaller indices may be called, keeping the call graph acyclic.
    fn block(&mut self, caller: usize, scope: &mut Vec<String>, depth: usize) -> String {
        let n = self.rng.gen_range(1..=self.cfg.max_stmts);
        let mut out = String::new();
        let indent = "    ".repeat(depth);
        let base_locals = scope.len();
        for _ in 0..n {
            let choice = self.rng.gen_range(0..100);
            let stmt = if choice < 22 {
                // Local declaration.
                let name = format!("v{}_{}", depth, scope.len());
                let e = self.expr(caller, scope, 2);
                scope.push(name.clone());
                format!("{indent}int {name} = {e};\n")
            } else if choice < 42 {
                // Assignment.
                let e = self.expr(caller, scope, 2);
                match self.lvalue(caller, scope) {
                    Some(lv) => format!("{indent}{lv} = {e};\n"),
                    None => format!("{indent}out({e});\n"),
                }
            } else if choice < 52 {
                let e = self.expr(caller, scope, 2);
                format!("{indent}out({e});\n")
            } else if choice < 64 && depth < self.cfg.max_depth {
                // if / else. Locals of each arm go out of scope with it.
                let c = self.expr(caller, scope, 2);
                let mut s = format!("{indent}if ({c}) {{\n");
                let save = scope.len();
                s.push_str(&self.block(caller, scope, depth + 1));
                scope.truncate(save);
                if self.rng.gen_bool(0.5) {
                    s.push_str(&format!("{indent}}} else {{\n"));
                    s.push_str(&self.block(caller, scope, depth + 1));
                    scope.truncate(save);
                }
                s.push_str(&format!("{indent}}}\n"));
                s
            } else if choice < 76 && depth < self.cfg.max_depth {
                // Bounded for loop.
                let iv = format!("i{}_{}", depth, scope.len());
                let limit = self.rng.gen_range(1..=6);
                let mut s =
                    format!("{indent}for (int {iv} = 0; {iv} < {limit}; {iv} = {iv} + 1) {{\n");
                let save = scope.len();
                scope.push(iv.clone());
                s.push_str(&self.block(caller, scope, depth + 1));
                scope.truncate(save);
                s.push_str(&format!("{indent}}}\n"));
                s
            } else if choice < 84 && caller > 0 {
                // Direct call statement.
                let call = self.call_expr(caller, scope, 1);
                format!("{indent}{call};\n")
            } else if choice < 90 && caller > 0 && self.calls_in_fn < 3 {
                // Indirect call through a function pointer in a local. The
                // pointer never enters the value scope: address tokens are
                // opaque.
                let candidates = self.callable(caller);
                if candidates.is_empty() {
                    let e = self.expr(caller, scope, 1);
                    format!("{indent}out({e});\n")
                } else {
                    self.calls_in_fn += 1;
                    let target = candidates[self.rng.gen_range(0..candidates.len())];
                    let f = self.funcs[target].clone();
                    self.fp_counter += 1;
                    let ptr = format!("fp{}", self.fp_counter);
                    let args: Vec<String> =
                        (0..f.arity).map(|_| self.expr(caller, scope, 1)).collect();
                    format!(
                        "{indent}int {ptr} = &{};\n{indent}out({ptr}({}));\n",
                        f.name,
                        args.join(", ")
                    )
                }
            } else if self.cfg.ptr_shapes && choice < 93 && caller > 1 && self.calls_in_fn < 3 {
                // Pointer-parameter call: a global's address flows into a
                // template that reads or writes through it, so the alias
                // analysis must carry the effect across the call binding.
                match self.scalar_global(caller) {
                    Some(gname) => {
                        self.calls_in_fn += 1;
                        let f = if self.rng.gen_bool(0.5) { "pread" } else { "pwrite" };
                        let e = self.expr(caller, scope, 1);
                        format!("{indent}out({f}(&{gname}, {e}));\n")
                    }
                    None => {
                        let e = self.expr(caller, scope, 1);
                        format!("{indent}out({e});\n")
                    }
                }
            } else if self.cfg.ptr_shapes && choice < 95 {
                // Pointer reassignment: a local pointer conditionally
                // retargeted between two globals, then dereferenced both
                // ways — its points-to set has two elements. The pointer
                // never enters the value scope (address tokens are opaque).
                match (self.scalar_global(caller), self.scalar_global(caller)) {
                    (Some(g1), Some(g2)) => {
                        self.fp_counter += 1;
                        let p = format!("pq{}", self.fp_counter);
                        let c = self.expr(caller, scope, 1);
                        let e = self.expr(caller, scope, 1);
                        format!(
                            "{indent}int {p} = &{g1};\n\
                             {indent}if ({c}) {{ {p} = &{g2}; }}\n\
                             {indent}*{p} = {e};\n\
                             {indent}out((*{p}));\n"
                        )
                    }
                    _ => {
                        let e = self.expr(caller, scope, 1);
                        format!("{indent}out({e});\n")
                    }
                }
            } else if self.cfg.global_fn_ptrs
                && choice >= 95
                && self.calls_in_fn < 3
                && self.fptr_target.is_some_and(|t| caller > t)
            {
                // Indirect call through the *global* function pointer: the
                // analyzer must treat this edge as unresolved (the target is
                // only known dynamically), and only callers strictly after
                // the target may use it, keeping the dynamic relation
                // acyclic.
                self.calls_in_fn += 1;
                let t = self.fptr_target.expect("guarded above");
                let args: Vec<String> =
                    (0..self.funcs[t].arity).map(|_| self.expr(caller, scope, 1)).collect();
                format!("{indent}out(fptr({}));\n", args.join(", "))
            } else {
                // Pointer store through &global (aliases the global).
                match self.scalar_global(caller) {
                    Some(gname) => {
                        let e = self.expr(caller, scope, 1);
                        format!("{indent}*(&{gname}) = {e};\n")
                    }
                    None => {
                        let e = self.expr(caller, scope, 1);
                        format!("{indent}out({e});\n")
                    }
                }
            };
            out.push_str(&stmt);
        }
        let _ = base_locals; // callers truncate; locals live to block end
        out
    }

    /// A scalar-variable or array-element assignment target.
    fn lvalue(&mut self, caller: usize, scope: &[String]) -> Option<String> {
        let module = self.module_of(caller);
        let roll = self.rng.gen_range(0..10);
        if roll < 4 && !scope.is_empty() {
            let i = self.rng.gen_range(0..scope.len());
            return Some(scope[i].clone());
        }
        if roll < 7 {
            return self.scalar_global(caller);
        }
        // Array element.
        let arrays: Vec<GlobalSym> = self
            .globals
            .iter()
            .filter(|gl| gl.array.is_some() && (!gl.is_static || gl.module == module))
            .cloned()
            .collect();
        if arrays.is_empty() {
            return self.scalar_global(caller);
        }
        let a = arrays[self.rng.gen_range(0..arrays.len())].clone();
        let n = a.array.expect("array");
        let idx = self.index_expr(caller, scope, n);
        Some(format!("{}[{idx}]", a.name))
    }

    fn module_of(&self, caller: usize) -> usize {
        if caller < self.funcs.len() {
            self.funcs[caller].module
        } else {
            0 // main
        }
    }

    /// A scalar global visible from the caller's module.
    fn scalar_global(&mut self, caller: usize) -> Option<String> {
        let module = self.module_of(caller);
        let candidates: Vec<String> = self
            .globals
            .iter()
            .filter(|gl| gl.array.is_none() && (!gl.is_static || gl.module == module))
            .map(|gl| gl.name.clone())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..candidates.len());
        Some(candidates[i].clone())
    }

    /// An always-in-bounds index expression for an array of length `n`.
    fn index_expr(&mut self, caller: usize, scope: &[String], n: u32) -> String {
        let e = self.expr(caller, scope, 1);
        format!("((({e}) % {n} + {n}) % {n})")
    }

    /// Indices of procedures `caller` may name: strictly earlier in the
    /// table (so the static call graph stays acyclic among Normal bodies),
    /// and either non-static or in the caller's own module. Without
    /// [`GenConfig::alias_mix`] every procedure is visible and the list is
    /// exactly `0..caller`, preserving the historical random stream.
    fn callable(&self, caller: usize) -> Vec<usize> {
        let module = self.module_of(caller);
        (0..caller)
            .filter(|&i| !self.funcs[i].is_static || self.funcs[i].module == module)
            // Pointer templates are only callable through the dedicated
            // `&global` call shape: their first parameter must hold an
            // address, never a plain integer.
            .filter(|&i| !matches!(self.funcs[i].kind, FuncKind::PtrRead | FuncKind::PtrWrite))
            .collect()
    }

    fn call_expr(&mut self, caller: usize, scope: &[String], depth: usize) -> String {
        // Only strictly-earlier procedures: the call graph stays acyclic;
        // at most 3 calls per procedure bound the work amplification.
        if caller == 0 || self.calls_in_fn >= 3 {
            return self.expr(caller, scope, 0);
        }
        let candidates = self.callable(caller);
        if candidates.is_empty() {
            return self.expr(caller, scope, 0);
        }
        self.calls_in_fn += 1;
        let target = candidates[self.rng.gen_range(0..candidates.len())];
        let f = self.funcs[target].clone();
        let args: Vec<String> =
            (0..f.arity).map(|_| self.expr(caller, scope, depth.saturating_sub(1))).collect();
        format!("{}({})", f.name, args.join(", "))
    }

    fn expr(&mut self, caller: usize, scope: &[String], depth: usize) -> String {
        let choice = self.rng.gen_range(0..100);
        if depth == 0 || choice < 25 {
            return format!("{}", self.rng.gen_range(-20..100));
        }
        if choice < 45 && !scope.is_empty() {
            let i = self.rng.gen_range(0..scope.len());
            return scope[i].clone();
        }
        if choice < 58 {
            if let Some(gname) = self.scalar_global(caller) {
                // Occasionally through a pointer (keeps the alias analysis
                // honest).
                if self.rng.gen_ratio(1, 6) {
                    return format!("(*(&{gname}))");
                }
                return gname;
            }
        }
        if choice < 66 {
            // Array read.
            let module = self.module_of(caller);
            let arrays: Vec<GlobalSym> = self
                .globals
                .iter()
                .filter(|gl| gl.array.is_some() && (!gl.is_static || gl.module == module))
                .cloned()
                .collect();
            if !arrays.is_empty() {
                let a = arrays[self.rng.gen_range(0..arrays.len())].clone();
                let n = a.array.expect("array");
                let idx = self.index_expr(caller, scope, n);
                return format!("{}[{idx}]", a.name);
            }
        }
        if choice < 74 && caller > 0 {
            return self.call_expr(caller, scope, depth);
        }
        // Binary operators; division/remainder use a never-zero divisor.
        let a = self.expr(caller, scope, depth - 1);
        let b = self.expr(caller, scope, depth - 1);
        match self.rng.gen_range(0..10) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * ({b} % 13))"),
            3 => format!("({a} / (({b}) % 7 + 8))"),
            4 => format!("({a} % (({b}) % 5 + 9))"),
            5 => format!("({a} < {b})"),
            6 => format!("({a} == {b})"),
            7 => format!("({a} && {b})"),
            8 => format!("({a} || {b})"),
            _ => format!("(!({a}))"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_driver::{frontend, interpret_sources};

    #[test]
    fn generated_programs_parse_and_check() {
        for seed in 0..30 {
            let sources = random_program(seed);
            frontend(&sources).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: {e}\n{}",
                    sources.iter().map(|s| s.text.clone()).collect::<String>()
                )
            });
        }
    }

    #[test]
    fn generated_programs_run_without_traps() {
        for seed in 0..20 {
            let sources = random_program(seed);
            let r = interpret_sources(&sources, &[]).unwrap();
            r.unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: interpreter trap {e}\n{}",
                    sources.iter().map(|s| s.text.clone()).collect::<String>()
                )
            });
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_program(7), random_program(7));
        assert_ne!(random_program(7), random_program(8));
    }

    #[test]
    fn extended_shapes_generate_and_run() {
        let cfg = GenConfig {
            modules: 2,
            recursion: true,
            alias_mix: true,
            global_fn_ptrs: true,
            ..GenConfig::default()
        };
        let mut saw_static_fn = false;
        let mut saw_global_fp_call = false;
        for seed in 40..56 {
            let sources = random_program_with(seed, &cfg);
            let text: String = sources.iter().map(|s| s.text.clone()).collect();
            assert!(text.contains("rec0("), "recursion shape missing:\n{text}");
            assert!(text.contains("int mrec_a"), "mutual recursion missing:\n{text}");
            assert!(text.contains("static int amix"), "alias mix missing:\n{text}");
            assert!(text.contains("fptr = &"), "fptr assignment missing:\n{text}");
            saw_static_fn |= text.contains("static int f");
            saw_global_fp_call |= text.contains("out(fptr(");
            let r = interpret_sources(&sources, &[]).unwrap();
            r.unwrap_or_else(|e| panic!("seed {seed}: interpreter trap {e}\n{text}"));
        }
        assert!(saw_static_fn, "no seed produced a static procedure");
        assert!(saw_global_fp_call, "no seed called through the global fptr");
    }

    #[test]
    fn shape_flags_default_off_matches_plain_default() {
        // `random_program` must keep meaning exactly the historical shape.
        let explicit = GenConfig {
            recursion: false,
            alias_mix: false,
            global_fn_ptrs: false,
            ptr_shapes: false,
            ..GenConfig::default()
        };
        assert_eq!(random_program(11), random_program_with(11, &explicit));
    }

    #[test]
    fn pointer_shapes_generate_and_run() {
        let cfg = GenConfig { ptr_shapes: true, ..GenConfig::default() };
        let mut saw_ptr_call = false;
        let mut saw_reassign = false;
        for seed in 60..76 {
            let sources = random_program_with(seed, &cfg);
            let text: String = sources.iter().map(|s| s.text.clone()).collect();
            assert!(text.contains("int pread(int p0, int p1)"), "pread missing:\n{text}");
            assert!(text.contains("int pwrite(int p0, int p1)"), "pwrite missing:\n{text}");
            saw_ptr_call |= text.contains("out(pread(&") || text.contains("out(pwrite(&");
            saw_reassign |= text.contains("int pq");
            let r = interpret_sources(&sources, &[]).unwrap();
            r.unwrap_or_else(|e| panic!("seed {seed}: interpreter trap {e}\n{text}"));
        }
        assert!(saw_ptr_call, "no seed passed a global's address to a pointer template");
        assert!(saw_reassign, "no seed produced a reassigned pointer");
    }

    #[test]
    fn custom_config_respected() {
        let cfg = GenConfig { modules: 3, ..GenConfig::default() };
        let sources = random_program_with(1, &cfg);
        assert_eq!(sources.len(), 3);
        assert!(sources[0].text.contains("int main()"));
        assert!(!sources[1].text.contains("int main()"));
    }
}
