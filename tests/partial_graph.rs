//! Partial call graphs (paper §7.2): the analyzer applied to a *library* —
//! a set of modules with no `main` — under the paper's assumptions:
//! incoming calls only reach the partial graph's start nodes, outgoing
//! calls return without re-entering it, and eligible globals are private to
//! the analyzed set.
//!
//! The separately-compiled application follows the standard linkage
//! convention (an empty database), yet links and runs correctly against the
//! interprocedurally-optimized library: cluster roots still save their
//! MSPILL sets (a superset of the standard callee-saves duty) and web
//! entries sit at the library's start nodes, so the convention boundary
//! holds.

use ipra_core::analyzer::{analyze, AnalyzerOptions};
use ipra_core::ProgramDatabase;
use ipra_driver::{frontend, SourceFile};
use ipra_summary::{summarize_module, ProgramSummary};
use vpr::program::link;
use vpr::sim::{run_with, SimOptions};
use vpr::target::TargetId;

/// A "run-time library": a table module with private state, plus an API
/// module whose procedures are the partial graph's start nodes.
fn library_sources() -> Vec<SourceFile> {
    vec![
        SourceFile::new(
            "libtable",
            "static int slots[64];
             static int fill;
             static int probes;
             int tbl_reset() { fill = 0; probes = 0; for (int i = 0; i < 64; i = i + 1) { slots[i] = 0 - 1; } return 0; }
             int tbl_put(int key) {
                 int h = ((key % 64) + 64) % 64;
                 while (slots[h] >= 0 && slots[h] != key) {
                     probes = probes + 1;
                     h = (h + 1) % 64;
                 }
                 if (slots[h] != key) { slots[h] = key; fill = fill + 1; }
                 return h;
             }
             int tbl_has(int key) {
                 int h = ((key % 64) + 64) % 64;
                 while (slots[h] >= 0) {
                     probes = probes + 1;
                     if (slots[h] == key) { return 1; }
                     h = (h + 1) % 64;
                 }
                 return 0;
             }
             int tbl_stats() { return fill * 1000 + probes; }",
        ),
        SourceFile::new(
            "libapi",
            "extern int tbl_reset();
             extern int tbl_put(int);
             extern int tbl_has(int);
             extern int tbl_stats();
             int lib_init() { return tbl_reset(); }
             int lib_insert_range(int from, int to) {
                 int n = 0;
                 for (int k = from; k < to; k = k + 1) { tbl_put(k * 7); n = n + 1; }
                 return n;
             }
             int lib_count_hits(int from, int to) {
                 int hits = 0;
                 for (int k = from; k < to; k = k + 1) {
                     if (tbl_has(k)) { hits = hits + 1; }
                 }
                 return hits;
             }
             int lib_digest() { return tbl_stats(); }",
        ),
    ]
}

const APP: &str = "extern int lib_init();
extern int lib_insert_range(int, int);
extern int lib_count_hits(int, int);
extern int lib_digest();
int main() {
    lib_init();
    lib_insert_range(0, 40);
    out(lib_count_hits(0, 300));
    out(lib_digest());
    return 0;
}";

/// Analyzes the library alone (no `main` anywhere) and compiles it under
/// the resulting database.
fn compile_library(db_out: &mut ProgramDatabase) -> Vec<vpr::ObjectModule> {
    let sources = library_sources();
    let mut summary = ProgramSummary::default();
    let mut irs = Vec::new();
    for (m, info) in frontend(&sources).unwrap() {
        let mut ir = cmin_ir::lower_module(&m, &info);
        cmin_ir::optimize_module(&mut ir);
        summary.modules.push(summarize_module(&ir));
        irs.push(ir);
    }
    let analysis = analyze(&summary, &AnalyzerOptions::default());
    // The partial graph's start nodes are the API procedures; the analyzer
    // must have treated them as roots (no main needed).
    assert!(analysis.stats.nodes >= 8);
    assert!(
        analysis.stats.webs_total >= 1,
        "the library's private globals should form webs: {:?}",
        analysis.stats
    );
    // Any web entry must be a library procedure (nothing external).
    for w in &analysis.webs {
        for e in &w.entries {
            assert!(
                e.starts_with("lib") || e.starts_with("tbl"),
                "web entry {e} outside the library"
            );
        }
    }
    *db_out = analysis.database.clone();
    irs.iter()
        .map(|ir| cmin_codegen::compile_module_for(ir, &analysis.database, TargetId::Vpr))
        .collect()
}

#[test]
fn library_optimized_alone_links_with_standard_app() {
    let mut db = ProgramDatabase::new();
    let mut modules = compile_library(&mut db);

    // The application is compiled with NO knowledge of the library's
    // directives — the standard convention.
    let (app, info) = &frontend(&[SourceFile::new("app", APP)]).unwrap()[0];
    let mut ir = cmin_ir::lower_module(app, info);
    cmin_ir::optimize_module(&mut ir);
    modules.push(cmin_codegen::compile_module_for(&ir, &ProgramDatabase::new(), TargetId::Vpr));

    let exe = link(&modules).unwrap();
    let optimized = run_with(&exe, &SimOptions::default()).unwrap();

    // Oracle: everything compiled at the plain baseline.
    let mut all_sources = library_sources();
    all_sources.push(SourceFile::new("app", APP));
    let baseline =
        ipra_driver::compile(&all_sources, &ipra_driver::CompileOptions::default()).unwrap();
    let expect = ipra_driver::run_program(&baseline, &[]).unwrap();

    assert_eq!(optimized.output, expect.output);
    assert_eq!(optimized.exit, expect.exit);
}

/// Paper §7.3: an indirect call site may reach *any* address-taken
/// procedure, so the call graph carries a conservative unresolved edge from
/// every indirect caller to every taken address. A promoted global must
/// never cross such an edge unprotected: if an unresolved edge lands on a
/// web member, either its source is itself a member (the repair loop pulled
/// it in, so the register view is established on *its* entry path) or the
/// target is a web entry (it reloads the global itself). Otherwise an
/// indirect call would reach code that trusts a register nobody loaded.
///
/// Checked three ways on generated function-pointer programs: on the
/// analysis result, independently on the decision trace (the observability
/// channel must tell the same story), and end-to-end by `ipra-verify` on
/// the compiled machine code.
#[test]
fn generated_indirect_calls_never_promote_across_unresolved_edges() {
    use ipra_core::callgraph::CallGraph;
    use ipra_core::trace::TraceEvent;
    use ipra_core::PaperConfig;
    use ipra_workloads::generator::{random_program_with, GenConfig};

    let cfg = GenConfig { global_fn_ptrs: true, funcs_per_module: 4, ..GenConfig::default() };
    let mut seeds_with_unresolved = 0;
    let mut webs_touching_taken = 0;
    for seed in 400..420u64 {
        let sources = random_program_with(seed, &cfg);
        let mut summary = ProgramSummary::default();
        for (m, info) in frontend(&sources).unwrap() {
            let mut ir = cmin_ir::lower_module(&m, &info);
            cmin_ir::optimize_module(&mut ir);
            summary.modules.push(summarize_module(&ir));
        }
        let graph = CallGraph::build(&summary, None);
        let unresolved: Vec<(String, String)> = graph
            .edges()
            .iter()
            .filter(|e| e.indirect)
            .map(|e| (graph.node(e.from).name.clone(), graph.node(e.to).name.clone()))
            .collect();
        if !unresolved.is_empty() {
            seeds_with_unresolved += 1;
        }

        let opts = ipra_core::analyzer::AnalyzerOptions::paper_config(PaperConfig::E, None);
        let (analysis, trace) = ipra_core::analyzer::analyze_traced(&summary, &opts);
        let assert_web = |sym: &str, nodes: &[String], entries: &[String]| {
            let mut touches = false;
            for (from, to) in &unresolved {
                if nodes.contains(to) {
                    touches = true;
                    assert!(
                        nodes.contains(from) || entries.contains(to),
                        "seed {seed}: web {sym} is promoted across the unresolved edge \
                         {from} -> {to} ({to} is a non-entry member, {from} is outside)"
                    );
                }
            }
            touches
        };
        for w in &analysis.webs {
            if assert_web(&w.sym, &w.nodes, &w.entries) {
                webs_touching_taken += 1;
            }
        }
        // The decision trace must independently support the same audit.
        for ev in &trace.events {
            if let TraceEvent::WebFormed { sym, nodes, entries, .. }
            | TraceEvent::WebColored { sym, nodes, entries, .. } = ev
            {
                assert_web(sym, nodes, entries);
            }
        }

        let program =
            ipra_driver::compile(&sources, &ipra_driver::CompileOptions::paper(PaperConfig::E))
                .unwrap();
        let report = ipra_driver::verify_program(&program);
        assert!(report.is_clean(), "seed {seed} failed verification:\n{report}");
    }
    // The run must actually have exercised the interesting shapes, or the
    // assertions above are vacuous.
    assert!(seeds_with_unresolved >= 10, "only {seeds_with_unresolved}/20 seeds had fn-ptr edges");
    assert!(webs_touching_taken >= 10, "only {webs_touching_taken} webs touched a taken address");
}

/// Paper §7.2 meets the artifact layer: the interprocedurally-optimized
/// library ships as a `.vlib` whose members carry both object code and
/// summaries; the application pulls members by archive selection. One
/// member calls an external procedure (`ghost`) defined *nowhere* — the
/// partial-graph assumption "outgoing calls return without re-entering
/// the graph" in its sharpest form. The contract:
///
/// * the analyzer must not promote a global web across the unresolved
///   edge (no web may claim `ghost`, and the members still verify
///   cleanly against the library database);
/// * linking fails by default with a diagnostic naming both the missing
///   procedure and its caller;
/// * linking under [`LinkOptions::allow_undefined_functions`] succeeds
///   with a trap stub, and as long as the `ghost` path stays cold the
///   program behaves exactly like a baseline in which `ghost` exists.
#[test]
fn vlib_with_unresolved_external_callee_links_and_runs() {
    use ipra_artifact::{ArtifactKind, LibraryArtifact, LibraryMember};
    use ipra_core::analyzer::AnalyzerOptions;
    use ipra_core::PaperConfig;
    use vpr::{link_with, LinkOptions};

    let mut lib_sources = library_sources();
    lib_sources.push(SourceFile::new(
        "libesc",
        "extern int ghost(int);
         extern int tbl_put(int);
         int lib_escape(int k) {
             if (k) { tbl_put(ghost(k)); return 1; }
             return 0;
         }",
    ));

    // Analyze the library alone as a partial graph, under the richest
    // configuration (E: promotion webs on), and compile its members.
    let mut summary = ProgramSummary::default();
    let mut irs = Vec::new();
    for (m, info) in frontend(&lib_sources).unwrap() {
        let mut ir = cmin_ir::lower_module(&m, &info);
        cmin_ir::optimize_module(&mut ir);
        summary.modules.push(summarize_module(&ir));
        irs.push(ir);
    }
    let analysis = analyze(&summary, &AnalyzerOptions::paper_config(PaperConfig::E, None));
    for w in &analysis.webs {
        assert!(
            !w.nodes.contains(&"ghost".to_string()),
            "web {} promoted across the unresolved edge into ghost",
            w.sym
        );
    }
    let objects: Vec<vpr::ObjectModule> = irs
        .iter()
        .map(|ir| cmin_codegen::compile_module_for(ir, &analysis.database, TargetId::Vpr))
        .collect();
    // The whole-program verifier is entitled to flag the unresolved
    // external itself; everything else — register discipline included —
    // must be clean.
    let report = ipra_verify::verify_modules(&objects, &analysis.database);
    for d in &report.diagnostics {
        assert!(
            d.detail.contains("ghost"),
            "library members failed verification beyond the expected unresolved external:\n{report}"
        );
    }

    // Package as a .vlib and round-trip it through the wire format — the
    // linker below consumes what a file consumer would see.
    let library = LibraryArtifact {
        members: objects
            .iter()
            .zip(&summary.modules)
            .map(|(o, s)| LibraryMember { object: o.clone(), summary: s.clone() })
            .collect(),
    };
    let text = ipra_artifact::encode(ArtifactKind::Library, &library);
    let library: LibraryArtifact = ipra_artifact::decode(ArtifactKind::Library, &text).unwrap();

    // The application: standard convention (empty database), calls into
    // the library including the ghost-adjacent entry point.
    let app_src = "extern int lib_init();
        extern int lib_insert_range(int, int);
        extern int lib_count_hits(int, int);
        extern int lib_digest();
        extern int lib_escape(int);
        int main() {
            lib_init();
            lib_insert_range(0, 40);
            out(lib_count_hits(0, 300));
            out(lib_escape(in()));
            out(lib_digest());
            return 0;
        }";
    let (app, info) = &frontend(&[SourceFile::new("app", app_src)]).unwrap()[0];
    let mut ir = cmin_ir::lower_module(app, info);
    cmin_ir::optimize_module(&mut ir);
    let root = cmin_codegen::compile_module_for(&ir, &ProgramDatabase::new(), TargetId::Vpr);

    // Archive selection must pull every member (the app needs libapi and
    // libesc; libapi and libesc need libtable), to fixpoint.
    let selected = library.select(std::slice::from_ref(&root));
    assert_eq!(selected.len(), library.members.len(), "selection must reach fixpoint");
    let mut modules = vec![root];
    modules.extend(selected.iter().map(|&i| library.members[i].object.clone()));

    // Default linking refuses: the diagnostic names the missing procedure
    // and the member that needs it.
    let err = vpr::program::link(&modules).unwrap_err().to_string();
    assert!(err.contains("ghost"), "diagnostic must name the missing procedure: {err}");
    assert!(err.contains("lib_escape"), "diagnostic must name the caller: {err}");

    // With the escape hatch, the link succeeds and the cold ghost path is
    // behaviorally invisible: same output as a baseline where ghost is a
    // real (never-called) procedure.
    let exe = link_with(&modules, &LinkOptions { allow_undefined_functions: true }).unwrap();
    let got = run_with(&exe, &SimOptions { input: vec![0], ..SimOptions::default() }).unwrap();

    let mut baseline_sources = lib_sources.clone();
    baseline_sources.push(SourceFile::new("app", app_src));
    baseline_sources.push(SourceFile::new("ghostmod", "int ghost(int x) { return x; }"));
    let baseline =
        ipra_driver::compile(&baseline_sources, &ipra_driver::CompileOptions::default()).unwrap();
    let expect = ipra_driver::run_program(&baseline, &[0]).unwrap();
    assert_eq!(got.output, expect.output);
    assert_eq!(got.exit, expect.exit);

    // The warm ghost path hits the trap stub, symbolized by name.
    let trap = run_with(&exe, &SimOptions { input: vec![1], ..SimOptions::default() })
        .unwrap_err()
        .to_string();
    assert!(trap.contains("ghost"), "the trap must be attributed to the stub: {trap}");
}

#[test]
fn library_database_has_no_entry_for_external_callers() {
    let mut db = ProgramDatabase::new();
    compile_library(&mut db);
    assert!(db.get("main").is_none());
    assert!(db.get("lib_insert_range").is_some());
    // Statics got module-qualified names in the database world.
    assert!(db.get("libtable$tbl_reset").is_none(), "tbl_* are not static here");
    assert!(db.get("tbl_put").is_some());
}
