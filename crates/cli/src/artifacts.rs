//! Artifact file handling for `cminc`: loaders for the versioned
//! [`ipra_artifact`] formats (`.csum`/`.cdir`/`.vo`/`.vx`/`.vlib`), which go
//! by each file's header rather than its name, plus the `c`, `lib` and
//! `objdump` subcommands. A file without an artifact header — bare JSON,
//! say — is an error that names the file.

use crate::{module_name, read};
use ipra_artifact::{
    ArtifactKind, DirectivesArtifact, ExecutableArtifact, ExecutableView, LibraryArtifact,
    LibraryMember, ObjectArtifact, SummaryArtifact,
};
use ipra_core::ProgramDatabase;
use ipra_driver::args::Args;
use ipra_driver::{CompilationCache, SourceFile};
use ipra_summary::ModuleSummary;
use serde::Deserialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vpr::program::{Executable, ObjectModule};
use vpr::regs::RegSet;
use vpr::target::{TargetDesc, TargetId};

/// The artifact kind that `text`, read from `path`, declares in its header.
fn kind_of(path: &str, text: &str) -> Result<ArtifactKind, String> {
    ipra_artifact::sniff(text).map(|(kind, _, _)| kind).map_err(|e| format!("{path}: {e}"))
}

/// Decodes `text`, read from `path`, as a `kind` artifact.
fn decode<T: Deserialize>(kind: ArtifactKind, path: &str, text: &str) -> Result<T, String> {
    ipra_artifact::decode(kind, text).map_err(|e| format!("{path}: {e}"))
}

/// Reads the `kind` artifact at `path`.
fn load<T: Deserialize>(kind: ArtifactKind, path: &str) -> Result<T, String> {
    decode(kind, path, &read(path)?)
}

/// Where a module's `.csum` summary sits: beside its `.vo` object.
fn summary_path_for(object: &str) -> PathBuf {
    Path::new(object).with_extension(ArtifactKind::Summary.extension())
}

/// Reads module summaries from one input file: a summary artifact, or a
/// library artifact (all member summaries, in archive order).
pub fn load_summaries(path: &str) -> Result<Vec<ModuleSummary>, String> {
    let text = read(path)?;
    if kind_of(path, &text)? == ArtifactKind::Library {
        let a: LibraryArtifact = decode(ArtifactKind::Library, path, &text)?;
        Ok(a.members.into_iter().map(|m| m.summary).collect())
    } else {
        let a: SummaryArtifact = decode(ArtifactKind::Summary, path, &text)?;
        Ok(vec![a.summary])
    }
}

/// Reads one relocatable object artifact.
pub fn load_object(path: &str) -> Result<ObjectModule, String> {
    load::<ObjectArtifact>(ArtifactKind::Object, path).map(|a| a.object)
}

/// Reads a program database from a directives artifact.
pub fn load_database(path: &str) -> Result<ProgramDatabase, String> {
    load::<DirectivesArtifact>(ArtifactKind::Directives, path).map(|a| a.database)
}

/// Reads an executable artifact.
pub fn load_executable(path: &str) -> Result<Executable, String> {
    decode_executable(path, &read(path)?)
}

/// Decodes `text`, read from `path`, as an executable artifact.
pub fn decode_executable(path: &str, text: &str) -> Result<Executable, String> {
    decode::<ExecutableArtifact>(ArtifactKind::Executable, path, text).map(|a| a.exe)
}

/// Writes a program database as a directives artifact, its header stamped
/// for `target` (the directive registers are target-specific, so
/// `objdump` needs the provenance).
pub fn write_database_for(
    path: &str,
    config: &str,
    database: &ProgramDatabase,
    target: TargetId,
) -> Result<(), String> {
    let payload = DirectivesArtifact { config: config.to_string(), database: database.clone() };
    ipra_artifact::write_file_for(ArtifactKind::Directives, Path::new(path), &payload, target)
        .map_err(|e| e.to_string())
}

/// Writes an executable artifact.
pub fn write_executable(path: &str, exe: &Executable) -> Result<(), String> {
    let payload = ExecutableView { exe };
    ipra_artifact::write_file_for(ArtifactKind::Executable, Path::new(path), &payload, exe.target())
        .map_err(|e| e.to_string())
}

/// Opens the compilation cache: persistent when `--cache-dir` gave a
/// directory, in-memory (useless across processes, but harmless) otherwise.
pub fn open_cache(dir: Option<&str>) -> Result<CompilationCache, String> {
    match dir {
        Some(dir) => {
            CompilationCache::with_disk(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))
        }
        None => Ok(CompilationCache::new()),
    }
}

/// `cminc c`: separate compilation of one module — phase 1 + phase 2 under
/// the directives in `--dir` (standard conventions without it), writing the
/// `.vo` object and, beside it unless `--summary` says otherwise, the
/// `.csum` summary. With `--cache-dir`, both phases are served from the
/// persistent cache when their fingerprints still match.
pub fn c_cmd(mut a: Args) -> Result<(), String> {
    let out = a.path("-o", "<mod.vo>");
    let summary = a.path("--summary", "<mod.csum>");
    let dir = a.path("--dir", "<prog.cdir>");
    let cache_dir = a.path("--cache-dir", "DIR");
    let target = crate::target(&mut a);
    let files = a.positionals("<src.cmin>");
    a.finish();
    let [src_path] = files.as_slice() else {
        return Err("c takes exactly one source file".into());
    };
    let stem = module_name(src_path);
    let out = out.unwrap_or(format!("{stem}.vo"));
    let sum_out = match summary {
        Some(path) => PathBuf::from(path),
        None => summary_path_for(&out),
    };
    let database = match dir {
        Some(p) => load_database(&p)?,
        None => ProgramDatabase::new(),
    };
    let mut cache = open_cache(cache_dir.as_deref())?;
    let src = SourceFile::new(stem, read(src_path)?);
    let product =
        ipra_driver::separate::build_module_for(&src, &database, true, &mut cache, target)
            .map_err(|e| e.to_string())?;
    // The object carries machine code for `target`; the summary is phase-1
    // output (target-independent) and stays unstamped.
    ipra_artifact::write_file_for(ArtifactKind::Object, Path::new(&out), &product.object, target)
        .map_err(|e| e.to_string())?;
    ipra_artifact::write_file(ArtifactKind::Summary, &sum_out, &product.summary)
        .map_err(|e| e.to_string())?;
    let leg = |hit: bool| if hit { "hit" } else { "miss" };
    eprintln!(
        "c: {src_path} -> {out}, {} (phase1 {}, phase2 {})",
        sum_out.display(),
        leg(product.phase1_hit),
        leg(product.phase2_hit)
    );
    Ok(())
}

/// `cminc lib`: archives `.vo` objects (each with its sibling `.csum`
/// summary) into a `.vlib` library, in argument order.
pub fn lib_cmd(mut a: Args) -> Result<(), String> {
    let out = a.path("-o", "<lib.vlib>");
    let objs = a.positionals("<mod.vo>...");
    a.finish();
    if objs.is_empty() {
        return Err("lib needs at least one .vo object file".into());
    }
    let out = out.ok_or("lib needs -o <lib.vlib>")?;
    let mut members = Vec::with_capacity(objs.len());
    for o in &objs {
        let object = load_object(o)?;
        let sum_path = summary_path_for(o);
        let summary: SummaryArtifact = load(ArtifactKind::Summary, &sum_path.to_string_lossy())
            .map_err(|e| {
                format!("{o}: library members need their summary ({}): {e}", sum_path.display())
            })?;
        members.push(LibraryMember { object, summary: summary.summary });
    }
    let lib = LibraryArtifact { members };
    ipra_artifact::write_file(ArtifactKind::Library, Path::new(&out), &lib)
        .map_err(|e| e.to_string())?;
    eprintln!("lib: {} member(s) -> {out}", lib.members.len());
    Ok(())
}

/// Splits `link` inputs into root objects and library archives, pulling
/// needed library members ar-style (to fixpoint across all libraries).
pub fn collect_link_inputs(paths: &[String]) -> Result<Vec<ObjectModule>, String> {
    let mut roots = Vec::new();
    let mut library = LibraryArtifact::default();
    for p in paths {
        let text = read(p)?;
        if kind_of(p, &text)? == ArtifactKind::Library {
            let a: LibraryArtifact = decode(ArtifactKind::Library, p, &text)?;
            library.members.extend(a.members);
        } else {
            let a: ObjectArtifact = decode(ArtifactKind::Object, p, &text)?;
            roots.push(a.object);
        }
    }
    for i in library.select(&roots) {
        roots.push(library.members[i].object.clone());
    }
    Ok(roots)
}

// ---------------------------------------------------------------------------
// objdump.

/// `cminc objdump <file>`: pretty-prints any of the five artifact kinds.
pub fn objdump_cmd(mut a: Args) -> Result<(), String> {
    let files = a.positionals("<artifact-file>");
    a.finish();
    let [path] = files.as_slice() else {
        return Err("objdump takes exactly one artifact file".into());
    };
    let text = read(path)?;
    let (kind, version, target) =
        ipra_artifact::sniff(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {kind} artifact v{version} (target {target})");
    match kind {
        ArtifactKind::Summary => {
            let a: SummaryArtifact = decode(kind, path, &text)?;
            println!("source fnv64:{:016x}  ir fnv64:{:016x}", a.source_fp, a.ir_fp);
            print!("{}", dump_summary(&a.summary));
        }
        ArtifactKind::Directives => {
            let a: DirectivesArtifact = decode(kind, path, &text)?;
            println!("config {}  ({} procedures)", a.config, a.database.len());
            // The directive registers are target-specific; the header
            // stamp names which convention to render them in.
            print!("{}", dump_directives(&a.database, target.desc()));
        }
        ArtifactKind::Object => {
            let a: ObjectArtifact = decode(kind, path, &text)?;
            println!("ir fnv64:{:016x}  directives fnv64:{:016x}", a.ir_fp, a.dir_fp);
            print!("{}", dump_object(&a.object));
        }
        ArtifactKind::Executable => {
            print!("{}", vpr::asm::executable_asm(&decode_executable(path, &text)?));
        }
        ArtifactKind::Library => {
            let a: LibraryArtifact = decode(kind, path, &text)?;
            for (i, m) in a.members.iter().enumerate() {
                let funcs: Vec<&str> = m.object.functions.iter().map(|f| f.name()).collect();
                let globals: Vec<&str> = m.object.globals.iter().map(|g| g.sym.as_str()).collect();
                println!(
                    "member {i}: module {} defines [{}] globals [{}]",
                    m.object.name,
                    funcs.join(" "),
                    globals.join(" ")
                );
            }
        }
    }
    Ok(())
}

fn dump_summary(s: &ModuleSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "module {}: {} procedure(s), {} global(s)",
        s.module,
        s.procs.len(),
        s.globals.len()
    );
    for g in &s.globals {
        let _ = writeln!(out, "  global {g:?}");
    }
    for p in &s.procs {
        let _ = writeln!(
            out,
            "  proc {}: callee-saves est {}, caller-saves est {}{}",
            p.name,
            p.callee_saves_estimate,
            p.caller_saves_estimate,
            if p.makes_indirect_calls { ", makes indirect calls" } else { "" }
        );
        for c in &p.calls {
            let _ = writeln!(out, "    call {c:?}");
        }
        for r in &p.global_refs {
            let _ = writeln!(out, "    ref  {r:?}");
        }
        for t in &p.taken_addresses {
            let _ = writeln!(out, "    addr-taken {t}");
        }
    }
    out
}

/// Renders a register set with the target's ABI names (`{a0, s3}`).
fn fmt_regset(set: RegSet, desc: &TargetDesc) -> String {
    let names: Vec<&str> = set.iter().map(|r| desc.reg_name(r)).collect();
    format!("{{{}}}", names.join(", "))
}

fn dump_directives(db: &ProgramDatabase, desc: &TargetDesc) -> String {
    let mut out = String::new();
    for d in db.iter() {
        let _ = writeln!(
            out,
            "proc {:<16} mspill {}{}  claimed {}  safe-across {}",
            d.name,
            fmt_regset(d.usage.mspill, desc),
            if d.is_cluster_root { "  cluster-root" } else { "" },
            fmt_regset(d.claimed_caller, desc),
            fmt_regset(d.safe_caller_across, desc)
        );
        for p in &d.promotions {
            let _ = writeln!(
                out,
                "  promote {:<14} -> {}{}{}",
                p.sym,
                desc.reg_name(p.reg),
                if p.is_entry { "  (entry: load here)" } else { "" },
                if p.store_at_exit { "  (store at exit)" } else { "" }
            );
        }
    }
    out
}

fn dump_object(m: &ObjectModule) -> String {
    let desc = m.target.desc();
    let mut out = String::new();
    let _ = writeln!(out, "module {} (target {})", m.name, m.target);
    for g in &m.globals {
        let _ = writeln!(out, "global {} ({} words)", g.sym, g.size);
    }
    for f in &m.functions {
        out.push_str(&vpr::asm::function_asm_for(f, desc));
    }
    let relocs = m.relocations();
    let _ = writeln!(out, "; {} relocation(s)", relocs.len());
    for r in &relocs {
        let _ = writeln!(out, ";   {}+{}: {} {}", r.func, r.inst, r.kind, r.sym);
    }
    let symbols = m.symbol_table();
    let list = |set: &std::collections::BTreeSet<String>| {
        set.iter().cloned().collect::<Vec<_>>().join(" ")
    };
    let _ = writeln!(out, "; defines funcs [{}]", list(&symbols.defined_funcs));
    let _ = writeln!(out, "; defines globals [{}]", list(&symbols.defined_globals));
    let _ = writeln!(out, "; needs funcs [{}]", list(&symbols.undefined_funcs));
    let _ = writeln!(out, "; needs globals [{}]", list(&symbols.undefined_globals));
    out
}
