//! The disk tier's two files, `frames-v1.pack` and `frames-v1.idx`, under
//! damage, crashes and concurrent writers.
//!
//! Whatever bytes the pack and the index hold, a build hits or misses: it
//! never panics, fails, or links an executable other than the one
//! [`compile`] links from the same sources. Several caches, in threads or
//! processes, may append to one directory, and each one sees the frames
//! the others appended.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile, compile_incremental, BuildReport, CompilationCache, CompileOptions, SourceFile,
};
use ipra_workloads::scaled::{perturb, scaled_program};
use std::path::{Path, PathBuf};

const PACK: &str = "frames-v1.pack";
const INDEX: &str = "frames-v1.idx";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipra-pack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> CompileOptions {
    CompileOptions::paper(PaperConfig::C)
}

/// A build through a fresh cache over `dir`: a new process's build.
fn fresh_build(dir: &Path, sources: &[SourceFile]) -> ipra_driver::CompiledProgram {
    let mut cache = CompilationCache::with_disk(dir).unwrap();
    compile_incremental(sources, &opts(), &mut cache).unwrap()
}

/// Every probe of the build came off disk.
fn all_disk_hits(b: &BuildReport, modules: usize) -> bool {
    (b.phase1.disk_hits, b.phase2.disk_hits, b.analyze.disk_hits) == (modules, modules, 1)
}

/// Flips every byte of a small directory's pack and index in turn, and
/// cuts each file at every length. Each damaged directory serves one build
/// through a fresh cache, which must hit or miss its way to `compile()`'s
/// executable.
#[test]
fn no_single_flipped_byte_or_truncation_yields_a_wrong_executable() {
    let sources = vec![
        SourceFile::new("lib", "int g; int f(int x) { g = g + x; return g; }"),
        SourceFile::new("app", "extern int f(int x); int main() { out(f(2)); return 0; }"),
    ];
    let expected = compile(&sources, &opts()).unwrap().exe;
    let dir = tmpdir("flips");
    assert_eq!(fresh_build(&dir, &sources).exe, expected);
    let pack = std::fs::read(dir.join(PACK)).unwrap();
    let index = std::fs::read(dir.join(INDEX)).unwrap();
    assert!(!pack.is_empty() && !index.is_empty());
    let (mut hits, mut builds) = (0, 0);
    let mut probe = |pack: &[u8], index: &[u8], what: &str| {
        std::fs::write(dir.join(PACK), pack).unwrap();
        std::fs::write(dir.join(INDEX), index).unwrap();
        let built = fresh_build(&dir, &sources);
        assert_eq!(built.exe, expected, "{what}");
        hits += built.build.phase1.disk_hits + built.build.phase2.disk_hits;
        builds += 1;
    };
    for (name, bytes) in [(PACK, &pack), (INDEX, &index)] {
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x41;
            let what = format!("{name}: byte {i} flipped");
            match name {
                PACK => probe(&flipped, &index, &what),
                _ => probe(&pack, &flipped, &what),
            }
            let what = format!("{name}: cut at {i}");
            match name {
                PACK => probe(&pack[..i], &index, &what),
                _ => probe(&pack, &index[..i], &what),
            }
        }
    }
    assert!(hits > 0 && hits < 4 * builds, "damage costs some hits, not all");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer that died inside its index append leaves a torn frame at the
/// index's end. Readers stop before it, and the next flush cuts it off
/// before appending, so every frame of every build hits afterwards.
#[test]
fn a_torn_index_tail_is_dropped_by_the_next_flush() {
    let dir = tmpdir("torn");
    let base = scaled_program(4);
    fresh_build(&dir, &base);
    let index = std::fs::read(dir.join(INDEX)).unwrap();
    // Half of a copy of the index's one frame, as a crash would leave it.
    let mut torn = index.clone();
    torn.extend_from_slice(&index[..index.len() / 2]);
    std::fs::write(dir.join(INDEX), &torn).unwrap();
    assert!(all_disk_hits(&fresh_build(&dir, &base).build, 4), "readers skip the torn tail");
    let mut edited = base.clone();
    perturb(&mut edited, 2, 5);
    let first = fresh_build(&dir, &edited);
    assert_eq!((first.build.phase1.misses, first.build.phase1.disk_hits), (1, 3));
    let after = std::fs::read(dir.join(INDEX)).unwrap();
    assert_eq!(after[..index.len()], index[..], "the whole frames stay");
    assert!(!after[index.len()..].starts_with(&index[..index.len() / 2]), "the tail is cut");
    for sources in [&base, &edited] {
        let built = fresh_build(&dir, sources);
        assert!(all_disk_hits(&built.build, 4), "{:?}", built.build);
        assert_eq!(built.exe, compile(sources, &opts()).unwrap().exe);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads, each with caches of its own over one directory, build
/// overlapping programs, starting each round together: their appends
/// interleave under the pack's lock, and every build links what
/// `compile()` links. A fresh cache then serves each thread's last program
/// wholly from disk.
#[test]
fn concurrent_writers_share_one_directory() {
    const N: usize = 6;
    let dir = tmpdir("concurrent");
    let round_start = std::sync::Barrier::new(2);
    // Both threads build the same edits of one program in step; the second
    // also carries an edit of its own, so the two write some frames alike
    // and some apart.
    let program = |thread: usize, round: usize| {
        let mut sources = scaled_program(N);
        perturb(&mut sources, round % N, round as i64 / 2);
        if thread == 1 {
            perturb(&mut sources, (round + 3) % N, 1000 + round as i64);
        }
        sources
    };
    let last = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|thread| {
                let (dir, program, round_start) = (&dir, &program, &round_start);
                s.spawn(move || {
                    for round in 0..20 {
                        let sources = program(thread, round);
                        round_start.wait();
                        let built = fresh_build(dir, &sources);
                        let expected = compile(&sources, &opts()).unwrap().exe;
                        assert_eq!(built.exe, expected, "thread {thread}, round {round}");
                    }
                    program(thread, 19)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
    });
    for sources in &last {
        let built = fresh_build(&dir, sources);
        assert!(all_disk_hits(&built.build, N), "{:?}", built.build);
        assert!(built.build.recompiled.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache A has read the index when cache B appends a build of an edited
/// program: A's build of that program finds B's frames as disk hits.
#[test]
fn a_cache_sees_frames_another_cache_appended_after_it_opened() {
    let dir = tmpdir("late");
    let base = scaled_program(5);
    let mut a = CompilationCache::with_disk(&dir).unwrap();
    let first = compile_incremental(&base, &opts(), &mut a).unwrap();
    assert_eq!(first.build.phase1.misses, 5);
    let mut edited = base.clone();
    perturb(&mut edited, 1, 42);
    let by_b = fresh_build(&dir, &edited);
    assert_eq!(by_b.build.phase1.misses, 1);
    let by_a = compile_incremental(&edited, &opts(), &mut a).unwrap();
    let p1 = &by_a.build.phase1;
    assert_eq!((p1.hits, p1.disk_hits, p1.misses), (5, 1, 0), "B's phase-1 frame");
    let p2 = &by_a.build.phase2;
    assert_eq!((p2.hits, p2.disk_hits, p2.misses), (5, 1, 0), "B's phase-2 frame");
    assert!(by_a.build.recompiled.is_empty());
    assert_eq!(by_a.exe, by_b.exe);
    let _ = std::fs::remove_dir_all(&dir);
}
