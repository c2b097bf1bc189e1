//! Fault injection for `cmind`: the daemon must degrade — never lie,
//! never die.
//!
//! Three failure families, each pushed through a live daemon:
//! corrupted/truncated persistent-cache files (degrade to cache
//! misses, count `cache.disk.corrupt`, rebuild the right bytes), hostile
//! and truncated wire frames (typed protocol errors, connection-local
//! damage only), and clients that vanish mid-exchange (the daemon logs a
//! disconnect counter and keeps serving everyone else).

use ipra_daemon::protocol::{self, BuildRequest, Request};
use ipra_daemon::{Client, Server, ServerOptions};
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_workloads::scaled::{perturb, scaled_program};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmind-fault-{tag}-{}.sock", std::process::id()))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmind-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn request_for(sources: &[SourceFile]) -> BuildRequest {
    BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: sources.to_vec(),
        training_input: Vec::new(),
    }
}

fn local_vx(sources: &[SourceFile]) -> String {
    let program = compile(sources, &CompileOptions::default()).expect("local compile");
    protocol::executable_artifact(&program.exe).0
}

/// The disk tier's two files under a cache directory.
const PACK: &str = "frames-v1.pack";
const INDEX: &str = "frames-v1.idx";

/// Damages the disk tier under `dir`: the pack's first half is overwritten
/// with garbage and its second half cut off, so every frame the index
/// records is damaged, and the index loses its last byte, which tears its
/// last frame. Returns how many bytes the pack held.
fn corrupt_cache_files(dir: &Path) -> usize {
    let pack = std::fs::read(dir.join(PACK)).expect("read the pack");
    let garbage: Vec<u8> =
        b"not a cache entry".iter().copied().cycle().take(pack.len() / 2).collect();
    std::fs::write(dir.join(PACK), garbage).expect("corrupt the pack");
    let index = std::fs::read(dir.join(INDEX)).expect("read the index");
    std::fs::write(dir.join(INDEX), &index[..index.len() - 1]).expect("truncate the index");
    pack.len()
}

fn counter(client: &mut Client, name: &str) -> u64 {
    let counters = client.stats().expect("stats");
    counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

/// Waits until `name` reaches at least `want` (counters are updated by
/// detached worker threads, so a freshly-sent request may not have
/// landed yet).
fn wait_for_counter(client: &mut Client, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let got = counter(client, name);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Corrupt and truncate cache files between daemons: the restarted
/// daemon must fall back to recompiling (counting the damage) and still
/// serve bytes identical to a pristine cold compile.
#[test]
fn corrupted_cache_files_degrade_to_misses_with_correct_bytes() {
    let cache_dir = tmpdir("cache");
    let opts = |tag: &str| ServerOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ServerOptions::new(sock(tag))
    };
    let server = Server::start(opts("cache")).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");

    let sources_a = scaled_program(6);
    let mut sources_b = scaled_program(6);
    perturb(&mut sources_b, 3, 77);
    let expected_a = local_vx(&sources_a);
    let expected_b = local_vx(&sources_b);

    let built = client.build(&request_for(&sources_a)).expect("build a");
    assert_eq!(built.vx, expected_a);
    let built = client.build(&request_for(&sources_b)).expect("build b");
    assert_eq!(built.vx, expected_b);
    client.shutdown().expect("shutdown");
    server.wait();

    let mut files: Vec<_> =
        std::fs::read_dir(&cache_dir).expect("cache dir").map(|e| e.unwrap().file_name()).collect();
    files.sort();
    assert_eq!(files, [INDEX, PACK], "the disk tier is one pack and its index");
    let vandalized = corrupt_cache_files(&cache_dir);
    assert!(vandalized > 0, "the first builds should have persisted cache entries");

    // Round two: a restarted daemon has nothing in memory, so both
    // programs — their analyses included — load through the poisoned disk
    // tier. Every answer must still be byte-identical, a damaged analysis
    // frame must send the build back to the analyzer, and the daemon must
    // have noticed the damage.
    let server = Server::start(opts("cache-restart")).expect("server restart");
    let mut client = Client::connect(server.socket()).expect("connect");
    let built = client.build(&request_for(&sources_a)).expect("rebuild a");
    assert_eq!(built.vx, expected_a, "corrupt cache must not change output bytes");
    assert_eq!(counter(&mut client, "analyze.misses"), 1, "the analyzer re-ran");
    assert_eq!(counter(&mut client, "analyze.hits"), 0);
    let built = client.build(&request_for(&sources_b)).expect("rebuild b");
    assert_eq!(built.vx, expected_b, "corrupt cache must not change output bytes");
    assert!(counter(&mut client, "cache.disk.corrupt") > 0, "disk damage goes unlogged");
    client.shutdown().expect("shutdown");
    server.wait();
}

/// Hostile frames and vanishing clients are connection-local events: the
/// daemon counts them, drops the one connection, and keeps serving.
#[test]
fn wire_faults_and_client_disconnects_do_not_take_the_daemon_down() {
    let server = Server::start(ServerOptions::new(sock("wire"))).expect("server start");
    let socket = server.socket().to_path_buf();

    // 1. Pure garbage where a header should be.
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(b"GARBAGE-GARBAGE-GARBAGE").expect("write garbage");
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
    // 2. A frame that promises 4096 payload bytes and delivers 10.
    {
        let sources = scaled_program(2);
        let mut frame = protocol::encode_request(&Request::Build(request_for(&sources))).unwrap();
        frame[6..10].copy_from_slice(&4096u32.to_le_bytes());
        frame.truncate(protocol::HEADER_LEN + 10);
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(&frame).expect("write truncated frame");
        // Dropping the stream here is the "client died mid-request" case.
    }
    // 3. A well-formed build request whose client hangs up without
    //    reading the response: the daemon's write fails and is counted.
    let sources = scaled_program(4);
    {
        let frame = protocol::encode_request(&Request::Build(request_for(&sources))).unwrap();
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(&frame).expect("write request");
        // Drop without reading: the build proceeds, the response bounces.
    }

    let mut client = Client::connect(&socket).expect("connect");
    let errors = wait_for_counter(&mut client, "daemon.protocol_errors", 2);
    assert!(errors >= 2, "expected >= 2 protocol errors, saw {errors}");
    let builds = wait_for_counter(&mut client, "daemon.builds", 1);
    assert!(builds >= 1, "abandoned request still builds");
    let dropped = wait_for_counter(&mut client, "daemon.client_disconnects", 1);
    assert!(dropped >= 1, "response to a dead client goes uncounted");

    // The daemon is still healthy: a well-behaved client gets correct bytes.
    let built = client.build(&request_for(&sources)).expect("build after faults");
    assert_eq!(built.vx, local_vx(&sources), "daemon still serves exact bytes");

    client.shutdown().expect("shutdown");
    server.wait();
}
