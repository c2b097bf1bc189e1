//! `daemon_bench` — the build-service throughput benchmark.
//!
//! Starts an in-process `cmind` ([`Server`]) and measures request
//! throughput over the wire protocol in the regimes the daemon exists
//! for:
//!
//! * **cold/1** — one client, every request a never-seen program under
//!   never-seen module names: the daemon compiles from scratch each time,
//!   analysis included (the no-daemon baseline, plus wire overhead);
//! * **warm/1** — one client re-requesting a primed program: pure cache
//!   hits through one connection, and from its second link on the
//!   daemon's `.vx` tier serves the program's text without a link;
//! * **cold/N** — N clients submitting N distinct never-seen programs
//!   concurrently, each under never-seen module names (a project of its
//!   own, so the programs spread across shards): shard parallelism on
//!   misses;
//! * **warm/N** — N clients hammering the primed program concurrently: the
//!   multi-tenant payoff, where one tenant's phase-1 work serves everyone
//!   (the headline gate: ≥ 2× the cold single-client rate);
//! * **branches/1** — one client re-requesting, round-robin, 4 primed
//!   branches of one program (the same module names, every module
//!   re-tuned per branch): the branches share their project's shard, and
//!   each keeps its entries there, so no request recompiles anything, and
//!   once a branch is linked twice the `.vx` tier serves it;
//! * **contended/2** — two clients on one project: one sends one-module
//!   edits of the primed program, each a new tune, and the other
//!   re-requests the primed program once per edit, as soon as the
//!   daemon's `daemon.dedup.leads` shows the edit's build started, so
//!   that it lands while the edit builds. A build holds its shard only for
//!   its cache operations, so the re-requests should not queue behind the
//!   edits' compiles;
//! * **dedup/N** — N clients racing one identical never-seen request from
//!   behind a barrier, once: the in-flight map must coalesce followers onto
//!   the leader's build.
//!
//! Each regime is one row (layer `daemon`). The one-client legs cold/1,
//! warm/1 and branches/1 add a row at layer `latency` whose `seconds` is
//! the median round trip of every request over all trials, and whose
//! `samples` counts them (too few for a tail percentile, so none is
//! reported). contended/2 runs [`TRIALS`] trials, and its `daemon` row's
//! `seconds` is the shortest time a trial's edits took (`requests` counts
//! one trial's edits and re-requests); its `latency` row is the lowest
//! trial median of the re-requests' round trips (`samples` counts every
//! trial's): on a 2-core host a re-request sometimes waits for the core
//! the edit's build runs on, which slows a whole trial. The five
//! throughput legs are timed best of [`TRIALS`]; `requests` counts one
//! trial's requests, so requests/s is `requests / seconds`. Every row
//! also counts what the daemon did from the end of the previous row to the
//! end of this one, untimed setup included (the daemon's counters summed
//! over the rows are its counters at the end of the run), the `.vx`
//! tier's `vx.hits` and `vx.misses` (links) among them. Every warm and
//! concurrent response is asserted byte-identical to an independent cold
//! `compile()`, so the throughput being measured is the throughput of
//! *correct* responses.
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin daemon_bench             # 256 modules, 8 clients
//! cargo run --release -p ipra-bench --bin daemon_bench -- --check
//! ```
//!
//! Every leg builds programs of `--modules` modules (default
//! [`DEFAULT_MODULES`]). The contended/2 gate is set for that default: in
//! a smaller program an edit's build is too short against a hit's round
//! trip for a hit that queues behind it to stand out from one that waits
//! only for the other build's core.
//!
//! `--check` fails the run unless warm/N serves at least twice the
//! requests/s of cold/1 (`warm_n_over_cold_1`), neither cold leg reused
//! an analysis (`cold/1.analyze.hits`, `cold/N.analyze.hits`), the
//! branches/1 leg recompiled no module (`branches/1.recompiled`, the sum
//! of every timed response's `recompiled` list), warm/1 and branches/1
//! linked each of their programs at most twice and the `.vx` tier served
//! every other request (`{leg}.vx.misses`, `{leg}.vx.hits`: the two links
//! are the untimed priming build and, as the tier keeps a text from its
//! second link, the first re-request; both legs build under L2, so these
//! gates see the daemon route a configuration other than `daemon-mix`'s C
//! through the tier), and the dedup round
//! coalesced at least one request with every request either leading or
//! coalesced, and the contended/2 re-requests' median round trip stayed
//! within [`MAX_CONTENDED_OVER_WARM`] times warm/1's
//! (`contended/2.latency_over_warm_1`) — the CI smoke mode wired into
//! `scripts/check.sh`. Results go to `BENCH_daemon.json`.

use ipra_bench::harness::{
    best_of, count, counters, median, time, BenchArgs, Cmp, Counters, Host, Report, TRIALS,
};
use ipra_daemon::protocol::{executable_artifact, BuildRequest};
use ipra_daemon::{Client, Server, ServerOptions};
use ipra_driver::args::Args;
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_workloads::scaled::{perturb, scaled_module};
use std::path::Path;
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// Modules per program unless `--modules` says otherwise.
const DEFAULT_MODULES: usize = 256;
/// Concurrent clients of the N-client regimes.
const CLIENTS: usize = 8;
/// Requests per client in each throughput leg but warm/1.
const REQUESTS: usize = 3;
/// Requests in each warm/1 trial: enough for a steady median round trip,
/// which the contended/2 gate divides by.
const WARM_REQUESTS: usize = 16;
/// Branches of the branches/1 program.
const BRANCHES: usize = 4;
/// Round-robin passes over the branches in each branches/1 trial.
const BRANCH_ROUNDS: usize = 2;
/// The headline gate: warm/N requests/s over cold/1 requests/s.
const MIN_WARM_N_OVER_COLD_1: f64 = 2.0;
/// One-module edits the contended/2 leg's editing client sends.
const CONTENDED_EDITS: usize = 32;
/// The contended/2 gate: the re-requests' median round trip over warm/1's.
const MAX_CONTENDED_OVER_WARM: f64 = 1.8;

/// A program no earlier request has ever mentioned: every module carries
/// the next tune from a monotone counter, so each call yields a distinct
/// fingerprint (a guaranteed cache miss end to end).
fn unique_program(modules: usize, tune: &mut i64) -> Vec<SourceFile> {
    *tune += 1;
    let t = *tune;
    (0..modules).map(|i| scaled_module(i, modules, t)).collect()
}

/// `sources` as a project of its own: every module name gets `prefix`.
fn renamed(sources: Vec<SourceFile>, prefix: &str) -> Vec<SourceFile> {
    sources.into_iter().map(|s| SourceFile { name: format!("{prefix}{}", s.name), ..s }).collect()
}

/// A never-seen program under never-seen module names. Re-tuning alone
/// leaves every module summary as it was, so the analysis would still
/// hit; new names make the summaries new too, so nothing is reused.
fn fresh_project(modules: usize, tune: &mut i64) -> Vec<SourceFile> {
    let sources = unique_program(modules, tune);
    renamed(sources, &format!("n{tune}_"))
}

fn request_for(sources: &[SourceFile]) -> BuildRequest {
    BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: sources.to_vec(),
        training_input: Vec::new(),
    }
}

/// Independent ground truth: a cold, cache-free, single-threaded build.
fn oracle_vx(sources: &[SourceFile]) -> Arc<String> {
    let program = compile(sources, &CompileOptions::default()).expect("oracle compile");
    Arc::new(executable_artifact(&program.exe).0)
}

/// Client threads, each connected with its own request list and waiting
/// at a barrier for [`Clients::run`].
struct Clients {
    barrier: Arc<Barrier>,
    threads: Vec<JoinHandle<()>>,
}

impl Clients {
    /// Connects one client per request list; returns once all are
    /// connected. Every response is byte-checked against its request's
    /// expected text.
    fn connect(socket: &Path, work: Vec<Vec<(BuildRequest, Arc<String>)>>) -> Clients {
        let barrier = Arc::new(Barrier::new(work.len() + 1));
        let threads = work
            .into_iter()
            .enumerate()
            .map(|(id, list)| {
                let socket = socket.to_path_buf();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = Client::connect(&socket).expect("bench client connect");
                    barrier.wait(); // connected
                    barrier.wait(); // released
                    for (request, expect) in &list {
                        let built = client
                            .build(request)
                            .unwrap_or_else(|e| panic!("bench client {id}: {e}"));
                        assert_eq!(
                            &built.vx, &**expect,
                            "bench client {id}: daemon bytes != solo cold compile"
                        );
                    }
                })
            })
            .collect();
        barrier.wait();
        Clients { barrier, threads }
    }

    /// Releases every client and waits for the last to finish.
    fn run(self) {
        self.barrier.wait();
        for th in self.threads {
            th.join().expect("bench client thread");
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args::new("daemon_bench", std::env::args().skip(1));
    let modules = args.value("--modules", "N", count).unwrap_or(DEFAULT_MODULES);
    let bench = BenchArgs::declare(&mut args, "BENCH_daemon.json");
    args.finish();

    let socket = std::env::temp_dir().join(format!("cmind-bench-{}.sock", std::process::id()));
    let options = ServerOptions::new(&socket);
    let mut report = Report::new("daemon", Host::new(options.jobs));
    let server = Server::start(options).expect("server start");
    let mut tune: i64 = 10_000;

    // Adds one regime's row: the bench's own counts (`requests` at least)
    // and what the daemon did since the previous row.
    let mut seen = Counters::new();
    let mut row = |report: &mut Report, name: &str, seconds: f64, work: Counters| {
        let now = server.telemetry().counters();
        let mut counters: Counters =
            now.iter().map(|(k, v)| (k.clone(), v - seen.get(k).unwrap_or(&0))).collect();
        counters.extend(work);
        report.row(name, "daemon", seconds, counters);
        seen = now;
    };
    let requests = |n: usize| counters([("requests", n as u64)]);
    // Adds a one-client leg's latency row: the median round trip over
    // every request of every trial. Too few samples for a tail.
    let latency = |report: &mut Report, name: &str, samples: Vec<f64>| {
        let n = samples.len() as u64;
        report.row(name, "latency", median(samples), counters([("samples", n)]));
    };

    // Cold, one client: every request a never-seen project, so the wire
    // round trip sits on top of a full compile each time.
    let mut solo = Client::connect(&socket).expect("solo client connect");
    let mut samples = Vec::new();
    let (_, seconds) = best_of(
        || (0..REQUESTS).map(|_| request_for(&fresh_project(modules, &mut tune))).collect(),
        |work: Vec<BuildRequest>| {
            for request in &work {
                let (built, seconds) = time(|| solo.build(request));
                built.expect("cold build");
                samples.push(seconds);
            }
            work
        },
    );
    row(&mut report, "cold/1", seconds, requests(REQUESTS));
    latency(&mut report, "cold/1", std::mem::take(&mut samples));

    // Prime one program and pin down its ground-truth bytes for the warm
    // legs (the byte check rides inside every warm response).
    let primed_sources = unique_program(modules, &mut tune);
    let primed_request = request_for(&primed_sources);
    let primed_vx = oracle_vx(&primed_sources);
    let first = solo.build(&primed_request).expect("priming build");
    assert_eq!(first.vx, *primed_vx, "priming build: daemon bytes != solo cold compile");

    // Warm, one client: pure cache hits through one connection.
    let ((), seconds) = best_of(
        || (),
        |()| {
            for _ in 0..WARM_REQUESTS {
                let (built, seconds) = time(|| solo.build(&primed_request));
                samples.push(seconds);
                let built = built.expect("warm build");
                assert_eq!(built.vx, *primed_vx, "warm build: daemon bytes != solo cold compile");
            }
        },
    );
    row(&mut report, "warm/1", seconds, requests(WARM_REQUESTS));
    latency(&mut report, "warm/1", std::mem::take(&mut samples));

    // Cold, N clients: N distinct never-seen projects in flight at once
    // (each lands on its project's shard, so misses can overlap).
    let ((), seconds) = best_of(
        || {
            let work = (0..CLIENTS)
                .map(|_| {
                    let sources = fresh_project(modules, &mut tune);
                    vec![(request_for(&sources), oracle_vx(&sources))]
                })
                .collect();
            Clients::connect(&socket, work)
        },
        Clients::run,
    );
    row(&mut report, &format!("cold/{CLIENTS}"), seconds, requests(CLIENTS));

    // Warm, N clients: everyone hammers the primed program. This is the
    // multi-tenant payoff the daemon exists for.
    let ((), seconds) = best_of(
        || {
            let list: Vec<_> =
                (0..REQUESTS).map(|_| (primed_request.clone(), Arc::clone(&primed_vx))).collect();
            Clients::connect(&socket, vec![list; CLIENTS])
        },
        Clients::run,
    );
    row(&mut report, &format!("warm/{CLIENTS}"), seconds, requests(CLIENTS * REQUESTS));

    // Branches, one client: 4 branches of one program, primed untimed, then
    // re-requested round-robin. Every branch meets its project's shard and
    // keeps its entries there, so the timed leg should recompile nothing.
    let branches: Vec<(BuildRequest, Arc<String>)> = (0..BRANCHES)
        .map(|_| {
            let sources = unique_program(modules, &mut tune);
            let (request, expect) = (request_for(&sources), oracle_vx(&sources));
            let built = solo.build(&request).expect("priming branch build");
            assert_eq!(
                built.vx, *expect,
                "priming branch build: daemon bytes != solo cold compile"
            );
            (request, expect)
        })
        .collect();
    let mut recompiled = 0;
    let ((), seconds) = best_of(
        || (),
        |()| {
            for (request, expect) in branches.iter().cycle().take(BRANCH_ROUNDS * BRANCHES) {
                let (built, seconds) = time(|| solo.build(request));
                samples.push(seconds);
                let built = built.expect("branch build");
                assert_eq!(built.vx, **expect, "branch build: daemon bytes != solo cold compile");
                recompiled += built.recompiled.len();
            }
        },
    );
    let work = counters([
        ("requests", (BRANCH_ROUNDS * BRANCHES) as u64),
        ("recompiled", recompiled as u64),
    ]);
    row(&mut report, "branches/1", seconds, work);
    latency(&mut report, "branches/1", std::mem::take(&mut samples));

    // Contended, two clients on one project: one edits the primed program
    // a module at a time, each edit a never-seen tune, and the other
    // re-requests the primed program, which the `.vx` tier serves, while
    // each edit builds. The branches' builds retired the primed program's
    // entries from the shard: two untimed builds bring them back and its
    // text into the `.vx` tier.
    for _ in 0..2 {
        let built = solo.build(&primed_request).expect("re-priming build");
        assert_eq!(built.vx, *primed_vx, "re-priming build: daemon bytes != solo cold compile");
    }
    let mut editor = Client::connect(&socket).expect("editing client connect");
    // Every edit and every re-request leads a build of its own.
    let leads = |client: &mut Client| {
        let counters = client.stats().expect("stats");
        counters.iter().find(|c| c.name == "daemon.dedup.leads").map_or(0, |c| c.value)
    };
    let (mut best_median, mut best_seconds, mut re_requests) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..TRIALS {
        let edits: Vec<(BuildRequest, Arc<String>)> = (0..CONTENDED_EDITS)
            .map(|k| {
                let mut sources = primed_sources.clone();
                tune += 1;
                perturb(&mut sources, k % modules, tune);
                (request_for(&sources), oracle_vx(&sources))
            })
            .collect();
        // The editing thread signals each edit as it sends it, and drops
        // the sender when it returns or panics.
        let (sending, sent) = mpsc::channel::<()>();
        let editor = &mut editor;
        let mut led = leads(&mut solo);
        let seconds = std::thread::scope(|scope| {
            let edits = scope.spawn(move || {
                let ((), seconds) = time(|| {
                    for (request, expect) in &edits {
                        sending.send(()).expect("the re-requesting client waits");
                        let built = editor.build(request).expect("edit build");
                        assert_eq!(built.vx, **expect, "edit: daemon bytes != solo cold compile");
                    }
                });
                seconds
            });
            for () in sent {
                led += 1;
                // An edit that fails before it leads ends the editor, whose
                // panic the join below reports.
                while leads(&mut solo) < led && !edits.is_finished() {}
                led += 1;
                let (built, seconds) = time(|| solo.build(&primed_request));
                samples.push(seconds);
                let built = built.expect("contended re-request");
                assert_eq!(built.vx, *primed_vx, "re-request: daemon bytes != solo cold compile");
            }
            edits.join().expect("editing client thread")
        });
        re_requests += samples.len();
        best_median = best_median.min(median(std::mem::take(&mut samples)));
        best_seconds = best_seconds.min(seconds);
    }
    let work =
        counters([("requests", 2 * CONTENDED_EDITS as u64), ("edits", CONTENDED_EDITS as u64)]);
    row(&mut report, "contended/2", best_seconds, work);
    report.row("contended/2", "latency", best_median, counters([("samples", re_requests as u64)]));

    // Dedup: N clients race one identical never-seen request from behind
    // a barrier, once; followers must coalesce onto the leader's build.
    let dedup_sources = unique_program(modules, &mut tune);
    let dedup = (request_for(&dedup_sources), oracle_vx(&dedup_sources));
    let clients = Clients::connect(&socket, vec![vec![dedup]; CLIENTS]);
    let ((), seconds) = time(|| clients.run());
    let name = format!("dedup/{CLIENTS}");
    row(&mut report, &name, seconds, requests(CLIENTS));
    drop(solo);
    server.stop();

    let counter = |name: &str, key: &str| {
        report.find(name, "daemon").counters.0.get(key).copied().unwrap_or(0) as f64
    };
    let rate = |name: &str| counter(name, "requests") / report.find(name, "daemon").seconds;
    let ratio = rate(&format!("warm/{CLIENTS}")) / rate("cold/1");
    let leads = counter(&name, "daemon.dedup.leads");
    let coalesced = counter(&name, "daemon.dedup.coalesced");
    let branch_recompiles = counter("branches/1", "recompiled");
    let cold_n = format!("cold/{CLIENTS}");
    let (cold_1_hits, cold_n_hits) =
        (counter("cold/1", "analyze.hits"), counter(&cold_n, "analyze.hits"));
    // A leg links each of its programs at most twice, and the `.vx` tier
    // serves every other build.
    let tier_gates: Vec<_> = [("warm/1", 1), ("branches/1", BRANCHES)]
        .into_iter()
        .flat_map(|(leg, programs)| {
            let links = 2.0 * programs as f64;
            let builds = counter(leg, "daemon.builds");
            [
                (format!("{leg}.vx.misses"), counter(leg, "vx.misses"), Cmp::AtMost, links),
                (format!("{leg}.vx.hits"), counter(leg, "vx.hits"), Cmp::AtLeast, builds - links),
            ]
        })
        .collect();
    report.gate("warm_n_over_cold_1", ratio, Cmp::AtLeast, MIN_WARM_N_OVER_COLD_1);
    report.gate("cold/1.analyze.hits", cold_1_hits, Cmp::Equal, 0.0);
    report.gate(format!("{cold_n}.analyze.hits"), cold_n_hits, Cmp::Equal, 0.0);
    report.gate("branches/1.recompiled", branch_recompiles, Cmp::Equal, 0.0);
    let contended = report.find("contended/2", "latency").seconds;
    let warm = report.find("warm/1", "latency").seconds;
    report.gate(
        "contended/2.latency_over_warm_1",
        contended / warm,
        Cmp::AtMost,
        MAX_CONTENDED_OVER_WARM,
    );
    for (name, value, cmp, bound) in tier_gates {
        report.gate(name, value, cmp, bound);
    }
    report.gate(format!("{name}.coalesced"), coalesced, Cmp::AtLeast, 1.0);
    report.gate(
        format!("{name}.leads_plus_coalesced"),
        leads + coalesced,
        Cmp::Equal,
        CLIENTS as f64,
    );
    report.finish(&bench)
}
