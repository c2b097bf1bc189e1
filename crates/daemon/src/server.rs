//! The `cmind` server: accept loop, per-connection threads, the sharded
//! shared cache, in-flight dedup, per-request timeouts, graceful drain.
//!
//! ## Why sharing one cache across clients is safe
//!
//! The pipeline is byte-deterministic (PR 5): a build's output bytes are a
//! pure function of (sources, config, optimize flag, training input), and
//! every cache entry is keyed by a fingerprint over exactly the inputs
//! that affect it. Two clients whose requests agree on a fingerprint
//! therefore *cannot* want different bytes — serving one client's cached
//! entry to another is indistinguishable from recompiling. That is the
//! whole safety argument, and it is why the stress tests compare daemon
//! responses byte-for-byte against solo cold builds.
//!
//! ## Sharding and dedup
//!
//! The cache is split into `shards` independently locked
//! [`CompilationCache`]s; a request maps to the shard of its *project*,
//! the FNV-64 of its module names in order. Every branch and edit of one
//! project therefore meets the same shard and shares its content-keyed
//! entries, while different projects compile concurrently. All shards
//! share one disk directory when persistence is enabled — entries are
//! content-addressed, so concurrent writers can only race on identical
//! bytes.
//!
//! In-flight dedup sits above the shards and keys on the whole request's
//! fingerprint: the first request for a fingerprint becomes the *leader*
//! and spawns the build; requests that arrive while it runs become
//! *followers* and wait on the leader's slot (`daemon.dedup.coalesced`
//! counts them). Every waiter — leader included — applies the
//! per-request timeout to its own wait, so a stuck build turns into a
//! typed [`WireError::Timeout`], not a hung client; the worker still
//! finishes and populates the cache behind the scenes.

use crate::protocol::{
    self, BuildRequest, BuildResponse, Counter, Request, Response, StatsResponse, WireError,
    TAG_REQUEST,
};
use ipra_core::analyzer::PaperConfig;
use ipra_core::fingerprint::Fnv64;
use ipra_driver::{CompilationCache, CompileOptions, SourceFile};
use ipra_telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is configured; see [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Unix-domain socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads per build's parallel phases (0 = one per core).
    pub jobs: usize,
    /// Persistent cache directory, shared by every shard (entries are
    /// content-addressed, so shards cannot clobber each other).
    pub cache_dir: Option<PathBuf>,
    /// Number of cache shards (clamped to at least 1). A request builds
    /// on its project's shard, so shards let different projects compile
    /// concurrently. Each shard's memory holds what its last
    /// [`RETAINED_BUILDS`](ipra_driver::RETAINED_BUILDS) builds used.
    pub shards: usize,
    /// Per-request build timeout. `None` waits indefinitely.
    pub request_timeout: Option<Duration>,
}

impl ServerOptions {
    /// Defaults for a daemon at `socket`: 4 shards, no timeout,
    /// memory-only cache.
    pub fn new(socket: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            socket: socket.into(),
            jobs: 1,
            cache_dir: None,
            shards: 4,
            request_timeout: None,
        }
    }
}

/// One in-flight build: the leader's worker publishes here; every client
/// interested in the fingerprint waits here.
struct Inflight {
    result: Mutex<Option<Result<BuildResponse, WireError>>>,
    done: Condvar,
}

struct Shared {
    opts: ServerOptions,
    tele: Telemetry,
    shards: Vec<Mutex<CompilationCache>>,
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
    shutdown: AtomicBool,
    /// Connection-handler threads, joined at drain time.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Build-worker threads (leaders' computations), joined at drain time
    /// so "drain" really means every accepted build ran to completion.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Joins already-finished threads and registers a new one, so a long-lived
/// daemon's handle lists track only live work.
fn reap_and_push(list: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut guard = list.lock().expect("thread list lock");
    let mut live = Vec::with_capacity(guard.len() + 1);
    for h in guard.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            live.push(h);
        }
    }
    live.push(handle);
    *guard = live;
}

/// A running `cmind` instance. Dropping (or [`stop`](Server::stop)ping)
/// the handle drains in-flight work and removes the socket file.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the socket or opening the cache directory.
    pub fn start(opts: ServerOptions) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        let shards = opts.shards.max(1);
        let mut caches = Vec::with_capacity(shards);
        for _ in 0..shards {
            caches.push(Mutex::new(match &opts.cache_dir {
                Some(dir) => CompilationCache::with_disk(dir)?,
                None => CompilationCache::new(),
            }));
        }
        let shared = Arc::new(Shared {
            opts,
            tele: Telemetry::new(),
            shards: caches,
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server { shared, accept: Some(accept) })
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.shared.opts.socket
    }

    /// The daemon's telemetry (same collector the `stats` endpoint reads).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// Has a shutdown been requested (by a client or by the owner)?
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until a client requests shutdown, then drains and exits.
    pub fn wait(mut self) {
        while !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.drain();
    }

    /// Requests shutdown and drains: stops accepting, lets in-flight
    /// builds finish, joins every thread, removes the socket file.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().expect("workers lock"));
        for h in workers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.opts.socket);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.tele.add("daemon.connections", 1);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || handle_connection(stream, &conn_shared));
                reap_and_push(&shared.conns, handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                shared.tele.add("daemon.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn send_response(stream: &mut UnixStream, shared: &Shared, resp: &Response) -> bool {
    let frame = protocol::encode_response(resp);
    match stream.write_all(&frame).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(_) => {
            // The client went away mid-response. Its loss — the build (if
            // any) already populated the shared cache for the next asker.
            shared.tele.add("daemon.client_disconnects", 1);
            false
        }
    }
}

fn handle_connection(mut stream: UnixStream, shared: &Arc<Shared>) {
    // The read timeout lets an idle handler poll for shutdown between
    // frames; a frame that has started arriving is read to the end.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let stop = || shared.shutting_down();
    loop {
        let frame = match protocol::read_frame(&mut stream, TAG_REQUEST, stop) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF or idle at shutdown
            Err(e) => {
                // Framing is lost; report the rejection in-band
                // (best-effort) and close.
                shared.tele.add("daemon.protocol_errors", 1);
                shared.tele.add(&format!("daemon.protocol_errors.{}", e.kind()), 1);
                let resp = Response::Error(WireError::BadRequest(format!("protocol: {e}")));
                let _ = send_response(&mut stream, shared, &resp);
                return;
            }
        };
        let request = match protocol::decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                shared.tele.add("daemon.protocol_errors", 1);
                shared.tele.add(&format!("daemon.protocol_errors.{}", e.kind()), 1);
                let resp = Response::Error(WireError::BadRequest(format!("protocol: {e}")));
                let _ = send_response(&mut stream, shared, &resp);
                return;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(stats_snapshot(shared)),
            Request::Shutdown => {
                shared.tele.add("daemon.shutdowns", 1);
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = send_response(&mut stream, shared, &Response::ShuttingDown);
                return;
            }
            Request::Build(req) => {
                if shared.shutting_down() {
                    Response::Error(WireError::ShuttingDown)
                } else {
                    match handle_build(shared, req) {
                        Ok(built) => Response::Built(built),
                        Err(e) => {
                            shared.tele.add("daemon.build_errors", 1);
                            Response::Error(e)
                        }
                    }
                }
            }
        };
        if !send_response(&mut stream, shared, &response) {
            return;
        }
    }
}

fn stats_snapshot(shared: &Shared) -> StatsResponse {
    let counters =
        shared.tele.counters().into_iter().map(|(name, value)| Counter { name, value }).collect();
    StatsResponse { counters }
}

/// Leads or follows the in-flight build for this request's fingerprint,
/// then waits (with the per-request timeout) for the result.
fn handle_build(shared: &Arc<Shared>, req: BuildRequest) -> Result<BuildResponse, WireError> {
    let fp = req.fingerprint();
    let (slot, leader) = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        match inflight.get(&fp) {
            Some(slot) => (Arc::clone(slot), false),
            None => {
                let slot = Arc::new(Inflight { result: Mutex::new(None), done: Condvar::new() });
                inflight.insert(fp, Arc::clone(&slot));
                (slot, true)
            }
        }
    };
    if leader {
        shared.tele.add("daemon.dedup.leads", 1);
        let worker_shared = Arc::clone(shared);
        let worker_slot = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            let result = run_build(&worker_shared, &req);
            // Retire the fingerprint *before* publishing: once a result
            // exists, later arrivals should lead a fresh (cache-warm)
            // build and report their own accounting, not adopt this one's.
            worker_shared.inflight.lock().expect("inflight lock").remove(&fp);
            *worker_slot.result.lock().expect("slot lock") = Some(result);
            worker_slot.done.notify_all();
        });
        reap_and_push(&shared.workers, handle);
    } else {
        shared.tele.add("daemon.dedup.coalesced", 1);
    }
    let result = wait_for_slot(&slot, shared.opts.request_timeout);
    match result {
        Ok(mut built) => {
            built.coalesced = !leader;
            Ok(built)
        }
        Err(e) => {
            if matches!(e, WireError::Timeout(_)) {
                shared.tele.add("daemon.timeouts", 1);
            }
            Err(e)
        }
    }
}

fn wait_for_slot(slot: &Inflight, timeout: Option<Duration>) -> Result<BuildResponse, WireError> {
    let mut guard = slot.result.lock().expect("slot lock");
    let deadline = timeout.map(|t| Instant::now() + t);
    while guard.is_none() {
        match deadline {
            None => guard = slot.done.wait(guard).expect("slot wait"),
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    let secs = timeout.expect("deadline implies timeout").as_secs();
                    return Err(WireError::Timeout(secs));
                }
                let (g, _) = slot.done.wait_timeout(guard, deadline - now).expect("slot wait");
                guard = g;
            }
        }
    }
    guard.as_ref().expect("slot filled").clone()
}

/// The shard a request builds on: the FNV-64 of its module names in order,
/// so every branch and edit of one project shares one shard's entries.
/// The hash is scaled into `0..shards` by its high bits: FNV-1a's low bits
/// depend only on the low bits of each byte, so `% 4` puts projects named
/// `c0_…` to `c7_…` on two shards of four.
fn project_shard(req: &BuildRequest, shards: usize) -> usize {
    let mut h = Fnv64::new();
    for s in &req.sources {
        h.write_str(&s.name);
    }
    ((u128::from(h.finish()) * shards as u128) >> 64) as usize
}

/// The leader's computation: pick the project's shard, build the `.vx`
/// artifact under its lock ([`ipra_driver::compile_artifact`], whose
/// `.vx` tier serves a repeated program's text), and fold the build's
/// counters into the daemon's (and its phase counters under the shard's
/// name).
fn run_build(shared: &Shared, req: &BuildRequest) -> Result<BuildResponse, WireError> {
    let config = PaperConfig::parse(&req.config)
        .ok_or_else(|| WireError::BadRequest(format!("unknown config `{}`", req.config)))?;
    if req.sources.is_empty() {
        return Err(WireError::BadRequest("no modules in request".to_string()));
    }
    let sources: Vec<SourceFile> = req
        .sources
        .iter()
        .map(|s| SourceFile { name: s.name.clone(), text: s.text.clone() })
        .collect();
    // Each build records into its own collector, whose counters are added
    // to the daemon's afterwards: the daemon reads only counters, so the
    // build's span events must not pile up for the daemon's lifetime.
    let build_tele = Telemetry::new();
    let options = CompileOptions {
        optimize: req.optimize,
        jobs: shared.opts.jobs,
        telemetry: Some(build_tele.clone()),
        ..CompileOptions::default()
    };
    let shard_index = project_shard(req, shared.shards.len());
    let mut cache = shared.shards[shard_index].lock().expect("shard lock");
    let built =
        ipra_driver::compile_artifact(&sources, config, &req.training_input, &options, &mut cache);
    drop(cache);
    let counters = build_tele.counters();
    for (key, &n) in &counters {
        shared.tele.add(key, n);
    }
    export_shard_counters(&shared.tele, shard_index, &counters);
    shared.tele.add("daemon.builds", 1);
    match built {
        Ok(Ok(built)) => Ok(BuildResponse {
            vx: built.vx,
            fingerprint: built.fingerprint,
            coalesced: false,
            recompiled: built.build.recompiled,
        }),
        Ok(Err(sim)) => Err(WireError::Training(sim.to_string())),
        Err(e) => Err(WireError::Compile(e.to_string())),
    }
}

/// Files one request's `phase{1,2}.{hits,misses,evictions}` counters (both
/// builds of a profile-fed request) under its shard, as
/// `daemon.shard{i}.p{1,2}.*`.
fn export_shard_counters(tele: &Telemetry, shard: usize, build: &BTreeMap<String, u64>) {
    for phase in 1..=2 {
        for what in ["hits", "misses", "evictions"] {
            match build.get(&format!("phase{phase}.{what}")) {
                Some(&n) if n > 0 => tele.add(&format!("daemon.shard{shard}.p{phase}.{what}"), n),
                _ => {}
            }
        }
    }
}
