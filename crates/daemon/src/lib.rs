//! `cmind` — the build-service daemon.
//!
//! ROADMAP's production framing ("millions of users, heavy traffic") asks
//! for the two-pass pipeline as a *service*: a long-lived process that
//! many clients share, so one client's phase-1 work warms the next
//! client's build. This crate provides it in three layers:
//!
//! * [`protocol`] — the wire format: length-prefixed, checksummed binary
//!   frames (the PR-7 positional codec) over a Unix-domain socket, with a
//!   typed [`ProtocolError`](protocol::ProtocolError) for every way a
//!   frame can be rejected;
//! * [`server`] — the daemon: a content-keyed
//!   [`CompilationCache`](ipra_driver::CompilationCache) shared by every
//!   session, sharded by project and bounded by what its recent builds
//!   used (plus an optional LRU size cap), in-flight request dedup
//!   (identical concurrent requests ride one build), per-request
//!   timeouts, per-shard telemetry counters, and graceful drain;
//! * [`client`] — the client: one call per request/response round trip,
//!   with a fingerprint cross-check that refuses mismatched bytes.
//!
//! The safety argument for sharing one cache across tenants is
//! byte-determinism (PR 5): output bytes are a pure function of the
//! request's inputs, and every cache key fingerprints exactly those
//! inputs, so a cache hit is indistinguishable from a recompute. The
//! stress and fault-injection suites in the workspace root's `tests/`
//! hold the daemon to that bar byte-for-byte.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    BuildRequest, BuildResponse, Counter, ProtocolError, Request, Response, StatsResponse,
    WireError, WireSource,
};
pub use server::{Server, ServerOptions};
