//! The `cmind` wire protocol: length-prefixed, checksummed binary frames
//! over a Unix-domain socket.
//!
//! The frame layout deliberately mirrors the persistent cache tier's
//! ([`ipra_driver`]'s `framed` module) — the same shape that already
//! survives corruption testing there:
//!
//! ```text
//! magic "CMND" | version u8 | tag u8 | payload_len u32 | payload | fnv64(payload)
//! ```
//!
//! All integers are little-endian. `tag` separates requests from responses
//! so a frame can never deserialize as the wrong direction. Payloads are
//! the derive-emitted positional binary codec ([`serde::BinSerialize`] /
//! [`serde::BinDeserialize`]) — the PR-7 codec the cache tier uses, not
//! JSON.
//!
//! Unlike the cache tier (where any mismatch is just a miss), a protocol
//! peer needs to know *why* a frame was rejected, so every check failure
//! is a typed [`ProtocolError`]. Version 1 frames (the JSON-payload
//! prototype) are explicitly rejected as [`ProtocolError::UnsupportedVersion`].
//!
//! The length prefix is validated against [`MAX_FRAME`] *before* the
//! payload is read, so a hostile or corrupt prefix cannot balloon memory.

use ipra_core::fingerprint::Fnv64;
use serde::{BinDeserialize, BinSerialize, Deserialize, Serialize};
use std::io::Read;

/// Frame magic: `cmind`'s four-byte signature.
pub const MAGIC: [u8; 4] = *b"CMND";
/// Current protocol version. Version 1 was the JSON-payload prototype;
/// its frames are rejected with a typed error, never half-decoded.
pub const VERSION: u8 = 2;
/// Frame tag for client → daemon requests.
pub const TAG_REQUEST: u8 = 1;
/// Frame tag for daemon → client responses.
pub const TAG_RESPONSE: u8 = 2;
/// Hard cap on a frame's payload length. A length prefix above this is
/// rejected before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;
/// Bytes before the payload: magic, version, tag, length prefix.
pub const HEADER_LEN: usize = 10;

/// Why a frame was rejected. Every decoder check failure maps to exactly
/// one variant; [`kind`](ProtocolError::kind) gives the stable short name
/// the corpus tests and counters key on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// A version byte other than [`VERSION`] (e.g. a v1 prototype frame).
    UnsupportedVersion(u8),
    /// A tag byte other than the expected direction's tag.
    UnknownTag(u8),
    /// The length prefix claimed more than [`MAX_FRAME`] payload bytes.
    Oversize(u32),
    /// The frame ended before its declared length (byte counts are for the
    /// whole frame including header and checksum).
    Truncated {
        /// Whole-frame bytes the header promised.
        need: usize,
        /// Whole-frame bytes actually present.
        have: usize,
    },
    /// The payload's FNV-64 checksum did not match.
    Checksum,
    /// The payload failed to deserialize as the tagged type.
    Decode(String),
    /// The payload decoded but left unconsumed bytes (a codec bug or a
    /// foreign encoder; treated as corruption).
    TrailingBytes(usize),
    /// An I/O error on the socket.
    Io(String),
}

impl ProtocolError {
    /// Stable short name for counters and corpus expectations.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::BadMagic(_) => "bad-magic",
            ProtocolError::UnsupportedVersion(_) => "unsupported-version",
            ProtocolError::UnknownTag(_) => "unknown-tag",
            ProtocolError::Oversize(_) => "oversize",
            ProtocolError::Truncated { .. } => "truncated",
            ProtocolError::Checksum => "checksum",
            ProtocolError::Decode(_) => "decode",
            ProtocolError::TrailingBytes(_) => "trailing-bytes",
            ProtocolError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            ProtocolError::Oversize(n) => {
                write!(f, "frame payload length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            ProtocolError::Checksum => write!(f, "frame checksum mismatch"),
            ProtocolError::Decode(d) => write!(f, "frame payload malformed: {d}"),
            ProtocolError::TrailingBytes(n) => {
                write!(f, "frame payload has {n} trailing bytes")
            }
            ProtocolError::Io(d) => write!(f, "socket i/o: {d}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One module source on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSource {
    /// Module name.
    pub name: String,
    /// Full source text.
    pub text: String,
}

/// A build job: the same inputs `cminc build` takes from the command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildRequest {
    /// Paper configuration name (`L2`, `A`..`F`, `P`).
    pub config: String,
    /// Run the level-2 optimizer (the `build` default).
    pub optimize: bool,
    /// Module sources, in link order.
    pub sources: Vec<WireSource>,
    /// Training input for profile-fed configurations (B/F).
    pub training_input: Vec<i64>,
}

impl BuildRequest {
    /// The dedup key: a fingerprint over every input that affects the
    /// output bytes. Two requests with equal fingerprints are the same
    /// job — byte-determinism (PR 5) guarantees their results are
    /// byte-identical, which is what makes coalescing them sound.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.config.as_bytes());
        h.write_u64(u64::from(self.optimize));
        h.write_u64(self.sources.len() as u64);
        for s in &self.sources {
            h.write_u64(s.name.len() as u64);
            h.write(s.name.as_bytes());
            h.write_u64(s.text.len() as u64);
            h.write(s.text.as_bytes());
        }
        h.write_u64(self.training_input.len() as u64);
        for &v in &self.training_input {
            h.write_u64(v as u64);
        }
        h.finish()
    }
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile a program.
    Build(BuildRequest),
    /// Snapshot the daemon's counters.
    Stats,
    /// Drain in-flight builds and exit.
    Shutdown,
}

/// One daemon counter on the wire (sorted by name in [`StatsResponse`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    /// Counter name (e.g. `daemon.builds`).
    pub name: String,
    /// Cumulative value.
    pub value: u64,
}

/// A successful build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildResponse {
    /// The `.vx` executable artifact text — byte-identical to what
    /// `cminc build -o prog.vx` writes for the same inputs.
    pub vx: String,
    /// FNV-64 over the artifact text. The client re-hashes and refuses a
    /// response that fails this cross-check, mirroring the cache tier's
    /// fingerprint discipline: degrade loudly, never accept wrong bytes.
    pub fingerprint: u64,
    /// Did this response ride on another client's identical in-flight
    /// build rather than computing its own?
    pub coalesced: bool,
    /// Modules whose second phase actually re-ran, in source order.
    pub recompiled: Vec<String>,
}

/// Daemon counter snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// All counters, sorted by name (deterministic wire bytes).
    pub counters: Vec<Counter>,
}

/// A request-level failure, reported in-band (the connection survives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The request itself was unacceptable (unknown config, no modules).
    BadRequest(String),
    /// The program failed to compile.
    Compile(String),
    /// The profile-feedback training run trapped.
    Training(String),
    /// The build exceeded the daemon's per-request timeout (seconds).
    Timeout(u64),
    /// The daemon is draining for shutdown and took no new work.
    ShuttingDown,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadRequest(d) => write!(f, "bad request: {d}"),
            WireError::Compile(d) => write!(f, "compile error: {d}"),
            WireError::Training(d) => write!(f, "training run failed: {d}"),
            WireError::Timeout(s) => write!(f, "build timed out after {s}s"),
            WireError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Build result.
    Built(BuildResponse),
    /// Counter snapshot.
    Stats(StatsResponse),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShuttingDown,
    /// Request-level failure.
    Error(WireError),
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Encodes `value` as a self-checking frame with the given tag.
pub fn encode_frame<T: BinSerialize>(tag: u8, value: &T) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    value.bin_serialize(&mut payload);
    assert!(payload.len() <= MAX_FRAME as usize, "frame payload exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum = fnv64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a header and returns the declared payload length.
///
/// # Errors
///
/// The typed [`ProtocolError`] for the first check that fails; checks run
/// in wire order (magic, version, tag, length cap).
pub fn check_header(header: &[u8; HEADER_LEN], expect_tag: u8) -> Result<usize, ProtocolError> {
    let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(header[4]));
    }
    if header[5] != expect_tag {
        return Err(ProtocolError::UnknownTag(header[5]));
    }
    let payload_len = u32::from_le_bytes(header[6..10].try_into().expect("4-byte slice"));
    if payload_len > MAX_FRAME {
        return Err(ProtocolError::Oversize(payload_len));
    }
    Ok(payload_len as usize)
}

/// Decodes a complete frame of the expected tag into its payload type.
///
/// # Errors
///
/// The typed [`ProtocolError`] for the first failing check: header checks
/// (see [`check_header`]), then whole-frame length, checksum, payload
/// decode, and trailing-byte strictness.
pub fn decode_frame<T: BinDeserialize>(bytes: &[u8], expect_tag: u8) -> Result<T, ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated { need: HEADER_LEN, have: bytes.len() });
    }
    let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("header slice");
    let payload_len = check_header(&header, expect_tag)?;
    let need = HEADER_LEN + payload_len + 8;
    if bytes.len() < need {
        return Err(ProtocolError::Truncated { need, have: bytes.len() });
    }
    if bytes.len() > need {
        return Err(ProtocolError::TrailingBytes(bytes.len() - need));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let checksum = u64::from_le_bytes(bytes[need - 8..].try_into().expect("8-byte slice"));
    if checksum != fnv64(payload) {
        return Err(ProtocolError::Checksum);
    }
    let mut cursor = payload;
    let value =
        T::bin_deserialize(&mut cursor).map_err(|e| ProtocolError::Decode(e.to_string()))?;
    if !cursor.is_empty() {
        return Err(ProtocolError::TrailingBytes(cursor.len()));
    }
    Ok(value)
}

/// Encodes a request frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_frame(TAG_REQUEST, req)
}

/// Decodes a request frame.
///
/// # Errors
///
/// Any [`ProtocolError`] (see [`decode_frame`]).
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    decode_frame(bytes, TAG_REQUEST)
}

/// Encodes a response frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_frame(TAG_RESPONSE, resp)
}

/// Decodes a response frame.
///
/// # Errors
///
/// Any [`ProtocolError`] (see [`decode_frame`]).
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    decode_frame(bytes, TAG_RESPONSE)
}

/// Fills `buf` from `r`, tolerating short reads and waiting through read
/// timeouts; returns how many bytes arrived before EOF, or 0 when `stop`
/// holds before the first byte.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: impl Fn() -> bool,
) -> Result<usize, ProtocolError> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let mut have = 0;
    while have < buf.len() && !(have == 0 && stop()) {
        match r.read(&mut buf[have..]) {
            Ok(0) => break,
            Ok(n) => have += n,
            Err(e) if matches!(e.kind(), Interrupted | WouldBlock | TimedOut) => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(have)
}

/// Reads one complete frame of the expected tag from a stream. Returns
/// `Ok(None)` on a clean EOF at a frame boundary (the peer hung up between
/// requests — not an error), or when `stop` holds before the frame's first
/// byte: on a stream with a read timeout, `stop` is polled once per
/// timeout while the stream is idle. A frame that has started arriving is
/// read to its end (or to typed truncation) whatever `stop` says. The
/// header is validated *before* the payload is read, so an oversize length
/// prefix is rejected without allocating.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when the stream ends mid-frame, any header
/// check failure, or [`ProtocolError::Io`].
pub fn read_frame(
    r: &mut impl Read,
    expect_tag: u8,
    stop: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header, stop)? {
        0 => return Ok(None),
        n if n < HEADER_LEN => return Err(ProtocolError::Truncated { need: HEADER_LEN, have: n }),
        _ => {}
    }
    let payload_len = check_header(&header, expect_tag)?;
    let need = HEADER_LEN + payload_len + 8;
    let mut frame = vec![0u8; need];
    frame[..HEADER_LEN].copy_from_slice(&header);
    let got = read_full(r, &mut frame[HEADER_LEN..], || false)?;
    if got < need - HEADER_LEN {
        return Err(ProtocolError::Truncated { need, have: HEADER_LEN + got });
    }
    Ok(Some(frame))
}

/// Encodes a linked executable as `.vx` artifact text plus its FNV-64
/// fingerprint — exactly the bytes `cminc build -o prog.vx` writes, which
/// is what makes a daemon response byte-comparable to a local build.
pub fn executable_artifact(exe: &vpr::program::Executable) -> (String, u64) {
    let text = ipra_artifact::encode(
        ipra_artifact::ArtifactKind::Executable,
        &ipra_artifact::ExecutableView { exe },
    );
    let fp = fnv64(text.as_bytes());
    (text, fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Build(BuildRequest {
            config: "E".to_string(),
            optimize: true,
            sources: vec![
                WireSource { name: "main".to_string(), text: "fn main() { ret 0; }".to_string() },
                WireSource { name: "üñí".to_string(), text: String::new() },
            ],
            training_input: vec![-7, 0, 42],
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [sample_request(), Request::Ping, Request::Stats, Request::Shutdown] {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame), Ok(req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong,
            Response::Built(BuildResponse {
                vx: ";ipra-artifact executable v1 fnv64:0\n{}\n".to_string(),
                fingerprint: 0xDEAD_BEEF,
                coalesced: true,
                recompiled: vec!["m0".to_string()],
            }),
            Response::Stats(StatsResponse {
                counters: vec![Counter { name: "daemon.builds".to_string(), value: 3 }],
            }),
            Response::ShuttingDown,
            Response::Error(WireError::Timeout(30)),
        ];
        for resp in responses {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame), Ok(resp));
        }
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let frame = encode_request(&sample_request());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x41;
            assert!(decode_request(&bad).is_err(), "byte {i} flip must not decode");
        }
        for len in 0..frame.len() {
            assert_eq!(
                decode_request(&frame[..len]).unwrap_err().kind(),
                "truncated",
                "prefix of length {len}"
            );
        }
    }

    #[test]
    fn tag_direction_is_enforced() {
        let frame = encode_request(&Request::Ping);
        assert_eq!(decode_response(&frame).unwrap_err().kind(), "unknown-tag");
    }

    #[test]
    fn fingerprints_key_on_every_input() {
        let Request::Build(base) = sample_request() else { unreachable!() };
        let fp = base.fingerprint();
        let mut other = base.clone();
        other.config = "C".to_string();
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.optimize = false;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.sources[0].text.push(' ');
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.training_input.push(1);
        assert_ne!(fp, other.fingerprint());
        assert_eq!(fp, base.clone().fingerprint());
    }

    #[test]
    fn stream_reader_matches_slice_decoder() {
        let frame = encode_request(&sample_request());
        let mut cursor: &[u8] = &frame;
        let got = read_frame(&mut cursor, TAG_REQUEST, || false).unwrap().expect("one frame");
        assert_eq!(got, frame);
        assert_eq!(read_frame(&mut cursor, TAG_REQUEST, || false).unwrap(), None, "clean EOF");
        // Mid-frame EOF is typed truncation.
        let mut partial: &[u8] = &frame[..frame.len() - 3];
        let err = read_frame(&mut partial, TAG_REQUEST, || false).unwrap_err();
        assert_eq!(err.kind(), "truncated");
    }

    /// A stream that times out `idle` times, then yields `bytes` one at a
    /// time.
    struct Trickle<'a> {
        idle: usize,
        bytes: &'a [u8],
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.idle > 0 {
                self.idle -= 1;
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn stop_ends_an_idle_read_but_not_a_started_frame() {
        let frame = encode_request(&sample_request());
        let polls = std::cell::Cell::new(0);
        let stop_at_third_poll = || {
            polls.set(polls.get() + 1);
            polls.get() >= 3
        };
        // Idle through two timeouts; the third poll ends the read.
        let mut idle = Trickle { idle: 5, bytes: &frame };
        assert_eq!(read_frame(&mut idle, TAG_REQUEST, stop_at_third_poll).unwrap(), None);
        assert_eq!(idle.bytes.len(), frame.len(), "nothing was consumed");
        // A frame whose first byte lands at the second poll is read to its
        // end: `stop` is not asked again.
        polls.set(0);
        let mut late = Trickle { idle: 1, bytes: &frame };
        let got = read_frame(&mut late, TAG_REQUEST, stop_at_third_poll).unwrap();
        assert_eq!(got.as_deref(), Some(&frame[..]));
        assert_eq!(polls.get(), 2);
    }

    #[test]
    fn oversize_prefix_is_rejected_from_the_header_alone() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = TAG_REQUEST;
        header[6..10].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut stream: &[u8] = &header;
        assert_eq!(read_frame(&mut stream, TAG_REQUEST, || false).unwrap_err().kind(), "oversize");
    }
}
