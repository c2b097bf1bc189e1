//! The `cmind` wire protocol: length-prefixed, checksummed binary frames
//! over a Unix-domain socket.
//!
//! A frame is [`ipra_driver::framed`]'s, the codec the persistent cache
//! tier's pack uses too; this module sets the wire's magic ([`MAGIC`]),
//! version ([`VERSION`]) and payload cap ([`MAX_FRAME`]). Its kind byte is
//! the *tag*, which separates requests from responses so a frame can never
//! deserialize as the wrong direction. Payloads are the derive-emitted
//! positional binary codec ([`serde::BinSerialize`] /
//! [`serde::BinDeserialize`]), not JSON. FNV-64 stays for keys and for the
//! `.vx` fingerprint a [`BuildResponse`] carries.
//!
//! Unlike the cache tier (where any mismatch is just a miss), a protocol
//! peer needs to know *why* a frame was rejected, so every check failure
//! is a typed [`ProtocolError`]. Frames of other versions are rejected as
//! [`ProtocolError::UnsupportedVersion`], never half-decoded: version 1
//! carried JSON payloads and version 2 an FNV-64 checksum. A message whose
//! payload would exceed [`MAX_FRAME`] is not encoded
//! ([`ProtocolError::Oversize`]), and a length prefix above it is rejected
//! before the payload is read, so a hostile or corrupt prefix cannot
//! balloon memory.

use ipra_core::fingerprint::Fnv64;
use ipra_driver::framed::Format;
pub use ipra_driver::framed::{FrameError as ProtocolError, HEADER_LEN};
/// One module source on the wire: the driver's [`SourceFile`], whose
/// fields encode in order.
///
/// [`SourceFile`]: ipra_driver::SourceFile
pub use ipra_driver::SourceFile as WireSource;
use serde::{BinSerialize, Deserialize, Serialize};
use std::io::Read;

/// Frame magic: `cmind`'s four-byte signature.
pub const MAGIC: [u8; 4] = *b"CMND";
/// Current protocol version. Version 1 was the JSON-payload prototype and
/// version 2 checksummed payloads with FNV-64; their frames are rejected
/// with a typed error, never half-decoded.
pub const VERSION: u8 = 3;
/// Frame tag for client → daemon requests.
pub const TAG_REQUEST: u8 = 1;
/// Frame tag for daemon → client responses.
pub const TAG_RESPONSE: u8 = 2;
/// Hard cap on a frame's payload length: a longer message is not encoded,
/// and a length prefix above this is rejected before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// The wire's frames.
const WIRE: Format = Format { magic: MAGIC, version: VERSION, max_payload: MAX_FRAME };

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
    /// The body fingerprint in the artifact's header (`fnv64:…`, the
    /// FNV-64 of the JSON body). The client accepts the response only
    /// when that header token is this value and the body hashes to it,
    /// mirroring the cache tier's fingerprint discipline: degrade loudly,
    /// never accept wrong bytes.
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
    /// The request itself was unacceptable (unknown config, no modules, a
    /// frame the daemon rejected, a result too large for one frame).
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

/// `value`'s frame under `tag`, in a buffer that starts with room for
/// `capacity` bytes.
fn encode(tag: u8, value: &impl BinSerialize, capacity: usize) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::with_capacity(capacity);
    WIRE.append_frame(tag, value, &mut out)?;
    Ok(out)
}

/// Encodes a request frame.
///
/// # Errors
///
/// [`ProtocolError::Oversize`] when the request's payload exceeds
/// [`MAX_FRAME`].
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtocolError> {
    encode(TAG_REQUEST, req, 256)
}

/// [`Request::Build`] borrowing its request. Its encoding is the derived
/// one of the owned variant: the variant's `u32` index, then the request.
struct BuildRef<'a>(&'a BuildRequest);

impl BinSerialize for BuildRef<'_> {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        // `Request::Build` is the second variant.
        out.extend_from_slice(&1u32.to_le_bytes());
        self.0.bin_serialize(out);
    }
}

/// Encodes the frame of `Request::Build(req.clone())` from a borrow of
/// `req`, so a client sends its sources without copying them first.
///
/// # Errors
///
/// As [`encode_request`].
pub(crate) fn encode_build_request(req: &BuildRequest) -> Result<Vec<u8>, ProtocolError> {
    encode(TAG_REQUEST, &BuildRef(req), 256)
}

/// Decodes a request frame.
///
/// # Errors
///
/// The first check that fails ([`Format::decode_frame`]).
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    WIRE.decode_frame(bytes, TAG_REQUEST)
}

/// Encodes a response frame. A build's frame is mostly its text, so the
/// buffer starts with room for the text and 256 bytes besides, and is
/// not regrown on the way.
///
/// # Errors
///
/// [`ProtocolError::Oversize`] when the response's payload exceeds
/// [`MAX_FRAME`].
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtocolError> {
    let text = match resp {
        Response::Built(b) => b.vx.len() + b.recompiled.iter().map(|n| 4 + n.len()).sum::<usize>(),
        _ => 0,
    };
    encode(TAG_RESPONSE, resp, 256 + text)
}

/// Decodes a response frame.
///
/// # Errors
///
/// The first check that fails ([`Format::decode_frame`]).
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    WIRE.decode_frame(bytes, TAG_RESPONSE)
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
    let have = read_full(r, &mut header, stop)?;
    if have == 0 {
        return Ok(None);
    }
    let need = WIRE.check_header(&header[..have], expect_tag)?;
    let mut frame = vec![0u8; need];
    frame[..HEADER_LEN].copy_from_slice(&header);
    let got = read_full(r, &mut frame[HEADER_LEN..], || false)?;
    if got < need - HEADER_LEN {
        return Err(ProtocolError::Truncated { need, have: HEADER_LEN + got });
    }
    Ok(Some(frame))
}

/// Encodes a linked executable as `.vx` artifact text, stamped with the
/// executable's target — exactly the bytes `cminc build -o prog.vx`
/// writes, which is what makes a daemon response byte-comparable to a
/// local build — with the body fingerprint its header carries, taken from
/// the encoder: the header's FNV-64 pass is the only one over the text.
pub fn executable_artifact(exe: &vpr::program::Executable) -> (String, u64) {
    ipra_artifact::encode_fingerprinted(
        ipra_artifact::ArtifactKind::Executable,
        &ipra_artifact::ExecutableView { exe },
        exe.target(),
    )
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
            let frame = encode_request(&req).unwrap();
            assert_eq!(decode_request(&frame), Ok(req));
        }
    }

    #[test]
    fn a_borrowed_build_request_encodes_as_the_owned_one() {
        let Request::Build(req) = sample_request() else { unreachable!() };
        assert_eq!(
            encode_build_request(&req).unwrap(),
            encode_request(&Request::Build(req.clone())).unwrap()
        );
        let empty = BuildRequest { sources: Vec::new(), training_input: Vec::new(), ..req };
        assert_eq!(
            encode_build_request(&empty).unwrap(),
            encode_request(&Request::Build(empty.clone())).unwrap()
        );
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
            let frame = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&frame), Ok(resp));
        }
    }

    #[test]
    fn a_build_response_fits_the_buffer_sized_from_its_text() {
        let built = BuildResponse {
            vx: "x".repeat(100_000),
            fingerprint: 1,
            coalesced: false,
            recompiled: (0..50).map(|i| format!("module_{i}")).collect(),
        };
        let room =
            256 + built.vx.len() + built.recompiled.iter().map(|n| 4 + n.len()).sum::<usize>();
        let frame = encode_response(&Response::Built(built.clone())).unwrap();
        assert!(frame.len() <= room, "{} bytes overflow {room}", frame.len());
        assert_eq!(frame, encode(TAG_RESPONSE, &Response::Built(built), 0).unwrap());
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let frame = encode_request(&sample_request()).unwrap();
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
        let frame = encode_request(&Request::Ping).unwrap();
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
        let frame = encode_request(&sample_request()).unwrap();
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
        let frame = encode_request(&sample_request()).unwrap();
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
