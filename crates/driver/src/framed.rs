//! Length-prefixed, checksummed binary frames: the one codec of the
//! persistent cache tier's pack and of `cmind`'s wire protocol.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic [u8; 4] | version u8 | kind u8 | payload_len u32 | payload | checksum u64
//! ```
//!
//! A [`Format`] sets the magic, the version and the largest payload;
//! everything else is shared. The cache tier's format is [`CACHE`]
//! (`IPRF`, [`VERSION`], no cap but the length prefix's), and the wire's
//! is `ipra_daemon::protocol`'s (`CMND`, version 3, 64 MiB). `kind` (the
//! wire's *tag*) separates entry types, so a phase-1 frame can never
//! deserialize as a phase-2 entry, nor a request as a response. The
//! payload is the derive-emitted positional codec
//! ([`serde::BinSerialize`] / [`serde::BinDeserialize`]): no field names,
//! no intermediate tree, each string and vector allocated once on load.
//! The checksum is [`ipra_core::fingerprint::checksum`] of the payload,
//! which reads a word per multiply; it guards the frame only, and keys
//! and fingerprints inside stay FNV-64.
//!
//! Every check failure is one typed [`FrameError`], checked in wire order:
//! the header ([`Format::check_header`]: magic, version, kind, cap), the
//! frame's length, the checksum, the payload's decode and its trailing
//! bytes. A protocol peer reports the reason; the cache tier counts any
//! rejection as a miss. The header is checked before a payload is read,
//! so a hostile or corrupt length prefix cannot balloon memory.
//!
//! A payload may be a decoded *head* followed by a raw *tail* under the
//! same checksum ([`Format::decode_head`]): phase-1 frames carry the
//! module's summary as the head and its IR as the tail, so a load decodes
//! only what the analyzer needs and leaves the IR to the phase-2 misses.
//!
//! The positional codec is what lets a disk-warm build beat a cold one:
//! the cache tier's first frames, canonical JSON and then (version 1) the
//! serde stand-in's `Value` tree, materialized every node at least twice
//! on load.

use ipra_core::fingerprint::checksum;
use serde::{BinDeserialize, BinSerialize};

/// The cache tier's frame version. Bumped whenever the bytes a frame
/// decodes to could change meaning, so frames from older cache
/// directories read as misses, not as shifted garbage or stale results:
/// v3 widened RegSet's encoding to 8 bytes; v4 split phase-1 frames into
/// head and IR tail, added analysis frames, and moved directive-slice
/// fingerprints off JSON; v5 moved `ir_fp`, which keys phase-2 frames, off
/// JSON as well; v6 replaced the FNV-64 frame checksum with the
/// word-at-a-time `checksum`. Keys cover a step's *inputs*, not the code
/// that runs it, so a change to what the frontend, the analyzer or codegen
/// emits bumps this too.
pub const VERSION: u8 = 6;

/// The cache tier's frames: magic `IPRF`, [`VERSION`], and no payload cap
/// but the length prefix's.
pub const CACHE: Format = Format { magic: *b"IPRF", version: VERSION, max_payload: u32::MAX };

/// Frame kind for phase-1 cache entries.
pub(crate) const KIND_PHASE1: u8 = 1;
/// Frame kind for phase-2 cache entries.
pub(crate) const KIND_PHASE2: u8 = 2;
/// Frame kind for program-analysis cache entries.
pub(crate) const KIND_ANALYSIS: u8 = 3;
/// Frame kind for the disk tier's index: one frame per flush, holding
/// where that flush's frames lie in the pack.
pub(crate) const KIND_INDEX: u8 = 4;

/// Bytes before the payload: magic, version, kind, length prefix.
pub const HEADER_LEN: usize = 10;
/// Bytes after the payload: the checksum.
const CHECKSUM_LEN: usize = 8;

/// One frame format: the magic and version its frames carry, and the
/// largest payload it writes or accepts.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// The first four bytes of every frame.
    pub magic: [u8; 4],
    /// The version byte; a frame of another version is rejected.
    pub version: u8,
    /// The largest payload in bytes. A longer one is not encoded, and a
    /// header that declares one is rejected.
    pub max_payload: u32,
}

/// Why a frame was rejected. Every check failure maps to exactly one
/// variant; [`kind`](FrameError::kind) gives the stable short name that
/// corpus tests and counters key on. `ipra_daemon::protocol` re-exports
/// this type as its `ProtocolError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not the format's magic.
    BadMagic([u8; 4]),
    /// A version byte other than the format's (e.g. a frame written by an
    /// older build).
    UnsupportedVersion(u8),
    /// A kind byte (the wire's tag) other than the expected one.
    UnknownTag(u8),
    /// A payload longer than the format's cap: declared by a header, or
    /// refused by the encoder.
    Oversize {
        /// The payload's length in bytes.
        len: usize,
        /// The format's [`max_payload`](Format::max_payload).
        cap: u32,
    },
    /// The frame ended before its declared length (byte counts are for the
    /// whole frame including header and checksum).
    Truncated {
        /// Whole-frame bytes the header promised.
        need: usize,
        /// Whole-frame bytes actually present.
        have: usize,
    },
    /// The payload's checksum did not match.
    Checksum,
    /// The payload failed to deserialize as the expected type.
    Decode(String),
    /// Bytes past the frame's declared end, or past the decoded payload (a
    /// codec bug or a foreign encoder; treated as corruption).
    TrailingBytes(usize),
    /// An I/O error while reading a frame from a stream. The codec reads
    /// no stream; the wire's stream reader reports these.
    Io(String),
}

impl FrameError {
    /// Stable short name for counters and corpus expectations.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::BadMagic(_) => "bad-magic",
            FrameError::UnsupportedVersion(_) => "unsupported-version",
            FrameError::UnknownTag(_) => "unknown-tag",
            FrameError::Oversize { .. } => "oversize",
            FrameError::Truncated { .. } => "truncated",
            FrameError::Checksum => "checksum",
            FrameError::Decode(_) => "decode",
            FrameError::TrailingBytes(_) => "trailing-bytes",
            FrameError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Oversize { len, cap } => {
                write!(f, "frame payload length {len} exceeds the {cap}-byte cap")
            }
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Decode(d) => write!(f, "frame payload malformed: {d}"),
            FrameError::TrailingBytes(n) => write!(f, "frame payload has {n} trailing bytes"),
            FrameError::Io(d) => write!(f, "socket i/o: {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Format {
    /// Appends `value`'s frame of the given kind to `out`; returns the
    /// frame's length.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] when the payload is longer than
    /// [`max_payload`](Format::max_payload); `out` is then as it was.
    pub fn append_frame<T: BinSerialize + ?Sized>(
        &self,
        kind: u8,
        value: &T,
        out: &mut Vec<u8>,
    ) -> Result<usize, FrameError> {
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&[self.version, kind, 0, 0, 0, 0]); // the length, written once known
        value.bin_serialize(out);
        let payload = start + HEADER_LEN;
        let len = out.len() - payload;
        if len > self.max_payload as usize {
            out.truncate(start);
            return Err(FrameError::Oversize { len, cap: self.max_payload });
        }
        out[payload - 4..payload].copy_from_slice(&(len as u32).to_le_bytes());
        let sum = checksum(&out[payload..]);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out.len() - start)
    }

    /// Checks the header at the front of `bytes` (magic, version, kind and
    /// cap, in that order) and returns the whole frame's length as the
    /// header declares it. The frame may be longer than `bytes` (a stream's
    /// header alone, or a torn write) and its payload is not checked.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when `bytes` is shorter than a header, or
    /// the first header check that fails.
    pub fn check_header(&self, bytes: &[u8], kind: u8) -> Result<usize, FrameError> {
        let Some((&header, _)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            return Err(FrameError::Truncated { need: HEADER_LEN, have: bytes.len() });
        };
        let [m0, m1, m2, m3, version, got_kind, l0, l1, l2, l3] = header;
        if [m0, m1, m2, m3] != self.magic {
            return Err(FrameError::BadMagic([m0, m1, m2, m3]));
        }
        if version != self.version {
            return Err(FrameError::UnsupportedVersion(version));
        }
        if got_kind != kind {
            return Err(FrameError::UnknownTag(got_kind));
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len > self.max_payload {
            return Err(FrameError::Oversize { len: len as usize, cap: self.max_payload });
        }
        Ok(HEADER_LEN + len as usize + CHECKSUM_LEN)
    }

    /// Decodes a whole frame of the expected kind into its payload type.
    ///
    /// # Errors
    ///
    /// The first check that fails, as [`decode_head`](Format::decode_head),
    /// or [`FrameError::TrailingBytes`] when the payload holds more than
    /// one `T`.
    pub fn decode_frame<T: BinDeserialize>(&self, bytes: &[u8], kind: u8) -> Result<T, FrameError> {
        match self.decode_head(bytes, kind)? {
            (value, []) => Ok(value),
            (_, tail) => Err(FrameError::TrailingBytes(tail.len())),
        }
    }

    /// Checks a whole frame of the expected kind, decodes a `T` from the
    /// front of its payload and returns it with the rest of the payload,
    /// undecoded. The checksum covers head and tail alike, so a damaged
    /// tail fails here too.
    ///
    /// # Errors
    ///
    /// The first check that fails: the header's
    /// ([`check_header`](Format::check_header)), then the frame's length
    /// against the header's, the checksum and the head's decode.
    pub fn decode_head<'a, T: BinDeserialize>(
        &self,
        bytes: &'a [u8],
        kind: u8,
    ) -> Result<(T, &'a [u8]), FrameError> {
        let need = self.check_header(bytes, kind)?;
        if bytes.len() < need {
            return Err(FrameError::Truncated { need, have: bytes.len() });
        }
        if bytes.len() > need {
            return Err(FrameError::TrailingBytes(bytes.len() - need));
        }
        let (payload, sum) = bytes[HEADER_LEN..].split_at(need - HEADER_LEN - CHECKSUM_LEN);
        if sum != checksum(payload).to_le_bytes() {
            return Err(FrameError::Checksum);
        }
        let mut cursor = payload;
        let value =
            T::bin_deserialize(&mut cursor).map_err(|e| FrameError::Decode(e.to_string()))?;
        Ok((value, cursor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    /// Exercises every shape the derive emits binary code for: named and
    /// newtype structs, unit/newtype/tuple/struct enum variants, options,
    /// strings, vectors and nesting.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Node {
        Leaf,
        Count(u64),
        Pair(i32, bool),
        Labeled { label: String, weight: f64 },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Sample {
        key: u64,
        neg: i64,
        name: String,
        nodes: Vec<Node>,
        maybe: Option<String>,
        empty: Vec<u8>,
    }

    fn sample() -> Sample {
        Sample {
            key: u64::MAX,
            neg: -42,
            name: "mödule".to_string(),
            nodes: vec![
                Node::Leaf,
                Node::Count(7),
                Node::Pair(-3, true),
                Node::Labeled { label: "w".to_string(), weight: 3.5 },
            ],
            maybe: None,
            empty: Vec::new(),
        }
    }

    fn encode<T: BinSerialize + ?Sized>(kind: u8, value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        CACHE.append_frame(kind, value, &mut out).expect("no cap");
        out
    }

    #[test]
    fn frames_round_trip() {
        let v = sample();
        let frame = encode(KIND_PHASE1, &v);
        assert_eq!(CACHE.decode_frame::<Sample>(&frame, KIND_PHASE1), Ok(v));
    }

    #[test]
    fn a_head_decodes_and_leaves_its_tail_encoded() {
        let (head, tail) = (sample(), Node::Pair(-3, true));
        let frame = encode(KIND_PHASE1, &(&head, &tail));
        let (decoded, rest) = CACHE.decode_head::<Sample>(&frame, KIND_PHASE1).unwrap();
        assert_eq!(decoded, head);
        let mut tail_bytes = Vec::new();
        tail.bin_serialize(&mut tail_bytes);
        assert_eq!(rest, tail_bytes.as_slice());
        // A whole-frame decode rejects the same bytes as trailing garbage.
        let err = CACHE.decode_frame::<Sample>(&frame, KIND_PHASE1).unwrap_err();
        assert_eq!(err, FrameError::TrailingBytes(tail_bytes.len()));
    }

    #[test]
    fn the_header_check_reads_the_length_of_whole_and_torn_frames() {
        let mut two = Vec::new();
        let first = CACHE.append_frame(KIND_INDEX, &sample(), &mut two).unwrap();
        let second = CACHE.append_frame(KIND_INDEX, &Node::Count(3), &mut two).unwrap();
        assert_eq!(two.len(), first + second);
        assert_eq!(CACHE.check_header(&two, KIND_INDEX), Ok(first));
        assert_eq!(CACHE.check_header(&two[first..], KIND_INDEX), Ok(second));
        assert_eq!(CACHE.check_header(&two[first..first + HEADER_LEN], KIND_INDEX), Ok(second));
        let torn = &two[first..first + HEADER_LEN - 1];
        let short = FrameError::Truncated { need: HEADER_LEN, have: HEADER_LEN - 1 };
        assert_eq!(CACHE.check_header(torn, KIND_INDEX), Err(short));
        assert_eq!(CACHE.check_header(&two, KIND_PHASE1), Err(FrameError::UnknownTag(KIND_INDEX)));
        assert_eq!(CACHE.decode_frame::<Node>(&two[first..], KIND_INDEX), Ok(Node::Count(3)));
    }

    #[test]
    fn magic_kind_and_version_are_enforced() {
        let frame = encode(KIND_PHASE1, &sample());
        let err = CACHE.decode_frame::<Sample>(&frame, KIND_PHASE2).unwrap_err();
        assert_eq!(err, FrameError::UnknownTag(KIND_PHASE1));
        // A frame of an older or newer version, a version-1 (Value-tree)
        // frame from an old cache directory among them, is rejected.
        for version in [1, VERSION - 1, VERSION + 1] {
            let mut other = frame.clone();
            other[4] = version;
            let err = CACHE.decode_frame::<Sample>(&other, KIND_PHASE1).unwrap_err();
            assert_eq!(err, FrameError::UnsupportedVersion(version));
        }
        // Another format's frame of the same layout is not this one's.
        let wire = Format { magic: *b"CMND", ..CACHE };
        let err = wire.decode_frame::<Sample>(&frame, KIND_PHASE1).unwrap_err();
        assert_eq!(err, FrameError::BadMagic(*b"IPRF"));
    }

    #[test]
    fn every_corruption_is_a_typed_rejection() {
        let frame = encode(KIND_PHASE2, &sample());
        // Flip each byte in turn: no single-byte corruption may decode.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x41;
            assert!(CACHE.decode_frame::<Sample>(&bad, KIND_PHASE2).is_err(), "byte {i}");
        }
        // Truncations at every length.
        for len in 0..frame.len() {
            let err = CACHE.decode_frame::<Sample>(&frame[..len], KIND_PHASE2).unwrap_err();
            assert_eq!(err.kind(), "truncated", "len {len}");
        }
        // Arbitrary garbage (the corrupt-cache test writes text here).
        let err = CACHE.decode_frame::<Sample>(b"this is not a cache entry", KIND_PHASE1);
        assert_eq!(err.unwrap_err().kind(), "bad-magic");
    }

    #[test]
    fn a_payload_over_the_cap_is_neither_written_nor_read() {
        let capped = Format { max_payload: 16, ..CACHE };
        let mut out = b"kept".to_vec();
        let err = capped.append_frame(KIND_PHASE2, &sample(), &mut out).unwrap_err();
        assert!(matches!(err, FrameError::Oversize { len, cap: 16 } if len > 16), "{err:?}");
        assert_eq!(out, b"kept", "a refused frame leaves the buffer as it was");
        // The same frame, written without the cap, is refused from its
        // header alone.
        let frame = encode(KIND_PHASE2, &sample());
        let err = capped.check_header(&frame[..HEADER_LEN], KIND_PHASE2).unwrap_err();
        assert_eq!(err, FrameError::Oversize { len: frame.len() - HEADER_LEN - 8, cap: 16 });
        // A payload of exactly the cap is written and read.
        let exact = Format { max_payload: 8, ..CACHE };
        let frame = {
            let mut out = Vec::new();
            exact.append_frame(KIND_PHASE2, &7u64, &mut out).unwrap();
            out
        };
        assert_eq!(exact.decode_frame::<u64>(&frame, KIND_PHASE2), Ok(7));
    }
}
