//! Length-prefixed binary frames for the persistent cache tier.
//!
//! The disk cache originally stored canonical JSON; at production module
//! counts the char-by-char JSON format/parse dominated the build, making a
//! disk-warm build *slower* than a cold one. Version 1 frames replaced the
//! text with a tagged binary encoding of the serde stand-in's `Value`
//! tree — faster, but a load still materialized every node (and every
//! field-name string) twice: once building the tree, once walking it into
//! structs. At large module counts that double materialization cost about
//! as much as compiling the module in the first place.
//!
//! Version 2 frames go straight between structs and bytes through the
//! derive-emitted positional codec ([`serde::BinSerialize`] /
//! [`serde::BinDeserialize`]): no field names on the wire, no intermediate
//! tree, each string and vector allocated exactly once on load. A frame of
//! another version (or a corrupt or truncated one) simply fails the header
//! check and degrades to a cache miss — never a wrong object.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic "IPRF" | version u8 | kind u8 | payload_len u32 | payload | checksum(payload)
//! ```
//!
//! `kind` separates entry types so a phase-1 frame can never deserialize as
//! a phase-2 entry, or an index frame (the disk tier's records of where its
//! frames lie in its pack, see [`crate::cache`]) as either. The trailing
//! checksum plus the decoder's strict bounds checks make a truncated or
//! corrupted frame decode to `None` — a cache miss. (The caller
//! additionally cross-checks the embedded fingerprints against the
//! requested key, exactly as the JSON tier did.) The checksum is
//! [`ipra_core::fingerprint::checksum`], which reads a word per
//! multiply, where the FNV-64 of versions up to 5 read a byte; it guards
//! the frame only, and the keys and fingerprints inside stay FNV-64.
//!
//! A payload may be a decoded *head* followed by a raw *tail* under the
//! same checksum ([`decode_head`]): phase-1 frames carry the module's
//! summary as the head and its IR as the tail, so a load decodes only what
//! the analyzer needs and leaves the IR to the phase-2 misses.

use ipra_core::fingerprint::checksum;
use serde::{BinDeserialize, BinSerialize};

const MAGIC: [u8; 4] = *b"IPRF";
// Bumped whenever the bytes a frame decodes to could change meaning, so
// frames from older cache directories read as misses, not as shifted
// garbage or stale results: v3 widened RegSet's encoding to 8 bytes; v4
// split phase-1 frames into head and IR tail, added analysis frames, and
// moved directive-slice fingerprints off JSON; v5 moved `ir_fp`, which
// keys phase-2 frames, off JSON as well; v6 replaced the FNV-64 frame
// checksum with the word-at-a-time `checksum`. Keys cover a step's
// *inputs*, not the code that runs it, so a change to what the frontend,
// the analyzer or codegen emits bumps this too.
const VERSION: u8 = 6;

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
const HEADER_LEN: usize = 10;

/// Encodes `value` as a self-checking binary frame of the given kind.
pub(crate) fn encode_frame<T: BinSerialize + ?Sized>(kind: u8, value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    append_frame(kind, value, &mut out);
    out
}

/// Appends `value`'s frame of the given kind to `out`; returns the frame's
/// length.
pub(crate) fn append_frame<T: BinSerialize + ?Sized>(
    kind: u8,
    value: &T,
    out: &mut Vec<u8>,
) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&[0; 4]); // the payload length, written once known
    value.bin_serialize(out);
    let payload = start + HEADER_LEN;
    let payload_len = (out.len() - payload) as u32;
    out[start + 6..payload].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum(&out[payload..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out.len() - start
}

/// The length of the frame at the front of `bytes`, as its header declares
/// it: `None` when `bytes` does not start with the header of a frame of
/// this version and kind. The frame itself may be longer than `bytes` (a
/// torn write) and need not check out.
pub(crate) fn frame_len(bytes: &[u8], kind: u8) -> Option<usize> {
    let rest = bytes.strip_prefix(&MAGIC)?;
    let (&[version, got_kind], rest) = rest.split_first_chunk::<2>()?;
    if version != VERSION || got_kind != kind {
        return None;
    }
    let (len_bytes, _) = rest.split_first_chunk::<4>()?;
    Some(HEADER_LEN + u32::from_le_bytes(*len_bytes) as usize + 8)
}

/// Decodes a frame of the expected kind directly into its entry type. Any
/// mismatch — magic, version, kind, length, checksum, or payload shape —
/// yields `None` (the caller treats that as a cache miss).
pub(crate) fn decode_frame<T: BinDeserialize>(bytes: &[u8], kind: u8) -> Option<T> {
    // Trailing garbage inside a checksummed payload means a codec bug, but
    // treat it as corruption all the same.
    decode_head(bytes, kind).and_then(|(value, tail)| tail.is_empty().then_some(value))
}

/// Checks a frame of the expected kind, decodes a `T` from the front of its
/// payload and returns it with the rest of the payload, undecoded. The
/// checksum covers head and tail alike, so a damaged tail fails here too.
pub(crate) fn decode_head<T: BinDeserialize>(bytes: &[u8], kind: u8) -> Option<(T, &[u8])> {
    if frame_len(bytes, kind)? != bytes.len() {
        return None;
    }
    let (payload, checksum_bytes) = bytes[HEADER_LEN..].split_at(bytes.len() - HEADER_LEN - 8);
    if u64::from_le_bytes(checksum_bytes.try_into().ok()?) != checksum(payload) {
        return None;
    }
    let mut cursor = payload;
    let value = T::bin_deserialize(&mut cursor).ok()?;
    Some((value, cursor))
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

    #[test]
    fn frames_round_trip() {
        let v = sample();
        let frame = encode_frame(KIND_PHASE1, &v);
        assert_eq!(decode_frame::<Sample>(&frame, KIND_PHASE1), Some(v));
    }

    #[test]
    fn a_head_decodes_and_leaves_its_tail_encoded() {
        let (head, tail) = (sample(), Node::Pair(-3, true));
        let frame = encode_frame(KIND_PHASE1, &(&head, &tail));
        let (decoded, rest) = decode_head::<Sample>(&frame, KIND_PHASE1).unwrap();
        assert_eq!(decoded, head);
        let mut tail_bytes = Vec::new();
        tail.bin_serialize(&mut tail_bytes);
        assert_eq!(rest, tail_bytes.as_slice());
        // A whole-frame decode rejects the same bytes as trailing garbage.
        assert_eq!(decode_frame::<Sample>(&frame, KIND_PHASE1), None);
    }

    #[test]
    fn frame_len_reads_the_header_of_whole_and_torn_frames() {
        let mut two = Vec::new();
        let first = append_frame(KIND_INDEX, &sample(), &mut two);
        let second = append_frame(KIND_INDEX, &Node::Count(3), &mut two);
        assert_eq!(two.len(), first + second);
        assert_eq!(frame_len(&two, KIND_INDEX), Some(first));
        assert_eq!(frame_len(&two[first..], KIND_INDEX), Some(second));
        assert_eq!(frame_len(&two[first..first + HEADER_LEN], KIND_INDEX), Some(second));
        assert_eq!(frame_len(&two[first..first + HEADER_LEN - 1], KIND_INDEX), None);
        assert_eq!(frame_len(&two, KIND_PHASE1), None);
        assert_eq!(decode_frame::<Node>(&two[first..], KIND_INDEX), Some(Node::Count(3)));
    }

    #[test]
    fn kind_and_version_are_enforced() {
        let frame = encode_frame(KIND_PHASE1, &sample());
        assert_eq!(decode_frame::<Sample>(&frame, KIND_PHASE2), None);
        let mut wrong_version = frame.clone();
        wrong_version[4] = VERSION + 1;
        assert_eq!(decode_frame::<Sample>(&wrong_version, KIND_PHASE1), None);
        // A version-1 (Value-tree) frame from an old cache directory must
        // read as a miss, not decode.
        let mut old_version = frame;
        old_version[4] = 1;
        assert_eq!(decode_frame::<Sample>(&old_version, KIND_PHASE1), None);
    }

    #[test]
    fn corruption_decodes_to_none() {
        let frame = encode_frame(KIND_PHASE2, &sample());
        // Flip each byte in turn: no single-byte corruption may decode.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x41;
            assert_eq!(decode_frame::<Sample>(&bad, KIND_PHASE2), None, "byte {i}");
        }
        // Truncations at every length.
        for len in 0..frame.len() {
            assert_eq!(decode_frame::<Sample>(&frame[..len], KIND_PHASE2), None, "len {len}");
        }
        // Arbitrary garbage (the corrupt-cache test writes text here).
        assert_eq!(decode_frame::<Sample>(b"this is not a cache entry", KIND_PHASE1), None);
    }
}
