//! Replays the checked-in malformed-frame corpus (`frames.txt`) against
//! the request decoder: every hostile frame must yield exactly the typed
//! [`ProtocolError`] the corpus expects — never a panic, never a decode.
//!
//! The corpus is data, not code, so a frame that once confused the
//! decoder can be checked in verbatim as a regression (the same policy as
//! `cminc fuzz`'s corpus).

use ipra_core::analyzer::PaperConfig;
use ipra_daemon::protocol::{
    decode_request, decode_response, encode_response, executable_artifact, BuildResponse, Request,
    Response, HEADER_LEN,
};
use ipra_driver::{compile, CompileOptions};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex byte"))
        .collect()
}

#[test]
fn corpus_frames_yield_their_expected_typed_errors() {
    let corpus = include_str!("frames.txt");
    let mut cases = 0;
    let mut oks = 0;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '|');
        let name = parts.next().expect("name field");
        let expected = parts.next().expect("expected-kind field");
        let hex = parts.next().expect("hex field");
        let frame = unhex(hex);
        cases += 1;
        match decode_request(&frame) {
            Ok(req) => {
                assert_eq!(expected, "ok", "{name}: decoded {req:?} but expected {expected}");
                assert_eq!(req, Request::Ping, "{name}: the corpus anchor is a Ping");
                oks += 1;
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    expected,
                    "{name}: got {e} (kind {}), expected kind {expected}",
                    e.kind()
                );
            }
        }
    }
    assert!(cases >= 15, "corpus unexpectedly small: {cases} cases");
    assert_eq!(oks, 1, "exactly one sanity anchor decodes");
}

/// Every corpus error kind is distinct wire evidence; make sure the
/// corpus actually covers the headline rejection classes from the issue:
/// bad magic, oversize prefix, unknown tag, and a v1 frame.
#[test]
fn corpus_covers_the_required_rejection_classes() {
    let corpus = include_str!("frames.txt");
    let kinds: Vec<&str> = corpus
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('|').nth(1).expect("kind field"))
        .collect();
    for required in [
        "bad-magic",
        "unsupported-version",
        "unknown-tag",
        "oversize",
        "truncated",
        "checksum",
        "decode",
        "trailing-bytes",
    ] {
        assert!(kinds.contains(&required), "corpus lacks a `{required}` case");
    }
}

/// A response frame the size of a `daemon-mix` hit, carrying the `.vx` of
/// a real 64-module program: single-byte flips at sampled offsets and at
/// every offset of the frame's edges (header, first and last payload
/// words, checksum), and every truncation, each give a typed error.
#[test]
fn a_real_response_frame_rejects_flips_and_truncations() {
    let sources = ipra_workloads::scaled::scaled_program(64);
    let program = compile(&sources, &CompileOptions::paper(PaperConfig::C)).expect("compile");
    let (vx, fingerprint) = executable_artifact(&program.exe);
    assert!(vx.len() > 100_000, "a 64-module .vx is about 140 KB, got {}", vx.len());
    let response = Response::Built(BuildResponse {
        vx,
        fingerprint,
        coalesced: false,
        recompiled: vec!["m0".to_string()],
    });
    let frame = encode_response(&response);
    assert_eq!(decode_response(&frame), Ok(response));

    let edges = (0..HEADER_LEN + 16).chain(frame.len() - 16..frame.len());
    for i in edges.chain((0..frame.len()).step_by(251)) {
        for mask in [0x01, 0x80, 0xff] {
            let mut bad = frame.clone();
            bad[i] ^= mask;
            assert!(decode_response(&bad).is_err(), "byte {i} ^ {mask:#04x} decoded");
        }
    }
    for len in 0..frame.len() {
        let err = decode_response(&frame[..len]).unwrap_err();
        assert_eq!(err.kind(), "truncated", "prefix of length {len}");
    }
}
