//! Property/fuzz suite for the wire codec: decoding must never panic on
//! any byte string, valid frames must roundtrip exactly, and every strict
//! truncation of a valid payload must be rejected with a typed error —
//! the invariants the connection loop's never-panic guarantee rests on.

use asketch_serve::{
    decode_request, decode_request_ref, decode_response, encode_request, encode_response,
    ErrorCode, FrameError, HealthInfoWire, Request, Response, ShardHealthWire, MAX_BATCH,
    MAX_FRAME,
};
use eval_metrics::ReactorGauge;
use sketches::hash::SplitMix64;
use streamgen::prop::{check, in_range, vec_of};

const CASES: u32 = 256;

fn bytes(rng: &mut SplitMix64, lens: std::ops::Range<usize>) -> Vec<u8> {
    vec_of(rng, lens, |r| r.next_u64() as u8)
}

fn u64s(rng: &mut SplitMix64, lens: std::ops::Range<usize>) -> Vec<u64> {
    vec_of(rng, lens, SplitMix64::next_u64)
}

fn i64s(rng: &mut SplitMix64, lens: std::ops::Range<usize>) -> Vec<i64> {
    vec_of(rng, lens, |r| r.next_u64() as i64)
}

/// Request shapes [`build_request`] draws from.
const REQUEST_KINDS: usize = 8;

/// Deterministically build one of every request shape from fuzz inputs.
fn build_request(kind: usize, key: u64, keys: &[u64], k: u32) -> Request {
    match kind % REQUEST_KINDS {
        0 => Request::UpdateBatch(keys.to_vec()),
        1 => Request::Estimate(key),
        2 => Request::EstimateBatch(keys.to_vec()),
        3 => Request::TopK(k),
        4 => Request::Health,
        5 => Request::Hello {
            session_id: key,
            resume_seq: key.rotate_left(17),
        },
        6 => Request::UpdateBatchSeq {
            seq: key.rotate_left(7),
            keys: keys.to_vec(),
        },
        _ => Request::Sync,
    }
}

/// Deterministically build one of every response shape from fuzz inputs.
fn build_response(kind: usize, scalar: u64, vals: &[i64], raw: &[u8]) -> Response {
    match kind % 9 {
        0 => Response::Ok(scalar as u32),
        1 => Response::Value(scalar as i64),
        2 => Response::Values(vals.to_vec()),
        3 => Response::TopKItems(
            vals.iter()
                .enumerate()
                .map(|(i, &v)| (scalar.wrapping_add(i as u64), v))
                .collect(),
        ),
        4 => Response::HealthInfo(build_health(scalar, vals, raw)),
        5 => Response::Synced(scalar),
        6 => Response::HelloAck {
            applied_seq: scalar,
        },
        7 => Response::OkSeq {
            seq: scalar.rotate_left(23),
            applied: scalar as u32,
            duplicate: scalar & 1 != 0,
            degraded: scalar & 2 != 0,
        },
        _ => Response::Error {
            code: build_code(scalar),
            detail: ascii_of(raw),
            retry_after_ms: (scalar >> 32) as u32,
        },
    }
}

fn build_code(n: u64) -> ErrorCode {
    match n % 7 {
        0 => ErrorCode::Malformed,
        1 => ErrorCode::UnknownOpcode,
        2 => ErrorCode::Overloaded,
        3 => ErrorCode::TooLarge,
        4 => ErrorCode::Degraded,
        5 => ErrorCode::ShuttingDown,
        _ => ErrorCode::Internal,
    }
}

/// Map arbitrary bytes onto a printable class-name-like string.
fn ascii_of(raw: &[u8]) -> String {
    raw.iter().map(|b| (b'a' + (b % 26)) as char).collect()
}

fn build_health(scalar: u64, vals: &[i64], raw: &[u8]) -> HealthInfoWire {
    let shards: Vec<ShardHealthWire> = vals
        .iter()
        .take(12)
        .map(|&v| ShardHealthWire {
            inline_degraded: v & 1 != 0,
            durability_degraded: v & 2 != 0,
            fault_class: ascii_of(&raw[..(v as usize % 8).min(raw.len())]),
        })
        .collect();
    HealthInfoWire {
        total_routed: scalar,
        reader_retries: scalar.rotate_left(13),
        // u32::MAX is the on-wire "no fault" sentinel, so a real shard
        // index never carries it.
        worst_fault_shard: scalar
            .is_multiple_of(3)
            .then_some((scalar as u32) % (u32::MAX - 1)),
        worst_fault_class: ascii_of(raw),
        shards,
        reactors: vals
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, &v)| ReactorGauge {
                reactor: i,
                connections: v as u64,
                wakeups: scalar ^ v as u64,
                frames_in: scalar.wrapping_add(v as u64),
                read_syscalls: scalar.rotate_left(7),
                write_syscalls: scalar.rotate_left(11),
                bytes_read: v as u64 ^ 0x5555,
                bytes_written: v as u64 ^ 0xAAAA,
                mega_batches: scalar % 1024,
                mega_batch_keys: scalar % (1 << 20),
                staging_bound: 16384,
            })
            .collect(),
    }
}

/// Strip the length prefix from one encoded frame, checking it agrees
/// with the payload it frames.
fn payload_of(frame: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    assert!(len <= MAX_FRAME, "encoder overshot MAX_FRAME");
    assert_eq!(
        len as usize,
        frame.len() - 4,
        "prefix disagrees with payload"
    );
    &frame[4..]
}

/// Decoders must be total: any byte string decodes to Ok or a typed
/// error, never a panic and never an attacker-sized allocation.
#[test]
fn decode_request_never_panics() {
    check("decode_request_never_panics", CASES, |rng| {
        let _ = decode_request(&bytes(rng, 0..4096));
    });
}

#[test]
fn decode_response_never_panics() {
    check("decode_response_never_panics", CASES, |rng| {
        let _ = decode_response(&bytes(rng, 0..4096));
    });
}

/// Byte strings that at least start with a real opcode probe deeper
/// decode paths than fully random ones; still: no panics, ever.
#[test]
fn opcode_prefixed_garbage_never_panics() {
    check("opcode_prefixed_garbage_never_panics", CASES, |rng| {
        let op = rng.next_below(16) as u8;
        let bytes = bytes(rng, 0..256);
        let mut req_payload = vec![op];
        req_payload.extend_from_slice(&bytes);
        let _ = decode_request(&req_payload);
        let mut resp_payload = vec![0x80 | op];
        resp_payload.extend_from_slice(&bytes);
        let _ = decode_response(&resp_payload);
        let mut err_payload = vec![0xEE];
        err_payload.extend_from_slice(&bytes);
        let _ = decode_response(&err_payload);
    });
}

/// The retired single-key writes, UPDATE (0x01) and UPDATE_SEQ (0x09),
/// stay unassigned: whatever body follows, both decoders name them as
/// unknown opcodes.
#[test]
fn retired_single_key_opcodes_are_unknown() {
    check("retired_single_key_opcodes_are_unknown", CASES, |rng| {
        let op = if rng.next_u64() & 1 == 0 { 0x01 } else { 0x09 };
        let mut payload = vec![op];
        payload.extend_from_slice(&bytes(rng, 0..64));
        let unknown = FrameError::UnknownOpcode(op);
        assert_eq!(decode_request(&payload), Err(unknown.clone()));
        assert_eq!(decode_request_ref(&payload), Err(unknown));
    });
}

/// Every encodable request survives the wire byte-exactly.
#[test]
fn requests_roundtrip() {
    check("requests_roundtrip", CASES, |rng| {
        let kind = rng.next_below(REQUEST_KINDS as u64) as usize;
        let key = rng.next_u64();
        let keys = u64s(rng, 0..512);
        let req = build_request(kind, key, &keys, rng.next_u64() as u32);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(payload_of(&buf)), Ok(req));
    });
}

/// Every encodable response survives the wire byte-exactly.
#[test]
fn responses_roundtrip() {
    check("responses_roundtrip", CASES, |rng| {
        let kind = rng.next_below(9) as usize;
        let scalar = rng.next_u64();
        let vals = i64s(rng, 0..256);
        let raw = bytes(rng, 0..24);
        let resp = build_response(kind, scalar, &vals, &raw);
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(payload_of(&buf)), Ok(resp));
    });
}

/// Any strict prefix of a valid payload is rejected with a typed
/// error — a mid-frame disconnect can never be mistaken for a
/// complete message.
#[test]
fn truncated_requests_always_error() {
    check("truncated_requests_always_error", CASES, |rng| {
        let kind = rng.next_below(REQUEST_KINDS as u64) as usize;
        let key = rng.next_u64();
        let keys = u64s(rng, 0..64);
        let req = build_request(kind, key, &keys, key as u32);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let payload = payload_of(&buf);
        let cut = ((payload.len() as f64) * rng.next_f64()) as usize; // < len: strict
        assert!(decode_request(&payload[..cut]).is_err());
    });
}

#[test]
fn truncated_responses_always_error() {
    check("truncated_responses_always_error", CASES, |rng| {
        let kind = rng.next_below(9) as usize;
        let scalar = rng.next_u64();
        let vals = i64s(rng, 0..64);
        let raw = bytes(rng, 0..24);
        let resp = build_response(kind, scalar, &vals, &raw);
        let is_error = matches!(resp, Response::Error { .. });
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let payload = payload_of(&buf);
        let cut = ((payload.len() as f64) * rng.next_f64()) as usize;
        // One deliberate exception: an Error frame's 4-byte retry hint
        // trails the legacy fields and decodes tolerantly, so cutting
        // exactly the whole hint off yields a *valid* pre-hint frame
        // (retry_after_ms = 0). Every other strict prefix must error.
        if is_error && cut == payload.len() - 4 {
            match decode_response(&payload[..cut]) {
                Ok(Response::Error { retry_after_ms, .. }) => assert_eq!(retry_after_ms, 0),
                other => panic!("hint-stripped frame must decode: {other:?}"),
            }
        } else {
            assert!(decode_response(&payload[..cut]).is_err());
        }
    });
}

/// Single-byte corruption of a valid frame must decode to Ok (a
/// different message) or a typed error — never a panic.
#[test]
fn bit_flips_never_panic() {
    check("bit_flips_never_panic", CASES, |rng| {
        let kind = rng.next_below(REQUEST_KINDS as u64) as usize;
        let key = rng.next_u64();
        let keys = u64s(rng, 0..64);
        let req = build_request(kind, key, &keys, key as u32);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let mut payload = payload_of(&buf).to_vec();
        if !payload.is_empty() {
            let i = rng.next_below(payload.len() as u64) as usize;
            payload[i] ^= in_range(rng, 1..256) as u8;
        }
        let _ = decode_request(&payload);
    });
}

/// The zero-copy decoder and the owned decoder must agree on every
/// encodable request: same message on success (after materializing
/// the borrowed form). The reactor serves from the borrowed one; the
/// owned one is the reference it is checked against.
#[test]
fn borrowed_decode_equals_owned_on_valid_frames() {
    check(
        "borrowed_decode_equals_owned_on_valid_frames",
        CASES,
        |rng| {
            let kind = rng.next_below(REQUEST_KINDS as u64) as usize;
            let key = rng.next_u64();
            let keys = u64s(rng, 0..512);
            let req = build_request(kind, key, &keys, rng.next_u64() as u32);
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            let payload = payload_of(&buf);
            let borrowed = decode_request_ref(payload).expect("valid frame");
            assert_eq!(borrowed.to_owned(), req);
            assert_eq!(decode_request(payload), Ok(borrowed.to_owned()));
        },
    );
}

/// ...and on arbitrary garbage: both decoders accept or both reject,
/// and acceptance always produces the same message. One decoder being
/// stricter than the other would let the reactor diverge from the
/// reference on hostile input.
#[test]
fn borrowed_decode_matches_owned_on_garbage() {
    check("borrowed_decode_matches_owned_on_garbage", CASES, |rng| {
        let bytes = bytes(rng, 0..4096);
        match (decode_request(&bytes), decode_request_ref(&bytes)) {
            (Ok(o), Ok(b)) => assert_eq!(o, b.to_owned()),
            (Err(_), Err(_)) => {}
            (o, b) => panic!("decoders disagree: owned={o:?} borrowed={b:?}"),
        }
    });
}

/// A declared batch count larger than the bytes present is rejected
/// before any allocation, whatever the count claims.
#[test]
fn hostile_counts_are_rejected() {
    check("hostile_counts_are_rejected", CASES, |rng| {
        let n = in_range(rng, 1..u64::from(u32::MAX)) as u32;
        let extra = bytes(rng, 0..64);
        // Force fewer than n*8 body bytes so the count always overdeclares.
        let n = n.max(extra.len() as u32 / 8 + 1);
        let mut payload = vec![0x02u8]; // UPDATE_BATCH
        payload.extend_from_slice(&n.to_le_bytes());
        payload.extend_from_slice(&extra);
        assert!(decode_request(&payload).is_err());
    });
}

/// The largest legal batch still fits under the frame cap — the bound the
/// server relies on when it trusts `MAX_FRAME` to limit decode work.
#[test]
fn max_batch_fits_max_frame() {
    let req = Request::UpdateBatch(vec![0xAB; MAX_BATCH]);
    let mut buf = Vec::new();
    encode_request(&req, &mut buf);
    assert!(payload_of(&buf).len() as u32 <= MAX_FRAME);
    assert_eq!(decode_request(payload_of(&buf)), Ok(req));
}
