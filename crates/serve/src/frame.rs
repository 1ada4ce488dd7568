//! The wire codec: length-prefixed binary frames, no CRC (TCP already
//! checksums; torn/oversized frames are length-checked), no allocation
//! driven by untrusted declared sizes beyond the frame cap.
//!
//! # Frame layout
//!
//! ```text
//! u32 LE  payload length   (opcode + body; <= MAX_FRAME)
//! u8      opcode
//! ...     body (opcode-specific, all integers little-endian)
//! ```
//!
//! Requests: `UPDATE_BATCH(0x02) u32 n, n×u64` ·
//! `ESTIMATE(0x03) u64` · `ESTIMATE_BATCH(0x04) u32 n, n×u64` ·
//! `TOPK(0x05) u32 k` · `HEALTH(0x06)` · `SYNC(0x07)` ·
//! `HELLO(0x08) u64 session, u64 resume` ·
//! `UPDATE_BATCH_SEQ(0x0A) u64 seq, u32 n, n×u64`.
//! `0x01` and `0x09` are unassigned: a one-key write is an
//! `UPDATE_BATCH` (or `UPDATE_BATCH_SEQ`) of one key.
//!
//! Responses: `OK(0x81) u32` · `VALUE(0x82) i64` ·
//! `VALUES(0x83) u32 n, n×i64` · `TOPK_ITEMS(0x84) u32 n, n×(u64,i64)` ·
//! `HEALTH_INFO(0x85)` · `SYNCED(0x86) u64` ·
//! `HELLO_ACK(0x87) u64 applied` ·
//! `OK_SEQ(0x88) u64 seq, u32 applied, u8 flags` ·
//! `ERROR(0xEE) u8 code, u16 len, utf8 detail, [u32 retry_after_ms]`.
//!
//! The `ERROR` retry hint trails the legacy string detail so pre-hint
//! decoders still find the fields they know at the same offsets; this
//! decoder reads it when present and defaults it to zero otherwise.
//!
//! This module is pure — bytes in, values out — so the property fuzz
//! suite can drive it without sockets. Decoding NEVER panics on any
//! input: every read is bounds-checked and every count is validated
//! against the bytes actually present before allocation.

use eval_metrics::ReactorGauge;

/// Hard cap on a frame's payload (opcode + body), requests and responses
/// alike. A declared length above this is unrecoverable framing damage:
/// the peer closes rather than resynchronize on attacker-chosen bytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// Largest batch an UPDATE_BATCH / ESTIMATE_BATCH may carry — implied by
/// [`MAX_FRAME`]: `(payload - opcode - count) / 8` keys.
pub const MAX_BATCH: usize = ((MAX_FRAME as usize) - 5) / 8;

/// Largest batch an UPDATE_BATCH_SEQ may carry: the sequence number costs
/// 8 more header bytes than the unsequenced form.
pub const MAX_BATCH_SEQ: usize = ((MAX_FRAME as usize) - 13) / 8;

/// Machine-readable error codes carried by an `ERROR` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Body malformed: truncated, trailing bytes, or a count that does
    /// not match the bytes present.
    Malformed = 1,
    /// Unknown opcode byte. The connection survives (framing is intact).
    UnknownOpcode = 2,
    /// The connection cap is reached: the server answers this one frame
    /// on the new connection and closes it. Retry later.
    Overloaded = 3,
    /// Declared frame length exceeds [`MAX_FRAME`]; the peer closes.
    TooLarge = 4,
    /// Server-side failure unrelated to the request bytes.
    Internal = 5,
    /// A shard has lost durability (disk-sick): the write was NOT taken
    /// on paths that refuse best-effort ingest, or — as an ack flag on
    /// `OK_SEQ` — was taken without a durability promise.
    Degraded = 6,
    /// The server is draining for shutdown: no new work is accepted, the
    /// connection is closing. Reconnecting gets the same answer until
    /// the process exits.
    ShuttingDown = 7,
}

impl ErrorCode {
    /// The code for a raw byte, if it names one.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnknownOpcode),
            3 => Some(ErrorCode::Overloaded),
            4 => Some(ErrorCode::TooLarge),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::Degraded),
            7 => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }
}

/// Decode failure. Maps onto the error frame the server answers (or the
/// decision to close, for framing-level damage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Body shorter than the opcode demands.
    Truncated,
    /// Bytes left over after a complete body.
    TrailingBytes,
    /// Opcode byte not assigned.
    UnknownOpcode(u8),
    /// Declared batch count disagrees with the bytes present.
    BadCount,
    /// Error-frame detail is not UTF-8, or its code byte is unassigned.
    BadErrorFrame,
}

impl FrameError {
    /// The `ERROR` code a server answers for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::Malformed,
        }
    }

    /// Human-readable detail for the error frame.
    pub fn detail(&self) -> String {
        match self {
            FrameError::Truncated => "frame body truncated".to_string(),
            FrameError::TrailingBytes => "trailing bytes after frame body".to_string(),
            FrameError::UnknownOpcode(op) => format!("unknown opcode 0x{op:02x}"),
            FrameError::BadCount => "batch count disagrees with frame length".to_string(),
            FrameError::BadErrorFrame => "malformed error frame".to_string(),
        }
    }
}

/// Key bytes borrowed straight out of a frame payload: a byte slice
/// whose length is a multiple of 8, viewed as little-endian `u64` keys.
/// This is the zero-copy half of the codec — the reactor stages these
/// straight into per-shard batches without ever materializing a `Vec`
/// per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyBytes<'a> {
    bytes: &'a [u8],
}

impl<'a> KeyBytes<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 8, 0, "KeyBytes needs whole u64s");
        Self { bytes }
    }

    /// Number of keys in the view.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// True when the view carries no keys.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Iterate the keys without allocating.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
    }

    /// Copy the keys out into an owned vector.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

/// A client request decoded without copying its key payload: batch
/// variants borrow [`KeyBytes`] views into the caller's buffer. The
/// owned [`Request`] decode is defined as `decode_request_ref` +
/// [`RequestRef::to_owned`], so the two can never disagree (the fuzz
/// suite still checks the equivalence independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Ingest a batch of keys in order (borrowed).
    UpdateBatch(KeyBytes<'a>),
    /// Point estimate for one key.
    Estimate(u64),
    /// Point estimates for a batch of keys (borrowed), answers in order.
    EstimateBatch(KeyBytes<'a>),
    /// Top-k heavy hitters across shards.
    TopK(u32),
    /// Server + runtime health gauges.
    Health,
    /// Durability/visibility barrier.
    Sync,
    /// Session handshake for exactly-once sequenced ingest.
    Hello {
        /// Client-chosen session identity (survives reconnects).
        session_id: u64,
        /// The client's claimed applied floor (0 for a fresh session).
        resume_seq: u64,
    },
    /// Sequenced ingest of a batch (borrowed; requires a prior `Hello`).
    UpdateBatchSeq {
        /// Strictly increasing per-session write sequence.
        seq: u64,
        /// The keys, in order.
        keys: KeyBytes<'a>,
    },
}

impl RequestRef<'_> {
    /// Copy out into the owned [`Request`] form.
    pub fn to_owned(&self) -> Request {
        match self {
            RequestRef::UpdateBatch(keys) => Request::UpdateBatch(keys.to_vec()),
            RequestRef::Estimate(k) => Request::Estimate(*k),
            RequestRef::EstimateBatch(keys) => Request::EstimateBatch(keys.to_vec()),
            RequestRef::TopK(k) => Request::TopK(*k),
            RequestRef::Health => Request::Health,
            RequestRef::Sync => Request::Sync,
            RequestRef::Hello {
                session_id,
                resume_seq,
            } => Request::Hello {
                session_id: *session_id,
                resume_seq: *resume_seq,
            },
            RequestRef::UpdateBatchSeq { seq, keys } => Request::UpdateBatchSeq {
                seq: *seq,
                keys: keys.to_vec(),
            },
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ingest a batch of keys in order.
    UpdateBatch(Vec<u64>),
    /// Point estimate for one key.
    Estimate(u64),
    /// Point estimates for a batch of keys, answers in query order.
    EstimateBatch(Vec<u64>),
    /// Top-k heavy hitters across shards.
    TopK(u32),
    /// Server + runtime health gauges.
    Health,
    /// Durability/visibility barrier: apply everything accepted so far,
    /// fsync WALs on durable runtimes, then answer.
    Sync,
    /// Session handshake for exactly-once sequenced ingest.
    Hello {
        /// Client-chosen session identity (survives reconnects).
        session_id: u64,
        /// The client's claimed applied floor (0 for a fresh session).
        resume_seq: u64,
    },
    /// Sequenced ingest of a batch of keys (requires a prior `Hello`).
    UpdateBatchSeq {
        /// Strictly increasing per-session write sequence.
        seq: u64,
        /// The keys, in order.
        keys: Vec<u64>,
    },
}

/// Per-shard health as carried by a `HEALTH_INFO` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardHealthWire {
    /// Worker runs inline on the caller (restart budget spent).
    pub inline_degraded: bool,
    /// Disk-sick: WAL/snapshotting off after a persistent storage fault.
    pub durability_degraded: bool,
    /// Stable fault-class name (empty while healthy). Per-shard — two
    /// shards degraded with different classes both report their own.
    pub fault_class: String,
}

/// Server + runtime health as carried by a `HEALTH_INFO` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthInfoWire {
    /// Keys routed into the runtime so far.
    pub total_routed: u64,
    /// Seqlock reader retries across all read frames served.
    pub reader_retries: u64,
    /// Shard index holding the worst-class fault, if any shard is faulted.
    pub worst_fault_shard: Option<u32>,
    /// That worst fault's class name (empty when none).
    pub worst_fault_class: String,
    /// Per-shard health, indexed by shard.
    pub shards: Vec<ShardHealthWire>,
    /// Per-reactor I/O gauges, one entry per reactor thread.
    pub reactors: Vec<ReactorGauge>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write accepted; carries the number of keys taken.
    Ok(u32),
    /// Point estimate.
    Value(i64),
    /// Batch estimates, in query order.
    Values(Vec<i64>),
    /// Top-k heavy hitters, count-descending.
    TopKItems(Vec<(u64, i64)>),
    /// Health gauges.
    HealthInfo(HealthInfoWire),
    /// Barrier complete; carries total keys routed.
    Synced(u64),
    /// Handshake accepted; carries the highest client sequence fully
    /// applied across shards (the client may discard everything at or
    /// below it and must replay the rest).
    HelloAck {
        /// Resumable floor for the session.
        applied_seq: u64,
    },
    /// Sequenced write acknowledged (applied or deduped).
    OkSeq {
        /// The client sequence this ack covers.
        seq: u64,
        /// Keys actually applied (0 for a full duplicate).
        applied: u32,
        /// Every key was already applied — this was a retry.
        duplicate: bool,
        /// Applied without a durability promise (disk-sick shard).
        degraded: bool,
    },
    /// Request-level failure; the connection survives unless the
    /// transport itself is damaged.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail (bounded at u16::MAX bytes on the wire).
        detail: String,
        /// For `Overloaded`/`ShuttingDown`: how long the client should
        /// back off before retrying (0 = no hint). Encoded trailing the
        /// detail; absent on frames from pre-hint encoders, decoded as 0.
        retry_after_ms: u32,
    },
}

const OP_UPDATE_BATCH: u8 = 0x02;
const OP_ESTIMATE: u8 = 0x03;
const OP_ESTIMATE_BATCH: u8 = 0x04;
const OP_TOPK: u8 = 0x05;
const OP_HEALTH: u8 = 0x06;
const OP_SYNC: u8 = 0x07;
const OP_HELLO: u8 = 0x08;
const OP_UPDATE_BATCH_SEQ: u8 = 0x0A;

const OP_OK: u8 = 0x81;
const OP_VALUE: u8 = 0x82;
const OP_VALUES: u8 = 0x83;
const OP_TOPK_ITEMS: u8 = 0x84;
const OP_HEALTH_INFO: u8 = 0x85;
const OP_SYNCED: u8 = 0x86;
const OP_HELLO_ACK: u8 = 0x87;
const OP_OK_SEQ: u8 = 0x88;
const OP_ERROR: u8 = 0xEE;

/// `OK_SEQ` flag: the write was a full duplicate (a deduped retry).
const OK_SEQ_DUPLICATE: u8 = 1;
/// `OK_SEQ` flag: applied without a durability promise.
const OK_SEQ_DEGRADED: u8 = 1 << 1;

/// Bounds-checked little-endian reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(self.u64()? as i64)
    }

    /// `n` u64s as a borrowed [`KeyBytes`] view, validated against the
    /// bytes actually present *before* anything else — a hostile count
    /// cannot drive an OOM (nothing is allocated at all here).
    fn key_bytes(&mut self, n: usize) -> Result<KeyBytes<'a>, FrameError> {
        if self.remaining().checked_div(8).is_none_or(|cap| cap < n) {
            return Err(FrameError::BadCount);
        }
        Ok(KeyBytes::new(self.take(n * 8)?))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

/// Encode `req` as one frame (length prefix included) appended to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let start = begin_frame(out);
    match req {
        Request::UpdateBatch(keys) => {
            out.push(OP_UPDATE_BATCH);
            put_u64s(out, keys);
        }
        Request::Estimate(key) => {
            out.push(OP_ESTIMATE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::EstimateBatch(keys) => {
            out.push(OP_ESTIMATE_BATCH);
            put_u64s(out, keys);
        }
        Request::TopK(k) => {
            out.push(OP_TOPK);
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::Health => out.push(OP_HEALTH),
        Request::Sync => out.push(OP_SYNC),
        Request::Hello {
            session_id,
            resume_seq,
        } => {
            out.push(OP_HELLO);
            out.extend_from_slice(&session_id.to_le_bytes());
            out.extend_from_slice(&resume_seq.to_le_bytes());
        }
        Request::UpdateBatchSeq { seq, keys } => {
            out.push(OP_UPDATE_BATCH_SEQ);
            out.extend_from_slice(&seq.to_le_bytes());
            put_u64s(out, keys);
        }
    }
    end_frame(out, start);
}

/// Encode `resp` as one frame (length prefix included) appended to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    let start = begin_frame(out);
    match resp {
        Response::Ok(n) => {
            out.push(OP_OK);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Response::Value(v) => {
            out.push(OP_VALUE);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Response::Values(vs) => {
            out.push(OP_VALUES);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::TopKItems(items) => {
            out.push(OP_TOPK_ITEMS);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for (key, count) in items {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        Response::HealthInfo(info) => {
            out.push(OP_HEALTH_INFO);
            out.extend_from_slice(&(info.shards.len() as u32).to_le_bytes());
            out.extend_from_slice(&info.total_routed.to_le_bytes());
            out.extend_from_slice(&info.reader_retries.to_le_bytes());
            out.extend_from_slice(&info.worst_fault_shard.unwrap_or(u32::MAX).to_le_bytes());
            put_str(out, &info.worst_fault_class);
            for s in &info.shards {
                let flags = u8::from(s.inline_degraded) | (u8::from(s.durability_degraded) << 1);
                out.push(flags);
                put_str(out, &s.fault_class);
            }
            out.extend_from_slice(&(info.reactors.len() as u32).to_le_bytes());
            for r in &info.reactors {
                for v in [
                    r.reactor as u64,
                    r.connections,
                    r.wakeups,
                    r.frames_in,
                    r.read_syscalls,
                    r.write_syscalls,
                    r.bytes_read,
                    r.bytes_written,
                    r.mega_batches,
                    r.mega_batch_keys,
                    r.staging_bound,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        Response::Synced(total) => {
            out.push(OP_SYNCED);
            out.extend_from_slice(&total.to_le_bytes());
        }
        Response::HelloAck { applied_seq } => {
            out.push(OP_HELLO_ACK);
            out.extend_from_slice(&applied_seq.to_le_bytes());
        }
        Response::OkSeq {
            seq,
            applied,
            duplicate,
            degraded,
        } => {
            out.push(OP_OK_SEQ);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&applied.to_le_bytes());
            let flags = if *duplicate { OK_SEQ_DUPLICATE } else { 0 }
                | if *degraded { OK_SEQ_DEGRADED } else { 0 };
            out.push(flags);
        }
        Response::Error {
            code,
            detail,
            retry_after_ms,
        } => {
            out.push(OP_ERROR);
            out.push(*code as u8);
            let bytes = detail.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..len]);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
    }
    end_frame(out, start);
}

/// Decode one request from a frame payload (length prefix stripped),
/// borrowing batch keys from `payload` instead of allocating.
///
/// # Errors
/// [`FrameError`] naming exactly what is wrong; never panics, for any
/// input bytes.
pub fn decode_request_ref(payload: &[u8]) -> Result<RequestRef<'_>, FrameError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_UPDATE_BATCH => {
            let n = c.u32()? as usize;
            RequestRef::UpdateBatch(c.key_bytes(n)?)
        }
        OP_ESTIMATE => RequestRef::Estimate(c.u64()?),
        OP_ESTIMATE_BATCH => {
            let n = c.u32()? as usize;
            RequestRef::EstimateBatch(c.key_bytes(n)?)
        }
        OP_TOPK => RequestRef::TopK(c.u32()?),
        OP_HEALTH => RequestRef::Health,
        OP_SYNC => RequestRef::Sync,
        OP_HELLO => RequestRef::Hello {
            session_id: c.u64()?,
            resume_seq: c.u64()?,
        },
        OP_UPDATE_BATCH_SEQ => {
            let seq = c.u64()?;
            let n = c.u32()? as usize;
            RequestRef::UpdateBatchSeq {
                seq,
                keys: c.key_bytes(n)?,
            }
        }
        other => return Err(FrameError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Decode one request from a frame payload (length prefix stripped) into
/// the owned form. Defined as [`decode_request_ref`] + copy-out, so the
/// borrowed and owned decoders agree by construction.
///
/// # Errors
/// [`FrameError`] naming exactly what is wrong; never panics, for any
/// input bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    decode_request_ref(payload).map(|r| r.to_owned())
}

/// Decode one response from a frame payload (length prefix stripped).
///
/// # Errors
/// [`FrameError`] naming exactly what is wrong; never panics, for any
/// input bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let resp = match op {
        OP_OK => Response::Ok(c.u32()?),
        OP_VALUE => Response::Value(c.i64()?),
        OP_VALUES => {
            let n = c.u32()? as usize;
            if c.remaining().checked_div(8).is_none_or(|cap| cap < n) {
                return Err(FrameError::BadCount);
            }
            Response::Values((0..n).map(|_| c.i64()).collect::<Result<_, _>>()?)
        }
        OP_TOPK_ITEMS => {
            let n = c.u32()? as usize;
            if c.remaining().checked_div(16).is_none_or(|cap| cap < n) {
                return Err(FrameError::BadCount);
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let key = c.u64()?;
                let count = c.i64()?;
                items.push((key, count));
            }
            Response::TopKItems(items)
        }
        OP_HEALTH_INFO => {
            let shard_count = c.u32()? as usize;
            let total_routed = c.u64()?;
            let reader_retries = c.u64()?;
            let worst_raw = c.u32()?;
            let worst_fault_class = get_str(&mut c)?;
            // Each shard entry is at least 3 bytes (flags + empty string).
            if c.remaining()
                .checked_div(3)
                .is_none_or(|cap| cap < shard_count)
            {
                return Err(FrameError::BadCount);
            }
            let mut shards = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                let flags = c.u8()?;
                let fault_class = get_str(&mut c)?;
                shards.push(ShardHealthWire {
                    inline_degraded: flags & 1 != 0,
                    durability_degraded: flags & 2 != 0,
                    fault_class,
                });
            }
            let reactor_count = c.u32()? as usize;
            // Each reactor entry is exactly 11 u64s (88 bytes).
            if c.remaining()
                .checked_div(88)
                .is_none_or(|cap| cap < reactor_count)
            {
                return Err(FrameError::BadCount);
            }
            let mut reactors = Vec::with_capacity(reactor_count);
            for _ in 0..reactor_count {
                reactors.push(ReactorGauge {
                    reactor: c.u64()? as usize,
                    connections: c.u64()?,
                    wakeups: c.u64()?,
                    frames_in: c.u64()?,
                    read_syscalls: c.u64()?,
                    write_syscalls: c.u64()?,
                    bytes_read: c.u64()?,
                    bytes_written: c.u64()?,
                    mega_batches: c.u64()?,
                    mega_batch_keys: c.u64()?,
                    staging_bound: c.u64()?,
                });
            }
            Response::HealthInfo(HealthInfoWire {
                total_routed,
                reader_retries,
                worst_fault_shard: (worst_raw != u32::MAX).then_some(worst_raw),
                worst_fault_class,
                shards,
                reactors,
            })
        }
        OP_SYNCED => Response::Synced(c.u64()?),
        OP_HELLO_ACK => Response::HelloAck {
            applied_seq: c.u64()?,
        },
        OP_OK_SEQ => {
            let seq = c.u64()?;
            let applied = c.u32()?;
            let flags = c.u8()?;
            Response::OkSeq {
                seq,
                applied,
                duplicate: flags & OK_SEQ_DUPLICATE != 0,
                degraded: flags & OK_SEQ_DEGRADED != 0,
            }
        }
        OP_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?).ok_or(FrameError::BadErrorFrame)?;
            let len = c.u16()? as usize;
            let detail =
                String::from_utf8(c.take(len)?.to_vec()).map_err(|_| FrameError::BadErrorFrame)?;
            // The retry hint trails the legacy fields; frames from older
            // encoders simply end here.
            let retry_after_ms = if c.remaining() >= 4 { c.u32()? } else { 0 };
            Response::Error {
                code,
                detail,
                retry_after_ms,
            }
        }
        other => return Err(FrameError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(resp)
}

/// Reserve the 4-byte length prefix; returns its offset for `end_frame`.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    start
}

/// Backfill the length prefix reserved by `begin_frame`.
///
/// # Panics
/// Debug-asserts the payload fits [`MAX_FRAME`] — encoders cap their
/// inputs (`MAX_BATCH`, u16 detail), so overflow is a caller bug.
fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len <= MAX_FRAME, "encoder produced an oversized frame");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, keys: &[u64]) {
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        out.extend_from_slice(&key.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn get_str(c: &mut Cursor<'_>) -> Result<String, FrameError> {
    let len = c.u16()? as usize;
    String::from_utf8(c.take(len)?.to_vec()).map_err(|_| FrameError::BadErrorFrame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4);
        assert_eq!(decode_request(&buf[4..]).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4);
        assert_eq!(decode_response(&buf[4..]).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::UpdateBatch(vec![]));
        roundtrip_request(Request::UpdateBatch(vec![1, 2, 3, u64::MAX]));
        roundtrip_request(Request::Estimate(7));
        roundtrip_request(Request::EstimateBatch(vec![9, 9, 0]));
        roundtrip_request(Request::TopK(16));
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Sync);
        roundtrip_request(Request::Hello {
            session_id: u64::MAX,
            resume_seq: 17,
        });
        roundtrip_request(Request::UpdateBatchSeq {
            seq: 10,
            keys: vec![1, 2, u64::MAX],
        });
        roundtrip_request(Request::UpdateBatchSeq {
            seq: 11,
            keys: vec![],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok(3));
        roundtrip_response(Response::Value(-1));
        roundtrip_response(Response::Values(vec![0, i64::MAX, i64::MIN]));
        roundtrip_response(Response::TopKItems(vec![(1, 10), (2, 5)]));
        roundtrip_response(Response::Synced(12345));
        roundtrip_response(Response::HelloAck { applied_seq: 41 });
        roundtrip_response(Response::OkSeq {
            seq: 42,
            applied: 100,
            duplicate: false,
            degraded: true,
        });
        roundtrip_response(Response::OkSeq {
            seq: 43,
            applied: 0,
            duplicate: true,
            degraded: false,
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            detail: "queue full".into(),
            retry_after_ms: 25,
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::ShuttingDown,
            detail: "draining".into(),
            retry_after_ms: 0,
        });
        roundtrip_response(Response::HealthInfo(HealthInfoWire {
            total_routed: 100,
            reader_retries: 2,
            worst_fault_shard: Some(1),
            worst_fault_class: "no-space".into(),
            shards: vec![
                ShardHealthWire {
                    inline_degraded: false,
                    durability_degraded: true,
                    fault_class: "io".into(),
                },
                ShardHealthWire {
                    inline_degraded: true,
                    durability_degraded: true,
                    fault_class: "no-space".into(),
                },
            ],
            reactors: vec![ReactorGauge {
                reactor: 0,
                connections: 3,
                wakeups: 40,
                frames_in: 200,
                read_syscalls: 41,
                write_syscalls: 39,
                bytes_read: 9000,
                bytes_written: 4200,
                mega_batches: 12,
                mega_batch_keys: 3000,
                staging_bound: 16384,
            }],
        }));
    }

    #[test]
    fn borrowed_decode_matches_owned_and_borrows_in_place() {
        let keys = vec![7u64, 0, u64::MAX, 42];
        let mut buf = Vec::new();
        encode_request(&Request::UpdateBatch(keys.clone()), &mut buf);
        let payload = &buf[4..];
        let borrowed = decode_request_ref(payload).unwrap();
        match borrowed {
            RequestRef::UpdateBatch(kb) => {
                assert_eq!(kb.len(), keys.len());
                assert!(!kb.is_empty());
                assert_eq!(kb.to_vec(), keys);
                assert_eq!(kb.iter().collect::<Vec<_>>(), keys);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(borrowed.to_owned(), decode_request(payload).unwrap());

        // Hostile count is still rejected before any allocation.
        let mut body = vec![0x02];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request_ref(&body), Err(FrameError::BadCount));
    }

    #[test]
    fn truncated_bodies_error_not_panic() {
        assert_eq!(decode_request(&[]), Err(FrameError::Truncated));
        assert_eq!(decode_request(&[OP_ESTIMATE]), Err(FrameError::Truncated));
        assert_eq!(
            decode_request(&[OP_ESTIMATE, 1, 2, 3]),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            decode_request(&[OP_UPDATE_BATCH, 1, 0]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn hostile_batch_count_is_rejected_before_allocation() {
        // Declares u32::MAX keys with an empty body: must be BadCount,
        // not a giant Vec reservation.
        let mut body = vec![OP_UPDATE_BATCH];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(FrameError::BadCount));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&Request::Estimate(1), &mut buf);
        let mut payload = buf[4..].to_vec();
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn legacy_error_frames_without_retry_hint_decode_as_zero() {
        // Hand-build the pre-hint layout: code, u16 len, detail, nothing
        // trailing.
        let mut body = vec![OP_ERROR, ErrorCode::Overloaded as u8];
        body.extend_from_slice(&(4u16).to_le_bytes());
        body.extend_from_slice(b"full");
        assert_eq!(
            decode_response(&body).unwrap(),
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: "full".into(),
                retry_after_ms: 0,
            }
        );
    }

    #[test]
    fn unknown_opcodes_name_themselves() {
        assert_eq!(
            decode_request(&[0x7F]),
            Err(FrameError::UnknownOpcode(0x7F))
        );
        // The retired single-key writes, UPDATE and UPDATE_SEQ, stay
        // unassigned.
        let mut body = vec![0x01];
        body.extend_from_slice(&42u64.to_le_bytes());
        assert_eq!(decode_request(&body), Err(FrameError::UnknownOpcode(0x01)));
        let mut body = vec![0x09];
        body.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_request(&body), Err(FrameError::UnknownOpcode(0x09)));
        assert_eq!(
            FrameError::UnknownOpcode(0x7F).code(),
            ErrorCode::UnknownOpcode
        );
        assert_eq!(FrameError::Truncated.code(), ErrorCode::Malformed);
    }
}
