//! The event-driven serving data plane (Linux): N epoll reactor threads
//! own disjoint nonblocking connection sets and drive the whole
//! request/response cycle without per-connection threads.
//!
//! # Wakeup anatomy
//!
//! One `epoll_wait` wakeup on a reactor:
//!
//! 1. **Adopt** — new sockets the acceptor round-robined into this
//!    reactor's inbox (eventfd-signalled) are registered, level-triggered.
//! 2. **Read + decode** — each readable connection is drained with
//!    vectored reads (bounded per connection per wakeup, so one firehose
//!    cannot starve its neighbours), and complete frames are decoded **in
//!    place** ([`decode_request_ref`]) from the connection buffer.
//!    Reads (`ESTIMATE`/`ESTIMATE_BATCH`/`TOPK`) are answered immediately
//!    from the wait-free [`QueryHandle`] seqlock snapshots; write keys are
//!    partitioned into the reactor's cross-connection [`Staging`]
//!    buckets. Responses are appended to the connection's gather buffer —
//!    nothing touches the socket yet.
//! 3. **Flush** — staged keys ship to the runtime as one mega-batch per
//!    shard ([`ConcurrentASketch::insert_sharded`]): one journal sequence
//!    and one ring push per shard per wakeup instead of one per frame.
//! 4. **Write** — each touched connection's responses go out in a single
//!    write syscall. Short writes arm `EPOLLOUT` and resume exactly where
//!    they stopped next wakeup.
//!
//! # Ordering, backpressure, durability
//!
//! *Ordering*: frames are decoded and answered sequentially per
//! connection, and the gather buffer preserves append order across
//! partial writes — response order equals request order under pipelining.
//!
//! *Backpressure*: the staging flush blocks until the rings accept the
//! batch; reads are bounded per wakeup, so a flooding client fills its
//! kernel buffers and stalls (end-to-end TCP backpressure). Every write
//! frame is accepted and applied; none is shed, so the books stay exact.
//!
//! *Durability*: the staging flush runs **before** the write pass, and
//! `insert_sharded` journals before it sends — so by the time an `OK`
//! reaches a client, its keys have a journal sequence and a ring slot.
//! SYNC flushes this reactor's staging, then runs the runtime barrier +
//! WAL checkpoint under the core lock.
//!
//! # The core lock
//!
//! The runtime lives in an `Arc<Mutex<Option<..>>>` shared by the
//! reactors. The mutex serializes flushes, which is what preserves the
//! ring's single-producer invariant with N reactor threads; it is taken
//! once per mega-batch (not per frame), so it is far off the hot path.
//! Shutdown joins the reactors first (each does a final blocking flush),
//! then takes the runtime out and finishes it with its documented
//! shutdown ordering.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asketch::{ASketch, Filter};
use asketch_parallel::{ConcurrentASketch, KeyPartition, QueryHandle};
use eval_metrics::{ReactorGauge, ShardedHealth};
use sketches::{SharedView, UpdateEstimate};

use crate::conn::{Conn, ReadProgress, OUT_HIGH_WATER, OUT_LOW_WATER, READ_CHUNK};
use crate::frame::{
    decode_request_ref, encode_response, ErrorCode, KeyBytes, RequestRef, Response, MAX_FRAME,
};
use crate::server::{health_wire, shutting_down, Acceptor, ServeConfig, ServerStats};
use crate::staging::Staging;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Vectored reads per connection per wakeup: bounds how much one
/// connection can monopolize a wakeup (level-triggered epoll re-reports
/// anything left unread).
const MAX_READS_PER_WAKEUP: usize = 4;

/// Idle `epoll_wait` timeout; wakes are eventfd-driven, this only bounds
/// how stale the stop-flag check can get.
const IDLE_TIMEOUT_MS: i32 = 200;

/// Staging-buffer key bound per reactor: a wakeup flushes once this many
/// UPDATE_BATCH keys are staged (and always at end of wakeup).
const STAGING_KEYS: usize = 16_384;

/// How often the idle/slowloris reaper sweeps a reactor's connections.
const REAP_INTERVAL: Duration = Duration::from_millis(100);

/// Per-read seqlock retry budget for the wait-free gauge: a read whose
/// retry delta exceeds this counts as `reader_blocked`.
const READ_RETRY_BOUND: u64 = 64;

/// Live per-reactor I/O counters, held in [`ServerStats`] so any reactor
/// can snapshot the whole set for a HEALTH frame, and so the server's
/// frame and open-connection totals are their sums.
#[derive(Default)]
pub(crate) struct GaugeCells {
    pub(crate) connections: AtomicU64,
    wakeups: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    mega_batches: AtomicU64,
    mega_batch_keys: AtomicU64,
}

impl GaugeCells {
    pub(crate) fn snapshot(&self, reactor: usize) -> ReactorGauge {
        ReactorGauge {
            reactor,
            connections: self.connections.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            mega_batches: self.mega_batches.load(Ordering::Relaxed),
            mega_batch_keys: self.mega_batch_keys.load(Ordering::Relaxed),
            staging_bound: STAGING_KEYS as u64,
        }
    }
}

/// The acceptor→reactor handoff: accepted sockets parked under a mutex,
/// an eventfd to lift the reactor out of `epoll_wait`.
struct Inbox {
    incoming: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// The shared, reactor-flushed runtime. `None` once shutdown took it.
type IngestCore<F, S> = Arc<Mutex<Option<ConcurrentASketch<F, S>>>>;

/// The running reactor engine behind [`crate::Server`].
pub(crate) struct ReactorEngine<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    stop: Arc<AtomicBool>,
    core: IngestCore<F, S>,
    /// Round-robins admitted sockets into the reactors' inboxes; drains
    /// (refusing new connections) while the reactors wind down.
    acceptor: Acceptor,
    reactors: Vec<JoinHandle<()>>,
    inboxes: Arc<Vec<Inbox>>,
    stats: Arc<ServerStats>,
}

impl<F, S> ReactorEngine<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Start serving `rt` on an already-bound blocking `listener`, one
    /// reactor per cell set in `stats`.
    ///
    /// # Errors
    /// epoll/eventfd creation or thread-spawn failures.
    pub(crate) fn spawn(
        listener: TcpListener,
        cfg: ServeConfig,
        rt: ConcurrentASketch<F, S>,
        stats: Arc<ServerStats>,
        handle: QueryHandle<S>,
    ) -> io::Result<Self> {
        let n = stats.reactors.len();
        let partition = rt.partition();
        let stop = Arc::new(AtomicBool::new(false));
        let core: IngestCore<F, S> = Arc::new(Mutex::new(Some(rt)));

        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            inboxes.push(Inbox {
                incoming: Mutex::new(Vec::new()),
                wake: EventFd::new()?,
            });
        }
        let inboxes = Arc::new(inboxes);

        let mut reactors = Vec::with_capacity(n);
        for idx in 0..n {
            let reactor = Reactor {
                idx,
                epoll: Epoll::new()?,
                stop: Arc::clone(&stop),
                core: Arc::clone(&core),
                inboxes: Arc::clone(&inboxes),
                handle: handle.clone(),
                stats: Arc::clone(&stats),
                cfg: cfg.clone(),
                staging: Staging::new(partition, STAGING_KEYS),
                partition,
                conns: Vec::new(),
                free: Vec::new(),
                touched: Vec::new(),
                scratch: Box::new([0u8; READ_CHUNK]),
                last_reap: Instant::now(),
            };
            let t = std::thread::Builder::new()
                .name(format!("serve-reactor-{idx}"))
                .spawn(move || reactor.run())?;
            reactors.push(t);
        }

        let acceptor = {
            let inboxes = Arc::clone(&inboxes);
            let stats = Arc::clone(&stats);
            let mut next = 0usize;
            Acceptor::spawn(listener, cfg.max_connections, stats, move |sock| {
                if sock.set_nonblocking(true).is_err() {
                    return;
                }
                let inbox = &inboxes[next % inboxes.len()];
                next = next.wrapping_add(1);
                inbox
                    .incoming
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(sock);
                inbox.wake.wake();
            })?
        };

        Ok(Self {
            stop,
            core,
            acceptor,
            reactors,
            inboxes,
            stats,
        })
    }

    /// Graceful shutdown: enter the drain phase (new connections get one
    /// `SHUTTING_DOWN` frame), let every reactor drain its connections
    /// and blocking-flush its staging, then stop the acceptor, take the
    /// runtime and finish it. The returned health carries the final
    /// per-reactor I/O gauges.
    pub(crate) fn finish(&mut self) -> (Vec<ASketch<F, S>>, ShardedHealth) {
        // Drain phase: a client reconnecting while the reactors wind
        // down gets a typed refusal at the socket, not a silent drop.
        self.acceptor.drain();
        self.stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake.wake();
        }
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        self.acceptor.stop();
        let rt = self
            .core
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match rt {
            Some(rt) => {
                let (kernels, mut health) = rt.finish_with_health();
                health.reactors = self.stats.reactor_gauges();
                (kernels, health)
            }
            None => (Vec::new(), ShardedHealth::default()),
        }
    }
}

impl<F, S> Drop for ReactorEngine<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Best-effort teardown when dropped without a graceful finish:
    /// signal stop and wake the reactors; they flush and wind down on
    /// their own, and the runtime drops with the last core reference.
    /// The acceptor stops as its field drops.
    fn drop(&mut self) {
        self.acceptor.drain();
        self.stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake.wake();
        }
    }
}

/// One reactor thread's state: its epoll instance, its connection slab,
/// and its cross-connection staging.
struct Reactor<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    idx: usize,
    epoll: Epoll,
    stop: Arc<AtomicBool>,
    core: IngestCore<F, S>,
    inboxes: Arc<Vec<Inbox>>,
    handle: QueryHandle<S>,
    stats: Arc<ServerStats>,
    cfg: ServeConfig,
    staging: Staging,
    /// The runtime's key partition, for sessioned writes (which bypass
    /// staging and apply per frame with session dedup).
    partition: KeyPartition,
    /// Connection slab; epoll token = slot + 1 (token 0 is the eventfd).
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots that produced output this wakeup (write-pass worklist).
    touched: Vec<usize>,
    scratch: Box<[u8; READ_CHUNK]>,
    /// Last idle/slowloris reaper sweep.
    last_reap: Instant,
}

impl<F, S> Reactor<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// This reactor's own I/O cells.
    fn cells(&self) -> &GaugeCells {
        &self.stats.reactors[self.idx]
    }

    fn run(mut self) {
        if self
            .epoll
            .add(self.inboxes[self.idx].wake.raw_fd(), EPOLLIN, 0)
            .is_err()
        {
            return;
        }
        let mut events = vec![EpollEvent::zeroed(); 256];
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            // Mid-wakeup state never survives: staging flushes and
            // touched drains at the end of every wakeup, so the idle
            // timeout only bounds stop-flag staleness.
            let n = match self.epoll.wait(&mut events, IDLE_TIMEOUT_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.cells().wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in &events[..n] {
                let token = ev.token();
                if token == 0 {
                    self.inboxes[self.idx].wake.drain();
                    self.adopt_incoming();
                } else {
                    self.handle_conn_event((token - 1) as usize, ev.mask());
                }
            }
            // Flush BEFORE the write pass: an OK that reaches a socket is
            // always backed by journaled, ring-resident keys.
            self.flush_blocking();
            if self.last_reap.elapsed() >= REAP_INTERVAL {
                self.reap();
            }
            self.write_pass();
        }
        self.shutdown_drain();
    }

    /// Register sockets the acceptor handed to this reactor.
    fn adopt_incoming(&mut self) {
        let sockets: Vec<TcpStream> = self.inboxes[self.idx]
            .incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for sock in sockets {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let mut conn = Conn::new(sock);
            conn.interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(conn.sock().as_raw_fd(), conn.interest, (slot + 1) as u64)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.cells().connections.fetch_add(1, Ordering::Relaxed);
            self.conns[slot] = Some(conn);
        }
    }

    /// React to one epoll event on a connection.
    fn handle_conn_event(&mut self, slot: usize, mask: u32) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let mut alive = mask & EPOLLERR == 0;
        if alive && mask & EPOLLIN != 0 && !conn.read_parked && !conn.closing {
            alive = self.read_and_process(&mut conn);
        } else if alive && mask & (EPOLLHUP | EPOLLRDHUP) != 0 && !conn.closing {
            // Peer hung up with nothing readable: drain what we owe,
            // then close.
            conn.closing = true;
        }
        if !alive {
            self.close_conn(slot, conn);
            return;
        }
        if !conn.touched {
            conn.touched = true;
            self.touched.push(slot);
        }
        self.conns[slot] = Some(conn);
    }

    /// Drain the socket (bounded) and process every complete frame.
    /// Returns `false` when the transport is unusable.
    fn read_and_process(&mut self, conn: &mut Conn) -> bool {
        for _ in 0..MAX_READS_PER_WAKEUP {
            match conn.read_some(&mut self.scratch) {
                ReadProgress::Data(n) => {
                    conn.last_activity = Instant::now();
                    let cells = self.cells();
                    cells.read_syscalls.fetch_add(1, Ordering::Relaxed);
                    cells.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    self.process_frames(conn);
                    if conn.closing || conn.read_parked {
                        break;
                    }
                    if n < READ_CHUNK {
                        break;
                    }
                }
                ReadProgress::Eof => {
                    // Complete frames were already answered after each
                    // read; whatever remains is a torn frame and is
                    // deliberately not applied. Deliver what we owe,
                    // then close.
                    conn.closing = true;
                    break;
                }
                ReadProgress::WouldBlock => break,
                ReadProgress::Broken => return false,
            }
        }
        true
    }

    /// Decode and answer every complete frame in `conn.buf`, in place.
    fn process_frames(&mut self, conn: &mut Conn) {
        // Move the buffers out so the borrow of `buf` inside
        // `decode_request_ref` leaves `self`/`conn` free for staging,
        // stats, and the query handle.
        let buf = std::mem::take(&mut conn.buf);
        let mut out = std::mem::take(&mut conn.out);
        let mut off = 0usize;
        while buf.len() - off >= 4 {
            let declared = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            if declared > MAX_FRAME {
                // Framing is unrecoverable: answer why, then close once
                // the answer drains.
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: ErrorCode::TooLarge,
                    detail: format!("declared frame length {declared} exceeds {MAX_FRAME}"),
                    retry_after_ms: 0,
                };
                encode_response(&resp, &mut out);
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
                off = buf.len();
                break;
            }
            let len = declared as usize;
            if buf.len() - off - 4 < len {
                break; // partial frame; resume after the next read
            }
            let payload = &buf[off + 4..off + 4 + len];
            off += 4 + len;
            self.cells().frames_in.fetch_add(1, Ordering::Relaxed);
            let resp = match decode_request_ref(payload) {
                Ok(req) => self.answer(req, &mut conn.session),
                Err(e) => {
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        code: e.code(),
                        detail: e.detail(),
                        retry_after_ms: 0,
                    }
                }
            };
            encode_response(&resp, &mut out);
            self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        }
        conn.buf = buf;
        conn.out = out;
        conn.consume(off);
        if conn.closing {
            conn.buf.clear();
        }
    }

    /// Answer one decoded request. Reads come straight off the snapshot
    /// handle; writes go through staging (or, sequenced, straight to the
    /// runtime).
    fn answer(&mut self, req: RequestRef<'_>, session: &mut Option<u64>) -> Response {
        match req {
            RequestRef::UpdateBatch(keys) => self.ingest(keys),
            RequestRef::Hello {
                session_id,
                resume_seq,
            } => self.hello_session(session, session_id, resume_seq),
            RequestRef::UpdateBatchSeq { seq, keys } => self.ingest_sessioned(*session, seq, keys),
            RequestRef::Estimate(key) => {
                let before = self.handle.reader_retries();
                let value = self.handle.estimate(key);
                self.track_read(self.handle.reader_retries() - before, 1);
                Response::Value(value)
            }
            RequestRef::EstimateBatch(keys) => {
                let owned = keys.to_vec();
                let before = self.handle.reader_retries();
                let values = self.handle.estimate_batch(&owned);
                self.track_read(self.handle.reader_retries() - before, owned.len() as u64);
                Response::Values(values)
            }
            RequestRef::TopK(k) => {
                let items = self.handle.top_k((k as usize).min(1 << 16));
                self.stats.topk_served.fetch_add(1, Ordering::Relaxed);
                Response::TopKItems(items)
            }
            RequestRef::Health => self.health(),
            RequestRef::Sync => self.sync(),
        }
    }

    /// Stage one write frame's keys; a full staging buffer ships at once.
    fn ingest(&mut self, keys: KeyBytes<'_>) -> Response {
        self.staging.stage(keys.iter());
        if self.staging.at_bound() {
            self.flush_blocking();
        }
        let n = keys.len();
        self.stats
            .updates_ingested
            .fetch_add(n as u64, Ordering::Relaxed);
        Response::Ok(n as u32)
    }

    /// HELLO handshake: register the session on this connection, fold
    /// the client's resume floor into the runtime's session table, and
    /// answer the sequence the client may safely resume after.
    fn hello_session(
        &mut self,
        conn_session: &mut Option<u64>,
        session_id: u64,
        resume_seq: u64,
    ) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        let applied = rt.hello(session_id, resume_seq);
        *conn_session = Some(session_id);
        Response::HelloAck {
            applied_seq: applied,
        }
    }

    /// One sequenced write: partition, then apply under the core lock
    /// with per-shard session dedup — bypassing the cross-connection
    /// staging so the (session, seq) annotation rides the exact shard
    /// batches this frame produced.
    fn ingest_sessioned(&mut self, session: Option<u64>, seq: u64, keys: KeyBytes<'_>) -> Response {
        let Some(sid) = session else {
            return Response::Error {
                code: ErrorCode::Malformed,
                detail: "sequenced update before HELLO".to_string(),
                retry_after_ms: 0,
            };
        };
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); self.partition.shards()];
        for key in keys.iter() {
            batches[self.partition.shard_of(key)].push(key);
        }
        let o = {
            let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(rt) = guard.as_mut() else {
                return shutting_down();
            };
            rt.insert_sessioned(sid, seq, &mut batches)
        };
        self.stats
            .updates_ingested
            .fetch_add(o.applied as u64, Ordering::Relaxed);
        Response::OkSeq {
            seq,
            applied: o.applied as u32,
            duplicate: o.duplicate,
            degraded: o.degraded,
        }
    }

    /// The idle/slowloris reaper: close connections with no traffic past
    /// the idle window, and answer-then-close connections that have held
    /// a partial frame past the partial-frame window (a peer feeding
    /// bytes too slowly to ever complete a frame ties up a slot
    /// otherwise).
    fn reap(&mut self) {
        self.last_reap = Instant::now();
        let idle = self.cfg.idle_timeout_ms;
        let partial = self.cfg.partial_frame_timeout_ms;
        if idle == 0 && partial == 0 {
            return;
        }
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if conn.closing {
                self.conns[slot] = Some(conn);
                continue;
            }
            let quiet = conn.last_activity.elapsed();
            if partial > 0 && !conn.buf.is_empty() && quiet >= Duration::from_millis(partial) {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    detail: "partial frame timed out".to_string(),
                    retry_after_ms: 0,
                };
                encode_response(&resp, &mut conn.out);
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
                conn.buf.clear();
                if !conn.touched {
                    conn.touched = true;
                    self.touched.push(slot);
                }
                self.conns[slot] = Some(conn);
            } else if idle > 0
                && conn.buf.is_empty()
                && conn.pending_out() == 0
                && quiet >= Duration::from_millis(idle)
            {
                self.close_conn(slot, conn);
            } else {
                self.conns[slot] = Some(conn);
            }
        }
    }

    /// Account one read's seqlock retry delta against the wait-free
    /// gauge.
    fn track_read(&self, delta: u64, reads: u64) {
        self.stats
            .estimates_served
            .fetch_add(reads, Ordering::Relaxed);
        if delta > 0 {
            self.stats
                .reader_retries
                .fetch_add(delta, Ordering::Relaxed);
        }
        if delta > READ_RETRY_BOUND {
            self.stats.reader_blocked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publish the cumulative mega-batch counters to the shared cells.
    fn publish_mega_counters(staging: &Staging, cells: &GaugeCells) {
        let (batches, keys) = staging.counters();
        cells.mega_batches.store(batches, Ordering::Relaxed);
        cells.mega_batch_keys.store(keys, Ordering::Relaxed);
    }

    /// Ship everything staged, blocking on ring room if needed. Never
    /// loses accepted keys.
    fn flush_blocking(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(rt) => {
                self.staging.flush_blocking(rt);
                Self::publish_mega_counters(&self.staging, self.cells());
            }
            // Shutdown already took the runtime; nothing can apply these.
            None => {
                self.staging.shed();
            }
        }
    }

    /// SYNC barrier: flush this reactor's staging, then run the runtime
    /// barrier and WAL checkpoint. Keys acknowledged by other reactors
    /// are already shipped (flush-before-write), so the returned total
    /// covers every acknowledged write anywhere.
    fn sync(&mut self) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        self.staging.flush_blocking(rt);
        Self::publish_mega_counters(&self.staging, self.cells());
        rt.sync();
        // Durable runtimes: fsync the WALs so SYNCED means "will survive
        // a crash". Non-durable: documented no-op. A degraded shard's
        // error is already in health; the barrier still answers.
        let total = match rt.wal_checkpoint() {
            Ok(n) => n,
            Err(_) => rt.health().total_routed(),
        };
        Response::Synced(total)
    }

    /// HEALTH probe: runtime health plus the live per-reactor I/O gauges.
    fn health(&mut self) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        self.staging.flush_blocking(rt);
        Self::publish_mega_counters(&self.staging, self.cells());
        Response::HealthInfo(health_wire(&rt.health(), &self.stats))
    }

    /// One write syscall per touched connection; arm/disarm `EPOLLOUT`
    /// and the slow-reader park as the pending level dictates.
    fn write_pass(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        for slot in touched {
            let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            conn.touched = false;
            if !self.flush_conn(&mut conn) {
                self.close_conn(slot, conn);
                continue;
            }
            if conn.closing && conn.pending_out() == 0 {
                self.close_conn(slot, conn);
                continue;
            }
            self.update_interest(slot, &mut conn);
            self.conns[slot] = Some(conn);
        }
    }

    /// One write syscall for `conn` (no-op when nothing is pending).
    /// Returns `false` on transport failure.
    fn flush_conn(&mut self, conn: &mut Conn) -> bool {
        if conn.pending_out() == 0 {
            return true;
        }
        match conn.flush_out() {
            Ok(0) => true,
            Ok(n) => {
                let cells = self.cells();
                cells.write_syscalls.fetch_add(1, Ordering::Relaxed);
                cells.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Recompute and apply the epoll interest mask for `conn`.
    fn update_interest(&mut self, slot: usize, conn: &mut Conn) {
        let pending = conn.pending_out();
        if pending > OUT_HIGH_WATER {
            conn.read_parked = true;
        } else if conn.read_parked && pending < OUT_LOW_WATER {
            conn.read_parked = false;
        }
        let mut want = 0u32;
        if pending > 0 {
            want |= EPOLLOUT;
        }
        if !conn.closing && !conn.read_parked {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.sock().as_raw_fd(), want, (slot + 1) as u64)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Deregister, close, and recycle one connection slot.
    fn close_conn(&mut self, slot: usize, conn: Conn) {
        self.epoll.delete(conn.sock().as_raw_fd());
        let _ = conn.sock().shutdown(std::net::Shutdown::Both);
        self.cells().connections.fetch_sub(1, Ordering::Relaxed);
        self.free.push(slot);
    }

    /// Stop-path drain: ship everything staged (blocking — accepted keys
    /// are never dropped), then briefly keep writing so every response
    /// already produced reaches its peer, then close everything.
    fn shutdown_drain(&mut self) {
        self.flush_blocking();
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        loop {
            let mut pending = false;
            for conn in self.conns.iter_mut().flatten() {
                if conn.pending_out() > 0 && conn.flush_out().is_ok() && conn.pending_out() > 0 {
                    pending = true;
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for conn in self.conns.drain(..).flatten() {
            let _ = conn.sock().shutdown(std::net::Shutdown::Both);
        }
        // Sockets the acceptor parked after our last adopt never became
        // connections; dropping them sends FIN.
        self.inboxes[self.idx]
            .incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}
