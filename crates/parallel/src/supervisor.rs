//! Supervision substrate shared by every supervised worker runtime — the
//! two §6.2 pipelines and the sharded runtime: typed errors, restart
//! policy, runtime health, and the one fault-recovery protocol
//! (`Supervisor`) whose checkpoint/replay journal makes worker faults
//! *lossless*.
//!
//! # Fault model
//!
//! The worker owns the only authoritative copy of its sketch, so a worker
//! panic would normally lose every forwarded update. The runtimes avoid
//! that with a checkpoint + journal protocol:
//!
//! * every batch shipped to the worker carries a monotonically increasing
//!   sequence number and is recorded in a caller-side `Journal` before
//!   it is sent. The entry is `(seq, batch)`, and the batch is the very
//!   allocation the ring carries (`Batch`), so journaling copies no key;
//! * every kernel's worth of journal bytes (`checkpoint_keys`) the
//!   worker clones its sketch and sends `(last_applied_seq, snapshot)`
//!   back on the (never blocking, unbounded) reply channel;
//! * on receiving a checkpoint the caller prunes journal entries with
//!   `seq <= last_applied_seq`.
//!
//! After a fault, `snapshot + replay(journal)` reconstructs *exactly* the
//! state the worker would have reached had it applied every shipped
//! batch: batches at or below the checkpoint's sequence number are inside
//! the snapshot, batches above it are replayed once, whole, through the
//! kernel's batched update path (`JournalOp::replay`). A batch in
//! flight when the worker failed is journaled, so the restore covers it
//! and it is never resent. No update is lost and none is double counted,
//! so the one-sided estimate guarantee survives every failure mode.
//!
//! The journal holds the batches shipped since the last checkpoint: under
//! one kernel's size `B` in journal bytes (8 B a key for the sharded
//! runtime, 16 B a `(key, delta)` tuple for the pipelines) plus the batch
//! that crossed the spacing, plus whatever the ring still holds (at most
//! `queue_capacity` batches).

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sketches::traits::{Supervisable, Tuple};

/// Tunables for a supervised pipeline runtime.
///
/// A full forward ring always blocks the caller, each wait bounded by
/// [`send_timeout`](Self::send_timeout), after which the worker is failed
/// over; no update is ever dropped.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Slots of the bounded caller → worker ring (rounded up to a power
    /// of two). A slot holds one shipped batch: up to 64 staged filter
    /// misses, one flushed H-UDAF table, or one demotion or delete. At the
    /// default 1 024 slots up to 65 536 misses can be in flight. Each
    /// shipped batch stays in the caller's replay journal, at 16 B a
    /// tuple, until a checkpoint covers it, so the journal holds under one
    /// kernel's size plus one batch of applied tuples, plus the ring's
    /// contents: up to 1 MiB more at the default with full batches.
    pub queue_capacity: usize,
    /// How long a point-query round trip may take before it counts as a
    /// timeout.
    pub estimate_timeout: Duration,
    /// How long a blocking push (a full-ring wait) may wait before the
    /// worker is declared wedged. Kept separate from
    /// [`estimate_timeout`](Self::estimate_timeout) because a
    /// healthy-but-slow worker legitimately needs worst-case *queue-drain*
    /// time here (e.g. a long checkpoint clone of a large sketch), which
    /// can far exceed a reasonable query-latency bound.
    pub send_timeout: Duration,
    /// Extra attempts for a timed-out estimate round trip before the
    /// worker is declared wedged and failed over.
    pub estimate_retries: u32,
    /// Worker respawns allowed before the runtime stays in degraded
    /// inline mode for good.
    pub max_restarts: u32,
    /// Base delay before a worker respawn; doubles per restart (capped at
    /// 32x).
    pub restart_backoff: Duration,
    /// Upper bound on how long `finish`/`Drop` wait for the worker to
    /// exit before abandoning the thread and reconstructing the sketch
    /// from the journal. Guarantees teardown never hangs.
    pub shutdown_timeout: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            estimate_timeout: Duration::from_secs(2),
            send_timeout: Duration::from_secs(30),
            estimate_retries: 2,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(5),
            shutdown_timeout: Duration::from_secs(5),
        }
    }
}

/// Typed failures surfaced by the supervised runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The worker thread panicked; the payload is the panic message.
    WorkerPanicked(String),
    /// The worker's channel disconnected without a panic payload.
    Disconnected,
    /// An estimate round trip exceeded its timeout budget (after retries).
    EstimateTimeout,
    /// An SPMD shard kept panicking after every permitted attempt.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic message of the last attempt.
        payload: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::WorkerPanicked(p) => write!(f, "sketch worker panicked: {p}"),
            PipelineError::Disconnected => write!(f, "sketch worker channel disconnected"),
            PipelineError::EstimateTimeout => write!(f, "estimate round trip timed out"),
            PipelineError::ShardFailed {
                shard,
                attempts,
                payload,
            } => {
                write!(
                    f,
                    "SPMD shard {shard} failed after {attempts} attempts: {payload}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Counters describing a supervised pipeline run; the observability
/// surface the chaos tests (and operators) assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Counting messages shipped to the worker (tuples for the ASketch
    /// pipeline, batches for the H-UDAF pipeline).
    pub forwarded: u64,
    /// Filter ⇄ sketch exchanges applied (ASketch pipeline only).
    pub exchanges: u64,
    /// Times the bounded forward queue was found full (each one a
    /// blocking wait).
    pub queue_full_events: u64,
    /// Updates applied on the caller in degraded inline mode.
    pub inline_updates: u64,
    /// Estimate round trips that timed out (including retries).
    pub estimate_timeouts: u64,
    /// Worker faults observed (panic, disconnect, or wedge).
    pub worker_failures: u64,
    /// Worker respawns performed.
    pub restarts: u64,
    /// Checkpoints received from the worker.
    pub checkpoints: u64,
    /// Whether the runtime is currently in degraded inline mode.
    pub degraded: bool,
}

/// Condensed liveness/fault view derived from [`PipelineStats`] plus the
/// most recent error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Whether updates are currently applied inline on the caller.
    pub degraded: bool,
    /// Worker respawns performed so far.
    pub restarts: u64,
    /// Worker faults observed so far.
    pub worker_failures: u64,
    /// Human-readable description of the most recent fault, if any.
    pub last_error: Option<String>,
}

/// One shipped batch. The ring slot that carries it to the worker and
/// the journal entry that can replay it share this one allocation.
pub(crate) type Batch<T> = Arc<Vec<T>>;

/// An op a journal batch holds, and how replay applies a batch of them.
pub(crate) trait JournalOp: Copy + Send + Sync + 'static {
    /// Apply `batch` to `sketch` through its batched update path — the
    /// path the worker applied it through.
    fn replay<S: Supervisable>(sketch: &mut S, batch: &[Self]);
}

/// The sharded runtime ships routed keys, each a count of one.
impl JournalOp for u64 {
    fn replay<S: Supervisable>(sketch: &mut S, batch: &[u64]) {
        sketch.insert_batch(batch);
    }
}

/// The pipelines ship `(key, delta)` tuples.
impl JournalOp for Tuple {
    fn replay<S: Supervisable>(sketch: &mut S, batch: &[Tuple]) {
        sketch.update_batch(batch);
    }
}

/// The caller-side checkpoint + replay journal (see module docs).
///
/// Entries are `(seq, batch)`, one per shipped batch. The snapshot is
/// shared, so a checkpoint can also feed a background snapshot writer
/// without a second clone; only [`Journal::restore`] copies out of it.
#[derive(Debug)]
pub(crate) struct Journal<S, T> {
    snapshot: Arc<S>,
    snapshot_seq: u64,
    next_seq: u64,
    entries: VecDeque<(u64, Batch<T>)>,
}

impl<S: Supervisable, T: JournalOp> Journal<S, T> {
    /// Start journaling against `snapshot` (the worker's initial state).
    pub fn new(snapshot: S) -> Self {
        Self {
            snapshot: Arc::new(snapshot),
            snapshot_seq: 0,
            next_seq: 1,
            entries: VecDeque::new(),
        }
    }

    /// Take the next sequence number without journaling anything: a batch
    /// a degraded runtime applies inline has no worker to lose it.
    pub fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Journal one batch under the next sequence number and return it.
    pub fn record(&mut self, batch: &Batch<T>) -> u64 {
        let seq = self.next_seq();
        self.entries.push_back((seq, Arc::clone(batch)));
        seq
    }

    /// The newest checkpoint: its sequence number and the shared kernel.
    pub fn checkpoint(&self) -> (u64, &Arc<S>) {
        (self.snapshot_seq, &self.snapshot)
    }

    /// Install a newer snapshot from the worker and prune covered entries.
    pub fn on_checkpoint(&mut self, seq: u64, snapshot: impl Into<Arc<S>>) {
        if seq < self.snapshot_seq {
            return; // stale (can happen right after a restart)
        }
        self.snapshot = snapshot.into();
        self.snapshot_seq = seq;
        while self.entries.front().is_some_and(|&(s, _)| s <= seq) {
            self.entries.pop_front();
        }
    }

    /// Reconstruct the full worker state: snapshot plus one replay of
    /// every journaled batch, all of which are above the snapshot's
    /// sequence number (the checkpoint pruned the rest).
    pub fn restore(&self) -> S {
        let mut sketch = S::clone(&self.snapshot);
        for (_, batch) in &self.entries {
            T::replay(&mut sketch, batch);
        }
        sketch
    }

    /// Re-baseline after a restart: `base` becomes the snapshot covering
    /// every sequence number assigned so far, and the entry log empties.
    pub fn reset(&mut self, base: S) {
        self.snapshot = Arc::new(base);
        self.snapshot_seq = self.next_seq - 1;
        self.entries.clear();
    }

    /// Journaled (not yet checkpoint-covered) ops.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.iter().map(|(_, batch)| batch.len()).sum()
    }
}

/// Ops a worker applies between checkpoints when each is journaled as
/// one `T`: the point where their journal bytes add up to the kernel's
/// own size, so each checkpoint clone is paid for by as many journal
/// bytes as it copies. For the sharded runtime (`T = u64`) this is also
/// the spacing at which its unpacked WAL keys add up to one snapshot, so
/// every checkpoint is a snapshot candidate.
pub(crate) fn checkpoint_keys<T: JournalOp>(kernel_bytes: usize) -> u64 {
    kernel_bytes.div_ceil(std::mem::size_of::<T>()).max(1) as u64
}

/// How long fail-over waits for a just-failed worker to finish unwinding,
/// so its panic payload can be harvested, before abandoning it.
const REAP_GRACE: Duration = Duration::from_millis(2);

/// Wait until `deadline` for a hung-up worker thread to exit and join it:
/// `None` when it is still running (abandoned — it exits on its own when
/// it next touches its disconnected channel), else the join result.
pub(crate) fn join_within<T>(
    handle: JoinHandle<T>,
    deadline: Instant,
) -> Option<std::thread::Result<T>> {
    while !handle.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.is_finished().then(|| handle.join())
}

/// The caller-side recovery state of one supervised worker: its replay
/// journal, the degraded inline sketch once the restart budget is spent,
/// and the fault counters. Every runtime's fail-over and teardown go
/// through these steps; only the channels and publishing differ.
#[derive(Debug)]
pub(crate) struct Supervisor<S, T> {
    pub journal: Journal<S, T>,
    /// The sketch applied on the caller once degraded; `None` while a
    /// worker is (or may be respawned) up.
    pub inline: Option<S>,
    pub failures: u64,
    pub restarts: u64,
    pub checkpoints: u64,
    pub last_error: Option<PipelineError>,
}

impl<S: Supervisable, T: JournalOp> Supervisor<S, T> {
    /// Supervise a worker starting from `initial`.
    pub fn new(initial: S) -> Self {
        Self {
            journal: Journal::new(initial),
            inline: None,
            failures: 0,
            restarts: 0,
            checkpoints: 0,
            last_error: None,
        }
    }

    /// Install a worker checkpoint (see the module docs).
    pub fn on_checkpoint(&mut self, seq: u64, snapshot: impl Into<Arc<S>>) {
        self.checkpoints += 1;
        self.journal.on_checkpoint(seq, snapshot);
    }

    /// Reap a failed worker whose channels are already hung up: join it
    /// within a short grace or abandon it, and record the fault — its
    /// panic payload when it panicked, else `err` (by default
    /// `Disconnected` for a thread that exited, `EstimateTimeout` for one
    /// still running).
    pub fn reap<R>(&mut self, handle: JoinHandle<R>, err: Option<PipelineError>) {
        self.failures += 1;
        self.last_error = Some(match join_within(handle, Instant::now() + REAP_GRACE) {
            Some(Err(payload)) => PipelineError::WorkerPanicked(panic_message(payload)),
            Some(Ok(_)) => err.unwrap_or(PipelineError::Disconnected),
            None => err.unwrap_or(PipelineError::EstimateTimeout),
        });
    }

    /// After [`reap`](Self::reap): reconstruct the worker state from
    /// checkpoint + journal, then either — restart budget permitting —
    /// wait out the backoff, re-baseline the journal and return the state
    /// to respawn a worker from, or keep it as the degraded
    /// [`inline`](Self::inline) sketch for good and return `None`.
    pub fn restore_or_degrade(&mut self, max_restarts: u32, backoff: Duration) -> Option<S> {
        let restored = self.journal.restore();
        if self.restarts >= u64::from(max_restarts) {
            self.inline = Some(restored);
            return None;
        }
        self.restarts += 1;
        let delay = asketch_durable::backoff(backoff, self.restarts);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.journal.reset(restored.clone());
        Some(restored)
    }

    /// Teardown: join a hung-up worker by `deadline` and take back its
    /// sketch (`Ok`), or — when it panicked or is still running — record
    /// the fault and return the journal reconstruction (`Err`).
    pub fn take_back(&mut self, handle: JoinHandle<S>, deadline: Instant) -> Result<S, S> {
        let error = match join_within(handle, deadline) {
            Some(Ok(sketch)) => return Ok(sketch),
            Some(Err(payload)) => PipelineError::WorkerPanicked(panic_message(payload)),
            None => PipelineError::EstimateTimeout,
        };
        self.failures += 1;
        self.last_error = Some(error);
        Err(self.journal.restore())
    }

    /// Condensed health view.
    pub fn health(&self) -> RuntimeHealth {
        RuntimeHealth {
            degraded: self.inline.is_some(),
            restarts: self.restarts,
            worker_failures: self.failures,
            last_error: self.last_error.as_ref().map(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches::{CountMin, FrequencyEstimator};

    fn cms() -> CountMin {
        CountMin::new(3, 4, 1 << 10).unwrap()
    }

    /// Journal `ops` as one batch, as the pipelines ship them.
    fn record(j: &mut Journal<CountMin, Tuple>, ops: &[Tuple]) -> u64 {
        j.record(&Arc::new(ops.to_vec()))
    }

    #[test]
    fn restore_replays_everything_past_snapshot() {
        let mut j = Journal::new(cms());
        let mut live = cms();
        for k in 0..100u64 {
            let key = k % 7;
            record(&mut j, &[(key, 1)]);
            live.update(key, 1);
            if k == 49 {
                // Worker checkpoints after applying the first 50 batches.
                j.on_checkpoint(50, live.clone());
            }
        }
        let restored = j.restore();
        for key in 0..7u64 {
            assert_eq!(restored.estimate(key), live.estimate(key), "key {key}");
        }
    }

    #[test]
    fn checkpoint_prunes_and_bounds_memory() {
        let mut j = Journal::new(cms());
        for _ in 0..1_000 {
            record(&mut j, &[(1, 1)]);
        }
        assert_eq!(j.len(), 1_000);
        let mut snap = cms();
        snap.update(1, 900);
        j.on_checkpoint(900, snap);
        assert_eq!(j.len(), 100);
        assert_eq!(j.restore().estimate(1), 1_000);
    }

    #[test]
    fn stale_checkpoint_is_ignored() {
        let mut j = Journal::new(cms());
        record(&mut j, &[(5, 2)]);
        let mut snap = cms();
        snap.update(5, 2);
        j.on_checkpoint(1, snap);
        j.on_checkpoint(0, cms()); // stale: must not roll the snapshot back
        assert_eq!(j.restore().estimate(5), 2);
    }

    #[test]
    fn reset_rebaselines() {
        let mut j = Journal::new(cms());
        record(&mut j, &[(3, 4)]);
        let restored = j.restore();
        assert_eq!(restored.estimate(3), 4);
        j.reset(restored);
        assert_eq!(j.len(), 0);
        assert_eq!(j.checkpoint().0, 1);
        assert_eq!(j.restore().estimate(3), 4);
        // New entries replay on top of the new baseline.
        record(&mut j, &[(3, 1)]);
        assert_eq!(j.restore().estimate(3), 5);
    }

    #[test]
    fn a_batch_is_one_entry_and_replays_whole() {
        let mut j = Journal::new(cms());
        let seq = record(&mut j, &[(1, 2), (2, 3)]);
        assert_eq!(j.len(), 2);
        let tail = record(&mut j, &[(1, 5), (2, -1), (9, 1)]);
        let mut snap = cms();
        snap.update_batch(&[(1, 2), (2, 3)]);
        j.on_checkpoint(seq, snap);
        assert_eq!(j.len(), 3, "the checkpoint covers the first batch only");
        let restored = j.restore();
        assert_eq!(restored.estimate(1), 7);
        assert_eq!(restored.estimate(2), 2);
        assert_eq!(restored.estimate(9), 1);
        j.on_checkpoint(tail, restored);
        assert_eq!(j.len(), 0);
    }

    #[test]
    fn key_batches_replay_as_unit_inserts() {
        let mut j: Journal<CountMin, u64> = Journal::new(cms());
        let keys = Arc::new(vec![4u64, 4, 8, 4]);
        j.record(&keys);
        // The entry is the shipped allocation itself, not a copy.
        assert_eq!(Arc::strong_count(&keys), 2);
        let restored = j.restore();
        assert_eq!(restored.estimate(4), 3);
        assert_eq!(restored.estimate(8), 1);
    }

    #[test]
    fn spacing_is_the_kernel_size_in_journal_bytes() {
        assert_eq!(checkpoint_keys::<u64>(1 << 20), 131_072);
        assert_eq!(checkpoint_keys::<Tuple>(1 << 20), 65_536);
        assert_eq!(checkpoint_keys::<u64>(9), 2);
        assert_eq!(checkpoint_keys::<Tuple>(0), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = PipelineError::WorkerPanicked("boom".into());
        assert!(e.to_string().contains("boom"));
        let e = PipelineError::ShardFailed {
            shard: 2,
            attempts: 3,
            payload: "x".into(),
        };
        assert!(e.to_string().contains("shard 2"));
    }
}
