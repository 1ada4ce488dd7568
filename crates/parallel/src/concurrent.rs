//! Concurrent sharded ASketch runtime: key-partitioned worker threads with
//! wait-free point queries served *during* ingest.
//!
//! # Architecture
//!
//! [`ConcurrentASketch`] owns N long-lived worker threads. Each worker owns
//! a full sequential `ASketch` kernel for one **key partition**
//! ([`KeyPartition`]): every key hashes to exactly one shard, so per-key
//! semantics are *exactly* those of the sequential algorithm run over that
//! key's sub-stream — not a sum of per-kernel over-estimates like the SPMD
//! combine. The caller routes keys through a [`KeyRouter`], accumulating
//! per-shard batches (the `update_batch` hot path) before pushing them
//! onto per-shard SPSC rings ([`crate::ring`]) — the one worker link the
//! §6.2 pipelines use too — under the supervision machinery they share:
//! journaled sequence numbers, worker
//! checkpoints, bounded restarts with exponential backoff, and a degraded
//! inline mode once the restart budget is spent. No failure mode loses or
//! double-counts an update (checkpoint + journal replay, exactly as in
//! [`crate::pipeline`]).
//!
//! Wait-free reads during ingest ([`QueryHandle`], [`ShardSnapshot`]) live
//! in `query.rs`; the durable side ([`ConcurrentASketch::spawn_durable`])
//! in `disk.rs`. A durable runtime shuts down workers → scrubber → final
//! jobs → join ([`ConcurrentASketch::finish_with_health`]).
//!
//! # Checkpoint and snapshot cadence
//!
//! One spacing, worked out from the kernel's own `size_bytes()` `B`, so
//! no setting has to be tuned to the kernel: `⌈B / 8⌉` keys.
//!
//! * The replay journal holds each shipped batch as one `(seq, batch)`
//!   entry that shares the ring's allocation, 8 B a key. A worker ships a
//!   checkpoint (one kernel clone) once the keys it applied since its last
//!   one add up to `B` journal bytes, so cloning costs at most one byte
//!   per journaled byte, and the journal holds under `B` bytes plus one
//!   batch plus the ring's contents per shard. Its first checkpoint comes
//!   a third of a spacing after it spawns.
//! * The same `B / 8` keys are the snapshot's size in unpacked WAL key
//!   bytes, so a durable shard hands every checkpoint to the background
//!   snapshotter. The journal and the snapshot job share the checkpoint:
//!   it is cloned once, by the worker. A checkpoint that arrives while
//!   the shard's previous snapshot is still being written waits: the
//!   newest checkpoint is offered again at every batch and taken once the
//!   write finishes. Crash replay past the newest snapshot is therefore
//!   one spacing plus a batch per shard, plus the keys applied while one
//!   snapshot is written; only a write that outlasts a whole spacing lets
//!   a newer checkpoint replace the waiting one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asketch::{ASketch, DurabilityError, Filter, FilterItem};
use asketch_durable::ScrubReport;
use eval_metrics::{ShardGauge, ShardedHealth};
use sketches::traits::{FrequencyEstimator, UpdateEstimate};
use sketches::SharedView;

use crate::disk::{DiskThreads, DurableShard};
use crate::link::{self, WorkerLink};
use crate::query::{publish_filter, publish_kernel, publish_view};
pub use crate::query::{QueryHandle, ShardSnapshot};
use crate::router::KeyRouter;
use crate::session::{SessionOutcome, SessionTable, SESSION_CAP};
use crate::spmd::KeyPartition;
use crate::supervisor::{checkpoint_keys, join_within, Batch, PipelineError, Supervisor};

/// Tunables for the concurrent sharded runtime.
///
/// The runtime has one overload behaviour: a full shard ring blocks the
/// caller until the worker drains it, each wait bounded by
/// [`send_timeout`](Self::send_timeout), after which the worker is failed
/// over. There is no caller-side overflow buffer and no depth probe: a
/// serving layer in front of the runtime blocks with it, and TCP flow
/// control pushes back on its writers.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of worker shards (key partitions).
    pub shards: usize,
    /// Keys accumulated per shard before a batch message is sent.
    pub batch: usize,
    /// Applied keys between filter snapshot publishes on a worker.
    pub publish_interval: u64,
    /// Sketch writes (forwarded updates plus exchanges) between sketch
    /// view publishes on a worker. A view publish copies the whole counter
    /// table, so it follows the sketch's writes rather than applied keys:
    /// filter hits never trigger one. The view is also republished ahead
    /// of any filter publish that follows an exchange.
    pub view_interval: u64,
    /// Slots of each shard's bounded batch ring (rounded up to a power of
    /// two); a slot holds one shipped batch of up to
    /// [`batch`](Self::batch) routed keys, or one whole
    /// [`insert_sharded`](ConcurrentASketch::insert_sharded) mega-batch.
    /// A full ring blocks the caller — the runtime's one overload
    /// behaviour — for at most [`send_timeout`](Self::send_timeout).
    /// Control messages ride an unbounded channel beside it. Each shipped
    /// batch stays in the shard's replay journal, at 8 B a key, until a
    /// checkpoint covers it, so the journal holds under one kernel's size
    /// plus one batch of applied keys, plus the ring's contents.
    pub queue_capacity: usize,
    /// How long a blocking push (a full ring) or a sync barrier's reply
    /// may wait before the worker is declared wedged and failed over.
    /// Sized for worst-case queue drain, not for query latency.
    pub send_timeout: Duration,
    /// Worker respawns allowed per shard before that shard stays in
    /// degraded inline mode for good.
    pub max_restarts: u32,
    /// Base delay before a worker respawn; doubles per restart (capped at
    /// 32x).
    pub restart_backoff: Duration,
    /// Upper bound on how long `finish`/`Drop` wait for a worker to exit
    /// before abandoning the thread and reconstructing its kernel from
    /// the journal. Guarantees teardown never hangs.
    pub shutdown_timeout: Duration,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch: 256,
            publish_interval: 1024,
            view_interval: 8192,
            queue_capacity: 1024,
            send_timeout: Duration::from_secs(30),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(5),
            shutdown_timeout: Duration::from_secs(5),
        }
    }
}

/// The one control message from the router to a shard worker, a sync
/// barrier: publish everything and reply with the applied-op count on
/// this sender. Data batches ride the shard's ring ([`RingBatch`]);
/// shutdown is the control channel disconnecting.
type SyncBarrier = Sender<u64>;

/// The one message from a shard worker back to the router: a periodic
/// snapshot for the replay journal, tagged with the last applied sequence
/// number.
type Checkpoint<K> = (u64, Arc<K>);

/// One data batch on the SPSC ring: the journal sequence plus the keys
/// this shard owns, in the allocation the journal entry shares.
type RingBatch = (u64, Batch<u64>);

/// The apply/publish/checkpoint machinery of one shard worker.
struct WorkerCtx<F, S: SharedView> {
    kernel: ASketch<F, S>,
    out: Sender<Checkpoint<ASketch<F, S>>>,
    snap: Arc<ShardSnapshot<S>>,
    depth: Arc<AtomicUsize>,
    gen: u64,
    publish_interval: u64,
    view_interval: u64,
    /// Applied keys between checkpoints ([`checkpoint_keys`]).
    checkpoint_keys: u64,
    items: Vec<FilterItem>,
    since_pub: u64,
    /// The kernel's sketch writes (`sketch_updates + exchanges`) at the
    /// last view publish.
    view_writes: u64,
    /// The kernel's exchanges at the last view publish.
    view_exchanges: u64,
    since_ckpt: u64,
}

impl<F, S> WorkerCtx<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Publish the sketch view and restart its sketch-write count.
    fn publish_view(&mut self) {
        let stats = self.kernel.stats();
        self.view_writes = stats.sketch_updates + stats.exchanges;
        self.view_exchanges = stats.exchanges;
        publish_view(&self.kernel, &self.snap, self.gen);
    }

    /// Publish the sketch view, then the filter snapshot.
    fn publish_all(&mut self) {
        self.publish_view();
        publish_filter(&self.kernel, &self.snap, &mut self.items, self.gen);
    }
}

/// The shard worker: applies batches through the sequential kernel,
/// publishes snapshots on their intervals, checkpoints for the journal,
/// answers sync barriers, and publishes one final time at hang-up.
impl<F, S> link::Worker for WorkerCtx<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    type Data = RingBatch;
    type Control = SyncBarrier;
    type Reply = Checkpoint<ASketch<F, S>>;
    type Output = ASketch<F, S>;

    /// Apply one batch through the sequential kernel and run the interval
    /// publishes/checkpoints it triggers.
    fn apply(&mut self, (seq, keys): RingBatch) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        // The path journal replay takes too (`JournalOp` for `u64`).
        self.kernel.insert_batch(&keys);
        let n = keys.len() as u64;
        self.since_pub += n;
        self.since_ckpt += n;
        let filter_due = self.since_pub >= self.publish_interval;
        // The view copies the whole sketch, so it is republished only
        // once the sketch took `view_interval` writes — filter hits never
        // touch it — and ahead of a filter publish that follows an
        // exchange: a demoted key's written-back mass must be in the view
        // before the key leaves the filter snapshot, or its reads would
        // fall back to a stale view value.
        let stats = self.kernel.stats();
        if stats.sketch_updates + stats.exchanges - self.view_writes >= self.view_interval
            || (filter_due && stats.exchanges > self.view_exchanges)
        {
            self.publish_view();
        }
        if filter_due {
            self.since_pub = 0;
            publish_filter(&self.kernel, &self.snap, &mut self.items, self.gen);
        }
        if self.since_ckpt >= self.checkpoint_keys {
            // Keep the overshoot below one spacing: there is at most one
            // checkpoint per kernel's worth of journal bytes, and one per
            // batch when a batch is longer than the spacing, so the
            // journal between checkpoints stays under one spacing plus
            // one batch.
            self.since_ckpt %= self.checkpoint_keys;
            let _ = self.out.send((seq, Arc::new(self.kernel.clone())));
        }
    }

    fn control(&mut self, reply: SyncBarrier) {
        self.publish_all();
        let _ = reply.send(self.kernel.ops_applied());
    }

    /// Final publish so handles outlive the runtime (dropped if this
    /// worker was abandoned and its generation retired).
    fn finish(mut self) -> ASketch<F, S> {
        self.publish_all();
        self.kernel
    }
}

/// Caller-side state of one shard: the live worker, its recovery state
/// (journal, degraded inline kernel, fault counters), and snapshot.
pub(crate) struct ShardState<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    shard_idx: usize,
    /// The live worker; `None` once degraded.
    link: Option<WorkerLink<WorkerCtx<F, S>>>,
    sup: Supervisor<ASketch<F, S>, u64>,
    snap: Arc<ShardSnapshot<S>>,
    /// The snapshot's current writer generation: held by the live worker
    /// (or the inline kernel once degraded), bumped on every fail-over.
    writer_gen: u64,
    /// Batches sent and not yet applied by the worker (queue depth gauge).
    /// Replaced wholesale on fail-over — an abandoned worker keeps
    /// decrementing its own (old) counter, which would otherwise wrap.
    depth: Arc<AtomicUsize>,
    /// Durability state (WAL + snapshot scheduling); `None` for a
    /// non-durable runtime.
    durable: Option<DurableShard<ASketch<F, S>>>,
    routed: u64,
}

impl<F, S> ShardState<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    pub(crate) fn new(
        shard_idx: usize,
        kernel: ASketch<F, S>,
        cfg: &ConcurrentConfig,
        durable: Option<DurableShard<ASketch<F, S>>>,
    ) -> Self {
        let mut st = Self {
            shard_idx,
            link: None,
            sup: Supervisor::new(kernel.clone()),
            snap: Arc::new(ShardSnapshot::new(&kernel)),
            writer_gen: 0,
            depth: Arc::new(AtomicUsize::new(0)),
            durable,
            routed: 0,
        };
        st.spawn_worker(kernel, cfg);
        st
    }

    /// Spawn this shard's worker on `kernel`, publishing under the current
    /// writer generation into the current depth gauge. Its first
    /// checkpoint comes a third of a spacing in, later ones a full spacing
    /// apart, so the first snapshot after a recovery (whose replayed WAL
    /// keys are in no snapshot yet) and the first journal prune after a
    /// restart come early.
    fn spawn_worker(&mut self, kernel: ASketch<F, S>, cfg: &ConcurrentConfig) {
        let snap = Arc::clone(&self.snap);
        let depth = Arc::clone(&self.depth);
        let gen = self.writer_gen;
        let publish_interval = cfg.publish_interval.max(1);
        let view_interval = cfg.view_interval.max(1);
        let name = format!("ask-shard-{}", self.shard_idx);
        let link = link::spawn(&name, cfg.queue_capacity, publish_interval, move |out| {
            let spacing = checkpoint_keys::<u64>(kernel.size_bytes());
            let mut ctx = WorkerCtx {
                checkpoint_keys: spacing,
                kernel,
                out,
                snap,
                depth,
                gen,
                publish_interval,
                view_interval,
                items: Vec::new(),
                since_pub: 0,
                view_writes: 0,
                view_exchanges: 0,
                since_ckpt: spacing - spacing.div_ceil(3),
            };
            // Fresh (or respawned) worker: make the snapshot reflect this
            // kernel immediately so readers never regress behind a restart.
            // This also takes the view's sketch-write baseline from the
            // kernel's stats.
            ctx.publish_all();
            ctx
        });
        self.link = Some(link);
    }

    /// Harvest queued checkpoints, which prune the replay journal, then
    /// (durable runtimes) offer the newest one to the background
    /// snapshotter — the journal and the snapshot job share the worker's
    /// one clone, and serialization happens on the snapshotter thread,
    /// never here. A checkpoint that found the snapshotter busy is offered
    /// again at every batch until it is taken or a newer one replaces it.
    fn drain_checkpoints(&mut self) {
        let Some(link) = self.link.as_ref() else {
            return;
        };
        while let Some((seq, snapshot)) = link.try_reply() {
            self.sup.on_checkpoint(seq, snapshot);
        }
        if let Some(d) = self.durable.as_mut() {
            let (seq, kernel) = self.sup.journal.checkpoint();
            d.schedule_snapshot(seq, kernel.ops_applied(), kernel);
        }
    }

    /// Tear down a failed worker, reconstruct from checkpoint + journal,
    /// and respawn or degrade — the [`Supervisor`] steps every runtime
    /// shares (including the no-resend rule: in-flight journaled batches
    /// are folded into the restore, never retransmitted), around the
    /// shard's own: retiring the writer generation and the depth gauge,
    /// a fresh ring, and publishing.
    fn fail_over(&mut self, err: Option<PipelineError>, cfg: &ConcurrentConfig) {
        self.drain_checkpoints();
        let Some(link) = self.link.take() else { return };
        self.sup.reap(link.hang_up(), err);
        // Retire the old writer before anything republishes: an abandoned
        // worker that is still alive keeps draining its ring and
        // publishing, and the gate drops those stale publishes instead of
        // letting them race the replacement (torn pairs, epoch regression).
        // The journal restore covers everything routed, so the replacement
        // republishes at an epoch >= anything the old worker published.
        self.writer_gen = self.snap.retire_writer();
        // Fresh depth gauge: the abandoned worker keeps fetch_sub-ing its
        // own counter for every batch it drains, which would wrap a shared
        // one to ~2^64.
        self.depth = Arc::new(AtomicUsize::new(0));
        match self
            .sup
            .restore_or_degrade(cfg.max_restarts, cfg.restart_backoff)
        {
            // The respawned worker publishes the restored state on entry,
            // so readers catch up without waiting a publish interval. It
            // gets a *fresh* ring (like the fresh depth gauge): batches
            // stranded in the abandoned worker's ring are journaled, so
            // the restore already covers them.
            Some(restored) => self.spawn_worker(restored, cfg),
            None => {
                let inline = self
                    .sup
                    .inline
                    .as_ref()
                    .expect("degraded shard has an inline kernel");
                publish_kernel(inline, &self.snap, self.writer_gen);
            }
        }
    }

    /// Ship one full batch to this shard's worker: journal and WAL first
    /// (so no failure mode can lose it), then push, blocking on a full
    /// ring for at most `send_timeout`; a worker that stays wedged or is
    /// gone is failed over (the journal holds the batch, so the restore
    /// covers it — never resend).
    /// The WAL record piggybacks on the journal's sequence number
    /// — one durable record per batch, written before the batch can reach
    /// the worker, so the on-disk log is always a prefix-or-equal of what
    /// any worker has applied.
    ///
    /// An optional exactly-once session annotation `(session_id,
    /// client_seq)` rides the batch's WAL record: the mark becomes durable
    /// atomically with the keys it covers, so crash replay can never dedup
    /// a write it lost (or re-apply one it kept).
    fn ship(&mut self, keys: Vec<u64>, cfg: &ConcurrentConfig, ann: Option<(u64, u64)>) {
        let n = keys.len();
        self.routed += n as u64;
        if self.link.is_none() {
            let seq = self.sup.journal.next_seq();
            if let Some(d) = self.durable.as_mut() {
                d.append(seq, &keys, ann);
            }
            // Degraded: apply the batch inline and republish snapshots so
            // readers keep seeing fresh state.
            let kernel = self
                .sup
                .inline
                .as_mut()
                .expect("degraded shard has an inline kernel");
            kernel.insert_batch(&keys);
            publish_kernel(kernel, &self.snap, self.writer_gen);
            return;
        }
        // The journal entry and the ring slot share the one allocation;
        // the WAL encode is the only copy of the keys.
        let batch = Batch::new(keys);
        let seq = self.sup.journal.record(&batch);
        if let Some(d) = self.durable.as_mut() {
            d.append(seq, &batch, ann);
        }
        self.drain_checkpoints();
        // The depth gauge goes up *before* the push and back down if it
        // fails: the worker decrements on receive, so an increment after
        // the push could land second and transiently wrap the gauge.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let sent = self
            .link
            .as_mut()
            .expect("worker link checked above")
            .send_data((seq, batch), n, cfg.send_timeout);
        if let Err(err) = sent {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.fail_over(err, cfg);
        }
    }

    /// Barrier against this shard: every routed batch applied and published.
    /// Bounded retries — each failed round trip consumes a restart (or ends
    /// degraded, where state is already published inline).
    fn sync(&mut self, cfg: &ConcurrentConfig) {
        let max_rounds = u64::from(cfg.max_restarts) + 2;
        for _ in 0..max_rounds {
            let Some(link) = self.link.as_mut() else {
                return; // degraded: `ship` already published inline
            };
            // The control channel is unbounded, so the send cannot wait;
            // the reply's timeout is the barrier's wedge bound.
            match link.ask(|reply| reply, cfg.send_timeout) {
                Ok(_epoch) => {
                    self.drain_checkpoints();
                    return;
                }
                Err(err) => self.fail_over(err, cfg),
            }
        }
    }

    fn gauge(&self, cfg: &ConcurrentConfig) -> ShardGauge {
        let mut g = ShardGauge {
            shard: self.shard_idx,
            queue_depth: self.depth.load(Ordering::Relaxed),
            queue_capacity: self
                .link
                .as_ref()
                .map_or(cfg.queue_capacity, WorkerLink::ring_capacity),
            routed_ops: self.routed,
            published_epoch: self.snap.filter_epoch(),
            view_epoch: self.snap.view_epoch(),
            reader_retries: self.snap.reader_retries(),
            restarts: self.sup.restarts,
            worker_failures: self.sup.failures,
            degraded: self.sup.inline.is_some(),
            ring_depth: self.link.as_ref().map_or(0, WorkerLink::ring_len),
            checkpoints: self.sup.checkpoints,
            ..ShardGauge::default()
        };
        if let Some(d) = &self.durable {
            d.fill_gauge(&mut g);
        }
        g
    }
}

/// The concurrent sharded runtime. See the module docs.
pub struct ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    shards: Vec<ShardState<F, S>>,
    router: KeyRouter,
    /// The read side: every shard's published snapshot.
    reads: QueryHandle<S>,
    cfg: ConcurrentConfig,
    /// Per-session per-shard high-water marks for exactly-once sequenced
    /// ingest ([`insert_sessioned`](Self::insert_sessioned)); bounded by
    /// [`SESSION_CAP`] with LRU eviction. Durable
    /// runtimes seed it from recovery and persist it piggyback on WAL
    /// records and snapshots.
    sessions: SessionTable,
    /// The snapshotter, WAL syncer and scrubber (durable runtimes only),
    /// shut down in `finish`.
    disk: Option<DiskThreads>,
}

impl<F, S> ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Spawn `cfg.shards` workers, shard `i` owning the kernel built by
    /// `make_kernel(i)`.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0`.
    pub fn spawn(cfg: ConcurrentConfig, make_kernel: impl Fn(usize) -> ASketch<F, S>) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let shards = (0..cfg.shards)
            .map(|i| ShardState::new(i, make_kernel(i), &cfg, None))
            .collect();
        let sessions = SessionTable::new(SESSION_CAP);
        Self::assemble(cfg, shards, sessions, None)
    }

    /// The runtime over running shards, shard `i` at `shards[i]`.
    pub(crate) fn assemble(
        cfg: ConcurrentConfig,
        shards: Vec<ShardState<F, S>>,
        sessions: SessionTable,
        disk: Option<DiskThreads>,
    ) -> Self {
        let partition = KeyPartition::new(cfg.shards);
        let snaps = shards.iter().map(|s| Arc::clone(&s.snap)).collect();
        Self {
            shards,
            router: KeyRouter::new(partition, cfg.batch.max(1)),
            reads: QueryHandle {
                snaps: Arc::new(snaps),
                partition,
            },
            cfg,
            sessions,
            disk,
        }
    }

    /// Route one key to its owning shard (batched; a full batch is shipped
    /// immediately).
    #[inline]
    pub fn insert(&mut self, key: u64) {
        if let Some((shard, batch)) = self.router.push(key) {
            self.shards[shard].ship(batch, &self.cfg, None);
        }
    }

    /// Route a slice of keys.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        for &key in keys {
            self.insert(key);
        }
    }

    /// Ship pre-partitioned mega-batches straight to their shards,
    /// bypassing the router's per-key accumulation: `batches[i]` goes to
    /// shard `i` whole — one journal sequence, one WAL record, and one
    /// data-plane push per non-empty shard batch, however many network
    /// requests were coalesced into it. The caller owns partitioning
    /// (via [`KeyPartition::shard_of`] from [`partition`](Self::partition))
    /// and per-shard key order; within a shard this is equivalent to
    /// routing the same keys through [`insert_batch`](Self::insert_batch).
    /// Shipped batches are drained to empty; empty slots are untouched.
    ///
    /// # Panics
    /// Panics if `batches.len()` differs from the shard count; debug
    /// builds also assert every key is in its owning shard's batch.
    pub fn insert_sharded(&mut self, batches: &mut [Vec<u64>]) {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        for (shard, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            debug_assert!(
                batch
                    .iter()
                    .all(|&k| self.router.partition().shard_of(k) == shard),
                "mis-partitioned key in shard {shard} batch"
            );
            let keys = std::mem::take(batch);
            self.shards[shard].ship(keys, &self.cfg, None);
        }
    }

    /// Session handshake for exactly-once sequenced ingest: register (or
    /// touch) `session_id`, lift every shard mark to at least
    /// `resume_seq` (the client's claimed floor), and return the highest
    /// client sequence that is **fully applied** across shards — the
    /// client may discard everything at or below it and must replay the
    /// rest, which [`insert_sessioned`](Self::insert_sessioned) dedups
    /// shard-by-shard.
    pub fn hello(&mut self, session_id: u64, resume_seq: u64) -> u64 {
        let shards = self.shards.len();
        self.sessions.hello(session_id, resume_seq, shards)
    }

    /// Exactly-once [`insert_sharded`](Self::insert_sharded): apply one
    /// client write (`session_id`, strictly increasing `seq`) at most
    /// once per shard. Shards whose session mark already covers `seq`
    /// skip their part (a retry of an acked-or-applied write); the rest
    /// ship with the `(session_id, seq)` annotation riding their WAL
    /// record so the dedup decision survives crash+replay. Batches are
    /// drained whether shipped or deduped.
    ///
    /// Client sequences must be issued in order per session; replaying a
    /// suffix of unacked writes (in order, any number of times) is the
    /// supported retry shape and never double-counts.
    ///
    /// # Panics
    /// Same contract as [`insert_sharded`](Self::insert_sharded).
    pub fn insert_sessioned(
        &mut self,
        session_id: u64,
        seq: u64,
        batches: &mut [Vec<u64>],
    ) -> SessionOutcome {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        let hwms = self.sessions.touch(session_id, batches.len());
        let mut applied = 0usize;
        let mut any_nonempty = false;
        let mut shipped = false;
        for (shard, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            any_nonempty = true;
            if hwms[shard] >= seq {
                batch.clear();
                continue;
            }
            debug_assert!(
                batch
                    .iter()
                    .all(|&k| self.router.partition().shard_of(k) == shard),
                "mis-partitioned key in shard {shard} batch"
            );
            let keys = std::mem::take(batch);
            applied += keys.len();
            shipped = true;
            self.shards[shard].ship(keys, &self.cfg, Some((session_id, seq)));
        }
        // Every shard's in-memory mark advances — including shards that
        // received no keys this seq — so a later retry of the same seq is
        // a full duplicate. Only shards that wrote a record advance
        // durably; after a crash the replayed retry re-partitions
        // identically, so the unmarked shards see only parts they never
        // applied.
        for h in hwms.iter_mut() {
            *h = (*h).max(seq);
        }
        SessionOutcome {
            applied,
            duplicate: any_nonempty && !shipped,
            degraded: self.durability_degraded(),
        }
    }

    /// Whether any shard has lost durability (disk-sick degraded mode,
    /// whichever thread met the fault): writes are still applied
    /// one-sidedly but may not survive a crash, so serving acks should
    /// carry a `DEGRADED` flag.
    pub fn durability_degraded(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.durable.as_ref().is_some_and(|d| d.disk.is_sick()))
    }

    /// Sessions currently tracked by the exactly-once table.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Flush every router partial to its shard.
    fn flush_router(&mut self) {
        for shard in 0..self.shards.len() {
            let partial = self.router.take(shard);
            if !partial.is_empty() {
                self.shards[shard].ship(partial, &self.cfg, None);
            }
        }
    }

    /// Barrier: every key routed so far is applied and published. After
    /// this returns, [`QueryHandle`] answers are exact (equal to the
    /// sequential ASketch over each shard's sub-stream).
    pub fn sync(&mut self) {
        self.flush_router();
        for shard in 0..self.shards.len() {
            self.shards[shard].sync(&self.cfg);
        }
    }

    /// A wait-free concurrent query handle (cheap; clone freely across
    /// reader threads).
    pub fn query_handle(&self) -> QueryHandle<S> {
        self.reads.clone()
    }

    /// Point query from the owning thread: reads the same published
    /// snapshots as [`QueryHandle`] (subject to the same staleness bound;
    /// call [`sync`](Self::sync) first for exact answers).
    pub fn estimate(&self, key: u64) -> i64 {
        self.reads.estimate(key)
    }

    /// The key partition used for routing and query ownership.
    pub fn partition(&self) -> KeyPartition {
        self.router.partition()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ConcurrentConfig {
        &self.cfg
    }

    /// Per-shard health gauges: queue depth/occupancy, publish epochs,
    /// reader retries, restart/fault counters.
    pub fn health(&self) -> ShardedHealth {
        ShardedHealth {
            shards: self.shards.iter().map(|s| s.gauge(&self.cfg)).collect(),
            reactors: Vec::new(),
        }
    }

    /// Shut every worker down and return the per-shard kernels (shard
    /// order). Never hangs: a healthy worker is joined (publishing its
    /// final state on the way out); a panicked or wedged one is replaced by
    /// its journal reconstruction. Durable shards write a final snapshot
    /// covering everything routed and prune their WAL behind it.
    pub fn finish(self) -> Vec<ASketch<F, S>> {
        self.finish_with_health().0
    }

    /// [`finish`](Self::finish), also returning the post-teardown health
    /// gauges. After a graceful shutdown every queue-depth gauge reads
    /// exactly zero — nothing residual, nothing underflowed — even when a
    /// wedged worker had to be abandoned.
    ///
    /// # Shutdown ordering (durable runtimes)
    ///
    /// Workers → scrubber → final jobs → join: flush the router and join
    /// (or abandon-and-reconstruct) every shard worker; stop and join the
    /// scrubber; fsync each healthy shard's WAL and queue its final
    /// snapshot as the snapshotter's last job for that shard; close the
    /// job senders and join the snapshotter and the WAL syncer; prune each
    /// healthy shard's WAL behind its final snapshot. One thread writes a
    /// shard's snapshots in order, so no two writes share a tmp path. A
    /// transient fault at the final write is retried under the storage
    /// policy; a persistent one leaves the WAL unpruned and shows in the
    /// returned health.
    pub fn finish_with_health(mut self) -> (Vec<ASketch<F, S>>, ShardedHealth) {
        self.flush_router();
        let mut kernels = Vec::with_capacity(self.shards.len());
        for st in self.shards.iter_mut() {
            st.drain_checkpoints();
            let kernel = if let Some(link) = st.link.take() {
                let deadline = Instant::now() + self.cfg.shutdown_timeout;
                let kernel = match st.sup.take_back(link.hang_up(), deadline) {
                    Ok(kernel) => kernel,
                    // Panicked, or wedged past the deadline and abandoned
                    // (it exits when it touches the dead channel). Retire
                    // its writer generation so a still-running worker's
                    // final on-disconnect publish is dropped instead of
                    // racing (or landing after) the republish below, and
                    // detach the depth gauge: a dead worker left its queued
                    // batches undrained, an abandoned one keeps decrementing
                    // its own Arc as it drains (the journal restore covers
                    // those batches either way).
                    Err(restored) => {
                        st.writer_gen = st.snap.retire_writer();
                        st.depth = Arc::new(AtomicUsize::new(0));
                        restored
                    }
                };
                // The clean path already published on disconnect; republish
                // here so the restore paths leave handles coherent too.
                publish_kernel(&kernel, &st.snap, st.writer_gen);
                kernel
            } else {
                st.sup
                    .inline
                    .take()
                    .expect("degraded shard has an inline kernel")
            };
            // Shared with the final snapshot job, never cloned.
            kernels.push(Arc::new(kernel));
        }
        if let Some(threads) = self.disk.take() {
            let durable = self
                .shards
                .iter_mut()
                .zip(&kernels)
                .filter_map(|(st, k)| Some((st.durable.as_mut()?, k, k.ops_applied())))
                .collect();
            threads.shut_down(durable);
        }
        // The WAL/recovery counters now reflect every *completed*
        // snapshot, the final one included.
        let health = self.health();
        let kernels = kernels
            .into_iter()
            .map(|k| Arc::try_unwrap(k).ok().expect("the snapshotter has exited"))
            .collect();
        (kernels, health)
    }

    /// Durability barrier: flush router partials into the WAL and fsync
    /// every shard's log regardless of fsync policy, then prune the WAL
    /// segments a completed snapshot covers. When it returns `Ok(n)`, all
    /// `n` keys routed so far survive a crash of this process. Returns the first recorded WAL failure, if durability was
    /// lost. No-op (beyond the router flush) on non-durable runtimes.
    ///
    /// # Errors
    /// The first WAL I/O failure across shards.
    pub fn wal_checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.flush_router();
        let mut total = 0u64;
        for st in self.shards.iter_mut() {
            total += st.routed;
            if let Some(d) = st.durable.as_mut() {
                d.barrier()?;
            }
        }
        Ok(total)
    }

    /// Run one synchronous integrity-scrub pass over every shard
    /// directory, exactly as the background scrubber would (the active
    /// WAL segment is taken from the live writer, so sealed-segment
    /// coverage is exact). Returns one [`ScrubReport`] per shard, in
    /// shard order; non-durable shards produce empty reports.
    ///
    /// Deterministic tests and operator tooling call this instead of
    /// waiting out
    /// [`DurabilityOptions::scrub_interval`](asketch::DurabilityOptions::scrub_interval).
    pub fn scrub_now(&mut self) -> Vec<ScrubReport> {
        self.shards
            .iter_mut()
            .map(|st| {
                st.durable
                    .as_ref()
                    .map_or_else(ScrubReport::default, DurableShard::scrub_now)
            })
            .collect()
    }
}

impl<F, S> Drop for ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + Sync + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
{
    /// Best-effort teardown for runtimes dropped without
    /// [`finish`](Self::finish): disconnect every worker and wait a bounded
    /// time. Never hangs, never panics.
    fn drop(&mut self) {
        // Stop the scrubber: dropping its stop sender wakes it to exit;
        // dropping the handles detaches the background threads, which
        // exit once the shards' job senders drop.
        self.disk = None;
        // Hang up on every worker first so all wind down in parallel.
        let handles: Vec<_> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.link.take())
            .map(WorkerLink::hang_up)
            .collect();
        let deadline = Instant::now() + self.cfg.shutdown_timeout;
        for handle in handles {
            let _ = join_within(handle, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyEstimator};
    #[cfg(target_os = "linux")]
    use crate::link::tests::named_thread;
    use crate::link::WORKER_PARK_SLICE;
    use asketch::filter::VectorFilter;
    use asketch::DurabilityOptions;
    use asketch_durable::vfs::{real, Vfs};
    use asketch_durable::{list_segments, list_snapshots, scrub_shard_dir, StoragePolicy};
    use sketches::CountMin;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64;

    fn stream(len: usize) -> Vec<u64> {
        let mut x = 0x5EED_2016u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match x % 10 {
                    0..=5 => x % 8,             // heavy keys
                    _ => 100 + (x >> 16) % 512, // tail
                }
            })
            .collect()
    }

    fn kernel(seed: u64) -> ASketch<VectorFilter, CountMin> {
        ASketch::new(
            VectorFilter::new(16),
            CountMin::new(seed, 4, 1 << 12).unwrap(),
        )
    }

    /// An ~8 KiB kernel: it checkpoints, and so snapshots, every ~1 000
    /// keys (the first after ~350), where `kernel`'s ~128 KiB needs
    /// ~16 000.
    fn small_kernel(seed: u64) -> ASketch<VectorFilter, CountMin> {
        ASketch::new(
            VectorFilter::new(16),
            CountMin::new(seed, 4, 1 << 8).unwrap(),
        )
    }

    /// The fault-injection tests' kernel, fault-free (their sequential
    /// reference): ~2 KiB, so workers checkpoint first after ~90 keys and
    /// then every ~280, before the injected fault.
    fn clean_kernel(seed: u64) -> ASketch<VectorFilter, CountMin> {
        ASketch::new(
            VectorFilter::new(8),
            CountMin::new(seed, 4, 1 << 6).unwrap(),
        )
    }

    /// `clean_kernel` with `plan` injected into its sketch.
    fn faulty_kernel(
        seed: u64,
        plan: FaultPlan,
    ) -> ASketch<VectorFilter, FaultyEstimator<CountMin>> {
        let clean = clean_kernel(seed);
        ASketch::new(
            clean.filter().clone(),
            FaultyEstimator::new(clean.sketch().clone(), plan),
        )
    }

    /// Ingest a stream prefix and sync, then assert every shard has
    /// checkpointed and none has failed yet: a fault injected later in the
    /// stream is then restored from a checkpoint plus journal replay, not
    /// from the initial kernel alone.
    fn ingest_past_first_checkpoint<F, S>(rt: &mut ConcurrentASketch<F, S>, prefix: &[u64])
    where
        F: Filter + Clone + Send + Sync + 'static,
        S: SharedView + UpdateEstimate + Clone + Send + Sync + 'static,
    {
        rt.insert_batch(prefix);
        rt.sync();
        for st in &rt.shards {
            assert_eq!(
                st.sup.failures, 0,
                "shard {} faulted too early",
                st.shard_idx
            );
            assert!(
                st.sup.checkpoints >= 1,
                "shard {} has no checkpoint before the fault",
                st.shard_idx
            );
        }
    }

    /// Sequential reference: each shard's sub-stream through its own
    /// sequential kernel, queried at the owner.
    fn sequential_reference(
        stream: &[u64],
        partition: KeyPartition,
        make: impl Fn(usize) -> ASketch<VectorFilter, CountMin>,
    ) -> Vec<ASketch<VectorFilter, CountMin>> {
        let mut kernels: Vec<_> = (0..partition.shards()).map(&make).collect();
        for &key in stream {
            kernels[partition.shard_of(key)].insert(key);
        }
        kernels
    }

    #[test]
    fn sync_makes_queries_exactly_sequential() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(40_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(10 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        let reference = sequential_reference(&data, rt.partition(), |i| kernel(10 + i as u64));
        let p = rt.partition();
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            let expect = reference[p.shard_of(key)].estimate(key);
            assert_eq!(handle.estimate(key), expect, "key {key} diverges post-sync");
            assert_eq!(rt.estimate(key), expect, "owner query diverges for {key}");
        }
        // Finish and compare the final kernels per key as well.
        let kernels = rt.finish();
        for &key in &keys {
            let shard = p.shard_of(key);
            assert_eq!(
                kernels[shard].estimate(key),
                reference[shard].estimate(key),
                "finished kernel diverges for {key}"
            );
        }
        // Handles stay valid (frozen at final state) after finish.
        for &key in keys.iter().take(50) {
            assert_eq!(
                handle.estimate(key),
                reference[p.shard_of(key)].estimate(key)
            );
        }
    }

    /// The reactor's bypass path must be indistinguishable from routing
    /// the same stream through the router: pre-partition the stream into
    /// per-shard mega-batches (order preserved within each shard, as the
    /// serving layer does), ship via `insert_sharded`, and compare every
    /// distinct key against the sequential reference.
    #[test]
    fn insert_sharded_matches_routed_ingest_exactly() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(40_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(10 + i as u64));
        let p = rt.partition();
        // Coalesce in chunks, as a reactor would across wakeups.
        let mut staging: Vec<Vec<u64>> = vec![Vec::new(); p.shards()];
        for chunk in data.chunks(7_777) {
            for &key in chunk {
                staging[p.shard_of(key)].push(key);
            }
            rt.insert_sharded(&mut staging);
            assert!(staging.iter().all(Vec::is_empty), "batches drain on ship");
        }
        rt.sync();
        let reference = sequential_reference(&data, p, |i| kernel(10 + i as u64));
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                handle.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "key {key} diverges via the sharded bypass"
            );
        }
        let health = rt.health();
        assert_eq!(health.total_routed(), data.len() as u64);
        rt.finish();
    }

    #[test]
    fn blocked_backend_slots_into_the_runtime() {
        // The cache-line-blocked backend implements the same SharedView /
        // UpdateEstimate surface as CountMin, so it must drop into the
        // sharded runtime unchanged — and answer exactly like the
        // sequential blocked kernel over each shard's sub-stream once
        // sync() has drained and published.
        use sketches::BlockedCountMin;
        let blocked = |seed: u64| {
            ASketch::new(
                VectorFilter::new(16),
                BlockedCountMin::new(seed, 4, 1 << 9).unwrap(),
            )
        };
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| blocked(20 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        let p = rt.partition();
        let mut reference: Vec<_> = (0..p.shards()).map(|i| blocked(20 + i as u64)).collect();
        for &key in &data {
            reference[p.shard_of(key)].insert(key);
        }
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            let expect = reference[p.shard_of(key)].estimate(key);
            assert_eq!(handle.estimate(key), expect, "key {key} diverges post-sync");
            assert_eq!(rt.estimate(key), expect, "owner query diverges for {key}");
        }
        let kernels = rt.finish();
        for &key in &keys {
            let shard = p.shard_of(key);
            assert_eq!(
                kernels[shard].estimate(key),
                reference[shard].estimate(key),
                "finished blocked kernel diverges for {key}"
            );
        }
    }

    #[test]
    fn concurrent_reads_never_block_and_stay_one_sided() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 32,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        // Collision-free for the heavy key: one-sidedness becomes exactness
        // once quiesced; mid-ingest reads must be monotone and bounded.
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(99 + i as u64));
        let handle = rt.query_handle();
        let heavy = 7u64;
        let total = 60_000usize;
        let reader = std::thread::spawn(move || {
            let mut last = 0i64;
            let mut observations = 0u64;
            loop {
                let est = handle.estimate(heavy);
                assert!(est >= last, "estimate regressed: {est} < {last}");
                assert!(est <= total as i64, "read above quiesced truth");
                last = est;
                observations += 1;
                if est >= total as i64 {
                    return (observations, handle.reader_retries());
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..total {
            rt.insert(heavy);
        }
        rt.sync();
        let (observations, retries) = reader.join().unwrap();
        assert!(observations > 0);
        // Wait-free: readers take zero locks, so a retry is the only
        // contention artifact possible, and it costs one immediate re-read
        // — it can never exceed the number of successful observations.
        assert!(
            retries <= observations,
            "retries ({retries}) outnumber reads ({observations})"
        );
        assert_eq!(rt.estimate(heavy), total as i64);
    }

    #[test]
    fn worker_panic_restarts_and_loses_nothing() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            queue_capacity: 8,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..ConcurrentConfig::default()
        };
        let make = |i: usize| {
            faulty_kernel(
                50 + i as u64,
                FaultPlan::panic_at(300).with_message("injected shard crash"),
            )
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        ingest_past_first_checkpoint(&mut rt, &data[..240]);
        rt.insert_batch(&data[240..]);
        rt.sync();
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "fault plan must trigger at least one restart: {health:?}"
        );
        assert!(!health.any_degraded(), "restart budget not exhausted");
        // Checkpoint + journal replay: still exactly sequential per key.
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| clean_kernel(50 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart divergence for key {key}"
            );
        }
    }

    /// The review scenario for timeout fail-over: the first worker wedges
    /// (injected sleep inside the sketch) long enough for the send path to
    /// time out and abandon it *alive*. The abandoned thread then drains
    /// its ring and publishes at intervals and on disconnect —
    /// racing the respawned worker on the same snapshot unless the
    /// generation gate drops its publishes. A concurrent reader asserts
    /// the published epochs never regress, the depth gauge must not wrap,
    /// and post-sync answers must still be exactly sequential.
    #[test]
    fn abandoned_wedged_worker_cannot_corrupt_snapshots() {
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            queue_capacity: 2,
            send_timeout: Duration::from_millis(10),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..ConcurrentConfig::default()
        };
        // Wedge for 100ms on the 200th sketch op; the restored clone is
        // disarmed (FaultPlan disarms on clone), so exactly one worker
        // ever wedges.
        let make =
            |_: usize| faulty_kernel(7, FaultPlan::slow_updates(200, Duration::from_millis(100)));
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        let handle = rt.query_handle();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut last_filter, mut last_view) = (0u64, 0u64);
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let fe = handle.shard(0).filter_epoch();
                    let ve = handle.shard(0).view_epoch();
                    assert!(
                        fe >= last_filter,
                        "filter epoch regressed: {fe} < {last_filter}"
                    );
                    assert!(ve >= last_view, "view epoch regressed: {ve} < {last_view}");
                    last_filter = fe;
                    last_view = ve;
                    observations += 1;
                    std::thread::yield_now();
                }
                observations
            })
        };
        ingest_past_first_checkpoint(&mut rt, &data[..120]);
        rt.insert_batch(&data[120..]);
        rt.sync();
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "the wedge must force at least one timeout fail-over: {health:?}"
        );
        assert!(!health.any_degraded());
        // Depth gauge must be fresh, not wrapped by the abandoned worker.
        for g in &health.shards {
            assert_eq!(g.queue_depth, 0, "gauge corrupted: {g:?}");
        }
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        // Per-key answers still exactly sequential after the abandonment.
        let reference = {
            let mut k = clean_kernel(7);
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference.estimate(key),
                "post-abandonment divergence for key {key}"
            );
        }
    }

    #[test]
    fn health_gauges_report_activity() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 8,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(3 + i as u64));
        let data = stream(5_000);
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.total_routed(), 5_000);
        assert!(!health.any_degraded());
        for g in &health.shards {
            assert_eq!(g.queue_depth, 0, "sync barrier must drain the queue");
            assert!(g.published_epoch > 0, "filter must have been published");
            assert!(g.view_epoch > 0, "view must have been published");
            assert_eq!(g.restarts, 0);
        }
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut rt = ConcurrentASketch::spawn(
            ConcurrentConfig {
                shards: 2,
                ..ConcurrentConfig::default()
            },
            |i| kernel(i as u64),
        );
        rt.insert_batch(&stream(1_000));
        drop(rt);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ConcurrentASketch::spawn(
            ConcurrentConfig {
                shards: 0,
                ..ConcurrentConfig::default()
            },
            |i| kernel(i as u64),
        );
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("asketch-conc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn durable_clean_shutdown_then_restart_recovers_exactly() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("clean");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::Interval(4));
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 32,
            publish_interval: 128,
            view_interval: 512,
            ..ConcurrentConfig::default()
        };
        let data = stream(20_000);
        let (mut rt, reports) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(70 + i as u64))
                .unwrap();
        assert!(
            reports
                .iter()
                .all(|r| r.snapshot.is_none() && r.wal_records == 0),
            "fresh directory must recover nothing"
        );
        rt.insert_batch(&data);
        rt.sync();
        let (kernels, health) = rt.finish_with_health();
        for g in &health.shards {
            assert!(g.wal_records > 0, "WAL must have been written: {g:?}");
            assert!(!g.durability_degraded, "durability lost: {g:?}");
            assert_eq!(g.queue_depth, 0, "gauge residue after finish: {g:?}");
        }
        // Cold restart: recovery must reproduce the finished kernels
        // exactly (snapshot base + dedup-gated WAL replay).
        let (rt2, reports2) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(70 + i as u64)).unwrap();
        assert!(
            reports2.iter().all(|r| r.snapshot.is_some()),
            "clean shutdown must leave a final snapshot: {reports2:?}"
        );
        let p = rt2.partition();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[p.shard_of(key)].estimate(key),
                "recovered state diverges for key {key}"
            );
        }
        for g in &rt2.health().shards {
            assert!(g.recovered, "restart must report recovery: {g:?}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_unclean_drop_recovers_acked_writes_from_wal() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("dirty");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::PerBatch);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 128,
            view_interval: 512,
            ..ConcurrentConfig::default()
        };
        let data = stream(12_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(30 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, 12_000, "every key must be durable after the barrier");
        // Simulated crash: drop without finish — no final snapshot, only
        // background snapshots (if any landed) plus the fsynced WAL.
        drop(rt);
        let (rt2, reports) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(30 + i as u64)).unwrap();
        assert!(
            reports.iter().map(|r| r.wal_records).sum::<u64>() > 0,
            "the WAL must hold the unsnapshotted tail: {reports:?}"
        );
        let p = rt2.partition();
        let reference = sequential_reference(&data, p, |i| kernel(30 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "dedup recovery diverges from the sequential reference for {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`VfsFile`] whose first write stalls: stretches the background
    /// snapshotter's in-flight window so `finish` can land mid-snapshot.
    struct StallFile {
        inner: Box<dyn VfsFile>,
        delay: Duration,
        armed: bool,
    }

    impl VfsFile for StallFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            if self.armed {
                self.armed = false;
                std::thread::sleep(self.delay);
            }
            self.inner.write_all(buf)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// Delegating backend that stalls every snapshot `.tmp` write on its
    /// first byte. Regression harness for the shutdown ordering documented
    /// on [`ConcurrentASketch::finish_with_health`]: with the old
    /// finalize-before-join order, the final snapshot raced the stalled
    /// background job on the same tmp path.
    struct SlowSnapVfs {
        inner: Arc<dyn Vfs>,
        delay: Duration,
        snap_writes: AtomicU64,
    }

    impl SlowSnapVfs {
        fn new(delay: Duration) -> Self {
            Self {
                inner: real(),
                delay,
                snap_writes: AtomicU64::new(0),
            }
        }
    }

    impl Vfs for SlowSnapVfs {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_append(path)
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let file = self.inner.create_truncate(path)?;
            if path.extension().is_some_and(|e| e == "tmp") {
                self.snap_writes.fetch_add(1, Ordering::Release);
                return Ok(Box::new(StallFile {
                    inner: file,
                    delay: self.delay,
                    armed: true,
                }));
            }
            Ok(file)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_write(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
            self.inner.read_dir(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// A checkpoint that finds its shard's snapshot still being written is
    /// not dropped: it is offered again at every batch and barrier, and
    /// the newest one is taken once the write finishes, so the newest
    /// snapshot trails the newest checkpoint by at most one write.
    #[test]
    fn busy_snapshotter_takes_the_newest_checkpoint_once_free() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("catchup");
        let slow = Arc::new(SlowSnapVfs::new(Duration::from_millis(500)));
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::Interval(32))
            .vfs(Arc::clone(&slow) as Arc<dyn Vfs>)
            .scrub_interval(None);
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 32,
            ..ConcurrentConfig::default()
        };
        let spacing = checkpoint_keys::<u64>(small_kernel(0).size_bytes()) as usize;
        let data = stream(3 * spacing);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |_| small_kernel(11)).unwrap();
        // The first checkpoint's snapshot stalls in its write; the next two
        // checkpoints arrive while it does.
        rt.insert_batch(&data[..spacing / 2]);
        rt.sync();
        rt.insert_batch(&data[spacing / 2..]);
        rt.sync();
        let newest = {
            let st = &rt.shards[0];
            assert_eq!(st.sup.checkpoints, 3);
            let d = st.durable.as_ref().expect("durable shard");
            assert_eq!(d.snapshots_scheduled, 1, "later checkpoints wait");
            st.sup.journal.checkpoint().0
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.shards[0]
            .durable
            .as_ref()
            .unwrap()
            .disk
            .busy
            .load(Ordering::Acquire)
        {
            assert!(
                Instant::now() < deadline,
                "the stalled write never finished"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The barrier offers the newest checkpoint again; it is taken.
        rt.sync();
        let d = rt.shards[0].durable.as_ref().unwrap();
        assert_eq!(d.snapshots_scheduled, 2);
        assert_eq!(d.scheduled_seq, newest);
        rt.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shutdown-ordering regression (ISSUE 7 satellite): finish a durable
    /// runtime while a background snapshot is provably mid-write and the
    /// scrubber thread is live. The durable prefix must cover every acked
    /// write after a cold restart, the shard directory must hold no torn
    /// `.tmp` residue, and an offline scrub must find nothing.
    #[test]
    fn finish_mid_snapshot_keeps_every_acked_write_durable() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("midsnap");
        let slow = Arc::new(SlowSnapVfs::new(Duration::from_millis(300)));
        let vfs: Arc<dyn Vfs> = Arc::clone(&slow) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            // Both background threads live, exactly the server's shape.
            .scrub_interval(Some(Duration::from_millis(20)));
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 32,
            publish_interval: 128,
            view_interval: 512,
            ..ConcurrentConfig::default()
        };
        // End the stream on the checkpoint that schedules the first
        // background snapshot: its sequence equals the final one — the
        // tmp-path collision case.
        let bytes = small_kernel(0).size_bytes();
        let first = checkpoint_keys::<u64>(bytes).div_ceil(3);
        let len = first.next_multiple_of(cfg.batch as u64);
        let data = stream(len as usize);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| small_kernel(90 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, len, "every routed key must be acked durable");
        // The barrier harvests the final checkpoint, which schedules the
        // snapshot.
        rt.sync();
        // Wait until the snapshotter is provably inside a `.tmp` write (the
        // counter bumps before the stalled first byte), then finish while
        // it sleeps.
        let deadline = Instant::now() + Duration::from_secs(10);
        while slow.snap_writes.load(Ordering::Acquire) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            slow.snap_writes.load(Ordering::Acquire) >= 1,
            "a background snapshot must have been scheduled"
        );
        let (kernels, health) = rt.finish_with_health();
        let g = &health.shards[0];
        assert!(!g.durability_degraded, "clean disk, clean shutdown: {g:?}");
        // No torn tmp residue: the background job was joined, its tmp
        // either renamed away or cleaned up, before the final snapshot.
        let shard_dir = opts.shard_dir(0);
        for entry in std::fs::read_dir(&shard_dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "torn snapshot tmp left behind: {name}"
            );
        }
        // Offline scrub of the quiesced directory: nothing corrupt.
        let clean = real();
        let report = scrub_shard_dir(&clean, &shard_dir, None).unwrap();
        assert_eq!(
            report.corrupt_found(),
            0,
            "mid-snapshot finish tore durable state: {report:?}"
        );
        // Cold restart over the clean backend: the durable prefix covers
        // every acked write exactly.
        let opts2 = DurabilityOptions::new(&dir).scrub_interval(None);
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts2, |i| small_kernel(90 + i as u64)).unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[0].estimate(key),
                "acked write lost across the mid-snapshot shutdown for key {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Graceful-shutdown gauge invariant (and its hardest case): a wedged
    /// worker abandoned *during finish* left batches queued; the final
    /// health must read exactly zero queue depth — neither the residual
    /// count nor an underflow wrap from the abandoned worker's drain.
    #[test]
    fn queue_depth_gauge_is_exactly_zero_after_finish() {
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            queue_capacity: 64,
            shutdown_timeout: Duration::from_millis(50),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..ConcurrentConfig::default()
        };
        let make = |_: usize| {
            ASketch::new(
                VectorFilter::new(8),
                FaultyEstimator::new(
                    CountMin::new(7, 4, 1 << 12).unwrap(),
                    FaultPlan::slow_updates(200, Duration::from_millis(600)),
                ),
            )
        };
        let data = stream(600);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        rt.insert_batch(&data);
        // Finish while the worker is wedged mid-queue: it gets abandoned
        // with batches still queued on its ring.
        let (kernels, health) = rt.finish_with_health();
        let g = &health.shards[0];
        assert!(
            g.worker_failures >= 1,
            "the wedge must force an abandonment: {g:?}"
        );
        assert_eq!(g.queue_depth, 0, "gauge must drain to exactly zero: {g:?}");
        assert!(g.queue_depth <= g.queue_capacity, "underflow wrap: {g:?}");
        assert_eq!(g.routed_ops, 600);
        // And the journal restore still makes the kernel exact.
        let reference = {
            let mut k = ASketch::new(VectorFilter::new(8), CountMin::new(7, 4, 1 << 12).unwrap());
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(kernels[0].estimate(key), reference.estimate(key));
        }
    }

    use asketch_durable::vfs::{FaultKind, FaultPlan as StorageFaultPlan, FaultVfs, VfsFile};
    use asketch_durable::ErrorClass;

    /// One-shard durable config with tight intervals so every fault test
    /// exercises the WAL on a handful of batches. With `kernel`'s ~128 KiB
    /// a shard snapshots every ~16 000 keys, more than these tests ingest,
    /// so no background snapshot runs unless a test asks for one.
    fn faulty_cfg() -> ConcurrentConfig {
        ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn transient_wal_fault_retries_and_stays_durable() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("transient");
        // Exactly one write op fails (the first WAL append); the rollback
        // and the retried append succeed, so durability survives.
        let fault = Arc::new(FaultVfs::over_real(
            StorageFaultPlan::new(7).fail_once(FaultKind::Eio, 0),
        ));
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .scrub_interval(None);
        let data = stream(4_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(80 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        let acked = rt
            .wal_checkpoint()
            .expect("transient fault must not surface");
        assert_eq!(acked, 4_000);
        assert_eq!(fault.injected(), 1, "the scripted fault must have fired");
        let health = rt.health();
        let g = &health.shards[0];
        assert!(
            !g.durability_degraded,
            "one transient fault must not degrade"
        );
        assert!(g.wal_retries >= 1, "the retry must be counted: {g:?}");
        assert!(g.last_durability_error.is_none());
        let (kernels, _) = rt.finish_with_health();
        // Cold restart over the clean backend: nothing acked was lost.
        let opts2 = DurabilityOptions::new(&dir).scrub_interval(None);
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts2, |i| kernel(80 + i as u64))
                .unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt2.estimate(key), kernels[0].estimate(key), "key {key}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_enospc_degrades_with_typed_error_and_correct_counts() {
        use asketch::FsyncPolicy;
        // Every write op fails from the fourth on, and the degraded error
        // must carry the root cause's class — callers distinguish a full
        // disk from corruption programmatically.
        // - ENOSPC writes nothing: the rollback's `set_len` fails too, but
        //   the length re-check finds the boundary intact, so the writer
        //   is not poisoned and the retry budget runs out.
        // - A short write leaves torn bytes and `set_len` fails, so the
        //   writer is poisoned: the retry stops at once on the original
        //   `io` error, never reporting the poisoning (`invalid-state`).
        let retries = 2;
        for (kind, class, want_retries) in [
            (FaultKind::Enospc, ErrorClass::NoSpace, u64::from(retries)),
            (FaultKind::ShortWrite, ErrorClass::Io, 0),
        ] {
            let dir = tmp_dir(&format!("persistent-{}", kind.name()));
            let fault = Arc::new(FaultVfs::over_real(
                StorageFaultPlan::new(7).fail_from(kind, 3),
            ));
            let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
            let opts = DurabilityOptions::new(&dir)
                .fsync(FsyncPolicy::PerBatch)
                .vfs(vfs)
                .policy(StoragePolicy {
                    retries,
                    retry_backoff: Duration::ZERO,
                })
                .scrub_interval(None);
            let data = stream(6_000);
            let (mut rt, _) =
                ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(81 + i as u64))
                    .unwrap();
            rt.insert_batch(&data);
            rt.sync();
            let err = rt
                .wal_checkpoint()
                .expect_err("a persistent write fault must surface");
            assert_eq!(err.class(), class, "typed root cause: {err}");
            let health = rt.health();
            let g = &health.shards[0];
            assert!(g.durability_degraded, "disk-sick mode must engage: {g:?}");
            assert!(health.any_durability_degraded());
            assert_eq!(health.degraded_durability_shards(), 1);
            assert_eq!(g.wal_retries, want_retries, "{}: {g:?}", kind.name());
            assert_eq!(
                g.last_durability_error.as_ref().map(|f| f.class.as_str()),
                Some(class.name()),
                "gauge carries the class, not a string to parse: {g:?}"
            );
            // Ingest stays correct and one-sided while degraded.
            let reference = {
                let mut k = kernel(81);
                for &key in &data {
                    k.insert(key);
                }
                k
            };
            let mut keys: Vec<u64> = data.clone();
            keys.sort_unstable();
            keys.dedup();
            for &key in &keys {
                assert_eq!(rt.estimate(key), reference.estimate(key), "key {key}");
            }
            let (kernels, final_health) = rt.finish_with_health();
            assert!(final_health.shards[0].durability_degraded);
            for &key in &keys {
                assert_eq!(kernels[0].estimate(key), reference.estimate(key));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Delegating backend that injects nothing until armed, then routes
    /// every operation through a [`FaultVfs`]: files opened before arming
    /// stay clean, so the armed plan counts operations from the first one
    /// after the arming point.
    struct ArmedVfs {
        clean: Arc<dyn Vfs>,
        armed: std::sync::OnceLock<Arc<FaultVfs>>,
    }

    impl ArmedVfs {
        fn now(&self) -> &dyn Vfs {
            match self.armed.get() {
                Some(fault) => &**fault,
                None => &*self.clean,
            }
        }
    }

    impl Vfs for ArmedVfs {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.now().create_dir_all(dir)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.now().open_append(path)
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.now().create_truncate(path)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.now().open_write(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.now().read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.now().rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.now().remove_file(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
            self.now().read_dir(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.now().sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.now().exists(path)
        }
    }

    /// The final snapshot is the snapshotter's last job, so a write fault
    /// armed after the last `wal_checkpoint` lands on it. A transient one
    /// is retried under the storage policy: the shard ends healthy and its
    /// sealed WAL segments are pruned behind the final snapshot. A
    /// persistent one makes the shard disk-sick with the fault's class in
    /// the final health and leaves the WAL as it was. Either way a cold
    /// restart recovers every acked key exactly.
    #[test]
    fn final_snapshot_write_faults_retry_or_degrade() {
        use asketch::FsyncPolicy;
        let retries = 2;
        for (kind, plan, class) in [
            (
                FaultKind::Eio,
                StorageFaultPlan::new(7).fail_once(FaultKind::Eio, 0),
                None,
            ),
            (
                FaultKind::Enospc,
                StorageFaultPlan::new(7).fail_from(FaultKind::Enospc, 0),
                Some(ErrorClass::NoSpace),
            ),
        ] {
            let dir = tmp_dir(&format!("final-{}", kind.name()));
            let vfs = Arc::new(ArmedVfs {
                clean: real(),
                armed: std::sync::OnceLock::new(),
            });
            let opts = DurabilityOptions::new(&dir)
                .fsync(FsyncPolicy::Off)
                .vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
                .policy(StoragePolicy {
                    retries,
                    retry_backoff: Duration::ZERO,
                })
                .scrub_interval(None);
            // A ~512 KiB kernel shipped half a checkpoint spacing per batch:
            // each WAL record (8 B a key) fills a commit group alone, and
            // every other batch checkpoints, so a background snapshot
            // rarely covers the batch that seals a segment.
            let make = |_: usize| {
                ASketch::new(
                    VectorFilter::new(16),
                    CountMin::new(700, 4, 1 << 14).unwrap(),
                )
            };
            let spacing = checkpoint_keys::<u64>(make(0).size_bytes()) as usize;
            let cfg = ConcurrentConfig {
                shards: 1,
                batch: spacing / 2,
                ..ConcurrentConfig::default()
            };
            let (mut rt, _) = ConcurrentASketch::spawn_durable(cfg.clone(), &opts, make).unwrap();
            let shard_dir = opts.shard_dir(0);
            let segments = || list_segments(&real(), &shard_dir).unwrap();
            let mut next = 0u64;
            let mut data = Vec::new();
            // Ingest until the acked WAL holds a sealed segment that no
            // completed snapshot covers, with every checkpoint's snapshot
            // written: nothing is left for the snapshotter but the final
            // job.
            loop {
                let batch: Vec<u64> = (0..cfg.batch)
                    .map(|_| {
                        next += 1;
                        next.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63
                    })
                    .collect();
                rt.insert_batch(&batch);
                data.extend(batch);
                if segments().len() < 2 {
                    continue;
                }
                loop {
                    rt.sync();
                    let st = &rt.shards[0];
                    let d = st.durable.as_ref().expect("durable shard");
                    while d.disk.busy.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    if d.scheduled_seq == st.sup.journal.checkpoint().0 {
                        break;
                    }
                }
                let acked = rt.wal_checkpoint().unwrap();
                assert_eq!(acked, data.len() as u64);
                if segments().len() >= 2 {
                    break;
                }
            }
            let before = segments();
            let fault = Arc::new(FaultVfs::over_real(plan));
            assert!(vfs.armed.set(Arc::clone(&fault)).is_ok());
            let (kernels, health) = rt.finish_with_health();
            let g = &health.shards[0];
            assert!(
                fault.injected() >= 1,
                "{}: the fault never fired",
                kind.name()
            );
            match class {
                None => {
                    assert!(
                        !g.durability_degraded,
                        "a transient fault is retried: {g:?}"
                    );
                    assert!(g.snapshot_retries >= 1, "the retry is counted: {g:?}");
                    assert_eq!(
                        segments().len(),
                        1,
                        "sealed segments outlive the final snapshot"
                    );
                }
                Some(class) => {
                    assert!(g.durability_degraded, "disk-sick at the final write: {g:?}");
                    assert_eq!(
                        g.last_durability_error.as_ref().map(|f| f.class.as_str()),
                        Some(class.name()),
                        "{g:?}"
                    );
                    assert_eq!(g.snapshot_retries, u64::from(retries), "{g:?}");
                    assert_eq!(segments(), before, "a failed final snapshot prunes nothing");
                }
            }
            // Cold restart over the clean backend: every acked key exact.
            let opts2 = DurabilityOptions::new(&dir).scrub_interval(None);
            let (rt2, _) = ConcurrentASketch::spawn_durable(cfg, &opts2, make).unwrap();
            for &key in &data {
                assert_eq!(
                    rt2.estimate(key),
                    kernels[0].estimate(key),
                    "{}: key {key}",
                    kind.name()
                );
            }
            drop(rt2);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A [`VfsFile`] whose writes always fail with one OS error code;
    /// everything else delegates (so `set_len` rollbacks succeed and the
    /// failure stays retryable → degrade, not poison).
    struct FailWriteFile {
        inner: Box<dyn VfsFile>,
        raw_os: i32,
    }

    impl VfsFile for FailWriteFile {
        fn write_all(&mut self, _: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::from_raw_os_error(self.raw_os))
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// Path-keyed fault backend: WAL appends under `shard-0000` fail with
    /// `EIO`, under `shard-0001` with `ENOSPC`, persistently. One
    /// [`FaultVfs`] plan cannot deterministically hand *different* classes
    /// to different shards, so this drives the multi-class health
    /// regression directly.
    struct ClassedShardVfs {
        inner: Arc<dyn Vfs>,
    }

    impl Vfs for ClassedShardVfs {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let file = self.inner.open_append(path)?;
            let p = path.to_string_lossy();
            let raw_os = if p.contains("shard-0000") {
                5 // EIO
            } else if p.contains("shard-0001") {
                28 // ENOSPC
            } else {
                return Ok(file);
            };
            Ok(Box::new(FailWriteFile {
                inner: file,
                raw_os,
            }))
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.create_truncate(path)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_write(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
            self.inner.read_dir(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// Multi-class degradation regression (ISSUE 7 satellite): two shards
    /// degrade with *distinct* `DurabilityError` classes and the health
    /// must carry both — the HEALTH frame reports per-shard classes and
    /// alarms on the worst, instead of the lossy first-shard-wins summary
    /// hiding `ENOSPC` behind `EIO`.
    #[test]
    fn two_shards_degraded_with_distinct_classes_both_surface_in_health() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("twoclass");
        let vfs: Arc<dyn Vfs> = Arc::new(ClassedShardVfs { inner: real() });
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .policy(StoragePolicy {
                retries: 1,
                retry_backoff: Duration::ZERO,
            })
            .scrub_interval(None);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        let data = stream(2_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(95 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert_eq!(health.degraded_durability_shards(), 2, "{health:?}");
        // The historical summary is lossy: shard 0's EIO wins, the ENOSPC
        // on shard 1 vanishes.
        assert_eq!(
            health.first_durability_error().map(|f| f.class.as_str()),
            Some("io")
        );
        // The per-shard view keeps both classes, keyed by shard.
        let errors = health.durability_errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].0, 0);
        assert_eq!(errors[0].1.class, "io");
        assert_eq!(errors[1].0, 1);
        assert_eq!(errors[1].1.class, "no-space");
        // And the worst-class summary ranks exhaustion over plain I/O.
        let (worst_shard, worst) = health.worst_durability_error().unwrap();
        assert_eq!(worst_shard, 1);
        assert_eq!(worst.class, "no-space");
        // Counting stays exact on both degraded shards.
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| kernel(95 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt.estimate(key), reference[p.shard_of(key)].estimate(key));
        }
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_fsync_failure_degrades_without_losing_counts() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("fsyncfail");
        let fault = Arc::new(FaultVfs::over_real(
            StorageFaultPlan::new(7).fail_from(FaultKind::FsyncFail, 0),
        ));
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .policy(StoragePolicy {
                retries: 1,
                retry_backoff: Duration::ZERO,
            })
            .scrub_interval(None);
        let data = stream(3_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(82 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        rt.sync();
        assert!(rt.wal_checkpoint().is_err(), "fsync can never succeed");
        let health = rt.health();
        assert!(health.shards[0].durability_degraded);
        assert!(
            health.shards[0].wal_retries >= 1,
            "the failed fsync must have been retried: {:?}",
            health.shards[0]
        );
        // Counting is unaffected by the sick disk.
        let reference = {
            let mut k = kernel(82);
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let (kernels, _) = rt.finish_with_health();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(kernels[0].estimate(key), reference.estimate(key));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_now_quarantines_bitrot_and_triggers_fresh_snapshot() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("scrubnow");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .scrub_interval(None); // driven by scrub_now, deterministically
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        let data = stream(8_000);
        // The small kernel snapshots every ~1 000 keys.
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| small_kernel(83 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        // Wait for a background snapshot to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshot_seq == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shard_dir = opts.shard_dir(0);
        let snaps = list_snapshots(&real(), &shard_dir).unwrap();
        assert!(!snaps.is_empty(), "a background snapshot must have landed");
        // Bit-rot the newest snapshot on disk.
        let victim = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();

        let reports = rt.scrub_now();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].quarantined.len(),
            1,
            "the scrubber must detect and quarantine the rot: {:?}",
            reports[0]
        );
        assert!(reports[0].wants_fresh_snapshot());
        assert!(!victim.exists(), "corrupt snapshot renamed to .corrupt");
        let g = &rt.health().shards[0];
        assert_eq!(g.scrub_passes, 1);
        assert_eq!(g.scrub_corruptions, 1);
        assert_eq!(g.snapshots_quarantined, 1);
        assert!(!g.durability_degraded, "bit-rot is repaired, not degrading");

        // More ingest drives a checkpoint → a fresh snapshot replaces the
        // quarantined one and re-arms WAL pruning.
        rt.insert_batch(&data);
        rt.sync();
        let (kernels, health) = rt.finish_with_health();
        assert!(
            health.shards[0].snapshot_seq > 0
                || !list_snapshots(&real(), &shard_dir).unwrap().is_empty(),
            "a fresh snapshot must exist after the quarantine"
        );
        // A second scrub of the quiesced directory finds nothing.
        let vfs = real();
        let report = scrub_shard_dir(&vfs, &shard_dir, None).unwrap();
        assert_eq!(report.corrupt_found(), 0, "post-recovery state is clean");
        // Cold restart: recovery ignores the `.corrupt` file and lands on
        // the finished state exactly.
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| small_kernel(83 + i as u64))
                .unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt2.estimate(key), kernels[0].estimate(key), "key {key}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_scrubber_thread_finds_rot_on_its_own() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("scrubbg");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .scrub_interval(Some(Duration::from_millis(30)));
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        let data = stream(8_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| small_kernel(84 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshot_seq == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shard_dir = opts.shard_dir(0);
        let snaps = list_snapshots(&real(), &shard_dir).unwrap();
        assert!(!snaps.is_empty());
        let victim = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();
        // The background thread must find and quarantine it by itself.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshots_quarantined == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let g = &rt.health().shards[0];
        assert!(g.scrub_passes >= 1, "scrubber must have run: {g:?}");
        assert_eq!(g.snapshots_quarantined, 1, "rot must be quarantined: {g:?}");
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ring data plane answers every key exactly like the sequential
    /// reference over the same stream, and a sync leaves every ring
    /// drained.
    #[test]
    fn ring_plane_matches_sequential_reference() {
        let data = stream(25_000);
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 32,
            publish_interval: 128,
            view_interval: 512,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(200 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        for g in &rt.health().shards {
            assert_eq!(g.ring_depth, 0, "post-sync ring must be drained: {g:?}");
        }
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| kernel(200 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            let expected = reference[p.shard_of(key)].estimate(key);
            assert_eq!(rt.estimate(key), expected, "key {key}");
        }
    }

    /// The wake rule, part (a): pushes below the publish interval and
    /// below half the ring leave the worker asleep. 500 four-key batches
    /// one every 200 µs cost about one wake per elapsed park slice plus
    /// one per publish interval of keys; a worker woken per push would
    /// wake ~500 times.
    #[cfg(target_os = "linux")]
    #[test]
    fn sub_threshold_pushes_leave_the_worker_asleep() {
        // Eight shards, so the loaded worker's name (`ask-shard-7`) is
        // unique among this binary's concurrently running tests.
        let cfg = ConcurrentConfig {
            shards: 8,
            batch: 4,
            publish_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
        let p = rt.partition();
        let keys: Vec<u64> = (0..).filter(|&k| p.shard_of(k) == 7).take(4).collect();
        std::thread::sleep(Duration::from_millis(50));
        let (_, before) = named_thread("ask-shard-7").expect("worker thread");
        let start = Instant::now();
        let mut batches = vec![Vec::new(); 8];
        for _ in 0..500 {
            batches[7].extend_from_slice(&keys);
            rt.insert_sharded(&mut batches);
            std::thread::sleep(Duration::from_micros(200));
        }
        let (_, after) = named_thread("ask-shard-7").expect("worker thread");
        let slices = (start.elapsed().as_micros() / WORKER_PARK_SLICE.as_micros()) as u64;
        let wakes = after - before;
        assert!(
            wakes <= 50.max(slices + 2 + 10),
            "worker woke {wakes} times over {slices} park slices"
        );
        rt.sync();
        assert_eq!(rt.estimate(keys[0]), 500);
    }

    /// The wake rule, part (b): a batch below every wake threshold is
    /// still applied within a few park slices, with no `sync`.
    #[test]
    fn quiet_batch_is_applied_within_a_few_park_slices() {
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 4,
            publish_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
        rt.insert_sharded(&mut [vec![1, 2, 3, 4]]);
        let deadline = Instant::now() + 3 * WORKER_PARK_SLICE;
        while rt.health().shards[0].queue_depth > 0 {
            assert!(
                Instant::now() < deadline,
                "quiet batch still queued after three park slices"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Chaos: a tiny ring under a panicking worker. The ring fills (Full →
    /// backpressure policy), the panic abandons batches *inside* the ring,
    /// and fail-over must replace the ring wholesale — the journal restore
    /// covers the stranded batches, so nothing is lost and nothing is
    /// applied twice (the PR-1 generation-check discipline, now over the
    /// ring plane).
    #[test]
    fn ring_full_backpressure_with_worker_panic_stays_exact() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            queue_capacity: 4, // ring rounds to 4 slots — fills constantly
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            send_timeout: Duration::from_millis(50),
            ..ConcurrentConfig::default()
        };
        let make = |i: usize| {
            faulty_kernel(
                140 + i as u64,
                FaultPlan::panic_at(500).with_message("injected ring-plane crash"),
            )
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        ingest_past_first_checkpoint(&mut rt, &data[..240]);
        rt.insert_batch(&data[240..]);
        rt.sync();
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "fault plan must trigger at least one restart: {health:?}"
        );
        assert!(!health.any_degraded(), "restart budget not exhausted");
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| clean_kernel(140 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart divergence for key {key}"
            );
        }
    }

    /// Group commit + deferred fsync surface through health, the deferred
    /// fsyncs actually run (no fatal parked), and the ack barrier still
    /// holds: after `wal_checkpoint` a reopened runtime answers exactly.
    #[test]
    fn group_commit_defers_fsyncs_and_survives_reopen() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("groupdefer");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::Interval(8));
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        let data = stream(20_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(400 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, data.len() as u64);
        let health = rt.health();
        assert!(
            health.total_group_commits() >= 2,
            "records must coalesce into groups: {health:?}"
        );
        assert!(
            health.total_deferred_fsyncs() >= 1,
            "interval fsyncs must defer to the background syncer: {health:?}"
        );
        assert!(
            !health.any_durability_degraded(),
            "background fsyncs must not park a fatal: {health:?}"
        );
        let kernels = rt.finish();
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(400 + i as u64)).unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        let p = rt2.partition();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[p.shard_of(key)].estimate(key),
                "reopen divergence for key {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints and snapshots are spaced by the kernel's own size `B`:
    /// a shard checkpoints once its journaled keys (8 B each) add up to
    /// `B` (the first a third of the way there), and schedules a snapshot
    /// once its unpacked WAL keys (8 B each) do — at every checkpoint.
    #[test]
    fn checkpoints_and_snapshots_follow_the_kernel_size() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("cadence");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::Interval(32))
            .scrub_interval(None);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            ..ConcurrentConfig::default()
        };
        let bytes = small_kernel(0).size_bytes() as f64;
        let data = stream(40_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| small_kernel(500 + i as u64)).unwrap();
        for chunk in data.chunks(1_000) {
            rt.insert_batch(chunk);
            rt.sync();
            // Let each scheduled snapshot finish, so no due checkpoint is
            // skipped as busy and the count shows the rule alone.
            while rt.shards.iter().any(|st| {
                let d = st.durable.as_ref().expect("durable shard");
                d.disk.busy.load(Ordering::Acquire)
            }) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let health = rt.health();
        for (st, g) in rt.shards.iter().zip(&health.shards) {
            let keys = g.routed_ops as f64;
            let want = keys * 8.0 / bytes;
            assert!(
                (g.checkpoints as f64 - want).abs() <= 1.0,
                "shard {}: {} checkpoints over {keys} keys, want {want:.1}",
                g.shard,
                g.checkpoints
            );
            let scheduled = st.durable.as_ref().unwrap().snapshots_scheduled;
            let want = keys * 8.0 / bytes;
            assert!(
                (scheduled as f64 - want).abs() <= 1.0,
                "shard {}: {scheduled} snapshots scheduled over {keys} keys, want {want:.1}",
                g.shard
            );
        }
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot that completes after the last batch still prunes: the
    /// `wal_checkpoint` barrier deletes every sealed WAL segment that the
    /// snapshot covers, so recovery does not re-read it.
    #[test]
    fn wal_checkpoint_prunes_segments_a_late_snapshot_covers() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("lateprune");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::Off)
            .scrub_interval(None);
        // One shipped batch per checkpoint spacing: every batch is one WAL
        // record and one checkpoint. The worker reports a batch's
        // checkpoint after the caller has shipped it, so the checkpoint of
        // the last batch reaches the snapshotter at the closing `sync`,
        // after the last append.
        let spacing = checkpoint_keys::<u64>(kernel(0).size_bytes()) as usize;
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: spacing,
            ..ConcurrentConfig::default()
        };
        let (mut rt, _) = ConcurrentASketch::spawn_durable(cfg, &opts, |_| kernel(600)).unwrap();
        let shard_dir = opts.shard_dir(0);
        // Keys at or above 2^32 pack to 8 bytes, so ~1 M of them seal the
        // first 8 MiB segment; the batch that seals it is the last.
        let mut next = 0u64;
        while list_segments(&real(), &shard_dir).unwrap().len() < 2 {
            let batch: Vec<u64> = (0..spacing)
                .map(|_| {
                    next += 1;
                    next.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63
                })
                .collect();
            rt.insert_batch(&batch);
        }
        // Offer the newest checkpoint until a snapshot of it has completed
        // (one offered while the snapshotter is busy waits for the next).
        loop {
            rt.sync();
            let st = &rt.shards[0];
            let d = st.durable.as_ref().expect("durable shard");
            while d.disk.busy.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if d.scheduled_seq == st.sup.journal.checkpoint().0 {
                break;
            }
        }
        let snapped = rt.shards[0]
            .durable
            .as_ref()
            .unwrap()
            .disk
            .snapped_seq
            .load(Ordering::Acquire);
        let covered = || -> Vec<PathBuf> {
            let segs = list_segments(&real(), &shard_dir).unwrap();
            segs.windows(2)
                .filter(|w| w[1].0 <= snapped + 1)
                .map(|w| w[0].1.clone())
                .collect()
        };
        assert!(
            !covered().is_empty(),
            "the last snapshot (WAL seq {snapped}) must cover a sealed segment"
        );
        rt.wal_checkpoint().unwrap();
        assert_eq!(
            covered(),
            Vec::<PathBuf>::new(),
            "sealed segments covered by the snapshot at WAL seq {snapped} outlive the barrier"
        );
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Split one client batch into per-shard slots for `insert_sessioned`.
    fn partitioned(p: KeyPartition, keys: &[u64]) -> Vec<Vec<u64>> {
        let mut slots = vec![Vec::new(); p.shards()];
        for &k in keys {
            slots[p.shard_of(k)].push(k);
        }
        slots
    }

    /// Property: a worker panic anywhere in a stream shipped through
    /// `insert_sharded` in batches of any size — one key up to more than a
    /// checkpoint spacing per shard — is recovered by replaying whole
    /// journaled batches over the last checkpoint, on the plain and the
    /// durable runtime alike. After `sync` every estimate equals the
    /// sequential run's and every key sent was routed exactly once.
    #[test]
    fn failover_replays_whole_batches_across_checkpoints() {
        use asketch::FsyncPolicy;
        use streamgen::prop;
        let spacing = checkpoint_keys::<u64>(clean_kernel(0).size_bytes());
        let cfg = ConcurrentConfig {
            shards: 2,
            queue_capacity: 4,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..ConcurrentConfig::default()
        };
        prop::check("failover_replays_whole_batches", 8, |rng| {
            let data = stream(prop::in_range(rng, 2_000..6_000) as usize);
            let p = KeyPartition::new(cfg.shards);
            let seed = rng.next_u64() % 1_000;
            // Batch sizes span one key to three spacings (about one and a
            // half per shard).
            let mut chunks = Vec::new();
            let mut at = 0;
            while at < data.len() {
                let len = if rng.next_below(4) == 0 {
                    prop::in_range(rng, 1..8)
                } else {
                    prop::in_range(rng, 1..3 * spacing + 1)
                } as usize;
                chunks.push(at..(at + len).min(data.len()));
                at += len;
            }
            // The panic lands on a random sketch op of one shard, so in a
            // random batch: count each shard's sketch ops sequentially.
            let mut counted: Vec<_> = (0..cfg.shards)
                .map(|i| faulty_kernel(seed + i as u64, FaultPlan::default()))
                .collect();
            for &key in &data {
                counted[p.shard_of(key)].insert(key);
            }
            let victim = rng.next_below(cfg.shards as u64) as usize;
            let panic_op = prop::in_range(rng, 1..counted[victim].sketch().ops() + 1);
            let make = |i: usize| {
                let plan = if i == victim {
                    FaultPlan::panic_at(panic_op).with_message("injected batch-replay crash")
                } else {
                    FaultPlan::default()
                };
                faulty_kernel(seed + i as u64, plan)
            };
            let reference = sequential_reference(&data, p, |i| clean_kernel(seed + i as u64));
            let dir = tmp_dir(&format!("prop-failover-{seed}"));
            let opts = DurabilityOptions::new(&dir)
                .fsync(FsyncPolicy::Interval(32))
                .scrub_interval(None);
            for durable in [false, true] {
                let mut rt = if durable {
                    ConcurrentASketch::spawn_durable(cfg.clone(), &opts, make)
                        .unwrap()
                        .0
                } else {
                    ConcurrentASketch::spawn(cfg.clone(), make)
                };
                for range in &chunks {
                    rt.insert_sharded(&mut partitioned(p, &data[range.clone()]));
                }
                rt.sync();
                let health = rt.health();
                assert_eq!(health.total_restarts(), 1, "durable {durable}: {health:?}");
                assert!(!health.any_degraded());
                assert_eq!(health.total_routed(), data.len() as u64);
                for &key in &data {
                    assert_eq!(
                        rt.estimate(key),
                        reference[p.shard_of(key)].estimate(key),
                        "durable {durable}: key {key}, panic at op {panic_op} of shard {victim}"
                    );
                }
                drop(rt);
                let _ = std::fs::remove_dir_all(&dir);
            }
        });
    }

    #[test]
    fn sessioned_retries_are_deduped_exactly_once() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
        let p = rt.partition();
        assert_eq!(rt.hello(42, 0), 0);
        let batches: Vec<Vec<u64>> = (0..6u64)
            .map(|i| (0..5).map(|j| i * 3 + j % 4).collect())
            .collect();
        for (i, batch) in batches.iter().enumerate() {
            let seq = i as u64 + 1;
            let out = rt.insert_sessioned(42, seq, &mut partitioned(p, batch));
            assert_eq!(out.applied, batch.len());
            assert!(!out.duplicate);
            // Retry storm: the same seq any number of times is a no-op.
            for _ in 0..3 {
                let retry = rt.insert_sessioned(42, seq, &mut partitioned(p, batch));
                assert_eq!(retry.applied, 0, "retry of seq {seq} re-applied keys");
                assert!(retry.duplicate);
            }
        }
        // Replay the entire window once more, in order.
        for (i, batch) in batches.iter().enumerate() {
            let out = rt.insert_sessioned(42, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, 0);
        }
        rt.sync();
        let all: Vec<u64> = batches.iter().flatten().copied().collect();
        let reference = sequential_reference(&all, p, |i| kernel(i as u64));
        let mut keys = all.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "retries double-counted key {key}"
            );
        }
        rt.finish();
    }

    #[test]
    fn sessioned_marks_survive_restart_and_still_dedup() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("sess");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::PerBatch);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            ..ConcurrentConfig::default()
        };
        let batches: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i, i + 1, 7]).collect();
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(50 + i as u64))
                .unwrap();
        let p = rt.partition();
        rt.hello(9, 0);
        for (i, batch) in batches.iter().enumerate() {
            let out = rt.insert_sessioned(9, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, batch.len());
        }
        rt.sync();
        rt.wal_checkpoint().unwrap();
        rt.finish();
        // Restart: the client reconnects knowing nothing was acked past
        // seq 2 (say) and replays 3 and 4 — plus a stale retry of 1.
        let (mut rt2, reports) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(50 + i as u64)).unwrap();
        assert!(
            reports.iter().any(|r| !r.sessions.is_empty()),
            "recovery must surface the session marks: {reports:?}"
        );
        let resumable = rt2.hello(9, 0);
        assert_eq!(
            resumable, 4,
            "all four writes were durable before the restart"
        );
        for (i, batch) in batches.iter().enumerate() {
            let out = rt2.insert_sessioned(9, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, 0, "replayed seq {} re-applied", i + 1);
            assert!(out.duplicate);
        }
        // A genuinely new write still lands.
        let fresh = vec![3u64, 7];
        let out = rt2.insert_sessioned(9, 5, &mut partitioned(p, &fresh));
        assert_eq!(out.applied, fresh.len());
        rt2.sync();
        let mut all: Vec<u64> = batches.iter().flatten().copied().collect();
        all.extend_from_slice(&fresh);
        let reference = sequential_reference(&all, p, |i| kernel(50 + i as u64));
        let mut keys = all.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart replay double-counted key {key}"
            );
        }
        rt2.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod session_proptests {
        use super::*;
        use sketches::hash::SplitMix64;
        use streamgen::prop::{check, vec_of};

        /// One step of a client's life: issue the next write, replay the
        /// unacked window (a reconnect), or observe a sync barrier's acks
        /// (trim the window).
        #[derive(Debug, Clone)]
        enum Op {
            Advance(Vec<u64>),
            Replay,
            Trim,
        }

        fn op(rng: &mut SplitMix64) -> Op {
            match rng.next_below(6) {
                0..=2 => Op::Advance(vec_of(rng, 1..6, |r| r.next_below(12))),
                3 | 4 => Op::Replay,
                _ => Op::Trim,
            }
        }

        /// Session-seq dedup is idempotent under arbitrary retry
        /// interleavings: whatever mix of advances, whole-window
        /// replays, and ack-trims the client performs, every issued
        /// batch counts exactly once.
        #[test]
        fn sessioned_dedup_is_idempotent_under_retries() {
            check("sessioned_dedup_is_idempotent_under_retries", 24, |rng| {
                let ops = vec_of(rng, 1..40, op);
                let cfg = ConcurrentConfig {
                    shards: 2,
                    batch: 4,
                    publish_interval: 8,
                    view_interval: 32,
                    ..ConcurrentConfig::default()
                };
                let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
                let p = rt.partition();
                rt.hello(1, 0);
                let mut next_seq = 1u64;
                let mut unacked: Vec<(u64, Vec<u64>)> = Vec::new();
                let mut issued: Vec<u64> = Vec::new();
                for op in &ops {
                    match op {
                        Op::Advance(batch) => {
                            let seq = next_seq;
                            next_seq += 1;
                            issued.extend_from_slice(batch);
                            unacked.push((seq, batch.clone()));
                            rt.insert_sessioned(1, seq, &mut partitioned(p, batch));
                        }
                        Op::Replay => {
                            for (seq, batch) in unacked.clone() {
                                let out = rt.insert_sessioned(1, seq, &mut partitioned(p, &batch));
                                assert_eq!(out.applied, 0, "replay re-applied seq {seq}");
                            }
                        }
                        Op::Trim => unacked.clear(),
                    }
                }
                rt.sync();
                let reference = sequential_reference(&issued, p, |i| kernel(i as u64));
                let mut keys = issued.clone();
                keys.sort_unstable();
                keys.dedup();
                for &key in &keys {
                    assert_eq!(
                        rt.estimate(key),
                        reference[p.shard_of(key)].estimate(key),
                        "key {key} not counted exactly once"
                    );
                }
                rt.finish();
            });
        }
    }
}
