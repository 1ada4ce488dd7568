//! The ASketch framework: Algorithm 1 (stream processing), Algorithm 2
//! (query processing), the at-most-one exchange policy, and the
//! negative-count updates of Appendix A.

use sketches::persist::{self, Persist, PersistError};
use sketches::traits::{FrequencyEstimator, TopK, Tuple, UpdateEstimate};

use crate::filter::{Filter, FilterItem};

/// How far ahead of the batch cursor the sketch is kept primed, in tuples.
/// Each refill prefetches up to `2 × PRIME_CHUNK` upcoming keys so refills
/// happen every `PRIME_CHUNK` tuples, not every tuple.
const PRIME_CHUNK: usize = 16;

/// Running counters describing how the stream split between filter and
/// sketch; the raw material for the paper's Figures 9 and 17.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsketchStats {
    /// Tuples absorbed by the filter (hits plus free-slot inserts).
    pub filter_updates: u64,
    /// Tuples forwarded to the sketch (Algorithm 1, line 8).
    pub sketch_updates: u64,
    /// Filter⇄sketch exchanges performed (lines 9–17).
    pub exchanges: u64,
    /// Aggregated count absorbed by the filter (`N₁`).
    pub filter_mass: i64,
    /// Aggregated count forwarded to the sketch (`N₂`).
    pub sketch_mass: i64,
    /// Negative-count updates processed (Appendix A).
    pub deletions: u64,
}

impl AsketchStats {
    /// Achieved filter selectivity `N₂ / N` (paper §4). `None` before any
    /// update.
    pub fn filter_selectivity(&self) -> Option<f64> {
        let n = self.filter_mass + self.sketch_mass;
        (n > 0).then(|| self.sketch_mass as f64 / n as f64)
    }
}

/// Augmented Sketch: a [`Filter`] in front of any [`UpdateEstimate`] sketch.
///
/// Generic over both components; the evaluation harness instantiates it
/// with each of the four filters and with Count-Min / FCM / Count Sketch
/// back-ends. Use [`crate::AsketchBuilder`] for budget-based construction.
///
/// # Example
///
/// ```
/// use asketch::{ASketch, filter::RelaxedHeapFilter};
/// use sketches::{CountMin, FrequencyEstimator};
///
/// let filter = RelaxedHeapFilter::new(32);
/// let sketch = CountMin::new(42, 8, 2048).unwrap();
/// let mut ask = ASketch::new(filter, sketch);
/// for _ in 0..1_000 {
///     ask.insert(7); // heavy item: aggregates exactly in the filter
/// }
/// assert_eq!(ask.estimate(7), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ASketch<F, S> {
    filter: F,
    sketch: S,
    stats: AsketchStats,
}

impl<F: Filter, S: UpdateEstimate> ASketch<F, S> {
    /// Combine a filter and a sketch into an ASketch.
    pub fn new(filter: F, sketch: S) -> Self {
        Self {
            filter,
            sketch,
            stats: AsketchStats::default(),
        }
    }

    /// Algorithm 1: insert tuple `(key, u)` with `u > 0`.
    ///
    /// Negative `u` is routed to [`Self::delete`]; `u == 0` is a no-op.
    pub fn update(&mut self, key: u64, u: i64) {
        if u <= 0 {
            if u < 0 {
                self.delete(key, u.checked_neg().unwrap_or(i64::MAX));
            }
            return;
        }
        // Lines 1–3: filter hit — early aggregation, nothing else to do.
        if self.filter.update_existing(key, u).is_some() {
            self.stats.filter_updates += 1;
            self.stats.filter_mass += u;
            return;
        }
        // Lines 4–6: free slot — start monitoring with exact pending count.
        if !self.filter.is_full() {
            self.filter.insert(key, u, 0);
            self.stats.filter_updates += 1;
            self.stats.filter_mass += u;
            return;
        }
        // Line 8: overflow into the sketch.
        let est = self.sketch.update_and_estimate(key, u);
        self.stats.sketch_updates += 1;
        self.stats.sketch_mass += u;
        // Lines 9–17: at most ONE exchange. The estimate is an
        // over-estimate, so promoting on `est > min` keeps the one-sided
        // guarantee; cascading exchanges would only import hash-collision
        // noise into the filter (paper §5, "Exchange Policy").
        let min = self.filter.min_count().expect("full filter is non-empty");
        if est > min {
            self.exchange(key, est);
        }
    }

    /// Lines 10–17 of Algorithm 1: demote the filter's minimum item
    /// (writing back only its pending mass) and promote `key` at estimate
    /// `est`. Caller has already established `est > min_count()`.
    fn exchange(&mut self, key: u64, est: i64) {
        let FilterItem {
            key: evicted,
            new_count,
            old_count,
        } = self.filter.evict_min().expect("full filter is non-empty");
        let pending = new_count - old_count;
        if pending > 0 {
            // Only the mass accumulated *while in the filter* returns to
            // the sketch; old_count is already in there (Example 2).
            self.sketch.update(evicted, pending);
        }
        self.filter.insert(key, est, est);
        self.stats.exchanges += 1;
    }

    /// Batched Algorithm 1: ingest `tuples` with semantics *bit-identical*
    /// to calling [`Self::update`] on each tuple in order — same estimates,
    /// same [`AsketchStats`], same exchange count.
    ///
    /// The speedup comes from two sources that never change the outcome:
    ///
    /// * **Run batching** — consecutive tuples that miss the full filter
    ///   form a *run*. While a run is being forwarded the filter is
    ///   untouched, so its membership and `min_count()` are loop
    ///   invariants: the min is read once and the per-tuple filter probe is
    ///   skipped. The first exchange ends the run (the promotion changes
    ///   both membership and the min), and processing resumes tuple-at-a-
    ///   time from the next tuple — preserving the at-most-one-exchange-
    ///   per-overflow policy exactly.
    /// * **Prefetch pipelining** — each run's sketch rows are primed
    ///   `PRIME_CHUNK` keys ahead of the update loop, overlapping their
    ///   DRAM latency. Only miss-run keys are primed: filter-hit tuples
    ///   never touch the sketch, so prefetching for them would be wasted
    ///   bandwidth (and at high skew, hits dominate).
    pub fn update_batch(&mut self, tuples: &[Tuple]) {
        let mut i = 0usize;
        while i < tuples.len() {
            let (key, u) = tuples[i];
            if u <= 0 {
                if u < 0 {
                    self.delete(key, u.checked_neg().unwrap_or(i64::MAX));
                }
                i += 1;
                continue;
            }
            if self.filter.update_existing(key, u).is_some() {
                self.stats.filter_updates += 1;
                self.stats.filter_mass += u;
                i += 1;
                continue;
            }
            if !self.filter.is_full() {
                self.filter.insert(key, u, 0);
                self.stats.filter_updates += 1;
                self.stats.filter_mass += u;
                i += 1;
                continue;
            }
            // Gather the maximal overflow run [i, run_end): positive tuples
            // that miss the filter. Valid because the filter is not mutated
            // until the run is flushed below.
            let mut run_end = i + 1;
            while run_end < tuples.len() {
                let (k, u) = tuples[run_end];
                if u <= 0 || self.filter.query(k).is_some() {
                    break;
                }
                run_end += 1;
            }
            // Flush: min_count is constant until the first exchange. Only
            // the run's keys are primed (chunk by chunk, just ahead of the
            // update loop): filter-hit tuples never touch the sketch, so
            // prefetching their rows would be pure wasted bandwidth — and
            // at high skew hits are the overwhelming majority.
            let min = self.filter.min_count().expect("full filter is non-empty");
            let mut next = run_end;
            let mut primed_until = i;
            for j in i..run_end {
                if j >= primed_until {
                    primed_until = (j + PRIME_CHUNK).min(run_end);
                    self.prime_run(&tuples[j..primed_until]);
                }
                let (k, u) = tuples[j];
                let est = self.sketch.update_and_estimate(k, u);
                self.stats.sketch_updates += 1;
                self.stats.sketch_mass += u;
                if est > min {
                    self.exchange(k, est);
                    // The promotion invalidated the run's classification
                    // (membership and min changed): reprocess the remainder
                    // of the run through the main loop.
                    next = j + 1;
                    break;
                }
            }
            i = next;
        }
    }

    /// Batched Algorithm 2: point queries for every key, in order.
    /// Filter hits answer from the (cache-resident) filter; misses are
    /// forwarded to the sketch's batched estimator in one pass.
    pub fn estimate_batch(&self, keys: &[u64]) -> Vec<i64> {
        let mut out = vec![0i64; keys.len()];
        let mut miss_keys = Vec::new();
        let mut miss_pos = Vec::new();
        for (pos, &key) in keys.iter().enumerate() {
            match self.filter.query(key) {
                Some(count) => out[pos] = count,
                None => {
                    miss_keys.push(key);
                    miss_pos.push(pos);
                }
            }
        }
        for (&pos, est) in miss_pos.iter().zip(self.sketch.estimate_batch(&miss_keys)) {
            out[pos] = est;
        }
        out
    }

    /// Prime the sketch's rows for one chunk of a miss-run. Keys are staged
    /// through a stack buffer; purely advisory (prefetch only).
    fn prime_run(&self, tuples: &[Tuple]) {
        let mut keys = [0u64; PRIME_CHUNK];
        let n = tuples.len().min(PRIME_CHUNK);
        for (slot, &(key, _)) in keys.iter_mut().zip(tuples) {
            *slot = key;
        }
        self.sketch.prime(&keys[..n]);
    }

    /// Algorithm 2: point frequency query.
    #[inline]
    pub fn estimate(&self, key: u64) -> i64 {
        match self.filter.query(key) {
            Some(count) => count,
            None => self.sketch.estimate(key),
        }
    }

    /// Convenience: `update(key, 1)`.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        self.update(key, 1);
    }

    /// Appendix A: process a deletion of `amount` occurrences of `key`.
    ///
    /// * Key not in the filter → subtract directly from the sketch.
    /// * Key in the filter with enough pending mass → absorb in the filter.
    /// * Otherwise split: the filter's pending mass absorbs what it can and
    ///   the remainder is subtracted from both `old_count` and the sketch.
    ///
    /// `amount <= 0` is a no-op (matching the parallel runtimes, which
    /// treat zero-amount deletes as no-ops rather than panicking). The
    /// deleted mass is accounted against the component that absorbed it,
    /// keeping [`AsketchStats::filter_selectivity`] truthful on turnstile
    /// streams.
    ///
    /// No exchange is initiated on the deletion path (the paper defers any
    /// rebalancing to subsequent positive updates).
    pub fn delete(&mut self, key: u64, amount: i64) {
        if amount <= 0 {
            return;
        }
        self.stats.deletions += 1;
        match self.filter.subtract(key, amount) {
            None => {
                self.sketch.update(key, -amount);
                self.stats.sketch_mass -= amount;
            }
            Some(0) => {
                self.stats.filter_mass -= amount;
            }
            Some(spill) => {
                // The filter's pending mass absorbed `amount - spill`; the
                // spill came out of mass that had reached the sketch.
                self.stats.filter_mass -= amount - spill;
                self.stats.sketch_mass -= spill;
            }
        }
    }

    /// Top-k frequent items (paper §7.2.2): for strict streams the filter's
    /// content *is* the top-|F| candidate set; `k` is capped by the filter
    /// capacity. Returned heaviest-first.
    pub fn top_k(&self, k: usize) -> Vec<(u64, i64)> {
        let mut items: Vec<(u64, i64)> = self
            .filter
            .items()
            .into_iter()
            .map(|it| (it.key, it.new_count))
            .collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(k);
        items
    }

    /// Exchange/selectivity statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> AsketchStats {
        self.stats
    }

    /// The filter component.
    #[inline]
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Export the filter's monitored items into a caller-owned buffer
    /// without allocating (after `out` reaches the filter capacity).
    ///
    /// This is the snapshot hook the concurrent runtime's seqlock publish
    /// uses: the worker re-exports the filter every few thousand ops, so
    /// the export must not churn the allocator on the hot path.
    #[inline]
    pub fn snapshot_filter_into(&self, out: &mut Vec<FilterItem>) {
        self.filter.copy_items_into(out);
    }

    /// Total counting ops absorbed so far (filter + sketch + deletions) —
    /// the op clock the concurrent runtime stamps snapshot epochs with.
    #[inline]
    pub fn ops_applied(&self) -> u64 {
        self.stats.filter_updates + self.stats.sketch_updates + self.stats.deletions
    }

    /// The sketch component.
    #[inline]
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// Total bytes of the synopsis (filter + sketch) — the quantity held
    /// constant across methods in every comparison.
    pub fn size_bytes(&self) -> usize {
        self.filter.size_bytes() + self.sketch.size_bytes()
    }

    /// Reassemble an ASketch from previously split components.
    ///
    /// This is the restore half of the snapshot API used by supervised
    /// runtimes: `asketch-parallel` recovers a `(filter, sketch)` pair from
    /// a failed or finished pipeline and rebuilds a queryable sequential
    /// summary from it. `stats` may be `AsketchStats::default()` when the
    /// counter history is not worth carrying over.
    pub fn from_parts(filter: F, sketch: S, stats: AsketchStats) -> Self {
        Self {
            filter,
            sketch,
            stats,
        }
    }

    /// Split the summary into `(filter, sketch, stats)` without flattening.
    ///
    /// The exact inverse of [`Self::from_parts`]: unlike
    /// [`Self::into_sketch`], no pending mass is pushed down, so the parts
    /// can seed another runtime (for example a `PipelineASketch`) and later
    /// be reassembled with estimates unchanged.
    pub fn into_parts(self) -> (F, S, AsketchStats) {
        (self.filter, self.sketch, self.stats)
    }

    /// Flatten the summary into its underlying sketch: every filter item's
    /// *pending* mass (`new_count − old_count`) is written into the sketch
    /// and the filter is cleared.
    ///
    /// Useful for shipping a summary across machines or merging SPMD
    /// kernels with [`sketches::Mergeable`]: after flattening, the sketch
    /// alone carries the full one-sided estimate for every key.
    pub fn into_sketch(mut self) -> S {
        for item in self.filter.items() {
            let pending = item.pending();
            if pending > 0 {
                self.sketch.update(item.key, pending);
            }
        }
        self.sketch
    }
}

impl<F: Filter, S: UpdateEstimate> FrequencyEstimator for ASketch<F, S> {
    fn update(&mut self, key: u64, delta: i64) {
        ASketch::update(self, key, delta);
    }

    fn estimate(&self, key: u64) -> i64 {
        ASketch::estimate(self, key)
    }

    fn size_bytes(&self) -> usize {
        ASketch::size_bytes(self)
    }

    fn update_batch(&mut self, tuples: &[Tuple]) {
        ASketch::update_batch(self, tuples);
    }

    fn estimate_batch(&self, keys: &[u64]) -> Vec<i64> {
        ASketch::estimate_batch(self, keys)
    }

    fn prime(&self, keys: &[u64]) {
        // The filter is cache-resident by design; only the sketch's rows
        // benefit from priming.
        self.sketch.prime(keys);
    }
}

/// The default update-then-estimate path. Makes `ASketch` itself
/// [`sketches::traits::Supervisable`] (when its components are `Clone`),
/// so a *whole kernel* — filter and sketch — can run under the supervised
/// parallel runtimes' checkpoint + journal machinery.
impl<F: Filter, S: UpdateEstimate> UpdateEstimate for ASketch<F, S> {}

impl<F: Filter, S: UpdateEstimate> TopK for ASketch<F, S> {
    fn top_k(&self, k: usize) -> Vec<(u64, i64)> {
        ASketch::top_k(self, k)
    }
}

/// Payload tag for persisted ASketch state (`"ASKC"`).
const PERSIST_TAG: u32 = u32::from_le_bytes(*b"ASKC");

impl<F, S> Persist for ASketch<F, S>
where
    F: Filter + Persist,
    S: UpdateEstimate + Persist,
{
    /// Layout: tag, the six [`AsketchStats`] counters, the filter state
    /// (every `new_count`/`old_count` pair, so exchange semantics resume
    /// exactly), then the sketch state.
    fn write_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, PERSIST_TAG);
        persist::put_u64(out, self.stats.filter_updates);
        persist::put_u64(out, self.stats.sketch_updates);
        persist::put_u64(out, self.stats.exchanges);
        persist::put_i64(out, self.stats.filter_mass);
        persist::put_i64(out, self.stats.sketch_mass);
        persist::put_u64(out, self.stats.deletions);
        self.filter.write_state(out);
        self.sketch.write_state(out);
    }

    fn read_state(r: &mut persist::ByteReader<'_>) -> Result<Self, PersistError> {
        persist::expect_tag(r, PERSIST_TAG, "ASketch")?;
        let stats = AsketchStats {
            filter_updates: r.u64("stats filter_updates")?,
            sketch_updates: r.u64("stats sketch_updates")?,
            exchanges: r.u64("stats exchanges")?,
            filter_mass: r.i64("stats filter_mass")?,
            sketch_mass: r.i64("stats sketch_mass")?,
            deletions: r.u64("stats deletions")?,
        };
        let filter = F::read_state(r)?;
        let sketch = S::read_state(r)?;
        Ok(Self::from_parts(filter, sketch, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{FilterKind, RelaxedHeapFilter, VectorFilter};
    use sketches::CountMin;

    fn small() -> ASketch<RelaxedHeapFilter, CountMin> {
        ASketch::new(RelaxedHeapFilter::new(4), CountMin::new(1, 4, 64).unwrap())
    }

    #[test]
    fn filter_absorbs_until_full() {
        let mut a = small();
        for key in 0..4u64 {
            a.insert(key);
        }
        let s = a.stats();
        assert_eq!(s.filter_updates, 4);
        assert_eq!(s.sketch_updates, 0);
        assert_eq!(a.estimate(0), 1);
    }

    #[test]
    fn parts_round_trip_preserves_estimates() {
        let mut a = small();
        for i in 0..200u64 {
            a.insert(i % 7);
        }
        let expected: Vec<i64> = (0..7u64).map(|k| a.estimate(k)).collect();
        let stats_before = a.stats();
        let (filter, sketch, stats) = a.into_parts();
        let b = ASketch::from_parts(filter, sketch, stats);
        for k in 0..7u64 {
            assert_eq!(b.estimate(k), expected[k as usize]);
        }
        assert_eq!(b.stats(), stats_before);
    }

    #[test]
    fn heavy_item_counted_exactly() {
        let mut a = small();
        // Fill the filter, then hammer one key.
        for key in 0..4u64 {
            a.insert(key);
        }
        for _ in 0..10_000 {
            a.insert(2);
        }
        assert_eq!(a.estimate(2), 10_001, "filter-resident count is exact");
        assert_eq!(a.stats().sketch_updates, 0);
    }

    #[test]
    fn exchange_promotes_heavy_overflow() {
        let mut a = small();
        for key in 0..4u64 {
            a.insert(key); // filter = {0,1,2,3} each count 1
        }
        // Key 100 overflows into the sketch; its estimate (>=2 after two
        // inserts) exceeds the filter minimum (1), triggering a promotion.
        a.insert(100);
        a.insert(100);
        assert!(a.stats().exchanges >= 1);
        assert!(a.filter().query(100).is_some(), "heavy key promoted");
        assert!(a.estimate(100) >= 2);
    }

    #[test]
    fn exchange_writes_back_only_pending_mass() {
        // Reproduces the paper's Example 2 flow: the demoted item's
        // old_count must NOT be re-added to the sketch.
        let mut a = ASketch::new(VectorFilter::new(1), CountMin::new(3, 2, 1 << 12).unwrap());
        a.insert(7); // filter: (7, new=1, old=0)
        for _ in 0..5 {
            a.insert(9); // overflows; eventually promotes 9, demotes 7
        }
        // After churn: whatever resides where, estimates stay one-sided and
        // key 7's count is not double-added.
        assert!(a.estimate(7) >= 1);
        assert!(a.estimate(9) >= 5);
        // The sketch alone holds at most the true total mass of both keys
        // (no double counting): row sums equal total forwarded mass.
        let total: i64 = a.sketch().row_sum(0);
        assert!(total <= 6, "sketch holds {total}, double-count suspected");
    }

    #[test]
    fn at_most_one_exchange_per_overflow() {
        let mut a = small();
        for key in 0..4u64 {
            a.insert(key);
        }
        let before = a.stats().exchanges;
        a.insert(50);
        a.insert(50);
        a.insert(50);
        let after = a.stats().exchanges;
        assert!(
            after - before <= 3,
            "each insert may trigger at most one exchange"
        );
    }

    #[test]
    fn one_sided_guarantee_under_churn() {
        let mut a = ASketch::new(RelaxedHeapFilter::new(8), CountMin::new(5, 4, 128).unwrap());
        let mut truth = std::collections::HashMap::new();
        let mut x = 44u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Zipf-ish mix: a few heavy keys plus a long tail.
            let key = match x % 10 {
                0..=3 => x % 4,
                _ => 100 + x % 2_000,
            };
            a.insert(key);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (&key, &t) in &truth {
            assert!(
                a.estimate(key) >= t,
                "under-count for key {key}: est {} < true {t}",
                a.estimate(key)
            );
        }
    }

    #[test]
    fn lemma1_sketch_insertions_bounded_by_true_count() {
        // Lemma 1: a key appearing t times is inserted into the sketch at
        // most t times (counting mass, including exchange write-backs).
        let mut a = small();
        let t = 1_000;
        for i in 0..t {
            a.insert(5);
            a.insert(1_000 + (i % 7)); // churn to force exchanges
        }
        // Key 5's total mass across filter and sketch cannot exceed t plus
        // collision over-estimation; the *sketch row sums* bound the total
        // inserted mass, which must be <= total stream mass.
        let total_inserted = a.sketch().row_sum(0);
        assert!(total_inserted <= 2 * t as i64);
    }

    #[test]
    fn deletion_paths() {
        let mut a = small();
        // Path 1: key in filter with enough pending mass.
        for _ in 0..10 {
            a.insert(1);
        }
        a.delete(1, 4);
        assert_eq!(a.estimate(1), 6);
        // Path 2: key not in filter -> direct sketch subtraction.
        for key in 0..4u64 {
            if key != 1 {
                a.insert(key);
            }
        }
        for _ in 0..5 {
            a.insert(77); // goes to sketch (filter full of heavier items)
        }
        let before = a.estimate(77);
        a.update(77, -2); // negative update routes through delete()
        assert_eq!(a.estimate(77), before - 2);
        assert_eq!(a.stats().deletions, 2);
    }

    #[test]
    fn deletion_spill_keeps_one_sidedness() {
        let mut a = ASketch::new(VectorFilter::new(1), CountMin::new(2, 3, 1 << 10).unwrap());
        // Build a filter item with old_count > 0 via an exchange.
        a.insert(1);
        a.insert(2);
        a.insert(2); // 2 promoted with old=new=est
        let in_filter = a.filter().query(2).is_some();
        assert!(in_filter);
        // Delete more than the pending mass; the spill must reach the sketch.
        a.insert(2); // pending = 1
        a.delete(2, 2); // pending 1 absorbs 1, spill 1 -> sketch
                        // True count: 3 inserts - 2 deletions = 1; the estimate must cover it.
        assert!(a.estimate(2) >= 1);
    }

    #[test]
    fn top_k_reports_filter_content() {
        let mut a = small();
        for (key, n) in [(1u64, 50), (2, 30), (3, 20), (4, 10)] {
            for _ in 0..n {
                a.insert(key);
            }
        }
        let top = a.top_k(2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        assert!(a.top_k(100).len() <= 4, "bounded by filter capacity");
    }

    #[test]
    fn selectivity_statistic() {
        let mut a = small();
        assert_eq!(a.stats().filter_selectivity(), None);
        for key in 0..4u64 {
            a.insert(key);
        }
        assert_eq!(a.stats().filter_selectivity(), Some(0.0));
        for i in 0..4 {
            a.insert(100 + i); // all overflow
        }
        let sel = a.stats().filter_selectivity().unwrap();
        assert!(sel > 0.0 && sel <= 0.5);
    }

    #[test]
    fn works_with_boxed_filters() {
        for kind in FilterKind::ALL {
            let mut a = ASketch::new(kind.build(8), CountMin::new(3, 4, 256).unwrap());
            for i in 0..1_000u64 {
                a.insert(i % 20);
            }
            for key in 0..20u64 {
                assert!(a.estimate(key) >= 50, "{}: key {key}", kind.name());
            }
        }
    }

    #[test]
    fn zero_or_negative_deletion_is_noop() {
        // Matches the parallel runtimes (PR 1): zero-amount deletes are
        // no-ops, not panics, and must not count as deletions.
        let mut a = small();
        for _ in 0..5 {
            a.insert(3);
        }
        let before = a.stats();
        a.delete(3, 0);
        a.delete(3, -7);
        assert_eq!(a.stats(), before);
        assert_eq!(a.estimate(3), 5);
    }

    #[test]
    fn deletions_update_selectivity_masses() {
        let mut a = small();
        for _ in 0..10 {
            a.insert(1); // filter_mass = 10
        }
        // Deletion absorbed entirely by the filter's pending mass.
        a.delete(1, 4);
        assert_eq!(a.stats().filter_mass, 6);
        assert_eq!(a.stats().sketch_mass, 0);
        for key in 2..5u64 {
            a.insert(key); // filter now full; filter_mass = 9
        }
        for key in 100..105u64 {
            a.insert(key); // 5 distinct light keys overflow to the sketch
        }
        assert_eq!(a.stats().sketch_mass, 5);
        // Deletion of a sketch-resident key comes out of sketch_mass.
        a.delete(100, 1);
        let s = a.stats();
        assert_eq!(s.sketch_mass, 4);
        assert_eq!(s.filter_mass, 9);
        assert_eq!(s.filter_selectivity(), Some(4.0 / 13.0));
        // Split deletion: pending (6) absorbs what it can, the spill (4)
        // is charged to the sketch side.
        a.delete(1, 10);
        let s = a.stats();
        assert_eq!(s.filter_mass, 3);
        assert_eq!(s.sketch_mass, 0);
    }

    #[test]
    fn update_batch_matches_scalar_with_mixed_deltas() {
        for kind in FilterKind::ALL {
            let mut batched = ASketch::new(kind.build(4), CountMin::new(1, 4, 64).unwrap());
            let mut scalar = ASketch::new(kind.build(4), CountMin::new(1, 4, 64).unwrap());
            let mut x = 7u64;
            let tuples: Vec<(u64, i64)> = (0..3000)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = if i % 3 == 0 { x % 4 } else { x % 64 };
                    let delta = match i % 13 {
                        0 => -2,
                        7 => 0,
                        _ => (x % 3) as i64 + 1,
                    };
                    (key, delta)
                })
                .collect();
            batched.update_batch(&tuples);
            for &(k, u) in &tuples {
                scalar.update(k, u);
            }
            assert_eq!(batched.stats(), scalar.stats(), "{}", kind.name());
            for key in 0..64u64 {
                assert_eq!(
                    batched.estimate(key),
                    scalar.estimate(key),
                    "{}: key {key}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn snapshot_filter_into_matches_items() {
        for kind in FilterKind::ALL {
            let mut a = ASketch::new(kind.build(8), CountMin::new(3, 4, 256).unwrap());
            for i in 0..2_000u64 {
                a.insert(i % 40);
            }
            let mut snap = Vec::new();
            a.snapshot_filter_into(&mut snap);
            let mut items = a.filter().items();
            snap.sort_by_key(|it| it.key);
            items.sort_by_key(|it| it.key);
            assert_eq!(snap, items, "{}", kind.name());
            // Reuse without allocation churn: refill into the same buffer.
            a.insert(7);
            a.snapshot_filter_into(&mut snap);
            assert_eq!(snap.len(), a.filter().len());
            assert_eq!(a.ops_applied(), 2_001);
        }
    }

    #[test]
    fn estimate_batch_matches_pointwise() {
        let mut a = small();
        for i in 0..500u64 {
            a.insert(i % 40);
        }
        let keys: Vec<u64> = (0..60).collect();
        let batch = a.estimate_batch(&keys);
        let point: Vec<i64> = keys.iter().map(|&k| a.estimate(k)).collect();
        assert_eq!(batch, point);
    }
}
