//! Frequency-Aware Counting (FCM) — Thomas, Bordawekar, Aggarwal & Yu,
//! "On Efficient Query Processing of Stream Counts on the Cell Processor",
//! ICDE 2009. (Reference \[34\] of the ASketch paper.)
//!
//! FCM keeps the Count-Min `w × h` table but hashes each item into only a
//! *subset* of the `w` rows. Two auxiliary pairwise-independent hash
//! functions map the key to an `offset` and a `gap`; the item's rows are
//! `offset, offset+gap, offset+2·gap, … (mod w)`. High-frequency items —
//! detected online by a Misra–Gries counter — use fewer rows (`w/2`) than
//! low-frequency items (`⌈4w/5⌉`), reducing the collision damage heavy items
//! inflict on light ones.
//!
//! The ASketch paper evaluates two configurations, both supported here:
//!
//! * the original FCM with an MG counter sized like the ASketch filter
//!   ([`Fcm::new`] with `mg_capacity = Some(..)`), and
//! * the "modified FCM" used *inside* ASketch-FCM, which drops the MG
//!   counter entirely (`mg_capacity = None`) because the ASketch filter
//!   already separates the heavy items (paper §7.3).
//!
//! Caveat (inherited from FCM itself): an item that changes classification
//! mid-stream has touched different row subsets over time, so the min over
//! its *current* subset can in principle under-count. High-set rows are a
//! prefix of low-set rows under this row-selection rule, which confines the
//! effect to items that were classified high and later fell out of the MG
//! counter — rare for genuinely light items.

use crate::cell::Cell;
use crate::count_min::LOOKAHEAD;
use crate::hash::{HashBank, PairwiseHash, SplitMix64};
use crate::lookup::prefetch_read;
use crate::misra_gries::MisraGries;
use crate::persist::{self, Persist, PersistError};
use crate::traits::{FrequencyEstimator, Mergeable, Tuple, UpdateEstimate};
use crate::view::{AtomicCells, SharedView};
use crate::SketchError;

/// FCM with 64-bit cells (workspace default).
pub type Fcm = FcmG<i64>;

/// FCM with 32-bit cells (the paper's layout; saturating).
pub type Fcm32 = FcmG<i32>;

/// Frequency-Aware Counting sketch, generic over its counter-cell width.
#[derive(Debug, Clone)]
pub struct FcmG<C: Cell = i64> {
    hashes: HashBank,
    /// Maps a key to the first row index.
    offset_hash: PairwiseHash,
    /// Maps a key to the row stride (adjusted to be coprime with `w`).
    gap_hash: PairwiseHash,
    table: Vec<C>,
    h: usize,
    /// Rows used for items classified high-frequency.
    rows_high: usize,
    /// Rows used for items classified low-frequency.
    rows_low: usize,
    /// Online heavy-item detector; `None` for the ASketch-FCM variant.
    mg: Option<MisraGries>,
    /// Seed every hash structure was derived from (needed to persist and
    /// to validate merges).
    seed: u64,
}

/// Greatest common divisor, used to force the row stride coprime with `w`.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl<C: Cell> FcmG<C> {
    /// Create an FCM sketch with `depth` rows of `width` cells.
    ///
    /// `mg_capacity = Some(c)` attaches a Misra–Gries detector monitoring
    /// `c` items (its space is *included* in [`FrequencyEstimator::size_bytes`]);
    /// `None` treats every item as low-frequency (ASketch-FCM variant).
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidDimensions`] for zero dimensions or an
    /// MG capacity of zero.
    pub fn new(
        seed: u64,
        depth: usize,
        width: usize,
        mg_capacity: Option<usize>,
    ) -> Result<Self, SketchError> {
        if depth == 0 || width == 0 {
            return Err(SketchError::InvalidDimensions {
                what: format!("depth={depth}, width={width}"),
            });
        }
        let mut rng = SplitMix64::new(seed ^ 0xFC0F_FC0F_FC0F_FC0F);
        let offset_hash = PairwiseHash::from_rng(&mut rng, depth);
        // Gap drawn from [0, depth); adjusted per key to the next value
        // coprime with depth (see `rows_of`).
        let gap_hash = PairwiseHash::from_rng(&mut rng, depth.max(2));
        // Row counts per the paper: w/2 for high-frequency, 4w/5 for
        // low-frequency items, both at least 1.
        let rows_high = (depth / 2).max(1);
        let rows_low = (4 * depth).div_ceil(5).max(rows_high);
        let mg = match mg_capacity {
            Some(c) => Some(MisraGries::new(c)?),
            None => None,
        };
        Ok(Self {
            hashes: HashBank::new(seed, depth, width),
            offset_hash,
            gap_hash,
            table: vec![C::default(); depth * width],
            h: width,
            rows_high,
            rows_low,
            mg,
            seed,
        })
    }

    /// Create an FCM fitting within `budget_bytes`, *including* the MG
    /// counter's space so comparisons against other methods are fair
    /// (paper Table 1 allocates the same total space to every method).
    ///
    /// # Errors
    /// Returns an error when the budget cannot hold the MG counter plus one
    /// cell per row.
    pub fn with_byte_budget(
        seed: u64,
        depth: usize,
        budget_bytes: usize,
        mg_capacity: Option<usize>,
    ) -> Result<Self, SketchError> {
        let mg_bytes = mg_capacity.map_or(0, |c| c * 16);
        let remaining = budget_bytes
            .checked_sub(mg_bytes)
            .ok_or(SketchError::BudgetTooSmall {
                needed: mg_bytes + depth * C::BYTES,
                available: budget_bytes,
            })?;
        let width = remaining / (depth * C::BYTES);
        if width == 0 {
            return Err(SketchError::BudgetTooSmall {
                needed: mg_bytes + depth * C::BYTES,
                available: budget_bytes,
            });
        }
        Self::new(seed, depth, width, mg_capacity)
    }

    /// Number of rows (`w`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.hashes.width()
    }

    /// Row length (`h`).
    #[inline]
    pub fn width(&self) -> usize {
        self.h
    }

    /// Rows used for high-frequency items.
    #[inline]
    pub fn rows_high(&self) -> usize {
        self.rows_high
    }

    /// Rows used for low-frequency items.
    #[inline]
    pub fn rows_low(&self) -> usize {
        self.rows_low
    }

    /// The seed this sketch was built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `key` is currently classified as high-frequency.
    #[inline]
    pub fn is_high_frequency(&self, key: u64) -> bool {
        self.mg.as_ref().is_some_and(|mg| mg.contains(key))
    }

    /// The per-key row-selection parameters: start row and stride
    /// (adjusted to be coprime with `w` so strides visit distinct rows).
    #[inline]
    fn offset_gap(&self, key: u64) -> (usize, usize) {
        let w = self.depth();
        let offset = self.offset_hash.hash(key);
        let mut gap = 1 + self.gap_hash.hash(key) % (w.max(2) - 1).max(1);
        while gcd(gap, w) != 1 {
            gap += 1;
        }
        (offset, gap)
    }

    /// The row indices `key` maps to when touching `r` rows.
    /// (Hot paths inline the equivalent loop; kept for white-box tests.)
    #[cfg(test)]
    fn rows_of(&self, key: u64, r: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.depth();
        let (offset, gap) = self.offset_gap(key);
        (0..r).map(move |i| (offset + i * gap) % w)
    }

    /// Prefetch the cells of `key`'s *low-frequency* row set — a superset
    /// of the high-frequency set (high rows are a prefix of low rows), so
    /// the hint is right regardless of how the MG counter will classify the
    /// key when the update lands.
    #[inline]
    fn prefetch_rows(&self, key: u64) {
        let w = self.depth();
        let (offset, gap) = self.offset_gap(key);
        for i in 0..self.rows_low {
            let row = (offset + i * gap) % w;
            prefetch_read(&self.table[row * self.h + self.hashes.hash(row, key)]);
        }
    }

    fn estimate_over(&self, key: u64, r: usize) -> i64 {
        let w = self.depth();
        let (offset, gap) = self.offset_gap(key);
        let mut est = i64::MAX;
        for i in 0..r {
            let row = (offset + i * gap) % w;
            let v = self.table[row * self.h + self.hashes.hash(row, key)].to_i64();
            if v < est {
                est = v;
            }
        }
        est
    }
}

impl<C: Cell> FrequencyEstimator for FcmG<C> {
    fn update(&mut self, key: u64, delta: i64) {
        // Classify first (the MG counter observes every arrival), then hash
        // into the classification's row subset.
        let high = if let Some(mg) = self.mg.as_mut() {
            if delta > 0 {
                mg.observe(key)
            } else {
                mg.contains(key)
            }
        } else {
            false
        };
        let r = if high { self.rows_high } else { self.rows_low };
        let w = self.depth();
        let (offset, gap) = self.offset_gap(key);
        for i in 0..r {
            let row = (offset + i * gap) % w;
            let idx = row * self.h + self.hashes.hash(row, key);
            self.table[idx] = self.table[idx].saturating_add_i64(delta);
        }
    }

    fn estimate(&self, key: u64) -> i64 {
        let r = if self.is_high_frequency(key) {
            self.rows_high
        } else {
            self.rows_low
        };
        self.estimate_over(key, r)
    }

    fn size_bytes(&self) -> usize {
        self.table.len() * C::BYTES + self.mg.as_ref().map_or(0, |mg| mg.size_bytes())
    }

    /// Batched ingest: tuples are applied strictly in order (the MG
    /// classifier's state is order-sensitive), but each tuple's candidate
    /// cells are prefetched `LOOKAHEAD` tuples ahead, hiding the table
    /// misses behind the classify/hash work of the preceding tuples.
    fn update_batch(&mut self, tuples: &[Tuple]) {
        for &(key, _) in tuples.iter().take(LOOKAHEAD) {
            self.prefetch_rows(key);
        }
        for i in 0..tuples.len() {
            if let Some(&(next_key, _)) = tuples.get(i + LOOKAHEAD) {
                self.prefetch_rows(next_key);
            }
            let (key, delta) = tuples[i];
            self.update(key, delta);
        }
    }

    /// Pull each key's candidate cells into cache. Advisory only.
    #[inline]
    fn prime(&self, keys: &[u64]) {
        for &key in keys {
            self.prefetch_rows(key);
        }
    }
}

/// Published replica of an [`FcmG`]: hash parameters, an atomic copy of
/// the counter table, and a snapshot of the Misra–Gries high-frequency key
/// set (empty for the ASketch-FCM variant, which has no MG detector).
///
/// The high-key snapshot is republished wholesale on every
/// [`SharedView::store_view`]; a reader racing a publish may transiently
/// classify a key with the previous epoch's row subset — the same
/// classification-drift caveat FCM itself carries (see the module docs).
/// With `mg_capacity = None` (the configuration the concurrent ASketch
/// runtime uses) classification is constant and the replica is exact.
#[derive(Debug)]
pub struct FcmView {
    hashes: HashBank,
    offset_hash: PairwiseHash,
    gap_hash: PairwiseHash,
    h: usize,
    rows_high: usize,
    rows_low: usize,
    cells: AtomicCells,
    /// Snapshot of the MG key set, `u64::MAX`-padded to its capacity.
    high_keys: Box<[std::sync::atomic::AtomicU64]>,
}

impl FcmView {
    #[inline]
    fn is_high(&self, key: u64) -> bool {
        self.high_keys
            .iter()
            .any(|k| k.load(std::sync::atomic::Ordering::Relaxed) == key)
    }
}

impl<C: Cell> SharedView for FcmG<C> {
    type View = FcmView;

    fn new_view(&self) -> FcmView {
        let cap = self.mg.as_ref().map_or(0, |mg| mg.capacity());
        let high_keys: Vec<std::sync::atomic::AtomicU64> = (0..cap)
            .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
            .collect();
        let view = FcmView {
            hashes: self.hashes.clone(),
            offset_hash: self.offset_hash,
            gap_hash: self.gap_hash,
            h: self.h,
            rows_high: self.rows_high,
            rows_low: self.rows_low,
            cells: AtomicCells::new(self.table.len()),
            high_keys: high_keys.into_boxed_slice(),
        };
        self.store_view(&view);
        view
    }

    fn store_view(&self, view: &FcmView) {
        debug_assert_eq!(view.cells.len(), self.table.len());
        view.cells.store_all(self.table.iter().map(|c| c.to_i64()));
        if let Some(mg) = self.mg.as_ref() {
            let monitored = mg.items();
            for (slot, entry) in view.high_keys.iter().zip(
                monitored
                    .iter()
                    .map(|&(k, _)| k)
                    .chain(std::iter::repeat(u64::MAX)),
            ) {
                slot.store(entry, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Replicates [`FcmG::estimate`]: classify against the snapshotted MG
    /// key set, then take the min over the classification's row subset.
    fn view_estimate(view: &FcmView, key: u64) -> i64 {
        let w = view.hashes.width();
        let offset = view.offset_hash.hash(key);
        let mut gap = 1 + view.gap_hash.hash(key) % (w.max(2) - 1).max(1);
        while gcd(gap, w) != 1 {
            gap += 1;
        }
        let r = if view.is_high(key) {
            view.rows_high
        } else {
            view.rows_low
        };
        let mut est = i64::MAX;
        for i in 0..r {
            let row = (offset + i * gap) % w;
            let v = view.cells.load(row * view.h + view.hashes.hash(row, key));
            if v < est {
                est = v;
            }
        }
        est
    }
}

impl<C: Cell> UpdateEstimate for FcmG<C> {
    /// Single-pass update+estimate over the key's row subset; matters for
    /// ASketch-FCM, whose overflow path calls this on every forwarded tuple.
    fn update_and_estimate(&mut self, key: u64, delta: i64) -> i64 {
        let high = if let Some(mg) = self.mg.as_mut() {
            if delta > 0 {
                mg.observe(key)
            } else {
                mg.contains(key)
            }
        } else {
            false
        };
        let r = if high { self.rows_high } else { self.rows_low };
        let w = self.depth();
        let (offset, gap) = self.offset_gap(key);
        let mut est = i64::MAX;
        for i in 0..r {
            let row = (offset + i * gap) % w;
            let idx = row * self.h + self.hashes.hash(row, key);
            self.table[idx] = self.table[idx].saturating_add_i64(delta);
            let v = self.table[idx].to_i64();
            if v < est {
                est = v;
            }
        }
        est
    }
}

impl<C: Cell> Mergeable for FcmG<C> {
    /// Merge another FCM's counters into this one.
    ///
    /// Sound only when both sketches share seed and geometry (identical
    /// per-key row subsets) *and* neither carries a Misra–Gries detector:
    /// the MG state is order-sensitive, so there is no merged classifier
    /// that reproduces either input stream's row selection. MG-carrying
    /// sketches are rejected with a typed error instead of silently
    /// corrupting classification.
    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.seed != other.seed || self.h != other.h || self.depth() != other.depth() {
            return Err(SketchError::IncompatibleMerge {
                what: format!(
                    "FCM {}x{} seed {} vs {}x{} seed {}",
                    self.depth(),
                    self.h,
                    self.seed,
                    other.depth(),
                    other.h,
                    other.seed
                ),
            });
        }
        if self.mg.is_some() || other.mg.is_some() {
            return Err(SketchError::IncompatibleMerge {
                what: "FCM with a Misra-Gries detector is not mergeable \
                       (order-sensitive classification)"
                    .into(),
            });
        }
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a = a.saturating_add_i64(b.to_i64());
        }
        Ok(())
    }
}

/// Payload tag for persisted FCM state (`"SKFC"`).
const PERSIST_TAG: u32 = u32::from_le_bytes(*b"SKFC");

impl<C: Cell> Persist for FcmG<C> {
    /// Layout: tag, cell width, `seed`, `depth`, `width`, MG capacity
    /// (0 = no detector), the row-major table widened to `i64`, then the MG
    /// raw slot arrays verbatim. Slot order matters: a new MG key claims
    /// the first free slot, so [`MisraGries::raw_slots`] is persisted
    /// as-is rather than the sorted item view.
    fn write_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, PERSIST_TAG);
        persist::put_u8(out, C::BYTES as u8);
        persist::put_u64(out, self.seed);
        persist::put_u64(out, self.depth() as u64);
        persist::put_u64(out, self.h as u64);
        persist::put_u64(out, self.mg.as_ref().map_or(0, |mg| mg.capacity()) as u64);
        for c in &self.table {
            persist::put_i64(out, c.to_i64());
        }
        if let Some(mg) = self.mg.as_ref() {
            let (ids, counts) = mg.raw_slots();
            for &id in ids {
                persist::put_u64(out, id);
            }
            for &c in counts {
                persist::put_i64(out, c);
            }
        }
    }

    fn read_state(r: &mut persist::ByteReader<'_>) -> Result<Self, PersistError> {
        persist::expect_tag(r, PERSIST_TAG, "FCM")?;
        let cell = r.u8("FCM cell width")?;
        if cell as usize != C::BYTES {
            return Err(PersistError::Corrupt {
                what: format!("FCM cell width {cell} != expected {}", C::BYTES),
            });
        }
        let seed = r.u64("FCM seed")?;
        let depth = r.u64("FCM depth")? as usize;
        let width = r.u64("FCM width")? as usize;
        let mg_cap = r.u64("FCM mg capacity")? as usize;
        let cells = depth
            .checked_mul(width)
            .ok_or_else(|| PersistError::Corrupt {
                what: format!("FCM {depth}x{width} table overflows"),
            })?;
        if cells
            .checked_add(mg_cap.saturating_mul(2))
            .is_none_or(|n| n.checked_mul(8).is_none_or(|b| b > r.remaining()))
        {
            return Err(PersistError::Corrupt {
                what: format!("FCM {depth}x{width} (mg {mg_cap}) state exceeds payload"),
            });
        }
        let mut s = Self::new(seed, depth, width, (mg_cap > 0).then_some(mg_cap))?;
        for c in s.table.iter_mut() {
            *c = C::from_i64_saturating(r.i64("FCM cell")?);
        }
        if mg_cap > 0 {
            let mut ids = Vec::with_capacity(mg_cap);
            for _ in 0..mg_cap {
                ids.push(r.u64("FCM mg id")?);
            }
            let mut counts = Vec::with_capacity(mg_cap);
            for _ in 0..mg_cap {
                counts.push(r.i64("FCM mg count")?);
            }
            s.mg = Some(MisraGries::from_raw_slots(ids, counts)?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trips_and_resumes_identically() {
        // The restored sketch must not only answer identically but also
        // *evolve* identically — MG slot order is part of the state.
        for mg in [None, Some(8)] {
            let mut fcm = Fcm::new(7, 8, 256, mg).unwrap();
            let mut x = 1u64;
            for _ in 0..4_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                fcm.insert(x % 300);
            }
            let mut back = Fcm::from_state_bytes(&fcm.to_state_bytes()).unwrap();
            for key in 0..300u64 {
                assert_eq!(back.estimate(key), fcm.estimate(key), "mg={mg:?} key={key}");
                assert_eq!(back.is_high_frequency(key), fcm.is_high_frequency(key));
            }
            for _ in 0..4_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                fcm.insert(x % 300);
                back.insert(x % 300);
            }
            for key in 0..300u64 {
                assert_eq!(back.estimate(key), fcm.estimate(key), "post-resume {key}");
            }
        }
    }

    #[test]
    fn persist_rejects_32_64_confusion() {
        let fcm = Fcm::new(7, 4, 64, Some(4)).unwrap();
        assert!(matches!(
            Fcm32::from_state_bytes(&fcm.to_state_bytes()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn merge_combines_mg_free_tables() {
        let mut a = Fcm::new(11, 8, 512, None).unwrap();
        let mut b = Fcm::new(11, 8, 512, None).unwrap();
        a.update(5, 3);
        b.update(5, 4);
        b.update(9, 2);
        a.merge(&b).unwrap();
        assert!(a.estimate(5) >= 7);
        assert!(a.estimate(9) >= 2);
    }

    #[test]
    fn merge_rejects_mismatched_geometry_and_mg() {
        let mut a = Fcm::new(11, 8, 512, None).unwrap();
        let seed = Fcm::new(12, 8, 512, None).unwrap();
        let width = Fcm::new(11, 8, 256, None).unwrap();
        let depth = Fcm::new(11, 4, 512, None).unwrap();
        for other in [&seed, &width, &depth] {
            assert!(matches!(
                a.merge(other),
                Err(SketchError::IncompatibleMerge { .. })
            ));
        }
        let with_mg = Fcm::new(11, 8, 512, Some(8)).unwrap();
        assert!(matches!(
            a.merge(&with_mg),
            Err(SketchError::IncompatibleMerge { .. })
        ));
        let mut with_mg = with_mg;
        let plain = Fcm::new(11, 8, 512, None).unwrap();
        assert!(matches!(
            with_mg.merge(&plain),
            Err(SketchError::IncompatibleMerge { .. })
        ));
    }

    #[test]
    fn gcd_works() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 8), 1);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn rows_are_distinct() {
        let fcm = Fcm::new(3, 8, 64, None).unwrap();
        for key in 0..200u64 {
            let rows: Vec<usize> = fcm.rows_of(key, fcm.rows_low()).collect();
            let mut dedup = rows.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), rows.len(), "duplicate rows for key {key}");
        }
    }

    #[test]
    fn high_rows_prefix_of_low_rows() {
        let fcm = Fcm::new(3, 8, 64, Some(8)).unwrap();
        for key in 0..50u64 {
            let high: Vec<usize> = fcm.rows_of(key, fcm.rows_high()).collect();
            let low: Vec<usize> = fcm.rows_of(key, fcm.rows_low()).collect();
            assert_eq!(&low[..high.len()], &high[..]);
        }
    }

    #[test]
    fn exact_when_sparse_without_mg() {
        let mut fcm = Fcm::new(5, 8, 1 << 14, None).unwrap();
        for key in 0..100u64 {
            fcm.update(key, (key as i64) + 1);
        }
        for key in 0..100u64 {
            assert_eq!(fcm.estimate(key), (key as i64) + 1);
        }
    }

    #[test]
    fn one_sided_for_stable_classification() {
        // Without the MG counter every item is permanently low-frequency,
        // so the one-sided guarantee is unconditional.
        let mut fcm = Fcm::new(5, 8, 32, None).unwrap();
        let mut truth = std::collections::HashMap::new();
        let mut x = 99u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(17);
            let key = x % 300;
            fcm.insert(key);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (&key, &t) in &truth {
            assert!(fcm.estimate(key) >= t, "under-count for {key}");
        }
    }

    #[test]
    fn mg_classifies_heavy_items() {
        let mut fcm = Fcm::new(5, 8, 1 << 12, Some(8)).unwrap();
        for i in 0..10_000u64 {
            if i % 3 == 0 {
                fcm.insert(42);
            } else {
                fcm.insert(1000 + i);
            }
        }
        assert!(fcm.is_high_frequency(42));
        // The heavy key's estimate covers its true count.
        assert!(fcm.estimate(42) >= (10_000 / 3) as i64);
    }

    #[test]
    fn update_batch_matches_scalar_loop_with_mg() {
        // The MG classifier makes FCM order-sensitive; batch must preserve
        // per-tuple ordering exactly, including negative deltas.
        for mg in [None, Some(8)] {
            let mut batched = Fcm::new(17, 8, 256, mg).unwrap();
            let mut scalar = Fcm::new(17, 8, 256, mg).unwrap();
            let mut x = 5u64;
            let tuples: Vec<Tuple> = (0..2000)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                    let key = if i % 4 == 0 { 7 } else { x % 400 };
                    let delta = if i % 11 == 5 { -1 } else { 1 };
                    (key, delta)
                })
                .collect();
            batched.update_batch(&tuples);
            for &(k, u) in &tuples {
                scalar.update(k, u);
            }
            for key in 0..400u64 {
                assert_eq!(
                    batched.estimate(key),
                    scalar.estimate(key),
                    "mg={mg:?} key={key}"
                );
                assert_eq!(
                    batched.is_high_frequency(key),
                    scalar.is_high_frequency(key),
                    "mg={mg:?} key={key}"
                );
            }
        }
    }

    #[test]
    fn shared_view_matches_estimate_exactly() {
        // Both variants: the MG-less ASketch-FCM (always-low, exact by
        // construction) and the full FCM with a live MG detector.
        for mg in [None, Some(8)] {
            let mut fcm = Fcm::new(31, 8, 256, mg).unwrap();
            let view = fcm.new_view();
            let mut x = 11u64;
            for i in 0..8_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                let key = if i % 3 == 0 { 42 } else { x % 500 };
                fcm.insert(key);
            }
            fcm.store_view(&view);
            for key in 0..500u64 {
                assert_eq!(
                    Fcm::view_estimate(&view, key),
                    fcm.estimate(key),
                    "mg={mg:?} key={key}"
                );
            }
        }
    }

    #[test]
    fn budget_includes_mg() {
        let with_mg = Fcm::with_byte_budget(1, 8, 64 * 1024, Some(32)).unwrap();
        let without = Fcm::with_byte_budget(1, 8, 64 * 1024, None).unwrap();
        assert!(
            with_mg.width() < without.width(),
            "MG space must come out of the table"
        );
        assert!(with_mg.size_bytes() <= 64 * 1024);
        assert!(Fcm::with_byte_budget(1, 8, 64, Some(32)).is_err());
    }
}
