//! Count-Min sketch (Cormode & Muthukrishnan, 2005).
//!
//! The 2-dimensional array of `w` rows (one per pairwise-independent hash
//! function) by `h` cells. An update adds `delta` to one cell per row; a
//! point query returns the minimum over the `w` addressed cells.
//!
//! Guarantees (strict streams, total count `N`): the estimate never
//! under-counts, and over-counts by more than `(e/h)·N` with probability at
//! most `e^-w`.
//!
//! This implementation stores the table row-major in a single flat vector
//! so one update touches `w` cache lines at predictable offsets, supports
//! negative deltas (item deletion, paper Appendix A), and is generic over
//! the cell width: [`CountMin`] uses 64-bit counters, [`CountMin32`]
//! matches the paper's 32-bit C layout (twice the cells per byte, half the
//! `(e/h)·N` error at equal budgets).

use crate::blocked::LINE_BYTES;
use crate::cell::Cell;
use crate::hash::HashBank;
use crate::lookup::{prefetch_read, ScanKernel};
use crate::persist::{self, Persist, PersistError};
use crate::traits::{FrequencyEstimator, Mergeable, TopK, Tuple, UpdateEstimate};
use crate::view::{AtomicCells, SharedView};
use crate::SketchError;

/// Software-pipelining depth of the batched paths, in tuples: cell indexes
/// are hashed and their cache lines prefetched this many tuples before the
/// read-modify-write lands. Sized to cover DRAM latency at the few-ns/tuple
/// pace of the apply loop without thrashing L1.
pub(crate) const LOOKAHEAD: usize = 16;

/// Bytes consumed by one counter cell of the default (64-bit) layout.
pub const CELL_BYTES: usize = std::mem::size_of::<i64>();

/// Count-Min with 64-bit cells (workspace default).
pub type CountMin = CountMinG<i64>;

/// Count-Min with 32-bit cells (the paper's layout; saturating).
pub type CountMin32 = CountMinG<i32>;

/// The Count-Min sketch, generic over its counter-cell width.
#[derive(Debug, Clone)]
pub struct CountMinG<C: Cell = i64> {
    /// `w` hash functions, each with range `h`.
    hashes: HashBank,
    /// Row-major `w × h` counter table.
    table: Vec<C>,
    /// Range of each hash function (row length).
    h: usize,
    /// Seed the hash bank was derived from (needed to validate merges).
    seed: u64,
}

impl<C: Cell> CountMinG<C> {
    /// Create a sketch with `depth` hash functions (rows) of `width` cells
    /// each, seeded deterministically.
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidDimensions`] when either dimension is 0.
    pub fn new(seed: u64, depth: usize, width: usize) -> Result<Self, SketchError> {
        if depth == 0 || width == 0 {
            return Err(SketchError::InvalidDimensions {
                what: format!("depth={depth}, width={width}"),
            });
        }
        Ok(Self {
            hashes: HashBank::new(seed, depth, width),
            table: vec![C::default(); depth * width],
            h: width,
            seed,
        })
    }

    /// Create a sketch of `depth` rows fitting within `budget_bytes` of
    /// counter space (the paper's "synopsis size"). The width is the largest
    /// `h` with `depth · h · cell_bytes <= budget_bytes`.
    ///
    /// # Errors
    /// Returns [`SketchError::BudgetTooSmall`] unless every row gets at
    /// least one full cache line ([`LINE_BYTES`]) of cells. Narrower rows
    /// are never what a byte-budget caller wants — the error bound `(e/h)·N`
    /// is already catastrophic at `h < 8`, and silently sizing `h` to 1 or 2
    /// turns a mis-typed budget into a sketch that answers `N` for
    /// everything. Use [`CountMinG::new`] to request tiny widths explicitly.
    pub fn with_byte_budget(
        seed: u64,
        depth: usize,
        budget_bytes: usize,
    ) -> Result<Self, SketchError> {
        if depth == 0 {
            return Err(SketchError::InvalidDimensions {
                what: "depth=0".into(),
            });
        }
        let width = budget_bytes / (depth * C::BYTES);
        if width < LINE_BYTES / C::BYTES {
            return Err(SketchError::BudgetTooSmall {
                needed: depth * LINE_BYTES,
                available: budget_bytes,
            });
        }
        Self::new(seed, depth, width)
    }

    /// Number of hash functions (`w` in the paper).
    #[inline]
    pub fn depth(&self) -> usize {
        self.hashes.width()
    }

    /// Range of each hash function (`h` in the paper).
    #[inline]
    pub fn width(&self) -> usize {
        self.h
    }

    /// The seed this sketch was built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bytes per counter cell of this instantiation.
    #[inline]
    pub fn cell_bytes(&self) -> usize {
        C::BYTES
    }

    /// Reset every counter to zero, keeping the hash functions.
    pub fn clear(&mut self) {
        self.table.fill(C::default());
    }

    /// Sum of one row's counters — for a strict stream this equals the total
    /// stream count `N` (absent saturation), a useful invariant for tests.
    pub fn row_sum(&self, row: usize) -> i64 {
        let start = row * self.h;
        self.table[start..start + self.h]
            .iter()
            .map(|c| c.to_i64())
            .sum()
    }

    /// Direct cell read (row, column); exposed for white-box tests and the
    /// analysis harness.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> i64 {
        self.table[row * self.h + col].to_i64()
    }
}

impl<C: Cell> FrequencyEstimator for CountMinG<C> {
    #[inline]
    fn update(&mut self, key: u64, delta: i64) {
        for (row, func) in self.hashes.funcs().iter().enumerate() {
            let idx = row * self.h + func.hash(key);
            self.table[idx] = self.table[idx].saturating_add_i64(delta);
        }
    }

    #[inline]
    fn estimate(&self, key: u64) -> i64 {
        let mut est = i64::MAX;
        for (row, func) in self.hashes.funcs().iter().enumerate() {
            let v = self.table[row * self.h + func.hash(key)].to_i64();
            if v < est {
                est = v;
            }
        }
        est
    }

    fn size_bytes(&self) -> usize {
        self.table.len() * C::BYTES
    }

    /// Batched ingest: hashes are hoisted out of the per-tuple loop and each
    /// tuple's `w` cells are prefetched `LOOKAHEAD` tuples ahead of the
    /// read-modify-write, hiding the (cold, random-index) table misses that
    /// dominate single-tuple `update` on sketch sizes past L2.
    ///
    /// Exactly equivalent to applying `update` to each tuple in order — the
    /// ring only reorders *address computation*, never the cell writes.
    fn update_batch(&mut self, tuples: &[Tuple]) {
        let funcs = self.hashes.funcs();
        let depth = funcs.len();
        let look = LOOKAHEAD.min(tuples.len());
        if look == 0 {
            return;
        }
        // Ring of precomputed cell indexes for the next `look` tuples.
        let mut ring = vec![0usize; look * depth];
        for (j, &(key, _)) in tuples.iter().take(look).enumerate() {
            for (row, func) in funcs.iter().enumerate() {
                let idx = row * self.h + func.hash(key);
                ring[j * depth + row] = idx;
                prefetch_read(&self.table[idx]);
            }
        }
        for i in 0..tuples.len() {
            let slot = (i % look) * depth;
            let delta = tuples[i].1;
            for &idx in &ring[slot..slot + depth] {
                // SAFETY: idx = row*h + hash(key) with hash(key) < h, so
                // idx < depth*h = table.len().
                debug_assert!(idx < self.table.len());
                let cell = unsafe { self.table.get_unchecked_mut(idx) };
                *cell = cell.saturating_add_i64(delta);
            }
            if let Some(&(next_key, _)) = tuples.get(i + look) {
                for (row, func) in funcs.iter().enumerate() {
                    let idx = row * self.h + func.hash(next_key);
                    ring[slot + row] = idx;
                    prefetch_read(&self.table[idx]);
                }
            }
        }
    }

    /// Batched point queries with the same hash-hoisting + prefetch ring as
    /// [`CountMinG::update_batch`]; the per-key row-min runs through the
    /// vectorized [`ScanKernel::find_min`] over a gathered value buffer.
    fn estimate_batch(&self, keys: &[u64]) -> Vec<i64> {
        let funcs = self.hashes.funcs();
        let depth = funcs.len();
        let look = LOOKAHEAD.min(keys.len());
        if look == 0 {
            return Vec::new();
        }
        let kernel = ScanKernel::get();
        let mut ring = vec![0usize; look * depth];
        for (j, &key) in keys.iter().take(look).enumerate() {
            for (row, func) in funcs.iter().enumerate() {
                let idx = row * self.h + func.hash(key);
                ring[j * depth + row] = idx;
                prefetch_read(&self.table[idx]);
            }
        }
        let mut vals = vec![0i64; depth];
        let mut out = Vec::with_capacity(keys.len());
        for i in 0..keys.len() {
            let slot = (i % look) * depth;
            for (v, &idx) in vals.iter_mut().zip(&ring[slot..slot + depth]) {
                *v = self.table[idx].to_i64();
            }
            let est = kernel.find_min(&vals).map_or(i64::MAX, |m| vals[m]);
            out.push(est);
            if let Some(&next_key) = keys.get(i + look) {
                for (row, func) in funcs.iter().enumerate() {
                    let idx = row * self.h + func.hash(next_key);
                    ring[slot + row] = idx;
                    prefetch_read(&self.table[idx]);
                }
            }
        }
        out
    }

    /// Pull the `w` cells addressed by each key into cache. Advisory only.
    #[inline]
    fn prime(&self, keys: &[u64]) {
        for &key in keys {
            for (row, func) in self.hashes.funcs().iter().enumerate() {
                prefetch_read(&self.table[row * self.h + func.hash(key)]);
            }
        }
    }
}

impl<C: Cell> UpdateEstimate for CountMinG<C> {
    #[inline]
    fn update_and_estimate(&mut self, key: u64, delta: i64) -> i64 {
        let mut est = i64::MAX;
        for (row, func) in self.hashes.funcs().iter().enumerate() {
            let idx = row * self.h + func.hash(key);
            self.table[idx] = self.table[idx].saturating_add_i64(delta);
            let v = self.table[idx].to_i64();
            if v < est {
                est = v;
            }
        }
        est
    }
}

/// Published replica of a [`CountMinG`]: the hash bank (immutable) plus an
/// atomic copy of the counter table. See [`crate::view`] for the protocol.
#[derive(Debug)]
pub struct CountMinView {
    hashes: HashBank,
    h: usize,
    cells: AtomicCells,
}

impl<C: Cell> SharedView for CountMinG<C> {
    type View = CountMinView;

    fn new_view(&self) -> CountMinView {
        let view = CountMinView {
            hashes: self.hashes.clone(),
            h: self.h,
            cells: AtomicCells::new(self.table.len()),
        };
        self.store_view(&view);
        view
    }

    fn store_view(&self, view: &CountMinView) {
        debug_assert_eq!(view.cells.len(), self.table.len());
        view.cells.store_all(self.table.iter().map(|c| c.to_i64()));
    }

    /// Exactly the row-min of [`CountMinG::estimate`], read from the
    /// published cells.
    fn view_estimate(view: &CountMinView, key: u64) -> i64 {
        let mut est = i64::MAX;
        for (row, func) in view.hashes.funcs().iter().enumerate() {
            let v = view.cells.load(row * view.h + func.hash(key));
            if v < est {
                est = v;
            }
        }
        est
    }
}

impl<C: Cell> Mergeable for CountMinG<C> {
    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.seed != other.seed || self.h != other.h || self.depth() != other.depth() {
            return Err(SketchError::IncompatibleMerge {
                what: format!(
                    "CountMin {}x{} seed {} vs {}x{} seed {}",
                    self.depth(),
                    self.h,
                    self.seed,
                    other.depth(),
                    other.h,
                    other.seed
                ),
            });
        }
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a = a.saturating_add_i64(b.to_i64());
        }
        Ok(())
    }
}

impl<C: Cell> TopK for CountMinG<C> {
    /// Count-Min has no item directory, so it cannot enumerate heavy
    /// hitters by itself. Heavy-hitter support for plain CMS requires an
    /// external heap (paper §2) — the `asketch` crate provides it through
    /// its filter.
    fn top_k(&self, _k: usize) -> Vec<(u64, i64)> {
        Vec::new()
    }
}

/// Payload tag for persisted Count-Min state (`"SKCM"`).
const PERSIST_TAG: u32 = u32::from_le_bytes(*b"SKCM");

impl<C: Cell> Persist for CountMinG<C> {
    /// Layout: tag, cell width, `seed`, `depth`, `width`, then the
    /// row-major table widened to `i64`. The hash bank is rebuilt from the
    /// seed, so estimates round-trip bitwise.
    fn write_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, PERSIST_TAG);
        persist::put_u8(out, C::BYTES as u8);
        persist::put_u64(out, self.seed);
        persist::put_u64(out, self.depth() as u64);
        persist::put_u64(out, self.h as u64);
        for c in &self.table {
            persist::put_i64(out, c.to_i64());
        }
    }

    fn read_state(r: &mut persist::ByteReader<'_>) -> Result<Self, PersistError> {
        persist::expect_tag(r, PERSIST_TAG, "CountMin")?;
        let cell = r.u8("CountMin cell width")?;
        if cell as usize != C::BYTES {
            return Err(PersistError::Corrupt {
                what: format!("CountMin cell width {cell} != expected {}", C::BYTES),
            });
        }
        let seed = r.u64("CountMin seed")?;
        let depth = r.u64("CountMin depth")? as usize;
        let width = r.u64("CountMin width")? as usize;
        if depth
            .checked_mul(width)
            .is_none_or(|cells| cells * 8 > r.remaining())
        {
            return Err(PersistError::Corrupt {
                what: format!("CountMin {depth}x{width} table exceeds payload"),
            });
        }
        let mut s = Self::new(seed, depth, width)?;
        for c in s.table.iter_mut() {
            *c = C::from_i64_saturating(r.i64("CountMin cell")?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trips_bitwise() {
        let mut cms = CountMin::new(99, 4, 512).unwrap();
        let mut cms32 = CountMin32::new(99, 4, 512).unwrap();
        let mut x = 3u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            cms.update(x % 700, 1 + (x % 5) as i64);
            cms32.update(x % 700, 1 + (x % 5) as i64);
        }
        let back = CountMin::from_state_bytes(&cms.to_state_bytes()).unwrap();
        let back32 = CountMin32::from_state_bytes(&cms32.to_state_bytes()).unwrap();
        for key in 0..700u64 {
            assert_eq!(back.estimate(key), cms.estimate(key), "key {key}");
            assert_eq!(back32.estimate(key), cms32.estimate(key), "key {key}");
        }
    }

    #[test]
    fn persist_rejects_cell_width_and_type_confusion() {
        let cms = CountMin::new(1, 2, 64).unwrap();
        let bytes = cms.to_state_bytes();
        // 64-bit state must not load as a 32-bit sketch.
        assert!(matches!(
            CountMin32::from_state_bytes(&bytes),
            Err(PersistError::Corrupt { .. })
        ));
        // A foreign tag must be rejected before any state is built.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            CountMin::from_state_bytes(&wrong),
            Err(PersistError::WrongType { .. })
        ));
        // Truncation anywhere is loud.
        assert!(CountMin::from_state_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CountMin::new(1, 0, 16).is_err());
        assert!(CountMin::new(1, 4, 0).is_err());
    }

    #[test]
    fn byte_budget_sizes_width() {
        let cms = CountMin::with_byte_budget(1, 8, 128 * 1024).unwrap();
        assert_eq!(cms.depth(), 8);
        assert_eq!(cms.width(), 128 * 1024 / (8 * CELL_BYTES));
        assert!(cms.size_bytes() <= 128 * 1024);
    }

    #[test]
    fn narrow_cells_double_width_at_same_budget() {
        let wide = CountMin::with_byte_budget(1, 8, 128 * 1024).unwrap();
        let narrow = CountMin32::with_byte_budget(1, 8, 128 * 1024).unwrap();
        assert_eq!(narrow.width(), 2 * wide.width());
        assert_eq!(narrow.cell_bytes(), 4);
        assert!(narrow.size_bytes() <= 128 * 1024);
    }

    #[test]
    fn tiny_budget_rejected() {
        let err = CountMin::with_byte_budget(1, 8, 8).unwrap_err();
        assert!(matches!(err, SketchError::BudgetTooSmall { .. }));
    }

    #[test]
    fn sub_cache_line_rows_rejected_at_boundary() {
        // A byte-budget row must span at least one cache line of cells.
        // i64, depth 2: the floor is 2 rows × 64 B = 128 B.
        let err = CountMin::with_byte_budget(1, 2, 127).unwrap_err();
        assert!(
            matches!(
                err,
                SketchError::BudgetTooSmall {
                    needed: 128,
                    available: 127
                }
            ),
            "got {err:?}"
        );
        let ok = CountMin::with_byte_budget(1, 2, 128).unwrap();
        assert_eq!(ok.width(), 8, "exactly one line of i64 cells per row");
        // i32 packs 16 cells per line, so the same 128 B floor holds at
        // depth 2 but yields twice the width.
        let err = CountMin32::with_byte_budget(1, 2, 127).unwrap_err();
        assert!(matches!(
            err,
            SketchError::BudgetTooSmall { needed: 128, .. }
        ));
        assert_eq!(CountMin32::with_byte_budget(1, 2, 128).unwrap().width(), 16);
        // Degenerate widths (1–7 cells) that the old rounding accepted must
        // now error loudly instead of answering ~N for every key.
        assert!(CountMin::with_byte_budget(1, 8, 8 * 8 * 7).is_err());
    }

    #[test]
    fn exact_when_no_collisions() {
        // With a huge table and few keys, estimates are exact.
        let mut cms = CountMin::new(7, 4, 1 << 16).unwrap();
        for key in 0..100u64 {
            for _ in 0..(key + 1) {
                cms.insert(key);
            }
        }
        for key in 0..100u64 {
            assert_eq!(cms.estimate(key), (key + 1) as i64);
        }
    }

    #[test]
    fn one_sided_guarantee() {
        // Even in a tiny, collision-heavy table the estimate never
        // under-counts on a strict stream — in both cell widths.
        fn check<C: Cell>() {
            let mut cms = CountMinG::<C>::new(3, 2, 8).unwrap();
            let mut truth = std::collections::HashMap::new();
            let mut x: u64 = 12345;
            for _ in 0..10_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = x % 100;
                cms.insert(key);
                *truth.entry(key).or_insert(0i64) += 1;
            }
            for (&key, &t) in &truth {
                assert!(cms.estimate(key) >= t, "under-count for key {key}");
            }
        }
        check::<i64>();
        check::<i32>();
    }

    #[test]
    fn i32_saturates_instead_of_wrapping() {
        let mut cms = CountMin32::new(1, 1, 1).unwrap();
        cms.update(0, i64::MAX);
        assert_eq!(cms.estimate(0), i32::MAX as i64);
        cms.update(0, 1);
        assert_eq!(cms.estimate(0), i32::MAX as i64, "stays saturated");
    }

    #[test]
    fn error_bound_holds_on_average() {
        // Markov-style check of the (e/h)·N bound: average over-count over
        // many keys should be below N/h (the expected value per cell).
        let h = 512usize;
        let mut cms = CountMin::new(3, 4, h).unwrap();
        let n = 100_000u64;
        let distinct = 10_000u64;
        for i in 0..n {
            cms.insert(i % distinct);
        }
        let per_key = (n / distinct) as i64;
        let mut total_over = 0i64;
        for key in 0..distinct {
            total_over += cms.estimate(key) - per_key;
        }
        let avg_over = total_over as f64 / distinct as f64;
        let bound = std::f64::consts::E * n as f64 / h as f64;
        assert!(
            avg_over < bound,
            "avg over-count {avg_over} exceeds (e/h)N = {bound}"
        );
    }

    #[test]
    fn update_and_estimate_matches_separate_calls() {
        let mut a = CountMin::new(9, 4, 64).unwrap();
        let mut b = CountMin::new(9, 4, 64).unwrap();
        for key in 0..500u64 {
            let ea = a.update_and_estimate(key % 37, 2);
            b.update(key % 37, 2);
            let eb = b.estimate(key % 37);
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn negative_updates_supported() {
        let mut cms = CountMin::new(5, 4, 1 << 14).unwrap();
        cms.update(42, 10);
        cms.update(42, -4);
        assert_eq!(cms.estimate(42), 6);
    }

    #[test]
    fn row_sums_equal_total_count() {
        let mut cms = CountMin::new(5, 6, 128).unwrap();
        let mut total = 0i64;
        for key in 0..1000u64 {
            let delta = (key % 5) as i64 + 1;
            cms.update(key, delta);
            total += delta;
        }
        for row in 0..cms.depth() {
            assert_eq!(cms.row_sum(row), total);
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = CountMin::new(11, 4, 256).unwrap();
        let mut b = CountMin::new(11, 4, 256).unwrap();
        a.update(7, 5);
        b.update(7, 3);
        b.update(9, 2);
        a.merge(&b).unwrap();
        assert!(a.estimate(7) >= 8);
        assert!(a.estimate(9) >= 2);
    }

    #[test]
    fn merge_rejects_mismatched() {
        let mut a = CountMin::new(1, 4, 256).unwrap();
        let b = CountMin::new(2, 4, 256).unwrap();
        assert!(a.merge(&b).is_err());
        let c = CountMin::new(1, 4, 128).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn update_batch_matches_scalar_loop() {
        fn check<C: Cell>(len: usize) {
            let mut batched = CountMinG::<C>::new(13, 4, 512).unwrap();
            let mut scalar = CountMinG::<C>::new(13, 4, 512).unwrap();
            let mut x: u64 = 99;
            let tuples: Vec<Tuple> = (0..len)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let delta = if i % 7 == 3 { -1 } else { (i % 3) as i64 + 1 };
                    (x % 200, delta)
                })
                .collect();
            batched.update_batch(&tuples);
            for &(k, u) in &tuples {
                scalar.update(k, u);
            }
            for row in 0..batched.depth() {
                for col in 0..batched.width() {
                    assert_eq!(batched.cell(row, col), scalar.cell(row, col), "len={len}");
                }
            }
        }
        // Lengths around the LOOKAHEAD boundary, both cell widths.
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            check::<i64>(len);
            check::<i32>(len);
        }
    }

    #[test]
    fn estimate_batch_matches_pointwise() {
        let mut cms = CountMin::new(21, 4, 256).unwrap();
        for key in 0..500u64 {
            cms.update(key % 61, (key % 4) as i64);
        }
        for len in [0usize, 1, 5, 8, 9, 100] {
            let keys: Vec<u64> = (0..len as u64).map(|k| k * 17 % 90).collect();
            let batch = cms.estimate_batch(&keys);
            let point: Vec<i64> = keys.iter().map(|&k| cms.estimate(k)).collect();
            assert_eq!(batch, point, "len={len}");
        }
    }

    #[test]
    fn prime_and_insert_batch_observably_equivalent() {
        let mut a = CountMin::new(3, 4, 128).unwrap();
        let mut b = CountMin::new(3, 4, 128).unwrap();
        let keys: Vec<u64> = (0..300).map(|k| k * 7 % 97).collect();
        a.prime(&keys); // must not change state
        a.insert_batch(&keys);
        for &k in &keys {
            b.insert(k);
        }
        for row in 0..a.depth() {
            assert_eq!(a.row_sum(row), b.row_sum(row));
        }
        for &k in &keys {
            assert_eq!(a.estimate(k), b.estimate(k));
        }
    }

    #[test]
    fn shared_view_matches_estimate_exactly() {
        let mut cms = CountMin::new(77, 4, 512).unwrap();
        let view = cms.new_view();
        let mut x = 3u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(97);
            cms.update(x % 300, (x % 4) as i64 + 1);
        }
        cms.store_view(&view);
        for key in 0..400u64 {
            assert_eq!(
                CountMin::view_estimate(&view, key),
                cms.estimate(key),
                "key {key}"
            );
        }
    }

    #[test]
    fn fresh_view_reflects_current_contents() {
        let mut cms = CountMin::new(5, 3, 64).unwrap();
        cms.update(9, 12);
        let view = cms.new_view();
        assert_eq!(CountMin::view_estimate(&view, 9), cms.estimate(9));
    }

    #[test]
    fn clear_resets_counts() {
        let mut cms = CountMin::new(3, 2, 16).unwrap();
        cms.insert(1);
        cms.clear();
        assert_eq!(cms.estimate(1), 0);
        assert_eq!(cms.row_sum(0), 0);
    }
}
