//! Cache-line-blocked Count-Min sketch.
//!
//! A standard Count-Min update touches `d` counters in `d` *different* rows
//! — `d` random cache lines per tuple. On tables past last-level cache that
//! is `d` DRAM misses, and it is exactly the cost the ASketch filter exists
//! to amortize for hot keys (PAPER.md §1, Figure 5). For the keys that
//! *miss* the filter, the layout itself is the remaining lever (SALSA makes
//! the same observation about counter packing): put all `d` counters for a
//! key in **one 64-byte line**.
//!
//! One bucket = one cache line holding [`BlockedCountMinG::SLOTS`] cells
//! (8×`i64` or 16×`i32`). A single pairwise-independent hash picks the
//! bucket; a second pairwise-independent hash is expanded into `d` *distinct*
//! in-line slot indexes (see `derive_slot_mask`). Update adds `delta` to
//! the `d` selected cells, estimate takes their min — both touch exactly one
//! line, and the in-line add/min are SIMD-vectorized through the same
//! [`ScanKernel`] dispatch the key scan uses.
//!
//! # Guarantee
//!
//! One-sidedness survives intact: slot selection is a deterministic function
//! of the key, counters only grow on inserts (saturating, never wrapping),
//! and the estimate is a min over cells that each received every occurrence
//! of the key. The *error model* differs from standard CM: two keys in the
//! same bucket collide in a slot with probability ≈ `d/slots` per probe
//! (instead of `1/h` per row), so at equal byte budget the blocked layout
//! trades a modestly worse collision constant for a `d`-fold reduction in
//! lines touched. DESIGN.md §11 quantifies the trade; `BENCH_layout.json`
//! measures it.

use crate::cell::Cell;
use crate::count_min::LOOKAHEAD;
use crate::hash::{PairwiseHash, SplitMix64};
use crate::lookup::{prefetch_read, ScanKernel};
use crate::persist::{self, Persist, PersistError};
use crate::traits::{FrequencyEstimator, Mergeable, TopK, Tuple, UpdateEstimate};
use crate::view::{AtomicCells, BlockedView, SharedView};
use crate::SketchError;

/// Bytes in one bucket: one hardware cache line.
pub const LINE_BYTES: usize = 64;

/// Blocked Count-Min with 64-bit cells (8 slots per line, workspace default).
pub type BlockedCountMin = BlockedCountMinG<i64>;

/// Blocked Count-Min with 32-bit saturating cells (16 slots per line).
pub type BlockedCountMin32 = BlockedCountMinG<i32>;

/// Cell types usable in a blocked line: [`Cell`] plus vectorizable masked
/// add/min over one line. The two methods must agree *exactly* with the
/// scalar reference semantics (`saturating_add_i64` per selected slot;
/// min of `to_i64` over selected slots) for every kernel.
pub trait BlockedCell: Cell {
    /// `line[s] = line[s].saturating_add_i64(delta)` for every slot `s` with
    /// bit `s` set in `mask`. `line` is exactly one bucket
    /// ([`LINE_BYTES`]`/BYTES` cells).
    fn masked_add(kernel: ScanKernel, line: &mut [Self], mask: u16, delta: i64);

    /// Min of `line[s].to_i64()` over the slots selected by `mask`, or
    /// `i64::MAX` when `mask == 0`.
    fn masked_min(kernel: ScanKernel, line: &[Self], mask: u16) -> i64;
}

/// Scalar reference for [`BlockedCell::masked_add`]; every SIMD kernel must
/// match it bit-for-bit (the differential tests below enforce this).
#[inline]
fn masked_add_scalar<C: Cell>(line: &mut [C], mask: u16, delta: i64) {
    let mut m = mask;
    while m != 0 {
        let s = m.trailing_zeros() as usize;
        line[s] = line[s].saturating_add_i64(delta);
        m &= m - 1;
    }
}

/// Scalar reference for [`BlockedCell::masked_min`].
#[inline]
fn masked_min_scalar<C: Cell>(line: &[C], mask: u16) -> i64 {
    let mut est = i64::MAX;
    let mut m = mask;
    while m != 0 {
        let s = m.trailing_zeros() as usize;
        let v = line[s].to_i64();
        if v < est {
            est = v;
        }
        m &= m - 1;
    }
    est
}

/// AVX2 masked saturating add over one 8×`i64` line.
///
/// There is no 64-bit saturating-add instruction; overflow is detected by
/// sign of the comparison against the addend: with a per-lane delta `d ≥ 0`
/// the add wrapped iff `sum < a`, with `d ≤ 0` iff `sum > a` (each lane's
/// `d` is `delta` or 0, so one sign covers the whole vector).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_add_avx2_i64(line: &mut [i64], mask: u16, delta: i64) {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 8);
    // SAFETY: `line` is exactly 8 contiguous i64s (64 bytes), so both
    // unaligned 32-byte load/store pairs stay in bounds; AVX2 availability
    // is guaranteed by the caller's feature check.
    unsafe {
        let p = line.as_mut_ptr() as *mut __m256i;
        let bits = _mm256_set1_epi64x(mask as i64);
        let delta_v = _mm256_set1_epi64x(delta);
        let sat = _mm256_set1_epi64x(if delta >= 0 { i64::MAX } else { i64::MIN });
        let sels = [
            _mm256_setr_epi64x(1, 2, 4, 8),
            _mm256_setr_epi64x(16, 32, 64, 128),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm256_cmpeq_epi64(_mm256_and_si256(bits, sel), sel);
            let d = _mm256_and_si256(delta_v, lane);
            let a = _mm256_loadu_si256(p.add(i));
            let sum = _mm256_add_epi64(a, d);
            let wrapped = if delta >= 0 {
                _mm256_cmpgt_epi64(a, sum)
            } else {
                _mm256_cmpgt_epi64(sum, a)
            };
            _mm256_storeu_si256(p.add(i), _mm256_blendv_epi8(sum, sat, wrapped));
        }
    }
}

/// AVX2 masked min over one 8×`i64` line (unselected lanes read as
/// `i64::MAX`). AVX2 has no packed 64-bit min, so it is composed from
/// `cmpgt` + `blendv`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_min_avx2_i64(line: &[i64], mask: u16) -> i64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 8);
    // SAFETY: as in `masked_add_avx2_i64` — two in-bounds 32-byte loads
    // under a caller-checked AVX2 guarantee.
    unsafe {
        let p = line.as_ptr() as *const __m256i;
        let bits = _mm256_set1_epi64x(mask as i64);
        let maxv = _mm256_set1_epi64x(i64::MAX);
        let mut minv = maxv;
        let sels = [
            _mm256_setr_epi64x(1, 2, 4, 8),
            _mm256_setr_epi64x(16, 32, 64, 128),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm256_cmpeq_epi64(_mm256_and_si256(bits, sel), sel);
            let vals = _mm256_blendv_epi8(maxv, _mm256_loadu_si256(p.add(i)), lane);
            minv = _mm256_blendv_epi8(minv, vals, _mm256_cmpgt_epi64(minv, vals));
        }
        let mut buf = [i64::MAX; 4];
        _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, minv);
        buf.iter().copied().min().unwrap_or(i64::MAX)
    }
}

/// AVX2 masked saturating add over one 16×`i32` line. `delta` must already
/// fit in `i32` (the dispatch falls back to scalar otherwise — clamping the
/// delta first would change semantics, e.g. `-2^31 + (2^31 + 5) = 5` fits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_add_avx2_i32(line: &mut [i32], mask: u16, delta: i32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 16);
    // SAFETY: `line` is exactly 16 contiguous i32s (64 bytes); AVX2 is
    // caller-checked.
    unsafe {
        let p = line.as_mut_ptr() as *mut __m256i;
        let bits = _mm256_set1_epi32(mask as i32);
        let delta_v = _mm256_set1_epi32(delta);
        let sat = _mm256_set1_epi32(if delta >= 0 { i32::MAX } else { i32::MIN });
        let sels = [
            _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128),
            _mm256_setr_epi32(256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
            let d = _mm256_and_si256(delta_v, lane);
            let a = _mm256_loadu_si256(p.add(i));
            let sum = _mm256_add_epi32(a, d);
            let wrapped = if delta >= 0 {
                _mm256_cmpgt_epi32(a, sum)
            } else {
                _mm256_cmpgt_epi32(sum, a)
            };
            _mm256_storeu_si256(p.add(i), _mm256_blendv_epi8(sum, sat, wrapped));
        }
    }
}

/// AVX2 masked min over one 16×`i32` line.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_min_avx2_i32(line: &[i32], mask: u16) -> i64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 16);
    // SAFETY: two in-bounds 32-byte loads under a caller-checked AVX2
    // guarantee.
    unsafe {
        let p = line.as_ptr() as *const __m256i;
        let bits = _mm256_set1_epi32(mask as i32);
        let maxv = _mm256_set1_epi32(i32::MAX);
        let mut minv = maxv;
        let sels = [
            _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128),
            _mm256_setr_epi32(256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
            let vals = _mm256_blendv_epi8(maxv, _mm256_loadu_si256(p.add(i)), lane);
            minv = _mm256_min_epi32(minv, vals);
        }
        let mut buf = [i32::MAX; 8];
        _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, minv);
        buf.iter().copied().min().unwrap_or(i32::MAX) as i64
    }
}

/// SSE4.1 masked saturating add over one 16×`i32` line (four 128-bit
/// quarters). The 64-bit line has no SSE4.1 path: `pcmpgtq` is SSE4.2, so
/// `i64` falls back to scalar on pre-AVX2 hardware.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn masked_add_sse41_i32(line: &mut [i32], mask: u16, delta: i32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 16);
    // SAFETY: `line` is exactly 16 contiguous i32s, so the four unaligned
    // 16-byte load/store pairs stay in bounds; SSE4.1 is caller-checked.
    unsafe {
        let p = line.as_mut_ptr() as *mut __m128i;
        let bits = _mm_set1_epi32(mask as i32);
        let delta_v = _mm_set1_epi32(delta);
        let sat = _mm_set1_epi32(if delta >= 0 { i32::MAX } else { i32::MIN });
        let sels = [
            _mm_setr_epi32(1, 2, 4, 8),
            _mm_setr_epi32(16, 32, 64, 128),
            _mm_setr_epi32(256, 512, 1024, 2048),
            _mm_setr_epi32(4096, 8192, 16384, 32768),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm_cmpeq_epi32(_mm_and_si128(bits, sel), sel);
            let d = _mm_and_si128(delta_v, lane);
            let a = _mm_loadu_si128(p.add(i));
            let sum = _mm_add_epi32(a, d);
            let wrapped = if delta >= 0 {
                _mm_cmpgt_epi32(a, sum)
            } else {
                _mm_cmpgt_epi32(sum, a)
            };
            _mm_storeu_si128(p.add(i), _mm_blendv_epi8(sum, sat, wrapped));
        }
    }
}

/// SSE4.1 masked min over one 16×`i32` line.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn masked_min_sse41_i32(line: &[i32], mask: u16) -> i64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(line.len(), 16);
    // SAFETY: four in-bounds 16-byte loads under a caller-checked SSE4.1
    // guarantee.
    unsafe {
        let p = line.as_ptr() as *const __m128i;
        let bits = _mm_set1_epi32(mask as i32);
        let maxv = _mm_set1_epi32(i32::MAX);
        let mut minv = maxv;
        let sels = [
            _mm_setr_epi32(1, 2, 4, 8),
            _mm_setr_epi32(16, 32, 64, 128),
            _mm_setr_epi32(256, 512, 1024, 2048),
            _mm_setr_epi32(4096, 8192, 16384, 32768),
        ];
        for (i, sel) in sels.into_iter().enumerate() {
            let lane = _mm_cmpeq_epi32(_mm_and_si128(bits, sel), sel);
            let vals = _mm_blendv_epi8(maxv, _mm_loadu_si128(p.add(i)), lane);
            minv = _mm_min_epi32(minv, vals);
        }
        let mut buf = [i32::MAX; 4];
        _mm_storeu_si128(buf.as_mut_ptr() as *mut __m128i, minv);
        buf.iter().copied().min().unwrap_or(i32::MAX) as i64
    }
}

impl BlockedCell for i64 {
    #[inline]
    fn masked_add(kernel: ScanKernel, line: &mut [Self], mask: u16, delta: i64) {
        #[cfg(target_arch = "x86_64")]
        if kernel == ScanKernel::Avx2 {
            // SAFETY: the Avx2 variant is only constructed after runtime
            // AVX2 detection.
            unsafe { masked_add_avx2_i64(line, mask, delta) };
            return;
        }
        let _ = kernel;
        masked_add_scalar(line, mask, delta);
    }

    #[inline]
    fn masked_min(kernel: ScanKernel, line: &[Self], mask: u16) -> i64 {
        if mask == 0 {
            return i64::MAX;
        }
        #[cfg(target_arch = "x86_64")]
        if kernel == ScanKernel::Avx2 {
            // SAFETY: as above.
            return unsafe { masked_min_avx2_i64(line, mask) };
        }
        let _ = kernel;
        masked_min_scalar(line, mask)
    }
}

impl BlockedCell for i32 {
    #[inline]
    fn masked_add(kernel: ScanKernel, line: &mut [Self], mask: u16, delta: i64) {
        #[cfg(target_arch = "x86_64")]
        // Deltas outside i32 take the scalar path: they must saturate
        // against the *widened* sum, which the 32-bit lanes cannot express.
        if let Ok(d32) = i32::try_from(delta) {
            match kernel {
                // SAFETY: SIMD variants are only constructed after runtime
                // feature detection.
                ScanKernel::Avx2 => {
                    unsafe { masked_add_avx2_i32(line, mask, d32) };
                    return;
                }
                ScanKernel::Sse41 => {
                    unsafe { masked_add_sse41_i32(line, mask, d32) };
                    return;
                }
                _ => {}
            }
        }
        let _ = kernel;
        masked_add_scalar(line, mask, delta);
    }

    #[inline]
    fn masked_min(kernel: ScanKernel, line: &[Self], mask: u16) -> i64 {
        if mask == 0 {
            return i64::MAX;
        }
        #[cfg(target_arch = "x86_64")]
        match kernel {
            // SAFETY: SIMD variants imply runtime-detected features.
            ScanKernel::Avx2 => return unsafe { masked_min_avx2_i32(line, mask) },
            ScanKernel::Sse41 => return unsafe { masked_min_sse41_i32(line, mask) },
            _ => {}
        }
        let _ = kernel;
        masked_min_scalar(line, mask)
    }
}

/// Expand one 61-bit pairwise-independent hash value into `depth` *distinct*
/// slot indexes within a `slots`-cell line, returned as a bitmask.
///
/// Each round consumes `log2(slots)` low bits as a candidate slot and
/// rotates the hash value; an occupied candidate linear-probes to the next
/// free slot (wrapping). Distinctness matters for the error bound: `d`
/// probes of the same cell would make the min degenerate to that one cell.
#[inline]
fn derive_slot_mask(slot_hash: &PairwiseHash, key: u64, slots: usize, depth: usize) -> u16 {
    debug_assert!(slots.is_power_of_two() && slots <= 16 && depth <= slots);
    let mut bits = slot_hash.hash_full(key);
    let lane_mask = (slots - 1) as u64;
    let shift = slots.trailing_zeros();
    let mut used: u16 = 0;
    for _ in 0..depth {
        let mut s = (bits & lane_mask) as usize;
        bits = bits.rotate_right(shift);
        while used & (1u16 << s) != 0 {
            s = (s + 1) & (slots - 1);
        }
        used |= 1u16 << s;
    }
    used
}

/// The cache-line-blocked Count-Min sketch, generic over cell width.
///
/// Storage is a flat cell vector over-allocated by one line and indexed
/// from a 64-byte-aligned offset, so every bucket occupies exactly one
/// cache line (no straddling) without unsafe casts or custom allocators.
#[derive(Debug)]
pub struct BlockedCountMinG<C: BlockedCell = i64> {
    /// Maps a key to its bucket.
    bucket_hash: PairwiseHash,
    /// Seeds the in-line slot derivation.
    slot_hash: PairwiseHash,
    /// Backing cells; the live table is `buf[offset .. offset + buckets*SLOTS]`.
    buf: Vec<C>,
    /// Cell index of the first 64-byte-aligned line in `buf`.
    offset: usize,
    /// Number of bucket lines.
    buckets: usize,
    /// In-line probes per key (`d` in the paper's terms).
    depth: usize,
    /// Seed both hashes were derived from (validates merges).
    seed: u64,
}

/// Cell offset of the first [`LINE_BYTES`]-aligned position in `buf`.
fn align_offset<C>(buf: &[C]) -> usize {
    let addr = buf.as_ptr() as usize;
    let misalign = addr % LINE_BYTES;
    if misalign == 0 {
        0
    } else {
        // The allocator aligns to the cell size, so the byte gap to the next
        // line boundary is a whole number of cells.
        (LINE_BYTES - misalign) / std::mem::size_of::<C>()
    }
}

impl<C: BlockedCell> Clone for BlockedCountMinG<C> {
    fn clone(&self) -> Self {
        // The aligned offset is a property of the allocation, so a fresh
        // clone must re-derive it rather than copy `buf` verbatim.
        let len = self.buckets * Self::SLOTS;
        let mut buf = vec![C::default(); len + Self::SLOTS];
        let offset = align_offset(&buf);
        buf[offset..offset + len].copy_from_slice(self.cells());
        Self {
            bucket_hash: self.bucket_hash,
            slot_hash: self.slot_hash,
            buf,
            offset,
            buckets: self.buckets,
            depth: self.depth,
            seed: self.seed,
        }
    }
}

impl<C: BlockedCell> BlockedCountMinG<C> {
    /// Cells per bucket line for this cell width.
    pub const SLOTS: usize = LINE_BYTES / C::BYTES;

    /// Create a sketch of `buckets` cache-line buckets with `depth` in-line
    /// probes per key, seeded deterministically.
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidDimensions`] when `buckets == 0`,
    /// `depth == 0`, or `depth` exceeds the [`Self::SLOTS`] cells of a line.
    pub fn new(seed: u64, depth: usize, buckets: usize) -> Result<Self, SketchError> {
        // Layout invariants of the cell type — a violation is a bug in a new
        // `Cell` impl, not a runtime condition.
        assert!(C::BYTES == std::mem::size_of::<C>() && LINE_BYTES.is_multiple_of(C::BYTES));
        assert!(Self::SLOTS.is_power_of_two() && Self::SLOTS <= 16);
        if depth == 0 || buckets == 0 || depth > Self::SLOTS {
            return Err(SketchError::InvalidDimensions {
                what: format!(
                    "blocked depth={depth}, buckets={buckets} (line holds {} cells)",
                    Self::SLOTS
                ),
            });
        }
        let mut rng = SplitMix64::new(seed);
        let bucket_hash = PairwiseHash::from_rng(&mut rng, buckets);
        let slot_hash = PairwiseHash::from_rng(&mut rng, Self::SLOTS);
        let len = buckets * Self::SLOTS;
        let buf = vec![C::default(); len + Self::SLOTS];
        let offset = align_offset(&buf);
        debug_assert!(offset + len <= buf.len());
        Ok(Self {
            bucket_hash,
            slot_hash,
            buf,
            offset,
            buckets,
            depth,
            seed,
        })
    }

    /// Create a sketch fitting within `budget_bytes` of counter space: the
    /// largest bucket count with `buckets · 64 <= budget_bytes`.
    ///
    /// # Errors
    /// [`SketchError::BudgetTooSmall`] if not even one line fits;
    /// [`SketchError::InvalidDimensions`] per [`Self::new`].
    pub fn with_byte_budget(
        seed: u64,
        depth: usize,
        budget_bytes: usize,
    ) -> Result<Self, SketchError> {
        let buckets = budget_bytes / LINE_BYTES;
        if buckets == 0 {
            return Err(SketchError::BudgetTooSmall {
                needed: LINE_BYTES,
                available: budget_bytes,
            });
        }
        Self::new(seed, depth, buckets)
    }

    /// In-line probes per key (`d`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of bucket lines.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Cells per bucket line.
    #[inline]
    pub fn slots(&self) -> usize {
        Self::SLOTS
    }

    /// The seed this sketch was built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reset every counter to zero, keeping the hash functions.
    pub fn clear(&mut self) {
        self.buf.fill(C::default());
    }

    /// Direct cell read (bucket, slot); for white-box tests and analysis.
    #[inline]
    pub fn cell(&self, bucket: usize, slot: usize) -> i64 {
        self.cells()[bucket * Self::SLOTS + slot].to_i64()
    }

    /// Sum of every cell. On a strict stream without saturation this equals
    /// `depth × N` (each tuple lands in `depth` distinct cells) — the
    /// blocked analogue of the per-row-sum invariant.
    pub fn cell_sum(&self) -> i64 {
        self.cells().iter().map(|c| c.to_i64()).sum()
    }

    /// The live, line-aligned table.
    #[inline]
    fn cells(&self) -> &[C] {
        &self.buf[self.offset..self.offset + self.buckets * Self::SLOTS]
    }

    /// One bucket's line, mutably.
    #[inline]
    fn line_mut(&mut self, bucket: usize) -> &mut [C] {
        let start = self.offset + bucket * Self::SLOTS;
        &mut self.buf[start..start + Self::SLOTS]
    }

    /// One bucket's line.
    #[inline]
    fn line(&self, bucket: usize) -> &[C] {
        let start = self.offset + bucket * Self::SLOTS;
        &self.buf[start..start + Self::SLOTS]
    }

    /// The `depth` distinct in-line slots for `key`, as a bitmask.
    #[inline]
    fn slot_mask(&self, key: u64) -> u16 {
        derive_slot_mask(&self.slot_hash, key, Self::SLOTS, self.depth)
    }
}

impl<C: BlockedCell> FrequencyEstimator for BlockedCountMinG<C> {
    #[inline]
    fn update(&mut self, key: u64, delta: i64) {
        let kernel = ScanKernel::get();
        let b = self.bucket_hash.hash(key);
        let mask = self.slot_mask(key);
        C::masked_add(kernel, self.line_mut(b), mask, delta);
    }

    #[inline]
    fn estimate(&self, key: u64) -> i64 {
        let kernel = ScanKernel::get();
        let b = self.bucket_hash.hash(key);
        let mask = self.slot_mask(key);
        C::masked_min(kernel, self.line(b), mask)
    }

    fn size_bytes(&self) -> usize {
        self.buckets * LINE_BYTES
    }

    /// Batched ingest with the same software-pipelining ring as
    /// `CountMinG::update_batch`, but one `(bucket, slot-mask)` pair — one
    /// prefetched line — per tuple instead of `w` row cells.
    fn update_batch(&mut self, tuples: &[Tuple]) {
        let look = LOOKAHEAD.min(tuples.len());
        if look == 0 {
            return;
        }
        let kernel = ScanKernel::get();
        let mut ring: Vec<(usize, u16)> = vec![(0, 0); look];
        for (j, &(key, _)) in tuples.iter().take(look).enumerate() {
            let b = self.bucket_hash.hash(key);
            ring[j] = (b, self.slot_mask(key));
            prefetch_read(self.line(b).as_ptr());
        }
        for i in 0..tuples.len() {
            let slot = i % look;
            let (b, mask) = ring[slot];
            C::masked_add(kernel, self.line_mut(b), mask, tuples[i].1);
            if let Some(&(next_key, _)) = tuples.get(i + look) {
                let nb = self.bucket_hash.hash(next_key);
                ring[slot] = (nb, self.slot_mask(next_key));
                prefetch_read(self.line(nb).as_ptr());
            }
        }
    }

    /// Batched point queries with the same prefetch ring.
    fn estimate_batch(&self, keys: &[u64]) -> Vec<i64> {
        let look = LOOKAHEAD.min(keys.len());
        if look == 0 {
            return Vec::new();
        }
        let kernel = ScanKernel::get();
        let mut ring: Vec<(usize, u16)> = vec![(0, 0); look];
        for (j, &key) in keys.iter().take(look).enumerate() {
            let b = self.bucket_hash.hash(key);
            ring[j] = (b, self.slot_mask(key));
            prefetch_read(self.line(b).as_ptr());
        }
        let mut out = Vec::with_capacity(keys.len());
        for i in 0..keys.len() {
            let slot = i % look;
            let (b, mask) = ring[slot];
            out.push(C::masked_min(kernel, self.line(b), mask));
            if let Some(&next_key) = keys.get(i + look) {
                let nb = self.bucket_hash.hash(next_key);
                ring[slot] = (nb, self.slot_mask(next_key));
                prefetch_read(self.line(nb).as_ptr());
            }
        }
        out
    }

    /// Pull each key's single line into cache. Advisory only.
    #[inline]
    fn prime(&self, keys: &[u64]) {
        for &key in keys {
            prefetch_read(self.line(self.bucket_hash.hash(key)).as_ptr());
        }
    }
}

impl<C: BlockedCell> UpdateEstimate for BlockedCountMinG<C> {
    #[inline]
    fn update_and_estimate(&mut self, key: u64, delta: i64) -> i64 {
        let kernel = ScanKernel::get();
        let b = self.bucket_hash.hash(key);
        let mask = self.slot_mask(key);
        let line = self.line_mut(b);
        C::masked_add(kernel, line, mask, delta);
        C::masked_min(kernel, line, mask)
    }
}

impl<C: BlockedCell> SharedView for BlockedCountMinG<C> {
    type View = BlockedView;

    fn new_view(&self) -> BlockedView {
        let view = BlockedView {
            bucket_hash: self.bucket_hash,
            slot_hash: self.slot_hash,
            depth: self.depth,
            slots: Self::SLOTS,
            cells: AtomicCells::new(self.buckets * Self::SLOTS),
        };
        self.store_view(&view);
        view
    }

    fn store_view(&self, view: &BlockedView) {
        debug_assert_eq!(view.cells.len(), self.buckets * Self::SLOTS);
        view.cells
            .store_all(self.cells().iter().map(|c| c.to_i64()));
    }

    /// Exactly the masked line-min of [`FrequencyEstimator::estimate`], read
    /// from the published cells.
    fn view_estimate(view: &BlockedView, key: u64) -> i64 {
        let base = view.bucket_hash.hash(key) * view.slots;
        let mut m = derive_slot_mask(&view.slot_hash, key, view.slots, view.depth);
        let mut est = i64::MAX;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            let v = view.cells.load(base + s);
            if v < est {
                est = v;
            }
            m &= m - 1;
        }
        est
    }
}

impl<C: BlockedCell> Mergeable for BlockedCountMinG<C> {
    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.seed != other.seed || self.buckets != other.buckets || self.depth != other.depth {
            return Err(SketchError::IncompatibleMerge {
                what: format!(
                    "BlockedCountMin d={} b={} seed {} vs d={} b={} seed {}",
                    self.depth, self.buckets, self.seed, other.depth, other.buckets, other.seed
                ),
            });
        }
        let offset = self.offset;
        let len = self.buckets * Self::SLOTS;
        for (a, b) in self.buf[offset..offset + len].iter_mut().zip(other.cells()) {
            *a = a.saturating_add_i64(b.to_i64());
        }
        Ok(())
    }
}

impl<C: BlockedCell> TopK for BlockedCountMinG<C> {
    /// Like plain Count-Min, the blocked layout keeps no item directory;
    /// heavy-hitter enumeration comes from the ASketch filter in front.
    fn top_k(&self, _k: usize) -> Vec<(u64, i64)> {
        Vec::new()
    }
}

/// Payload tag for persisted blocked Count-Min state (`"SKBL"`).
const PERSIST_TAG: u32 = u32::from_le_bytes(*b"SKBL");

impl<C: BlockedCell> Persist for BlockedCountMinG<C> {
    /// Layout: tag, cell width, `seed`, `depth`, `buckets`, then the live
    /// bucket lines widened to `i64`. The alignment offset is a property
    /// of the *allocation* and is re-derived on load, never persisted.
    fn write_state(&self, out: &mut Vec<u8>) {
        persist::put_u32(out, PERSIST_TAG);
        persist::put_u8(out, C::BYTES as u8);
        persist::put_u64(out, self.seed);
        persist::put_u64(out, self.depth as u64);
        persist::put_u64(out, self.buckets as u64);
        for c in self.cells() {
            persist::put_i64(out, c.to_i64());
        }
    }

    fn read_state(r: &mut persist::ByteReader<'_>) -> Result<Self, PersistError> {
        persist::expect_tag(r, PERSIST_TAG, "BlockedCountMin")?;
        let cell = r.u8("blocked cell width")?;
        if cell as usize != C::BYTES {
            return Err(PersistError::Corrupt {
                what: format!("blocked cell width {cell} != expected {}", C::BYTES),
            });
        }
        let seed = r.u64("blocked seed")?;
        let depth = r.u64("blocked depth")? as usize;
        let buckets = r.u64("blocked buckets")? as usize;
        if buckets
            .checked_mul(Self::SLOTS)
            .is_none_or(|cells| cells.checked_mul(8).is_none_or(|b| b > r.remaining()))
        {
            return Err(PersistError::Corrupt {
                what: format!("blocked table of {buckets} buckets exceeds payload"),
            });
        }
        let mut s = Self::new(seed, depth, buckets)?;
        let offset = s.offset;
        let len = s.buckets * Self::SLOTS;
        for c in s.buf[offset..offset + len].iter_mut() {
            *c = C::from_i64_saturating(r.i64("blocked cell")?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trips_bitwise_both_widths() {
        let mut b64 = BlockedCountMin::new(17, 4, 256).unwrap();
        let mut b32 = BlockedCountMin32::new(17, 4, 256).unwrap();
        let mut x = 9u64;
        for _ in 0..6_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
            b64.update(x % 500, 1);
            b32.update(x % 500, 1);
        }
        let r64 = BlockedCountMin::from_state_bytes(&b64.to_state_bytes()).unwrap();
        let r32 = BlockedCountMin32::from_state_bytes(&b32.to_state_bytes()).unwrap();
        for key in 0..500u64 {
            assert_eq!(r64.estimate(key), b64.estimate(key), "key {key}");
            assert_eq!(r32.estimate(key), b32.estimate(key), "key {key}");
        }
    }

    #[test]
    fn persist_rejects_cell_width_confusion() {
        // 32-cell lines have 16 slots; decoding them as 8-slot 64-bit
        // lines must fail on the width byte, not misread the table.
        let b32 = BlockedCountMin32::new(3, 4, 8).unwrap();
        assert!(matches!(
            BlockedCountMin::from_state_bytes(&b32.to_state_bytes()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_dimensions_rejected() {
        assert!(BlockedCountMin::new(1, 0, 16).is_err());
        assert!(BlockedCountMin::new(1, 4, 0).is_err());
        assert!(BlockedCountMin::new(1, 9, 16).is_err(), "depth > 8 slots");
        assert!(
            BlockedCountMin32::new(1, 17, 16).is_err(),
            "depth > 16 slots"
        );
        assert!(BlockedCountMin::new(1, 8, 16).is_ok());
        assert!(BlockedCountMin32::new(1, 16, 16).is_ok());
    }

    #[test]
    fn budget_boundary() {
        let err = BlockedCountMin::with_byte_budget(1, 4, LINE_BYTES - 1).unwrap_err();
        assert!(matches!(err, SketchError::BudgetTooSmall { needed, .. } if needed == LINE_BYTES));
        let one = BlockedCountMin::with_byte_budget(1, 4, LINE_BYTES).unwrap();
        assert_eq!(one.buckets(), 1);
        assert_eq!(one.size_bytes(), LINE_BYTES);
        let big = BlockedCountMin::with_byte_budget(1, 4, 1 << 20).unwrap();
        assert_eq!(big.buckets(), (1 << 20) / LINE_BYTES);
        assert!(big.size_bytes() <= 1 << 20);
    }

    #[test]
    fn lines_are_cache_aligned_and_survive_clone() {
        fn check<C: BlockedCell>() {
            let s = BlockedCountMinG::<C>::new(3, 2, 17).unwrap();
            assert_eq!(s.cells().as_ptr() as usize % LINE_BYTES, 0);
            let c = s.clone();
            assert_eq!(c.cells().as_ptr() as usize % LINE_BYTES, 0);
            assert_eq!(c.cells(), s.cells());
        }
        check::<i64>();
        check::<i32>();
    }

    #[test]
    fn slot_mask_selects_depth_distinct_slots() {
        for depth in 1..=8usize {
            let s = BlockedCountMin::new(9, depth, 64).unwrap();
            for key in 0..2_000u64 {
                let mask = s.slot_mask(key);
                assert_eq!(mask.count_ones() as usize, depth, "key {key} depth {depth}");
                assert_eq!(mask >> 8, 0, "slot out of line for key {key}");
                assert_eq!(mask, s.slot_mask(key), "mask must be deterministic");
            }
        }
        // Full-depth i32: all 16 bits.
        let s = BlockedCountMin32::new(9, 16, 8).unwrap();
        assert_eq!(s.slot_mask(1234), u16::MAX);
    }

    #[test]
    fn masked_kernels_match_scalar_reference() {
        // Differential check of every compiled-in kernel against the scalar
        // reference, including saturation edges and deltas outside i32.
        let deltas = [
            0i64,
            1,
            -1,
            5,
            i64::MAX,
            i64::MIN + 1,
            i32::MAX as i64 + 5,
            -(i32::MAX as i64) - 9,
        ];
        let mut rng = SplitMix64::new(0xB10C);
        let mut kernels = vec![ScanKernel::Scalar, ScanKernel::get()];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.1") {
                kernels.push(ScanKernel::Sse41);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(ScanKernel::Avx2);
            }
        }
        for trial in 0..200 {
            let mask = (rng.next_u64() & 0xFFFF) as u16;
            let delta = deltas[trial % deltas.len()];
            let line64: Vec<i64> = (0..8)
                .map(|_| match rng.next_u64() % 4 {
                    0 => i64::MAX - (rng.next_u64() % 3) as i64,
                    1 => i64::MIN + (rng.next_u64() % 3) as i64,
                    _ => (rng.next_u64() % 10_000) as i64 - 5_000,
                })
                .collect();
            let line32: Vec<i32> = (0..16)
                .map(|_| match rng.next_u64() % 4 {
                    0 => i32::MAX - (rng.next_u64() % 3) as i32,
                    1 => i32::MIN + (rng.next_u64() % 3) as i32,
                    _ => (rng.next_u64() % 10_000) as i32 - 5_000,
                })
                .collect();
            for &kernel in &kernels {
                let mut got = line64.clone();
                let mut want = line64.clone();
                <i64 as BlockedCell>::masked_add(kernel, &mut got, mask & 0xFF, delta);
                masked_add_scalar(&mut want, mask & 0xFF, delta);
                assert_eq!(got, want, "i64 add {kernel:?} mask {mask:#x} delta {delta}");
                assert_eq!(
                    <i64 as BlockedCell>::masked_min(kernel, &got, mask & 0xFF),
                    masked_min_scalar(&got, mask & 0xFF),
                    "i64 min {kernel:?} mask {mask:#x}"
                );

                let mut got = line32.clone();
                let mut want = line32.clone();
                <i32 as BlockedCell>::masked_add(kernel, &mut got, mask, delta);
                masked_add_scalar(&mut want, mask, delta);
                assert_eq!(got, want, "i32 add {kernel:?} mask {mask:#x} delta {delta}");
                if mask != 0 {
                    assert_eq!(
                        <i32 as BlockedCell>::masked_min(kernel, &got, mask),
                        masked_min_scalar(&got, mask),
                        "i32 min {kernel:?} mask {mask:#x}"
                    );
                }
            }
        }
        // mask == 0 contract.
        for &kernel in &kernels {
            assert_eq!(
                <i64 as BlockedCell>::masked_min(kernel, &[1i64; 8], 0),
                i64::MAX
            );
            assert_eq!(
                <i32 as BlockedCell>::masked_min(kernel, &[1i32; 16], 0),
                i64::MAX
            );
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut s = BlockedCountMin::new(7, 4, 1 << 16).unwrap();
        for key in 0..100u64 {
            for _ in 0..(key + 1) {
                s.insert(key);
            }
        }
        for key in 0..100u64 {
            assert_eq!(s.estimate(key), (key + 1) as i64);
        }
    }

    #[test]
    fn one_sided_guarantee() {
        fn check<C: BlockedCell>() {
            let mut s = BlockedCountMinG::<C>::new(3, 4, 8).unwrap();
            let mut truth = std::collections::HashMap::new();
            let mut x: u64 = 12345;
            for _ in 0..10_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = x % 100;
                s.insert(key);
                *truth.entry(key).or_insert(0i64) += 1;
            }
            for (&key, &t) in &truth {
                assert!(s.estimate(key) >= t, "under-count for key {key}");
            }
        }
        check::<i64>();
        check::<i32>();
    }

    #[test]
    fn cell_sum_is_depth_times_mass() {
        let mut s = BlockedCountMin::new(5, 3, 128).unwrap();
        let mut total = 0i64;
        for key in 0..1000u64 {
            let delta = (key % 5) as i64 + 1;
            s.update(key, delta);
            total += delta;
        }
        assert_eq!(s.cell_sum(), 3 * total);
    }

    #[test]
    fn update_batch_matches_scalar_loop() {
        fn check<C: BlockedCell>(len: usize) {
            let mut batched = BlockedCountMinG::<C>::new(13, 4, 512).unwrap();
            let mut scalar = BlockedCountMinG::<C>::new(13, 4, 512).unwrap();
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
            assert_eq!(batched.cells(), scalar.cells(), "len={len}");
        }
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 1000] {
            check::<i64>(len);
            check::<i32>(len);
        }
    }

    #[test]
    fn estimate_batch_matches_pointwise() {
        let mut s = BlockedCountMin::new(21, 4, 256).unwrap();
        for key in 0..500u64 {
            s.update(key % 61, (key % 4) as i64);
        }
        for len in [0usize, 1, 5, 8, 9, 100] {
            let keys: Vec<u64> = (0..len as u64).map(|k| k * 17 % 90).collect();
            let batch = s.estimate_batch(&keys);
            let point: Vec<i64> = keys.iter().map(|&k| s.estimate(k)).collect();
            assert_eq!(batch, point, "len={len}");
        }
    }

    #[test]
    fn update_and_estimate_matches_separate_calls() {
        let mut a = BlockedCountMin::new(9, 4, 64).unwrap();
        let mut b = BlockedCountMin::new(9, 4, 64).unwrap();
        for key in 0..500u64 {
            let ea = a.update_and_estimate(key % 37, 2);
            b.update(key % 37, 2);
            assert_eq!(ea, b.estimate(key % 37));
        }
    }

    #[test]
    fn prime_and_insert_batch_observably_equivalent() {
        let mut a = BlockedCountMin::new(3, 4, 128).unwrap();
        let mut b = BlockedCountMin::new(3, 4, 128).unwrap();
        let keys: Vec<u64> = (0..300).map(|k| k * 7 % 97).collect();
        a.prime(&keys); // must not change state
        a.insert_batch(&keys);
        for &k in &keys {
            b.insert(k);
        }
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn shared_view_matches_estimate_exactly() {
        fn check<C: BlockedCell>() {
            let mut s = BlockedCountMinG::<C>::new(77, 4, 512).unwrap();
            let view = s.new_view();
            let mut x = 3u64;
            for _ in 0..5_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(97);
                s.update(x % 300, (x % 4) as i64 + 1);
            }
            s.store_view(&view);
            for key in 0..400u64 {
                assert_eq!(
                    BlockedCountMinG::<C>::view_estimate(&view, key),
                    s.estimate(key),
                    "key {key}"
                );
            }
        }
        check::<i64>();
        check::<i32>();
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = BlockedCountMin::new(11, 4, 256).unwrap();
        let mut b = BlockedCountMin::new(11, 4, 256).unwrap();
        a.update(7, 5);
        b.update(7, 3);
        b.update(9, 2);
        a.merge(&b).unwrap();
        assert!(a.estimate(7) >= 8);
        assert!(a.estimate(9) >= 2);
    }

    #[test]
    fn merge_rejects_mismatched() {
        let mut a = BlockedCountMin::new(1, 4, 256).unwrap();
        assert!(a.merge(&BlockedCountMin::new(2, 4, 256).unwrap()).is_err());
        assert!(a.merge(&BlockedCountMin::new(1, 3, 256).unwrap()).is_err());
        assert!(a.merge(&BlockedCountMin::new(1, 4, 128).unwrap()).is_err());
    }

    #[test]
    fn i32_saturates_instead_of_wrapping() {
        let mut s = BlockedCountMin32::new(1, 1, 1).unwrap();
        let key = 5u64;
        s.update(key, i64::MAX);
        assert_eq!(s.estimate(key), i32::MAX as i64);
        s.update(key, 1);
        assert_eq!(s.estimate(key), i32::MAX as i64, "stays saturated");
    }

    #[test]
    fn negative_updates_supported() {
        let mut s = BlockedCountMin::new(5, 4, 1 << 14).unwrap();
        s.update(42, 10);
        s.update(42, -4);
        assert_eq!(s.estimate(42), 6);
    }

    #[test]
    fn clear_resets_counts() {
        let mut s = BlockedCountMin::new(3, 2, 16).unwrap();
        s.insert(1);
        s.clear();
        assert_eq!(s.estimate(1), 0);
        assert_eq!(s.cell_sum(), 0);
    }
}
