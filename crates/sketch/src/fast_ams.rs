//! The "fast AMS" second-moment estimator (Thorup & Zhang, SODA 2004; also the
//! CountSketch-based F2 estimator of Charikar–Chen–Farach-Colton).
//!
//! This is the variant the paper's experiments use ("a variant of the
//! algorithm due to Alon et al., based on the idea of Thorup and Zhang. This
//! variant gives a better update time", Section 5.1): instead of touching
//! `O(1/ε²)` atoms per update, each row hashes the item to one of `width`
//! buckets and adds `sign(x) · weight` there — `O(1)` counter updates per row.
//! The per-row estimate is the sum of squared bucket counters; the final
//! estimate is the median over rows.
//!
//! Like the classic AMS sketch this is a linear sketch: it supports turnstile
//! (negative-weight) updates and merges by counter-wise addition.
//!
//! # Kernel layout
//!
//! The counters live in **one flat row-major `depth × width` lane**
//! (`lane[r * width + b]` is bucket `b` of row `r`) with a per-row `Σ c²`
//! sideband held exactly in `i128`. Row hash functions are stored as inline
//! fixed-arity coefficient arrays (`k = 2` bucket polynomial, `k = 4` sign
//! polynomial over GF(2^61 − 1)), copied verbatim out of
//! [`PolynomialHash`], so one `key mod 2^61−1` reduction is shared by all
//! `2 × depth` polynomial evaluations of an update instead of being redone
//! per hash call.
//!
//! Updates are split into a **hash phase** and an **apply phase**
//! (see [`SharedUpdate`]): `prepare_batch_into` computes every
//! `(row, bucket, signed delta)` coordinate of a batch in one pass and lays
//! them out row-major, and `apply_prepared_range` then walks one contiguous
//! coordinate slice per row against that row's contiguous lane segment
//! (`apply_row_kernel`). The kernel is *scalar-exact*: coordinates are
//! applied in stream order, so duplicate buckets see each other's writes
//! exactly as a one-at-a-time loop would, and the resulting counters and
//! sidebands are bit-identical to per-tuple [`StreamSketch::update`] calls
//! (pinned by the `kernel_equivalence` test suite). A single update through
//! the framework is a batch of one.
//!
//! # Adaptive depth trimming
//!
//! A sketch built with depth `d` can serve a caller whose failure budget δ
//! only needs `d' = O(log 1/δ) ≤ d` rows: [`FastAmsSketch::trim_to_delta`]
//! restricts the hot update/estimate loops to the first `d'` rows (the
//! remaining rows stay allocated but are provably all-zero). Trimming is a
//! construction-time choice — it must happen before the first update, and
//! merges require both sides to agree on the trim — so estimates remain
//! well-defined medians over rows that saw the whole stream.

use crate::error::{check_delta, check_epsilon, Result, SketchError};
use crate::estimator_util::{median_mut, repetitions_for_delta};
use crate::traits::{Estimate, MergeableSketch, SharedUpdate, SpaceUsage, StreamSketch};
use cora_hash::mix::derive_seed;
use cora_hash::polynomial::{add_mod_m61, mul_mod_m61, PolynomialHash};
use cora_hash::MERSENNE_61;

/// The odd constant [`PolynomialHash`]'s `hash64` multiplies by to spread a
/// 61-bit field element over the full 64-bit range (kept identical here so
/// the inline evaluators reproduce `hash64` bit-for-bit).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// One row's hash functions as inline fixed-arity coefficient arrays: the
/// degree-1 bucket polynomial and the degree-3 sign polynomial. 48 bytes,
/// `Copy`, no heap indirection on the hot path.
#[derive(Debug, Clone, Copy)]
struct RowHashes {
    /// Bucket polynomial coefficients `a_0, a_1` (2-wise independence).
    bucket: [u64; 2],
    /// Sign polynomial coefficients `a_0 .. a_3` (4-wise independence).
    sign: [u64; 4],
}

impl RowHashes {
    /// Derive the row's hash coefficients from its seed, through the same
    /// [`PolynomialHash`] constructor the scalar path always used — the
    /// coefficient *values* (and therefore every hash) are unchanged.
    fn new(seed: u64) -> Self {
        let bucket_hash = PolynomialHash::new(2, derive_seed(seed, 0xB));
        let sign_hash = PolynomialHash::new(4, derive_seed(seed, 0x5));
        let b = bucket_hash.coefficients();
        let s = sign_hash.coefficients();
        Self {
            bucket: [b[0], b[1]],
            sign: [s[0], s[1], s[2], s[3]],
        }
    }

    /// The row's bucket for a key already reduced into the field
    /// (`x = key mod 2^61−1`): Horner evaluation, 64-bit spread, Lemire
    /// range reduction — step for step what
    /// `PolynomialHash::hash_range(key, width)` computes.
    #[inline]
    fn bucket_of(&self, x: u64, width: u64) -> u32 {
        let acc = add_mod_m61(mul_mod_m61(self.bucket[1], x), self.bucket[0]);
        let h = acc.wrapping_mul(SPREAD);
        ((u128::from(h) * u128::from(width)) >> 64) as u32
    }

    /// The row's ±1 sign for a reduced key: bit 62 of the spread degree-3
    /// polynomial, as in the scalar path.
    #[inline]
    fn sign_of(&self, x: u64) -> i64 {
        let mut acc = self.sign[3];
        acc = add_mod_m61(mul_mod_m61(acc, x), self.sign[2]);
        acc = add_mod_m61(mul_mod_m61(acc, x), self.sign[1]);
        acc = add_mod_m61(mul_mod_m61(acc, x), self.sign[0]);
        if (acc.wrapping_mul(SPREAD) >> 62) & 1 == 1 {
            1
        } else {
            -1
        }
    }
}

/// Reduce an item key into GF(2^61 − 1) once; shared by every polynomial
/// evaluation of the update.
#[inline]
fn reduce_key(item: u64) -> u64 {
    item % MERSENNE_61
}

/// The scalar-exact apply kernel: add each `(bucket, delta)` coordinate pair
/// to the row's counter lane **in stream order**, carrying the running exact
/// `Σ c²` in a register.
#[inline]
fn apply_row_kernel(lane: &mut [i64], buckets: &[u32], deltas: &[i64], sumsq: &mut i128) {
    debug_assert_eq!(buckets.len(), deltas.len());
    let mut acc = *sumsq;
    for (&b, &d) in buckets.iter().zip(deltas) {
        bump(&mut lane[b as usize], &mut acc, d);
    }
    *sumsq = acc;
}

/// Exact `Σ c²` of a counter lane segment, in `i128`. Integer addition is
/// associative and exact, so any evaluation order gives the same bits.
#[inline]
fn lane_sumsq(lane: &[i64]) -> i128 {
    lane.iter().map(|&c| (c as i128) * (c as i128)).sum()
}

/// Add `delta` to one counter, keeping its row's exact `Σ c²` in step, and
/// return the counter's new value.
#[inline]
fn bump(counter: &mut i64, sumsq: &mut i128, delta: i64) -> i64 {
    let old = *counter;
    *counter = old + delta;
    // (c + d)² − c² = (2c + d)·d, evaluated in i128 so it is exact.
    *sumsq += (2 * old as i128 + delta as i128) * delta as i128;
    old + delta
}

/// Median of `value(0), …, value(n − 1)` through a stack buffer: the
/// correlated framework estimates on every insert and the heavy-hitters path
/// point-queries on every insert, so the common small-depth case must not
/// allocate.
#[inline]
fn median_of_rows(n: usize, mut value: impl FnMut(usize) -> f64) -> f64 {
    const STACK: usize = 32;
    if n <= STACK {
        let mut buf = [0.0f64; STACK];
        for (r, slot) in buf[..n].iter_mut().enumerate() {
            *slot = value(r);
        }
        median_mut(&mut buf[..n]).unwrap_or(0.0)
    } else {
        let mut per_row: Vec<f64> = (0..n).map(value).collect();
        median_mut(&mut per_row).unwrap_or(0.0)
    }
}

/// Fast AMS / CountSketch-bucketed estimator for `F_2`.
#[derive(Debug, Clone)]
pub struct FastAmsSketch {
    /// `depth × width` counters, row-major: `lane[r * width + b]`.
    lane: Vec<i64>,
    /// Per-row `Σ c²` sideband, maintained on every update so the per-row
    /// `F_2` estimate is O(1) instead of O(width). Kept in `i128` so the
    /// running value is *exact* (each counter fits in `i64`, so `c²` fits in
    /// `i128` with enormous headroom) — the estimate is bit-for-bit the true
    /// sum of squares, with none of the rounding a recomputed `f64` sum
    /// would have.
    sumsq: Vec<i128>,
    /// Per-row hash coefficients, index-aligned with the lane's rows.
    hashes: Vec<RowHashes>,
    width: usize,
    /// Rows the hot update/estimate loops touch (`≤ depth`); rows past this
    /// are provably all-zero. See the module docs on depth trimming.
    active: usize,
    seed: u64,
}

impl FastAmsSketch {
    /// Build a sketch achieving relative error `epsilon` with failure
    /// probability `delta`.
    ///
    /// The width is `⌈6/ε²⌉` buckets per row and the depth `O(log 1/δ)` rows,
    /// the standard parameterisation for the Thorup–Zhang estimator.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Result<Self> {
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        let width = ((6.0 / (epsilon * epsilon)).ceil() as usize).max(2);
        let depth = repetitions_for_delta(delta);
        Ok(Self::with_dimensions(width, depth, seed))
    }

    /// Build a sketch with explicit dimensions.
    pub fn with_dimensions(width: usize, depth: usize, seed: u64) -> Self {
        let width = width.max(1);
        let depth = depth.max(1);
        let hashes = (0..depth)
            .map(|r| RowHashes::new(derive_seed(seed, r as u64)))
            .collect();
        Self {
            lane: vec![0; width * depth],
            sumsq: vec![0; depth],
            hashes,
            width,
            active: depth,
            seed,
        }
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.sumsq.len()
    }

    /// Seed used to derive the hash functions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rows the update/estimate hot loops touch (`≤ depth`); equals the
    /// depth unless the sketch was trimmed.
    pub fn active_rows(&self) -> usize {
        self.active
    }

    /// Restrict the hot loops to the first `O(log 1/δ)` rows needed for
    /// failure probability `delta`, if that is fewer than the sketch's
    /// depth. Returns the resulting active row count.
    ///
    /// Must be called before the first update (the skipped rows would
    /// otherwise have missed part of the stream and poison the median);
    /// trimming a non-empty sketch is rejected. Merges and prepared-batch
    /// application require both sides to agree on the trim.
    pub fn trim_to_delta(&mut self, delta: f64) -> Result<usize> {
        check_delta(delta)?;
        if !self.is_empty() {
            return Err(SketchError::InvalidParameter {
                name: "delta",
                detail: "depth can only be trimmed on an empty sketch".into(),
            });
        }
        self.active = repetitions_for_delta(delta).min(self.depth());
        Ok(self.active)
    }

    /// CountSketch-style point estimate of the signed frequency of `item`
    /// (median over rows). Exposed because the correlated heavy-hitters
    /// structure reuses the same counters for both `F_2` estimation and
    /// per-item frequency estimation, exactly as described in Section 3.3.
    pub fn frequency_estimate(&self, item: u64) -> f64 {
        let x = reduce_key(item);
        let w = self.width as u64;
        median_of_rows(self.active, |r| {
            let h = &self.hashes[r];
            let b = h.bucket_of(x, w) as usize;
            (h.sign_of(x) * self.lane[r * self.width + b]) as f64
        })
    }

    /// Apply tuple `i` of a prepared batch and return that item's point
    /// estimate — the median over rows of `sign · counter`, read from the
    /// counters just written, so it equals [`Self::frequency_estimate`] of
    /// that item without hashing it again. `weight` must be tuple `i`'s
    /// non-zero weight: a row's delta is `sign · weight`, so the row's sign
    /// is `+1` exactly when delta and weight agree in sign.
    pub fn apply_batch_item_estimating(&mut self, batch: &FastAmsBatch, i: usize, weight: i64) -> f64 {
        debug_assert_ne!(weight, 0, "a zero weight leaves the row signs unrecoverable");
        assert!(i < batch.len, "prepared-batch index out of bounds");
        // Buckets are only valid lane offsets for the width they were
        // reduced into.
        assert_eq!(
            batch.width as usize, self.width,
            "prepared batch width does not match sketch width"
        );
        debug_assert_eq!(batch.rows, self.active);
        median_of_rows(self.active, |r| {
            let (b, delta) = (batch.buckets[r * batch.len + i], batch.deltas[r * batch.len + i]);
            let slot = &mut self.lane[r * self.width + b as usize];
            let counter = bump(slot, &mut self.sumsq[r], delta);
            (if (delta ^ weight) < 0 { -counter } else { counter }) as f64
        })
    }

    /// True iff no update has ever been applied (all counters zero).
    pub fn is_empty(&self) -> bool {
        // sumsq = Σ c² is zero exactly when every counter in the row is zero.
        self.sumsq.iter().all(|&s| s == 0)
    }

    /// Snapshot hook: the raw counter lane of each row, in row order.
    pub(crate) fn row_counters(&self) -> impl Iterator<Item = &[i64]> {
        self.lane.chunks_exact(self.width)
    }

    /// Snapshot hook: overwrite every row's counters (`None` = all-zero row)
    /// and rebuild the incremental sums of squares. `rows` must match the
    /// sketch's depth and width (the codec validates both before calling).
    pub(crate) fn load_row_counters(&mut self, rows: &[Option<Vec<i64>>]) {
        debug_assert_eq!(rows.len(), self.depth());
        for (r, loaded) in rows.iter().enumerate() {
            let row = &mut self.lane[r * self.width..(r + 1) * self.width];
            match loaded {
                None => {
                    row.fill(0);
                    self.sumsq[r] = 0;
                }
                Some(counters) => {
                    row.copy_from_slice(counters);
                    self.sumsq[r] = lane_sumsq(row);
                }
            }
        }
    }
}

impl StreamSketch for FastAmsSketch {
    #[inline]
    fn update(&mut self, item: u64, weight: i64) {
        let x = reduce_key(item);
        let w = self.width as u64;
        for (r, h) in self.hashes[..self.active].iter().enumerate() {
            let slot = &mut self.lane[r * self.width + h.bucket_of(x, w) as usize];
            bump(slot, &mut self.sumsq[r], h.sign_of(x) * weight);
        }
    }
}

/// Precomputed coordinates for a whole batch of fast-AMS updates, laid out
/// **row-major** in two flat arrays: the entry for tuple `i` in row `r` lives
/// at index `r * len + i`. Applying a contiguous tuple range to a sketch
/// therefore walks one contiguous coordinate slice per row against that
/// row's contiguous lane segment.
///
/// The batch records the `width` and row count it was prepared with; the
/// apply path checks them against the target sketch (every bucket value is
/// `< width` by construction).
#[derive(Debug, Clone, Default)]
pub struct FastAmsBatch {
    buckets: Vec<u32>,
    deltas: Vec<i64>,
    /// Number of tuples in the batch (the row stride).
    len: usize,
    /// Rows prepared (the preparing sketch's active row count).
    rows: usize,
    /// Width the buckets were reduced into.
    width: u32,
}

impl SharedUpdate for FastAmsSketch {
    type PreparedBatch = FastAmsBatch;

    fn prepare_batch_into(&self, items: &[(u64, i64)], out: &mut FastAmsBatch) {
        let n = items.len();
        let rows = self.active;
        out.len = n;
        out.rows = rows;
        out.width = self.width as u32;
        out.buckets.clear();
        out.deltas.clear();
        out.buckets.resize(rows * n, 0);
        out.deltas.resize(rows * n, 0);
        let w = self.width as u64;
        let hashes = &self.hashes[..rows];
        for (i, &(item, weight)) in items.iter().enumerate() {
            let x = reduce_key(item);
            for (r, h) in hashes.iter().enumerate() {
                out.buckets[r * n + i] = h.bucket_of(x, w);
                out.deltas[r * n + i] = h.sign_of(x) * weight;
            }
        }
    }

    fn apply_prepared_range(&mut self, batch: &FastAmsBatch, range: std::ops::Range<usize>) {
        if range.start >= range.end {
            return;
        }
        assert!(range.end <= batch.len, "prepared-batch range out of bounds");
        // Hard check, not debug: buckets reduced into another width would
        // land in the wrong counters.
        assert_eq!(
            batch.width as usize, self.width,
            "prepared batch width does not match sketch width"
        );
        debug_assert_eq!(batch.rows, self.active);
        for r in 0..batch.rows {
            let base = r * batch.len;
            let lane = &mut self.lane[r * self.width..(r + 1) * self.width];
            apply_row_kernel(
                lane,
                &batch.buckets[base + range.start..base + range.end],
                &batch.deltas[base + range.start..base + range.end],
                &mut self.sumsq[r],
            );
        }
    }
}

impl Estimate for FastAmsSketch {
    fn estimate(&self) -> f64 {
        // The per-row sums of squares are maintained incrementally, so this is
        // O(depth).
        median_of_rows(self.active, |r| self.sumsq[r] as f64)
    }
}

impl MergeableSketch for FastAmsSketch {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.width != other.width
            || self.depth() != other.depth()
            || self.seed != other.seed
            || self.active != other.active
        {
            return Err(SketchError::IncompatibleMerge {
                detail: format!(
                    "FastAMS dims/seed/trim mismatch: ({}x{}, {:#x}, {} active) vs ({}x{}, {:#x}, {} active)",
                    self.depth(),
                    self.width,
                    self.seed,
                    self.active,
                    other.depth(),
                    other.width,
                    other.seed,
                    other.active
                ),
            });
        }
        for r in 0..self.depth() {
            // Empty rows contribute nothing; skipping them makes merging a
            // sparse shard (the common case when composing per-bucket
            // sketches at query time) O(1) per row instead of O(width).
            if other.sumsq[r] == 0 {
                continue;
            }
            let base = r * self.width;
            let src = &other.lane[base..base + self.width];
            let dst = &mut self.lane[base..base + self.width];
            if self.sumsq[r] == 0 {
                dst.copy_from_slice(src);
                self.sumsq[r] = other.sumsq[r];
                continue;
            }
            for (c, &d) in dst.iter_mut().zip(src) {
                *c += d;
            }
            // Rebuild from the merged counters (which were all touched
            // anyway); exact integer sums are order-independent.
            self.sumsq[r] = lane_sumsq(&self.lane[base..base + self.width]);
        }
        Ok(())
    }
}

impl SpaceUsage for FastAmsSketch {
    fn stored_tuples(&self) -> usize {
        self.lane.len()
    }

    fn space_bytes(&self) -> usize {
        self.stored_tuples() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator_util::relative_error;

    fn exact_f2(freqs: &[(u64, i64)]) -> f64 {
        freqs.iter().map(|&(_, f)| (f as f64) * (f as f64)).sum()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FastAmsSketch::new(0.0, 0.1, 1).is_err());
        assert!(FastAmsSketch::new(0.2, 1.0, 1).is_err());
    }

    #[test]
    fn sizes_follow_epsilon_and_delta() {
        let s = FastAmsSketch::new(0.1, 0.05, 1).unwrap();
        assert_eq!(s.width(), 600);
        let s2 = FastAmsSketch::new(0.2, 0.05, 1).unwrap();
        assert_eq!(s2.width(), 150);
        assert!(FastAmsSketch::new(0.2, 0.001, 1).unwrap().depth() > s2.depth() / 2);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = FastAmsSketch::with_dimensions(64, 5, 3);
        assert_eq!(s.estimate(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn inline_hashes_match_polynomial_hash() {
        // The copied-out coefficient arrays must reproduce PolynomialHash's
        // hash_range and sign bit exactly, key for key.
        use cora_hash::traits::HashFunction64;
        for seed in [0u64, 3, 17, 0xDEAD_BEEF] {
            let h = RowHashes::new(seed);
            let bucket_hash = PolynomialHash::new(2, derive_seed(seed, 0xB));
            let sign_hash = PolynomialHash::new(4, derive_seed(seed, 0x5));
            for key in (0..2000u64).chain([u64::MAX, MERSENNE_61, MERSENNE_61 + 1]) {
                let x = reduce_key(key);
                assert_eq!(
                    h.bucket_of(x, 200) as u64,
                    bucket_hash.hash_range(key, 200),
                    "bucket mismatch at key {key}"
                );
                let expected_sign = if (sign_hash.hash64(key) >> 62) & 1 == 1 { 1 } else { -1 };
                assert_eq!(h.sign_of(x), expected_sign, "sign mismatch at key {key}");
            }
        }
    }

    #[test]
    fn estimate_accuracy_uniform() {
        let mut s = FastAmsSketch::new(0.15, 0.05, 21).unwrap();
        let freqs: Vec<(u64, i64)> = (0..500u64).map(|x| (x, 20)).collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        let err = relative_error(s.estimate(), exact_f2(&freqs));
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn estimate_accuracy_skewed() {
        let mut s = FastAmsSketch::new(0.15, 0.05, 22).unwrap();
        let freqs: Vec<(u64, i64)> =
            (0..300u64).map(|x| (x, (3000 / (x + 1)) as i64)).collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        let err = relative_error(s.estimate(), exact_f2(&freqs));
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn turnstile_cancellation() {
        let mut s = FastAmsSketch::with_dimensions(128, 5, 9);
        for x in 0..100u64 {
            s.update(x, 3);
        }
        for x in 0..100u64 {
            s.update(x, -3);
        }
        assert_eq!(s.estimate(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn merge_equals_single_pass() {
        let seed = 4;
        let mut full = FastAmsSketch::with_dimensions(256, 5, seed);
        let mut a = FastAmsSketch::with_dimensions(256, 5, seed);
        let mut b = FastAmsSketch::with_dimensions(256, 5, seed);
        for x in 0..1000u64 {
            let w = (x % 11) as i64 + 1;
            full.update(x, w);
            if x % 2 == 0 {
                a.update(x, w);
            } else {
                b.update(x, w);
            }
        }
        let merged = a.merged(&b).unwrap();
        assert_eq!(merged.estimate(), full.estimate());
        assert_eq!(merged.lane, full.lane);
        assert_eq!(merged.sumsq, full.sumsq);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let a = FastAmsSketch::with_dimensions(64, 5, 1);
        let b = FastAmsSketch::with_dimensions(64, 5, 2);
        let c = FastAmsSketch::with_dimensions(32, 5, 1);
        assert!(a.merged(&b).is_err());
        assert!(a.merged(&c).is_err());
    }

    #[test]
    fn merge_rejects_trim_mismatch() {
        let mut a = FastAmsSketch::with_dimensions(64, 9, 1);
        a.trim_to_delta(0.3).unwrap();
        let b = FastAmsSketch::with_dimensions(64, 9, 1);
        assert!(a.active_rows() < b.active_rows());
        assert!(a.merged(&b).is_err());
    }

    #[test]
    fn point_estimates_are_exact_for_isolated_items() {
        // With width much larger than the number of items, collisions are
        // unlikely and the estimate should be exact, whatever the sign.
        let mut s = FastAmsSketch::with_dimensions(4096, 5, 7);
        s.update(1, 100);
        s.update(2, -40);
        assert_eq!(s.frequency_estimate(1), 100.0);
        assert_eq!(s.frequency_estimate(2), -40.0);
        assert_eq!(s.frequency_estimate(3), 0.0);
    }

    #[test]
    fn point_estimate_recovers_heavy_item_among_noise() {
        let mut s = FastAmsSketch::with_dimensions(1024, 7, 3);
        s.update(77, 50_000);
        for x in 1000..3000u64 {
            s.update(x, 3);
        }
        let est = s.frequency_estimate(77);
        assert!((est - 50_000.0).abs() < 1_000.0, "estimate {est}");
    }

    #[test]
    fn point_estimates_cancel_under_turnstile_updates() {
        let mut s = FastAmsSketch::with_dimensions(256, 5, 9);
        for x in 0..50u64 {
            s.update(x, 6);
        }
        for x in 0..50u64 {
            s.update(x, -6);
        }
        for x in 0..50u64 {
            assert_eq!(s.frequency_estimate(x), 0.0);
        }
    }

    #[test]
    fn merged_point_estimates_match_single_pass() {
        let seed = 5;
        let mut full = FastAmsSketch::with_dimensions(512, 5, seed);
        let mut a = FastAmsSketch::with_dimensions(512, 5, seed);
        let mut b = FastAmsSketch::with_dimensions(512, 5, seed);
        for x in 0..400u64 {
            let w = (x % 13) as i64 + 1;
            full.update(x, w);
            if x % 3 == 0 {
                a.update(x, w);
            } else {
                b.update(x, w);
            }
        }
        let merged = a.merged(&b).unwrap();
        for x in (0..400u64).step_by(17) {
            assert_eq!(merged.frequency_estimate(x), full.frequency_estimate(x));
        }
    }

    #[test]
    fn estimating_applies_return_the_point_estimate_without_rehashing() {
        // The apply-and-estimate entry point must leave exactly the counters
        // `update` leaves and return exactly what a fresh
        // `frequency_estimate` of the item then reads — for either weight
        // sign, on a sketch narrow enough that rows collide.
        let items: Vec<(u64, i64)> = (0..400u64)
            .map(|i| (i * 31 % 97, if i % 5 == 0 { -((i % 7) as i64) - 1 } else { (i % 9) as i64 + 1 }))
            .collect();
        let proto = FastAmsSketch::with_dimensions(16, 3, 13);
        let mut batch = FastAmsBatch::default();
        proto.prepare_batch_into(&items, &mut batch);
        let mut reference = proto.clone();
        let mut batched = proto.clone();
        for (i, &(x, w)) in items.iter().enumerate() {
            reference.update(x, w);
            let expected = reference.frequency_estimate(x);
            assert_eq!(batched.apply_batch_item_estimating(&batch, i, w), expected, "tuple {i}");
        }
        assert_eq!(batched.lane, reference.lane);
        assert_eq!(batched.sumsq, reference.sumsq);
    }

    #[test]
    fn space_accounting() {
        let s = FastAmsSketch::with_dimensions(100, 7, 1);
        assert_eq!(s.stored_tuples(), 700);
        assert_eq!(s.space_bytes(), 5600);
    }

    #[test]
    fn single_item_estimate_exact() {
        let mut s = FastAmsSketch::with_dimensions(16, 3, 5);
        s.update(7, 13);
        assert_eq!(s.estimate(), 169.0);
    }

    #[test]
    fn prepared_batch_ranges_match_per_tuple_updates() {
        // Applying arbitrary sub-ranges of a prepared batch must be
        // bit-identical to per-tuple updates of the same tuples in order.
        let proto = FastAmsSketch::with_dimensions(64, 5, 13);
        let items: Vec<(u64, i64)> = (0..300u64).map(|i| (i * 31 % 97, (i % 9) as i64 + 1)).collect();
        let mut batch = FastAmsBatch::default();
        proto.prepare_batch_into(&items, &mut batch);
        let mut scalar = FastAmsSketch::with_dimensions(64, 5, 13);
        let mut batched = FastAmsSketch::with_dimensions(64, 5, 13);
        for &(x, w) in &items {
            scalar.update(x, w);
        }
        for range in [0..100, 100..101, 101..300] {
            batched.apply_prepared_range(&batch, range);
        }
        assert_eq!(scalar.estimate(), batched.estimate());
        assert_eq!(scalar.lane, batched.lane);
        assert_eq!(scalar.sumsq, batched.sumsq);
    }

    #[test]
    fn kernel_handles_duplicate_buckets_in_quad() {
        // Eight copies of the same item must accumulate exactly (the kernel
        // re-reads each counter it just wrote).
        let proto = FastAmsSketch::with_dimensions(8, 3, 7);
        let items: Vec<(u64, i64)> = vec![(42, 1); 8];
        let mut batch = FastAmsBatch::default();
        proto.prepare_batch_into(&items, &mut batch);
        let mut batched = FastAmsSketch::with_dimensions(8, 3, 7);
        batched.apply_prepared_range(&batch, 0..8);
        let mut scalar = FastAmsSketch::with_dimensions(8, 3, 7);
        for &(x, w) in &items {
            scalar.update(x, w);
        }
        assert_eq!(scalar.lane, batched.lane);
        assert_eq!(scalar.sumsq, batched.sumsq);
        assert_eq!(batched.estimate(), 64.0);
    }

    #[test]
    #[should_panic(expected = "width does not match")]
    fn apply_rejects_foreign_width_batch() {
        let proto = FastAmsSketch::with_dimensions(64, 3, 1);
        let mut batch = FastAmsBatch::default();
        proto.prepare_batch_into(&[(1, 1), (2, 1)], &mut batch);
        let mut wrong = FastAmsSketch::with_dimensions(32, 3, 1);
        wrong.apply_prepared_range(&batch, 0..2);
    }

    #[test]
    fn trimmed_sketch_matches_shallow_sketch() {
        // A depth-9 sketch trimmed to d' rows must produce exactly the lane
        // prefix and estimate of a natively depth-d' sketch (rows share
        // per-row seeds).
        let mut deep = FastAmsSketch::with_dimensions(64, 9, 5);
        let trimmed_rows = deep.trim_to_delta(0.3).unwrap();
        assert!(trimmed_rows < 9, "delta 0.3 should need fewer than 9 rows");
        let mut shallow = FastAmsSketch::with_dimensions(64, trimmed_rows, 5);
        for i in 0..500u64 {
            let (x, w) = (i * 17 % 211, (i % 5) as i64 + 1);
            deep.update(x, w);
            shallow.update(x, w);
        }
        assert_eq!(deep.estimate(), shallow.estimate());
        assert_eq!(
            &deep.lane[..trimmed_rows * 64],
            &shallow.lane[..],
        );
        // Rows past the trim never saw an update.
        assert!(deep.lane[trimmed_rows * 64..].iter().all(|&c| c == 0));
    }

    #[test]
    fn trim_rejects_non_empty_sketch() {
        let mut s = FastAmsSketch::with_dimensions(64, 9, 5);
        s.update(1, 1);
        assert!(s.trim_to_delta(0.3).is_err());
    }

    #[test]
    fn incremental_sumsq_matches_recomputation() {
        // The running per-row Σc² must stay exactly equal to a from-scratch
        // recomputation through mixed-sign updates and a merge.
        let mut s = FastAmsSketch::with_dimensions(64, 5, 77);
        let mut other = FastAmsSketch::with_dimensions(64, 5, 77);
        let mut state = 1u64;
        for _ in 0..5_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = (state % 7) as i64 - 3; // mixed signs exercise cancellation
            s.update(state >> 32, if w == 0 { 1 } else { w });
            other.update(state >> 17, 2);
        }
        s.merge_from(&other).unwrap();
        for (row, &sumsq) in s.lane.chunks_exact(s.width).zip(&s.sumsq) {
            assert_eq!(sumsq, lane_sumsq(row));
        }
    }
}
