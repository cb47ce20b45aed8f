//! Higher frequency moments `F_k`, `k ≥ 2`, in the spirit of Indyk & Woodruff
//! (STOC 2005): account for heavy items directly, estimate the light residual
//! by uniform item subsampling, and scale the subsample back up.
//!
//! ## Structure
//!
//! * a pairwise-independent hash assigns each item a geometric "deepest
//!   level"; level `j` receives exactly the items whose deepest level is ≥ j,
//!   so level `j` sees each item with probability `2^{-j}` (level 0 sees all);
//! * every level maintains a [`SpaceSaving`] summary with `capacity` counters.
//!   While a SpaceSaving summary has never evicted, its counts are **exact**
//!   and complete — the estimator leans on this regime.
//!
//! ## Estimation
//!
//! * If level 0 never evicted, the whole frequency vector is known exactly and
//!   the estimate is exact.
//! * Otherwise, items whose *guaranteed* level-0 count exceeds a noise
//!   threshold (a constant multiple of the SpaceSaving error bound) form the
//!   heavy set `H`; their contribution `Σ f̂_x^k` is added directly.
//! * The light residual is estimated from the shallowest level `j*` that never
//!   evicted (its counts are exact): `2^{j*} · Σ_{x ∈ level j*, x ∉ H} f_x^k`.
//!   Each light item is present at level `j*` with probability `2^{-j*}`, so
//!   the scaled sum is an unbiased estimator of the light contribution.
//!
//! Every component is mergeable, so the whole structure satisfies Property V
//! of the correlated-aggregation paper (composable summaries), which is what
//! `cora-core` needs to lift it to a correlated aggregate. This is an
//! engineering simplification of the Indyk–Woodruff algorithm — see DESIGN.md
//! ("Substitutions").
//!
//! For `k = 2` prefer [`crate::fast_ams::FastAmsSketch`], which is cheaper and
//! has the textbook guarantee; `FkSketch` accepts `k = 2` as well (useful for
//! cross-validation in tests and ablations).

use crate::codec::{check_dim, ByteReader, ByteWriter, CodecResult, StateCodec};
use crate::error::{check_delta, check_epsilon, Result, SketchError};
use crate::space_saving::SpaceSaving;
use crate::traits::{Estimate, MergeableSketch, SharedUpdate, SpaceUsage, StreamSketch};
use cora_hash::mix::derive_seed;
use cora_hash::polynomial::PolynomialHash;
use cora_hash::traits::HashFunction64;
use std::collections::HashSet;

/// Default number of subsampling levels: enough for streams of up to ~2^30
/// distinct items.
const DEFAULT_LEVELS: usize = 30;

/// Heavy items must have a guaranteed count at least this multiple of the
/// SpaceSaving error bound before their k-th power is trusted directly.
const HEAVY_NOISE_FACTOR: u64 = 8;

/// Estimator for the k-th frequency moment, `k ≥ 2`.
#[derive(Debug, Clone)]
pub struct FkSketch {
    k: u32,
    /// Pairwise hash deciding the deepest subsampling level of each item.
    level_hash: PolynomialHash,
    /// `levels[j]` summarises the items whose deepest level is ≥ j.
    levels: Vec<SpaceSaving>,
    capacity: usize,
    seed: u64,
}

impl FkSketch {
    /// Build an `F_k` estimator targeting relative error `epsilon` with
    /// failure probability `delta`.
    pub fn new(k: u32, epsilon: f64, delta: f64, seed: u64) -> Result<Self> {
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        if k < 2 {
            return Err(SketchError::InvalidParameter {
                name: "k",
                detail: format!("FkSketch requires k >= 2, got {k}"),
            });
        }
        // The subsample at the chosen level has O(capacity) items; its
        // relative sampling error is O(1/sqrt(capacity)), so capacity ~ 1/eps^2.
        // log(1/delta) enters through the number of levels kept comfortably
        // under capacity (failure means "no unsaturated level found").
        let capacity = ((8.0 / (epsilon * epsilon)).ceil() as usize).clamp(32, 1 << 15);
        Ok(Self::with_dimensions(k, capacity, DEFAULT_LEVELS, seed))
    }

    /// Build with explicit dimensions (tests / ablations).
    pub fn with_dimensions(k: u32, capacity: usize, num_levels: usize, seed: u64) -> Self {
        let num_levels = num_levels.clamp(1, 60);
        let capacity = capacity.max(4);
        let levels = (0..num_levels).map(|_| SpaceSaving::new(capacity)).collect();
        Self {
            k,
            level_hash: PolynomialHash::new(2, derive_seed(seed, 0x1E7E1)),
            levels,
            capacity,
            seed,
        }
    }

    /// The moment order `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of subsampling levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level SpaceSaving capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest level at which `item` is retained (level 0 always retains).
    #[inline]
    fn item_level(&self, item: u64) -> usize {
        let u = self.level_hash.hash_unit(item);
        let mut level = 0usize;
        let mut threshold = 1.0f64;
        while level + 1 < self.levels.len() {
            threshold *= 0.5;
            if u < threshold {
                level += 1;
            } else {
                break;
            }
        }
        level
    }

    #[inline]
    fn pow_k(&self, f: f64) -> f64 {
        f.abs().powi(self.k as i32)
    }
}

impl StreamSketch for FkSketch {
    fn update(&mut self, item: u64, weight: i64) {
        debug_assert!(weight >= 0, "FkSketch only supports the cash-register model");
        let deepest = self.item_level(item);
        for level in 0..=deepest {
            self.levels[level].update(item, weight);
        }
    }
}

/// Precomputed coordinates of one `F_k` update in a prepared batch: the
/// item's deepest subsampling level (seed-determined) plus the update itself.
#[derive(Debug, Clone, Default)]
pub struct FkPrepared {
    deepest: u32,
    item: u64,
    weight: i64,
}

impl SharedUpdate for FkSketch {
    // The per-level SpaceSaving summaries are stateful (not linear), so only
    // the subsampling-level hash is shareable work and there is no flat
    // coordinate layout to exploit: the batch is one `FkPrepared` per tuple.
    type PreparedBatch = Vec<FkPrepared>;

    fn prepare_batch_into(&self, items: &[(u64, i64)], out: &mut Self::PreparedBatch) {
        out.clear();
        out.extend(items.iter().map(|&(item, weight)| FkPrepared {
            deepest: self.item_level(item) as u32,
            item,
            weight,
        }));
    }

    fn apply_prepared_range(&mut self, batch: &Self::PreparedBatch, range: std::ops::Range<usize>) {
        for prepared in &batch[range] {
            debug_assert!(prepared.weight >= 0, "FkSketch only supports the cash-register model");
            let deepest = (prepared.deepest as usize).min(self.levels.len() - 1);
            for level in &mut self.levels[..=deepest] {
                level.update(prepared.item, prepared.weight);
            }
        }
    }
}

impl Estimate for FkSketch {
    fn estimate(&self) -> f64 {
        let level0 = &self.levels[0];
        if level0.is_exact() {
            // The whole frequency vector fits in the summary: exact answer.
            return level0.entries().map(|e| self.pow_k(e.count as f64)).sum();
        }

        // Heavy part: items whose guaranteed count clears the noise floor.
        let threshold = HEAVY_NOISE_FACTOR * level0.error_bound().max(1);
        let heavy = level0.guaranteed_above(threshold);
        let heavy_items: HashSet<u64> = heavy.iter().map(|e| e.item).collect();
        let heavy_sum: f64 = heavy
            .iter()
            .map(|e| {
                // Midpoint correction: the true count lies in
                // [count - overestimate, count].
                let corrected = e.count as f64 - 0.5 * e.overestimate as f64;
                self.pow_k(corrected)
            })
            .sum();

        // Light part: shallowest level whose summary is still exact.
        let mut light_sum = 0.0;
        for (j, level) in self.levels.iter().enumerate() {
            if !level.is_exact() && j + 1 < self.levels.len() {
                continue;
            }
            let scale = 2f64.powi(j.min(62) as i32);
            light_sum = level
                .entries()
                .filter(|e| !heavy_items.contains(&e.item))
                .map(|e| self.pow_k(e.count as f64 - 0.5 * e.overestimate as f64))
                .sum::<f64>()
                * scale;
            break;
        }
        heavy_sum + light_sum
    }
}

impl MergeableSketch for FkSketch {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.k != other.k
            || self.levels.len() != other.levels.len()
            || self.seed != other.seed
            || self.capacity != other.capacity
        {
            return Err(SketchError::IncompatibleMerge {
                detail: format!(
                    "FkSketch mismatch: (k={}, levels={}, cap={}, seed={:#x}) vs (k={}, levels={}, cap={}, seed={:#x})",
                    self.k,
                    self.levels.len(),
                    self.capacity,
                    self.seed,
                    other.k,
                    other.levels.len(),
                    other.capacity,
                    other.seed
                ),
            });
        }
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            a.merge_from(b)?;
        }
        Ok(())
    }
}

impl SpaceUsage for FkSketch {
    fn stored_tuples(&self) -> usize {
        self.levels.iter().map(SpaceUsage::stored_tuples).sum()
    }

    fn space_bytes(&self) -> usize {
        self.levels.iter().map(SpaceUsage::space_bytes).sum()
    }
}

impl StateCodec for FkSketch {
    /// Order, level count and seed, then every level's summary (the level
    /// hash is re-derived from the seed).
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(u64::from(self.k));
        w.put_len(self.levels.len());
        w.put_u64(self.seed);
        for level in &self.levels {
            level.encode_state(w);
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        check_dim("F_k order", r.get_u64()?, u64::from(self.k))?;
        check_dim("F_k levels", r.get_u64()?, self.levels.len() as u64)?;
        check_dim("F_k seed", r.get_u64()?, self.seed)?;
        for level in &mut self.levels {
            level.decode_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator_util::relative_error;

    fn exact_fk(freqs: &[(u64, i64)], k: u32) -> f64 {
        freqs.iter().map(|&(_, f)| (f.abs() as f64).powi(k as i32)).sum()
    }

    #[test]
    fn parameter_validation() {
        assert!(FkSketch::new(1, 0.2, 0.1, 1).is_err());
        assert!(FkSketch::new(3, 0.0, 0.1, 1).is_err());
        assert!(FkSketch::new(3, 0.2, 0.0, 1).is_err());
        assert!(FkSketch::new(3, 0.2, 0.1, 1).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let s = FkSketch::new(3, 0.3, 0.1, 1).unwrap();
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn small_streams_are_exact() {
        let mut s = FkSketch::with_dimensions(3, 128, 20, 7);
        let freqs: Vec<(u64, i64)> = (0..100u64).map(|x| (x, (x % 7) as i64 + 1)).collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        assert_eq!(s.estimate(), exact_fk(&freqs, 3));
    }

    #[test]
    fn single_heavy_item_is_exact() {
        let mut s = FkSketch::with_dimensions(3, 64, 20, 7);
        s.update(42, 10);
        assert_eq!(s.estimate(), 1000.0);
    }

    #[test]
    fn skewed_stream_f3_accuracy() {
        let mut s = FkSketch::new(3, 0.2, 0.05, 13).unwrap();
        let freqs: Vec<(u64, i64)> = (0..5_000u64)
            .map(|x| (x, (200_000 / (x + 1).pow(2)).max(1) as i64))
            .collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        let truth = exact_fk(&freqs, 3);
        let err = relative_error(s.estimate(), truth);
        assert!(err < 0.25, "relative error {err} on skewed F3");
    }

    #[test]
    fn uniform_stream_f3_accuracy() {
        // Uniform frequencies: everything rides on the subsampled level.
        let mut s = FkSketch::with_dimensions(3, 1024, 24, 17);
        let freqs: Vec<(u64, i64)> = (0..20_000u64).map(|x| (x, 5)).collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        let truth = exact_fk(&freqs, 3);
        let err = relative_error(s.estimate(), truth);
        assert!(err < 0.25, "relative error {err} on uniform F3");
    }

    #[test]
    fn f2_cross_validates_against_exact() {
        let mut s = FkSketch::new(2, 0.1, 0.05, 23).unwrap();
        let freqs: Vec<(u64, i64)> = (0..30_000u64).map(|x| (x, (x % 9) as i64 + 1)).collect();
        for &(x, f) in &freqs {
            s.update(x, f);
        }
        let truth = exact_fk(&freqs, 2);
        let err = relative_error(s.estimate(), truth);
        assert!(err < 0.3, "relative error {err} on F2 cross-check");
    }

    #[test]
    fn item_levels_are_geometric() {
        let s = FkSketch::with_dimensions(3, 64, 20, 5);
        let n = 100_000u64;
        let at_least_one = (0..n).filter(|&x| s.item_level(x) >= 1).count();
        let frac = at_least_one as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.02,
            "about half of items should reach level >= 1, got {frac}"
        );
        let at_least_three = (0..n).filter(|&x| s.item_level(x) >= 3).count();
        let frac3 = at_least_three as f64 / n as f64;
        assert!(
            (frac3 - 0.125).abs() < 0.01,
            "about 1/8 of items should reach level >= 3, got {frac3}"
        );
    }

    #[test]
    fn merge_is_close_to_single_pass() {
        let seed = 31;
        let mut full = FkSketch::with_dimensions(3, 512, 20, seed);
        let mut a = FkSketch::with_dimensions(3, 512, 20, seed);
        let mut b = FkSketch::with_dimensions(3, 512, 20, seed);
        let freqs: Vec<(u64, i64)> = (0..4_000u64)
            .map(|x| (x, (40_000 / (x + 1)).max(1) as i64))
            .collect();
        for &(x, f) in &freqs {
            full.update(x, f);
            if x % 2 == 0 {
                a.update(x, f);
            } else {
                b.update(x, f);
            }
        }
        let merged = a.merged(&b).unwrap();
        let e1 = merged.estimate();
        let truth = exact_fk(&freqs, 3);
        assert!(
            relative_error(e1, truth) < 0.3,
            "merged estimate {e1} vs truth {truth}"
        );
        let e2 = full.estimate();
        assert!(relative_error(e2, truth) < 0.3, "single-pass {e2} vs truth {truth}");
    }

    #[test]
    fn merge_rejects_mismatched_k() {
        let a = FkSketch::with_dimensions(3, 64, 20, 1);
        let b = FkSketch::with_dimensions(4, 64, 20, 1);
        assert!(a.merged(&b).is_err());
    }

    #[test]
    fn space_grows_with_stream_until_capacity() {
        let mut s = FkSketch::with_dimensions(3, 64, 10, 1);
        let before = s.stored_tuples();
        for x in 0..1000u64 {
            s.update(x, 1);
        }
        let after = s.stored_tuples();
        assert!(after > before);
        // Bounded by levels * capacity.
        assert!(after <= 10 * 64);
    }

    #[test]
    fn snapshot_round_trip_restores_every_level() {
        let mut s = FkSketch::with_dimensions(3, 16, 8, 21);
        for i in 0..3_000u64 {
            s.update(i % 97 * (i % 5), 1 + (i % 3) as i64);
        }
        assert!(!s.levels[0].is_exact(), "level 0 must have evicted");
        let bytes = |s: &FkSketch| {
            let mut w = ByteWriter::new();
            s.encode_state(&mut w);
            w.into_bytes()
        };
        let encoded = bytes(&s);
        let mut restored = FkSketch::with_dimensions(3, 16, 8, 21);
        let mut r = ByteReader::new(&encoded);
        restored.decode_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert!(bytes(&restored) == encoded);
        // The estimate sums over hash-map order, so compare within rounding.
        assert!((restored.estimate() - s.estimate()).abs() <= 1e-9 * s.estimate());
        let mut other_seed = FkSketch::with_dimensions(3, 16, 8, 22);
        assert!(other_seed.decode_state(&mut ByteReader::new(&encoded)).is_err());
        let mut other_capacity = FkSketch::with_dimensions(3, 32, 8, 21);
        assert!(other_capacity.decode_state(&mut ByteReader::new(&encoded)).is_err());
    }
}
