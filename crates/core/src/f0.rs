//! Correlated distinct counting `F_0` (Section 3.2 of the paper).
//!
//! The paper adapts the Gibbons–Tirthapura distinct sampler: maintain samples
//! `S_0, S_1, …, S_k` (`k = log m`); item `(x, y)` is placed in level `i` iff
//! `h(x) < 2^{-i}`. Each level has a capacity `α`; instead of the FIFO
//! eviction of the sliding-window algorithm, the correlated variant keeps the
//! entries with the **smallest y values** (a priority queue keyed by y), and
//! each retained identifier remembers the smallest y it has been seen with.
//!
//! A query for `|{x : (x, y) ∈ S, y ≤ c}|` picks the smallest level that has
//! not evicted any entry with y ≤ c (tracked by a per-level watermark, the
//! analogue of `Y_ℓ`), counts the sampled identifiers with `y_min ≤ c`, and
//! scales by `2^{level}`.

use crate::config::DEFAULT_SEED;
use crate::error::{check_unit_interval, CoreError, Result};
use crate::sample_level::LevelSampler;
use crate::snapshot::{self, SnapshotKind};
use cora_hash::mix::derive_seed;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError};

/// Correlated `F_0` sketch: estimates `|{x : (x, y) ∈ S, y ≤ c}|` for a
/// query-time threshold `c`, using the median over independent sampler
/// instances.
#[derive(Debug, Clone)]
pub struct CorrelatedF0 {
    /// One sampler per independent hash function; each item's record is the
    /// smallest y it has been seen with.
    samplers: Vec<LevelSampler<u64>>,
    epsilon: f64,
    delta: f64,
    y_max: u64,
    seed: u64,
    items_processed: u64,
}

impl CorrelatedF0 {
    /// Build a correlated `F_0` sketch.
    ///
    /// * `epsilon`, `delta` — target accuracy / failure probability;
    /// * `x_domain_log2` — `log2` of the identifier domain size `m` (sets the
    ///   number of sampling levels, as in the paper where the number of levels
    ///   is `log m`);
    /// * `y_max` — largest y value that will be inserted.
    pub fn new(epsilon: f64, delta: f64, x_domain_log2: u32, y_max: u64) -> Result<Self> {
        Self::with_seed(epsilon, delta, x_domain_log2, y_max, DEFAULT_SEED)
    }

    /// [`CorrelatedF0::new`] with an explicit seed.
    pub fn with_seed(
        epsilon: f64,
        delta: f64,
        x_domain_log2: u32,
        y_max: u64,
        seed: u64,
    ) -> Result<Self> {
        check_unit_interval("epsilon", epsilon)?;
        check_unit_interval("delta", delta)?;
        // Practical sizing (see DESIGN.md): the query level retains up to
        // `capacity` sampled identifiers, giving relative error ~ 1/sqrt of
        // the retained count; a handful of independent instances are medianed.
        let capacity = ((4.0 / (epsilon * epsilon)).ceil() as usize).max(16);
        let instances = ((1.0 / delta).ln().ceil() as usize).max(3) | 1;
        let samplers = (0..instances)
            .map(|i| {
                let hash_seed = derive_seed(derive_seed(seed, i as u64), 0xC0F0);
                LevelSampler::new(capacity, x_domain_log2, hash_seed)
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            samplers,
            epsilon,
            delta,
            y_max,
            seed,
            items_processed: 0,
        })
    }

    /// Merge `other` into `self` (Property V lifted to the correlated
    /// distinct sampler): every sampler instance merges level-wise — items
    /// keep the smallest y either shard saw them with, watermarks drop to the
    /// lower of the two, and capacities are re-enforced. Requires identical
    /// construction parameters and seed (the samplers must share hash
    /// functions for the union to be a sample of the union stream).
    pub fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.epsilon != other.epsilon
            || self.delta != other.delta
            || self.y_max != other.y_max
            || self.seed != other.seed
            || self.samplers.len() != other.samplers.len()
        {
            return Err(CoreError::IncompatibleMerge {
                detail: format!(
                    "CorrelatedF0 parameters differ: (eps {}, delta {}, y_max {}, seed {:#x}, {} instances) \
                     vs (eps {}, delta {}, y_max {}, seed {:#x}, {} instances)",
                    self.epsilon, self.delta, self.y_max, self.seed, self.samplers.len(),
                    other.epsilon, other.delta, other.y_max, other.seed, other.samplers.len()
                ),
            });
        }
        for (s, o) in self.samplers.iter_mut().zip(&other.samplers) {
            s.merge_from(o)?;
        }
        self.items_processed += other.items_processed;
        Ok(())
    }

    /// Target relative error.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Target failure probability.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of independent sampler instances (medianed at query time).
    pub fn instances(&self) -> usize {
        self.samplers.len()
    }

    /// Largest accepted y value.
    pub fn y_max(&self) -> u64 {
        self.y_max
    }

    /// Master seed the sampler hash functions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `log2` of the identifier domain this sketch was built for (one
    /// sampling level per bit, plus level 0).
    pub fn x_domain_log2(&self) -> u32 {
        self.samplers[0].x_domain_log2()
    }

    /// Number of stream elements processed.
    pub fn items_processed(&self) -> u64 {
        self.items_processed
    }

    /// Process a stream element `(x, y)`.
    pub fn insert(&mut self, x: u64, y: u64) -> Result<()> {
        if y > self.y_max {
            return Err(CoreError::YOutOfRange {
                y,
                y_max: self.y_max,
            });
        }
        self.items_processed += 1;
        for s in &mut self.samplers {
            s.insert(x, y);
        }
        Ok(())
    }

    /// Estimate the number of distinct identifiers among tuples with `y ≤ c`.
    pub fn query(&self, c: u64) -> Result<f64> {
        let c = c.min(self.y_max);
        let mut estimates: Vec<f64> = Vec::with_capacity(self.samplers.len());
        for s in &self.samplers {
            if let Some((i, level)) = s.answering(c) {
                estimates.push(level.count_upto(c) as f64 * 2f64.powi(i as i32));
            }
        }
        if estimates.is_empty() {
            return Err(CoreError::QueryFailed { threshold: c });
        }
        estimates.sort_by(|a, b| a.total_cmp(b));
        Ok(estimates[estimates.len() / 2])
    }

    /// Total stored tuples across all samplers and levels — the unit reported
    /// in the paper's Figures 6 and 7.
    pub fn stored_tuples(&self) -> usize {
        self.samplers.iter().map(LevelSampler::stored_tuples).sum()
    }

    /// Serialise the sketch into a versioned, checksummed snapshot frame
    /// (see [`crate::snapshot`]). The construction parameters — seed
    /// included — travel in the payload, so [`Self::restore_from`] needs only
    /// the bytes, answers queries bit-identically, and stays
    /// merge-compatible with same-parameter sketches.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out);
        out
    }

    /// [`Self::snapshot`], appending the frame to a caller-provided buffer.
    pub fn snapshot_to(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_f64(self.epsilon);
        w.put_f64(self.delta);
        w.put_u64(self.y_max);
        w.put_u64(self.seed);
        w.put_u32(self.x_domain_log2());
        w.put_u64(self.items_processed);
        w.put_len(self.samplers.len());
        for sampler in &self.samplers {
            sampler.write_to(&mut w);
        }
        snapshot::seal_frame_into(SnapshotKind::F0, w.as_bytes(), out);
    }

    /// Rebuild a sketch from [`Self::snapshot`] bytes (magic, version, kind,
    /// and checksum are validated before any state is interpreted).
    pub fn restore_from(bytes: &[u8]) -> Result<Self> {
        let payload = snapshot::open_frame(bytes, SnapshotKind::F0)?;
        let mut r = ByteReader::new(payload);
        let epsilon = r.get_f64()?;
        let delta = r.get_f64()?;
        let y_max = r.get_u64()?;
        let seed = r.get_u64()?;
        let x_domain_log2 = r.get_u32()?;
        let mut sketch = Self::with_seed(epsilon, delta, x_domain_log2, y_max, seed)?;
        sketch.items_processed = r.get_u64()?;
        let n = r.get_len()?;
        if n != sketch.samplers.len() {
            return Err(CoreError::from(CodecError::Corrupt(format!(
                "snapshot has {n} sampler instances, parameters derive {}",
                sketch.samplers.len()
            ))));
        }
        for sampler in &mut sketch.samplers {
            sampler.read_from(&mut r)?;
        }
        r.expect_end()?;
        Ok(sketch)
    }

    /// Approximate heap bytes (each stored entry is an `(item, y)` pair plus
    /// its index entry).
    pub fn space_bytes(&self) -> usize {
        self.stored_tuples() * 2 * std::mem::size_of::<(u64, u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(CorrelatedF0::new(0.0, 0.1, 20, 100).is_err());
        assert!(CorrelatedF0::new(0.1, 0.0, 20, 100).is_err());
        assert!(CorrelatedF0::new(0.1, 0.1, 0, 100).is_err());
        assert!(CorrelatedF0::new(0.1, 0.1, 64, 100).is_err());
        assert!(CorrelatedF0::new(0.1, 0.1, 20, 100).is_ok());
    }

    #[test]
    fn rejects_out_of_range_y() {
        let mut s = CorrelatedF0::new(0.2, 0.1, 10, 100).unwrap();
        assert!(matches!(s.insert(1, 101), Err(CoreError::YOutOfRange { .. })));
        assert!(s.insert(1, 100).is_ok());
    }

    #[test]
    fn empty_query_is_zero() {
        let s = CorrelatedF0::new(0.2, 0.1, 10, 1000).unwrap();
        assert_eq!(s.query(500).unwrap(), 0.0);
    }

    #[test]
    fn exact_when_small() {
        let mut s = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 3).unwrap();
        for x in 0..100u64 {
            s.insert(x, x * 10).unwrap();
        }
        // All 100 identifiers fit in level 0, so counts are exact.
        assert_eq!(s.query(1000).unwrap(), 100.0);
        assert_eq!(s.query(495).unwrap(), 50.0);
        assert_eq!(s.query(0).unwrap(), 1.0);
    }

    #[test]
    fn duplicates_keep_smallest_y() {
        let mut s = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 3).unwrap();
        s.insert(7, 900).unwrap();
        s.insert(7, 100).unwrap();
        s.insert(7, 500).unwrap();
        // The identifier's smallest y is 100, so it is counted from c = 100 on.
        assert_eq!(s.query(99).unwrap(), 0.0);
        assert_eq!(s.query(100).unwrap(), 1.0);
        assert_eq!(s.query(1000).unwrap(), 1.0);
    }

    #[test]
    fn merge_matches_sequential_on_small_streams() {
        // Below every level's capacity the sampler state is a deterministic
        // function of the (item, min-y) multiset, so shard-then-merge must
        // answer every threshold exactly like sequential ingest.
        let build = || CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 3).unwrap();
        let mut seq = build();
        let mut left = build();
        let mut right = build();
        for x in 0..120u64 {
            let y = (x * 7) % 1001;
            seq.insert(x, y).unwrap();
            if x % 2 == 0 {
                left.insert(x, y).unwrap();
            } else {
                right.insert(x, y).unwrap();
            }
        }
        left.merge_from(&right).unwrap();
        assert_eq!(left.items_processed(), seq.items_processed());
        for c in (0..=1000u64).step_by(100) {
            assert_eq!(left.query(c).unwrap(), seq.query(c).unwrap(), "c={c}");
        }
    }

    #[test]
    fn merge_keeps_smallest_y_across_shards() {
        let build = || CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 3).unwrap();
        let mut a = build();
        let mut b = build();
        a.insert(7, 900).unwrap();
        b.insert(7, 100).unwrap();
        a.merge_from(&b).unwrap();
        assert_eq!(a.query(99).unwrap(), 0.0);
        assert_eq!(a.query(100).unwrap(), 1.0);
    }

    #[test]
    fn merge_rejects_mismatched_parameters() {
        let mut a = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 3).unwrap();
        let seed = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 4).unwrap();
        let eps = CorrelatedF0::with_seed(0.3, 0.1, 16, 1000, 3).unwrap();
        let domain = CorrelatedF0::with_seed(0.2, 0.1, 16, 2000, 3).unwrap();
        for other in [&seed, &eps, &domain] {
            assert!(matches!(
                a.merge_from(other),
                Err(CoreError::IncompatibleMerge { .. })
            ));
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut s = CorrelatedF0::with_seed(0.2, 0.05, 18, 1 << 18, 11).unwrap();
        for x in 0..30_000u64 {
            s.insert(x % 9_000, (x * 7) % (1 << 18)).unwrap();
        }
        let bytes = s.snapshot();
        let restored = CorrelatedF0::restore_from(&bytes).unwrap();
        assert_eq!(restored.items_processed(), s.items_processed());
        assert_eq!(restored.stored_tuples(), s.stored_tuples());
        for c in (0..=(1u64 << 18)).step_by(1 << 13) {
            assert_eq!(restored.query(c).unwrap(), s.query(c).unwrap(), "c={c}");
        }
        // Restored sketches stay merge-compatible with live shards.
        let mut shard = CorrelatedF0::with_seed(0.2, 0.05, 18, 1 << 18, 11).unwrap();
        for x in 0..500u64 {
            shard.insert(10_000 + x, x).unwrap();
        }
        let mut a = s.clone();
        let mut b = restored;
        a.merge_from(&shard).unwrap();
        b.merge_from(&shard).unwrap();
        for c in (0..=(1u64 << 18)).step_by(1 << 14) {
            assert_eq!(a.query(c).unwrap(), b.query(c).unwrap(), "c={c}");
        }
        assert_eq!(s.snapshot(), bytes, "identical state must snapshot identically");
    }

    #[test]
    fn snapshot_rejects_corruption_and_wrong_kind() {
        let mut s = CorrelatedF0::with_seed(0.3, 0.1, 12, 1000, 3).unwrap();
        for x in 0..200u64 {
            s.insert(x, x % 1000).unwrap();
        }
        let bytes = s.snapshot();
        let mut corrupt = bytes.clone();
        corrupt[20] ^= 1;
        assert!(matches!(
            CorrelatedF0::restore_from(&corrupt),
            Err(CoreError::Snapshot { .. })
        ));
        assert!(CorrelatedF0::restore_from(&bytes[..bytes.len() - 4]).is_err());
        // A rarity frame is not an F0 frame.
        let rarity = crate::rarity::CorrelatedRarity::with_seed(0.3, 12, 1000, 3)
            .unwrap()
            .snapshot();
        assert!(CorrelatedF0::restore_from(&rarity).is_err());
    }

    #[test]
    fn accuracy_on_large_uniform_stream() {
        let epsilon = 0.15;
        let y_max = 1_000_000u64;
        let mut s = CorrelatedF0::with_seed(epsilon, 0.05, 20, y_max, 11).unwrap();
        // 60k distinct identifiers, y uniform; each identifier's y is x * 16,
        // so the correlated distinct count at threshold c is ~c/16.
        let n = 60_000u64;
        for x in 0..n {
            s.insert(x, (x * 16) % (y_max + 1)).unwrap();
        }
        for &c in &[y_max / 8, y_max / 2, y_max] {
            let truth = ((c / 16) + 1).min(n) as f64;
            let est = s.query(c).unwrap();
            let err = (est - truth).abs() / truth;
            assert!(
                err < 2.5 * epsilon,
                "c = {c}: estimate {est}, truth {truth}, err {err}"
            );
        }
    }

    #[test]
    fn eviction_pushes_queries_to_deeper_levels_but_stays_accurate() {
        let epsilon = 0.2;
        let mut s = CorrelatedF0::with_seed(epsilon, 0.05, 20, 1 << 20, 17).unwrap();
        let n = 100_000u64;
        for x in 0..n {
            // y correlated with x so low thresholds select few identifiers.
            s.insert(x, (x * 7) % (1 << 20)).unwrap();
        }
        let c = 1 << 19; // half the domain -> about half the identifiers
        let truth = (n / 2) as f64;
        let est = s.query(c).unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 2.5 * epsilon, "estimate {est}, truth {truth}, err {err}");
        // Space must be far below the number of distinct identifiers.
        assert!(
            s.stored_tuples() < (n as usize) / 2,
            "sampler stores {} tuples for {} distinct items",
            s.stored_tuples(),
            n
        );
    }

    #[test]
    fn space_is_bounded_by_capacity_times_levels() {
        let mut s = CorrelatedF0::with_seed(0.3, 0.2, 20, 1 << 20, 5).unwrap();
        for x in 0..200_000u64 {
            s.insert(x, x % (1 << 20)).unwrap();
        }
        let cap = ((4.0_f64 / (0.3 * 0.3)).ceil() as usize).max(16);
        let bound = s.instances() * 21 * cap;
        assert!(s.stored_tuples() <= bound);
        assert!(s.space_bytes() >= s.stored_tuples());
        assert_eq!(s.items_processed(), 200_000);
    }
}
