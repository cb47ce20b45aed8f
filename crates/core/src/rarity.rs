//! Correlated rarity (Section 3.3 of the paper).
//!
//! Rarity is the fraction of distinct items that occur exactly once. In the
//! correlated setting the multiset is restricted to tuples with `y ≤ c` for a
//! query-time `c`. The paper notes that the same distinct-sampling structure
//! used for correlated `F_0` can be augmented with per-item occurrence
//! information; here each sampled identifier remembers the **two smallest y
//! values** of its occurrences, which is exactly enough to decide, for any
//! `c`, whether the identifier occurs zero times (`c < y₁`), exactly once
//! (`y₁ ≤ c < y₂`) or at least twice (`c ≥ y₂`) among tuples with `y ≤ c`.
//! Rarity is then the ratio of the two counts over the sample at the chosen
//! level (the `2^level` scale factors cancel).

use crate::config::DEFAULT_SEED;
use crate::error::{check_unit_interval, CoreError, Result};
use crate::sample_level::{LevelSampler, SampleLevel, SampleRecord};
use crate::snapshot::{self, SnapshotKind};
use cora_hash::mix::derive_seed;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError};

/// Occurrence record: the two smallest y values seen for an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TwoSmallest {
    y1: u64,
    y2: Option<u64>,
}

impl TwoSmallest {
    fn observe(&mut self, y: u64) {
        if y < self.y1 {
            self.y2 = Some(self.y1);
            self.y1 = y;
        } else {
            match self.y2 {
                None => self.y2 = Some(y),
                Some(existing) if y < existing => self.y2 = Some(y),
                _ => {}
            }
        }
    }

    /// Occurrence count among tuples with `y ≤ c`, capped at 2.
    fn occurrences_upto(&self, c: u64) -> u8 {
        if c < self.y1 {
            0
        } else {
            match self.y2 {
                Some(y2) if c >= y2 => 2,
                _ => 1,
            }
        }
    }
}

impl SampleRecord for TwoSmallest {
    fn new(y: u64) -> Self {
        Self { y1: y, y2: None }
    }

    /// The two smallest occurrences of the union are the two smallest of
    /// the (at most four) recorded occurrences.
    fn merge_from(&mut self, other: &Self) {
        self.observe(other.y1);
        if let Some(y2) = other.y2 {
            self.observe(y2);
        }
    }

    fn min_y(&self) -> u64 {
        self.y1
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.y1);
        w.put_opt_u64(self.y2);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let y1 = r.get_u64()?;
        let y2 = r.get_opt_u64()?;
        if y2.is_some_and(|y2| y2 < y1) {
            return Err(CoreError::from(CodecError::Corrupt(format!(
                "occurrence record is unordered: y1 {y1} > y2 {y2:?}"
            ))));
        }
        Ok(Self { y1, y2 })
    }
}

/// `(distinct items with ≥1 occurrence, items with exactly 1 occurrence)`
/// among a level's retained sample, restricted to `y ≤ c`.
fn counts_upto(level: &SampleLevel<TwoSmallest>, c: u64) -> (usize, usize) {
    let mut present = 0usize;
    let mut singletons = 0usize;
    for record in level.records_upto(c) {
        match record.occurrences_upto(c) {
            0 => {}
            1 => {
                present += 1;
                singletons += 1;
            }
            _ => present += 1,
        }
    }
    (present, singletons)
}

/// Correlated rarity sketch.
#[derive(Debug, Clone)]
pub struct CorrelatedRarity {
    sampler: LevelSampler<TwoSmallest>,
    y_max: u64,
    epsilon: f64,
    seed: u64,
    items_processed: u64,
}

impl CorrelatedRarity {
    /// Build a correlated rarity sketch.
    pub fn new(epsilon: f64, x_domain_log2: u32, y_max: u64) -> Result<Self> {
        Self::with_seed(epsilon, x_domain_log2, y_max, DEFAULT_SEED)
    }

    /// [`CorrelatedRarity::new`] with an explicit seed.
    pub fn with_seed(epsilon: f64, x_domain_log2: u32, y_max: u64, seed: u64) -> Result<Self> {
        check_unit_interval("epsilon", epsilon)?;
        let capacity = ((8.0 / (epsilon * epsilon)).ceil() as usize).max(32);
        Ok(Self {
            sampler: LevelSampler::new(capacity, x_domain_log2, derive_seed(seed, 0x4A41))?,
            y_max,
            epsilon,
            seed,
            items_processed: 0,
        })
    }

    /// Merge `other` into `self`: level-wise union of the samples, keeping
    /// each identifier's two smallest occurrences across both shards.
    /// Requires identical construction parameters and seed (shared hash
    /// functions make the union a valid sample of the union stream).
    pub fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.epsilon != other.epsilon
            || self.y_max != other.y_max
            || self.seed != other.seed
            || self.x_domain_log2() != other.x_domain_log2()
        {
            return Err(CoreError::IncompatibleMerge {
                detail: format!(
                    "CorrelatedRarity parameters differ: (eps {}, y_max {}, seed {:#x}, {} levels) \
                     vs (eps {}, y_max {}, seed {:#x}, {} levels)",
                    self.epsilon, self.y_max, self.seed, self.x_domain_log2() + 1,
                    other.epsilon, other.y_max, other.seed, other.x_domain_log2() + 1
                ),
            });
        }
        self.sampler.merge_from(&other.sampler)?;
        self.items_processed += other.items_processed;
        Ok(())
    }

    /// Process a stream element `(x, y)`.
    pub fn insert(&mut self, x: u64, y: u64) -> Result<()> {
        if y > self.y_max {
            return Err(CoreError::YOutOfRange { y, y_max: self.y_max });
        }
        self.items_processed += 1;
        self.sampler.insert(x, y);
        Ok(())
    }

    /// Estimate the rarity of the multiset `{x : (x, y) ∈ S, y ≤ c}`: the
    /// fraction of distinct identifiers occurring exactly once. Returns 0 for
    /// an empty selection.
    pub fn query(&self, c: u64) -> Result<f64> {
        let c = c.min(self.y_max);
        let Some((_, level)) = self.sampler.answering(c) else {
            return Err(CoreError::QueryFailed { threshold: c });
        };
        let (present, singletons) = counts_upto(level, c);
        if present == 0 {
            return Ok(0.0);
        }
        Ok(singletons as f64 / present as f64)
    }

    /// Target relative error.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Largest accepted y value.
    pub fn y_max(&self) -> u64 {
        self.y_max
    }

    /// Master seed the sampler hash function derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `log2` of the identifier domain this sketch was built for.
    pub fn x_domain_log2(&self) -> u32 {
        self.sampler.x_domain_log2()
    }

    /// Total stored tuples.
    pub fn stored_tuples(&self) -> usize {
        self.sampler.stored_tuples()
    }

    /// Number of stream elements processed.
    pub fn items_processed(&self) -> u64 {
        self.items_processed
    }

    /// Serialise the sketch into a versioned, checksummed snapshot frame
    /// (see [`crate::snapshot`]); parameters and seed travel in the payload,
    /// so [`Self::restore_from`] needs only the bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out);
        out
    }

    /// [`Self::snapshot`], appending the frame to a caller-provided buffer.
    pub fn snapshot_to(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_f64(self.epsilon);
        w.put_u64(self.y_max);
        w.put_u64(self.seed);
        w.put_u32(self.x_domain_log2());
        w.put_u64(self.items_processed);
        self.sampler.write_to(&mut w);
        snapshot::seal_frame_into(SnapshotKind::Rarity, w.as_bytes(), out);
    }

    /// Rebuild a sketch from [`Self::snapshot`] bytes (magic, version, kind,
    /// and checksum are validated before any state is interpreted).
    pub fn restore_from(bytes: &[u8]) -> Result<Self> {
        let payload = snapshot::open_frame(bytes, SnapshotKind::Rarity)?;
        let mut r = ByteReader::new(payload);
        let epsilon = r.get_f64()?;
        let y_max = r.get_u64()?;
        let seed = r.get_u64()?;
        let x_domain_log2 = r.get_u32()?;
        let mut sketch = Self::with_seed(epsilon, x_domain_log2, y_max, seed)?;
        sketch.items_processed = r.get_u64()?;
        sketch.sampler.read_from(&mut r)?;
        r.expect_end()?;
        Ok(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(CorrelatedRarity::new(0.0, 20, 100).is_err());
        assert!(CorrelatedRarity::new(0.2, 0, 100).is_err());
        assert!(CorrelatedRarity::new(0.2, 20, 100).is_ok());
    }

    #[test]
    fn two_smallest_tracking() {
        let mut t = TwoSmallest::new(50);
        assert_eq!(t.occurrences_upto(49), 0);
        assert_eq!(t.occurrences_upto(50), 1);
        t.observe(80);
        assert_eq!(t.occurrences_upto(70), 1);
        assert_eq!(t.occurrences_upto(80), 2);
        t.observe(10);
        assert_eq!(t.y1, 10);
        assert_eq!(t.y2, Some(50));
        assert_eq!(t.occurrences_upto(30), 1);
        assert_eq!(t.occurrences_upto(60), 2);
    }

    #[test]
    fn exact_rarity_on_small_stream() {
        let mut r = CorrelatedRarity::with_seed(0.2, 16, 1000, 3).unwrap();
        // Items 0..10 appear once with y = 10*x; items 100..105 appear twice
        // (y = 5 and y = 600).
        for x in 0..10u64 {
            r.insert(x, x * 10).unwrap();
        }
        for x in 100..105u64 {
            r.insert(x, 5).unwrap();
            r.insert(x, 600).unwrap();
        }
        // At c = 95: items 0..10 (singletons) and 100..105 (each seen once so far).
        let rarity = r.query(95).unwrap();
        assert!((rarity - 1.0).abs() < 1e-9);
        // At c = 1000: 10 singletons out of 15 distinct items.
        let rarity = r.query(1000).unwrap();
        assert!((rarity - 10.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_selection_has_zero_rarity() {
        let mut r = CorrelatedRarity::with_seed(0.2, 16, 1000, 3).unwrap();
        r.insert(1, 500).unwrap();
        assert_eq!(r.query(100).unwrap(), 0.0);
    }

    #[test]
    fn rejects_out_of_range_y() {
        let mut r = CorrelatedRarity::new(0.2, 16, 100).unwrap();
        assert!(r.insert(1, 101).is_err());
    }

    #[test]
    fn merge_matches_sequential_on_small_streams() {
        let build = || CorrelatedRarity::with_seed(0.2, 16, 1000, 3).unwrap();
        let mut seq = build();
        let mut left = build();
        let mut right = build();
        // Items occur once or twice, split across shards so some pairs are
        // torn (each shard sees one occurrence of a twice-occurring item).
        for x in 0..60u64 {
            let y1 = (x * 13) % 1001;
            seq.insert(x, y1).unwrap();
            left.insert(x, y1).unwrap();
            if x % 3 == 0 {
                let y2 = (x * 31) % 1001;
                seq.insert(x, y2).unwrap();
                right.insert(x, y2).unwrap();
            }
        }
        left.merge_from(&right).unwrap();
        assert_eq!(left.items_processed(), seq.items_processed());
        for c in (0..=1000u64).step_by(125) {
            assert_eq!(left.query(c).unwrap(), seq.query(c).unwrap(), "c={c}");
        }
    }

    #[test]
    fn merge_rejects_mismatched_parameters() {
        let mut a = CorrelatedRarity::with_seed(0.2, 16, 1000, 3).unwrap();
        let seed = CorrelatedRarity::with_seed(0.2, 16, 1000, 4).unwrap();
        let eps = CorrelatedRarity::with_seed(0.3, 16, 1000, 3).unwrap();
        let levels = CorrelatedRarity::with_seed(0.2, 18, 1000, 3).unwrap();
        for other in [&seed, &eps, &levels] {
            assert!(matches!(
                a.merge_from(other),
                Err(CoreError::IncompatibleMerge { .. })
            ));
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut s = CorrelatedRarity::with_seed(0.2, 18, 1 << 18, 7).unwrap();
        for x in 0..20_000u64 {
            s.insert(x % 6_000, (x * 13) % (1 << 18)).unwrap();
        }
        let bytes = s.snapshot();
        let restored = CorrelatedRarity::restore_from(&bytes).unwrap();
        assert_eq!(restored.items_processed(), s.items_processed());
        assert_eq!(restored.stored_tuples(), s.stored_tuples());
        for c in (0..=(1u64 << 18)).step_by(1 << 13) {
            assert_eq!(restored.query(c).unwrap(), s.query(c).unwrap(), "c={c}");
        }
        // Merge compatibility survives the round trip.
        let mut shard = CorrelatedRarity::with_seed(0.2, 18, 1 << 18, 7).unwrap();
        for x in 0..400u64 {
            shard.insert(7_000 + x, x).unwrap();
        }
        let mut a = s.clone();
        let mut b = restored;
        a.merge_from(&shard).unwrap();
        b.merge_from(&shard).unwrap();
        for c in (0..=(1u64 << 18)).step_by(1 << 14) {
            assert_eq!(a.query(c).unwrap(), b.query(c).unwrap(), "c={c}");
        }
        assert_eq!(s.snapshot(), bytes);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut s = CorrelatedRarity::with_seed(0.3, 12, 1000, 3).unwrap();
        for x in 0..150u64 {
            s.insert(x, (x * 3) % 1001).unwrap();
        }
        let bytes = s.snapshot();
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x80;
        assert!(matches!(
            CorrelatedRarity::restore_from(&corrupt),
            Err(CoreError::Snapshot { .. })
        ));
        assert!(CorrelatedRarity::restore_from(&bytes[..10]).is_err());
    }

    #[test]
    fn approximate_rarity_on_large_stream() {
        let epsilon = 0.15;
        let mut r = CorrelatedRarity::with_seed(epsilon, 20, 1 << 20, 7).unwrap();
        // 40k identifiers: even ids occur once (y = id), odd ids occur twice
        // (y = id and y = id + 2^19). True rarity at c = 2^19: ids <= 2^19 all
        // occur exactly once => rarity 1.0; at c = 2^20: odd ids occur twice.
        let n = 40_000u64;
        for x in 0..n {
            r.insert(x, x).unwrap();
            if x % 2 == 1 {
                r.insert(x, x + (1 << 19)).unwrap();
            }
        }
        let rarity_low = r.query((1 << 19) - 1).unwrap();
        assert!(
            (rarity_low - 1.0).abs() < 0.05,
            "rarity below the fold should be ~1.0, got {rarity_low}"
        );
        let rarity_full = r.query(1 << 20).unwrap();
        assert!(
            (rarity_full - 0.5).abs() < 3.0 * epsilon,
            "full rarity should be ~0.5, got {rarity_full}"
        );
        assert!(r.stored_tuples() < n as usize);
    }
}
