//! The y-prioritised sampling levels shared by the distinct-sampling
//! structures (correlated `F_0`, Section 3.2, and rarity, Section 3.3).
//!
//! A [`LevelSampler`] is the paper's `S_0, S_1, …, S_k` under one hash
//! function: identifier `x` is placed in level `i` iff `h(x) < 2^{-i}`.
//! Each [`SampleLevel`] retains at most `capacity` sampled identifiers — the
//! ones whose smallest y is smallest — each with a per-item record `R` of
//! what has been seen of it. Overflow evicts the identifier with the largest
//! smallest-y and lowers the level's eviction watermark (the analogue of
//! `Y_ℓ`) to that y: the level can answer exactly the thresholds below its
//! watermark.

use crate::compose::{first_answering, min_watermark};
use crate::error::{CoreError, Result};
use cora_hash::polynomial::PolynomialHash;
use cora_hash::traits::HashFunction64;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::{BTreeSet, HashMap};

/// What a level remembers about one sampled identifier.
pub(crate) trait SampleRecord: Copy {
    /// The record of an identifier first seen with `y`.
    fn new(y: u64) -> Self;
    /// Fold another record of the same identifier into this one (Property V
    /// per item; a single new occurrence is `merge_from(&Self::new(y))`).
    fn merge_from(&mut self, other: &Self);
    /// The smallest y recorded — the eviction priority.
    fn min_y(&self) -> u64;
    /// Append the record's snapshot bytes.
    fn encode(&self, w: &mut ByteWriter);
    /// Read back what [`Self::encode`] wrote.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;
}

/// The `F_0` record: the smallest y the identifier has been seen with.
impl SampleRecord for u64 {
    fn new(y: u64) -> Self {
        y
    }

    fn merge_from(&mut self, other: &Self) {
        *self = (*self).min(*other);
    }

    fn min_y(&self) -> u64 {
        *self
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(r.get_u64()?)
    }
}

/// One sampling level: identifiers sampled at this level, keyed for
/// y-priority eviction.
#[derive(Debug, Clone)]
pub(crate) struct SampleLevel<R> {
    /// item -> its record (at this level).
    by_item: HashMap<u64, R>,
    /// `(min_y, item)` pairs ordered by y for eviction of the largest y.
    by_y: BTreeSet<(u64, u64)>,
    /// Smallest y ever evicted from this level (`None` = nothing evicted).
    evicted_watermark: Option<u64>,
}

impl<R: SampleRecord> SampleLevel<R> {
    fn new() -> Self {
        Self {
            by_item: HashMap::new(),
            by_y: BTreeSet::new(),
            evicted_watermark: None,
        }
    }

    /// Merge another level's sample into this one (Property V for the
    /// distinct sampler): fold the per-item records together, re-enforcing
    /// the capacity as a sequential overflow would, and take the lower
    /// eviction watermark.
    fn merge_from(&mut self, other: &Self, capacity: usize) {
        for (item, record) in &other.by_item {
            self.fold(*item, record, capacity);
        }
        self.evicted_watermark = min_watermark(self.evicted_watermark, other.evicted_watermark);
    }

    /// Fold `incoming` into `item`'s record (or retain it as new), then
    /// enforce the capacity.
    fn fold(&mut self, item: u64, incoming: &R, capacity: usize) {
        match self.by_item.get_mut(&item) {
            Some(mine) => {
                let old = mine.min_y();
                mine.merge_from(incoming);
                if mine.min_y() != old {
                    self.by_y.remove(&(old, item));
                    self.by_y.insert((mine.min_y(), item));
                }
            }
            None => {
                self.by_item.insert(item, *incoming);
                self.by_y.insert((incoming.min_y(), item));
            }
        }
        while self.by_item.len() > capacity {
            let (largest_y, victim) = self
                .by_y
                .pop_last()
                .expect("len > capacity >= 1, so non-empty");
            self.by_item.remove(&victim);
            self.evicted_watermark = min_watermark(self.evicted_watermark, Some(largest_y));
        }
    }

    /// Number of retained identifiers first seen at some `y ≤ c`.
    pub(crate) fn count_upto(&self, c: u64) -> usize {
        // by_y is ordered by (y, item); range over y <= c.
        self.by_y.range(..=(c, u64::MAX)).count()
    }

    /// The records of the retained identifiers first seen at some `y ≤ c`.
    pub(crate) fn records_upto(&self, c: u64) -> impl Iterator<Item = &R> {
        self.by_y
            .range(..=(c, u64::MAX))
            .map(|(_, item)| &self.by_item[item])
    }

    /// Append the level's snapshot bytes: watermark, then the entries sorted
    /// by item (map order is arbitrary, wire order must not be).
    fn write_to(&self, w: &mut ByteWriter) {
        w.put_opt_u64(self.evicted_watermark);
        let mut entries: Vec<(u64, R)> = self.by_item.iter().map(|(&i, &r)| (i, r)).collect();
        entries.sort_unstable_by_key(|&(item, _)| item);
        w.put_len(entries.len());
        for (item, record) in entries {
            w.put_u64(item);
            record.encode(w);
        }
    }

    /// Read back what [`Self::write_to`] wrote, refusing more entries than
    /// `capacity` and entries out of item order.
    fn read_from(r: &mut ByteReader<'_>, capacity: usize) -> Result<Self> {
        let corrupt = |detail: String| CoreError::from(CodecError::Corrupt(detail));
        let mut level = Self::new();
        level.evicted_watermark = r.get_opt_u64()?;
        let m = r.get_len()?;
        if m > capacity {
            return Err(corrupt(format!(
                "snapshot level holds {m} entries, capacity is {capacity}"
            )));
        }
        let mut prev: Option<u64> = None;
        for _ in 0..m {
            let item = r.get_u64()?;
            if prev.is_some_and(|p| p >= item) {
                return Err(corrupt("sample entries out of order".into()));
            }
            prev = Some(item);
            let record = R::decode(r)?;
            level.by_y.insert((record.min_y(), item));
            level.by_item.insert(item, record);
        }
        Ok(level)
    }
}

/// A stack of sampling levels under one pairwise-independent hash function.
#[derive(Debug, Clone)]
pub(crate) struct LevelSampler<R> {
    hash: PolynomialHash,
    levels: Vec<SampleLevel<R>>,
    capacity: usize,
}

impl<R: SampleRecord> LevelSampler<R> {
    /// One level per bit of the identifier domain plus level 0, as in the
    /// paper where the number of levels is `log m`.
    pub(crate) fn new(capacity: usize, x_domain_log2: u32, hash_seed: u64) -> Result<Self> {
        if x_domain_log2 == 0 || x_domain_log2 > 63 {
            return Err(CoreError::InvalidParameter {
                name: "x_domain_log2",
                detail: format!("must be in [1, 63], got {x_domain_log2}"),
            });
        }
        Ok(Self {
            hash: PolynomialHash::new(2, hash_seed),
            levels: (0..=x_domain_log2).map(|_| SampleLevel::new()).collect(),
            capacity,
        })
    }

    /// `log2` of the identifier domain this sampler was built for.
    pub(crate) fn x_domain_log2(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// Record one occurrence of `item` at `y` in every level it belongs to
    /// (level 0 always).
    pub(crate) fn insert(&mut self, item: u64, y: u64) {
        let deepest = (self.hash.hash64(item).leading_zeros() as usize).min(self.levels.len() - 1);
        let record = R::new(y);
        for level in &mut self.levels[..=deepest] {
            level.fold(item, &record, self.capacity);
        }
    }

    /// Level-wise [`SampleLevel::merge_from`]. The caller has checked that
    /// both sides share seed and accuracy, which fixes the hash function;
    /// the dimensions are checked here, before anything is touched.
    pub(crate) fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.levels.len() != other.levels.len() || self.capacity != other.capacity {
            return Err(CoreError::IncompatibleMerge {
                detail: "sampler dimensions differ".into(),
            });
        }
        for (level, other_level) in self.levels.iter_mut().zip(&other.levels) {
            level.merge_from(other_level, self.capacity);
        }
        Ok(())
    }

    /// The level that answers threshold `c`, with its index — the same rule
    /// as Algorithm 3's: the smallest level whose eviction watermark still
    /// covers the threshold.
    pub(crate) fn answering(&self, c: u64) -> Option<(usize, &SampleLevel<R>)> {
        first_answering(&self.levels, c, |level| level.evicted_watermark)
    }

    /// Retained identifiers summed over the levels.
    pub(crate) fn stored_tuples(&self) -> usize {
        self.levels.iter().map(|level| level.by_item.len()).sum()
    }

    /// Append the level count and every level's snapshot bytes.
    pub(crate) fn write_to(&self, w: &mut ByteWriter) {
        w.put_len(self.levels.len());
        for level in &self.levels {
            level.write_to(w);
        }
    }

    /// Replace every level with what [`Self::write_to`] wrote for a sampler
    /// of the same dimensions.
    pub(crate) fn read_from(&mut self, r: &mut ByteReader<'_>) -> Result<()> {
        let levels = r.get_len()?;
        if levels != self.levels.len() {
            return Err(CoreError::from(CodecError::Corrupt(format!(
                "snapshot sampler has {levels} levels, parameters derive {}",
                self.levels.len()
            ))));
        }
        for level in &mut self.levels {
            *level = SampleLevel::read_from(r, self.capacity)?;
        }
        Ok(())
    }
}
