//! The SpaceSaving / stream-summary algorithm (Metwally, Agrawal, El Abbadi,
//! 2005) for frequent-item counting with bounded over-estimation.
//!
//! SpaceSaving maintains at most `capacity` `(item, count, overestimate)`
//! entries. When a new item arrives and the summary is full, the entry with
//! the smallest count is *recycled*: the new item inherits that count (which
//! becomes its recorded over-estimation) plus its own weight. Guarantees:
//!
//! * every monitored item's count over-estimates its true frequency by at most
//!   the smallest count in the summary (≤ total weight / capacity);
//! * every item with true frequency above `total / capacity` is present.
//!
//! Crucially for the `F_k` estimator ([`crate::fk`]): **while the summary has
//! never been full, every count is exact and every inserted item is present.**
//! The subsampled levels of `FkSketch` exploit exactly this regime.
//!
//! Only non-negative weights are supported (cash-register model).

use crate::codec::{check_dim, ByteReader, ByteWriter, CodecError, CodecResult, StateCodec};
use crate::error::{Result, SketchError};
use crate::traits::{MergeableSketch, PointQuery, SpaceUsage, StreamSketch};
use std::collections::HashMap;

/// One monitored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceSavingEntry {
    /// The item identifier.
    pub item: u64,
    /// Recorded count (true frequency ≤ count ≤ true frequency + overestimate).
    pub count: u64,
    /// Upper bound on how much `count` over-estimates the true frequency.
    pub overestimate: u64,
}

/// SpaceSaving summary with a fixed capacity.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    entries: HashMap<u64, (u64, u64)>, // item -> (count, overestimate)
    capacity: usize,
    total_weight: u64,
    /// True once an eviction has happened (counts may be inexact from then on).
    ever_evicted: bool,
}

impl SpaceSaving {
    /// Create a summary monitoring at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        Self {
            entries: HashMap::with_capacity(capacity.min(1 << 16)),
            capacity,
            total_weight: 0,
            ever_evicted: false,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total inserted weight.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of currently monitored items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no item is monitored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True iff the summary has never evicted an entry, i.e. every count is
    /// exact and every item ever inserted is still present.
    pub fn is_exact(&self) -> bool {
        !self.ever_evicted
    }

    /// Worst-case over-estimation of any count: the smallest monitored count
    /// if the structure has ever been full, zero otherwise.
    pub fn error_bound(&self) -> u64 {
        if self.is_exact() {
            0
        } else {
            self.entries.values().map(|&(c, _)| c).min().unwrap_or(0)
        }
    }

    /// Iterate over the monitored entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = SpaceSavingEntry> + '_ {
        self.entries.iter().map(|(&item, &(count, overestimate))| SpaceSavingEntry {
            item,
            count,
            overestimate,
        })
    }

    /// Entries sorted by decreasing count.
    pub fn sorted_entries(&self) -> Vec<SpaceSavingEntry> {
        let mut v: Vec<SpaceSavingEntry> = self.entries().collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.item.cmp(&b.item)));
        v
    }

    /// All items whose *guaranteed* frequency (count − overestimate) is at
    /// least `threshold`.
    pub fn guaranteed_above(&self, threshold: u64) -> Vec<SpaceSavingEntry> {
        self.entries()
            .filter(|e| e.count.saturating_sub(e.overestimate) >= threshold)
            .collect()
    }

    fn insert_weighted(&mut self, item: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total_weight += weight;
        if let Some(entry) = self.entries.get_mut(&item) {
            entry.0 += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(item, (weight, 0));
            return;
        }
        // Recycle the minimum-count entry.
        self.ever_evicted = true;
        let (&victim, &(min_count, _)) = self
            .entries
            .iter()
            .min_by_key(|&(_, &(c, _))| c)
            .expect("capacity > 0 so the map is non-empty");
        self.entries.remove(&victim);
        self.entries.insert(item, (min_count + weight, min_count));
    }
}

impl StreamSketch for SpaceSaving {
    fn update(&mut self, item: u64, weight: i64) {
        debug_assert!(weight >= 0, "SpaceSaving only supports non-negative weights");
        self.insert_weighted(item, weight.max(0) as u64);
    }
}

impl PointQuery for SpaceSaving {
    fn frequency_estimate(&self, item: u64) -> f64 {
        self.entries.get(&item).map_or(0.0, |&(c, _)| c as f64)
    }
}

impl MergeableSketch for SpaceSaving {
    /// Merge two summaries (Agarwal et al., "Mergeable Summaries"): sum counts
    /// and over-estimates of common items, take the union, then keep the
    /// `capacity` largest entries, adding the count of the largest discarded
    /// entry to the over-estimation budget of survivors implicitly through the
    /// usual SpaceSaving error analysis.
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.capacity != other.capacity {
            return Err(SketchError::IncompatibleMerge {
                detail: format!(
                    "SpaceSaving capacity mismatch: {} vs {}",
                    self.capacity, other.capacity
                ),
            });
        }
        for (&item, &(count, over)) in &other.entries {
            let e = self.entries.entry(item).or_insert((0, 0));
            e.0 += count;
            e.1 += over;
        }
        self.total_weight += other.total_weight;
        self.ever_evicted |= other.ever_evicted;
        if self.entries.len() > self.capacity {
            self.ever_evicted = true;
            let mut all: Vec<(u64, (u64, u64))> =
                self.entries.iter().map(|(&k, &v)| (k, v)).collect();
            all.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
            all.truncate(self.capacity);
            self.entries = all.into_iter().collect();
        }
        Ok(())
    }
}

impl SpaceUsage for SpaceSaving {
    fn stored_tuples(&self) -> usize {
        self.entries.len()
    }

    fn space_bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<u64>() * 3)
    }
}

impl StateCodec for SpaceSaving {
    /// Capacity, totals, then the entries sorted by item: the map's order is
    /// arbitrary, the wire order must not be (equal states, equal bytes).
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.capacity);
        w.put_u64(self.total_weight);
        w.put_bool(self.ever_evicted);
        let mut entries: Vec<(u64, u64, u64)> =
            self.entries.iter().map(|(&item, &(count, over))| (item, count, over)).collect();
        entries.sort_unstable();
        w.put_len(entries.len());
        for (item, count, over) in entries {
            w.put_u64(item);
            w.put_u64(count);
            w.put_u64(over);
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        check_dim("SpaceSaving capacity", r.get_u64()?, self.capacity as u64)?;
        self.total_weight = r.get_u64()?;
        self.ever_evicted = r.get_bool()?;
        let n = r.get_count(24)?;
        if n > self.capacity {
            return Err(CodecError::Corrupt(format!(
                "SpaceSaving holds {n} entries, capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            let item = r.get_u64()?;
            let entry = (r.get_u64()?, r.get_u64()?);
            if self.entries.insert(item, entry).is_some() {
                return Err(CodecError::Corrupt(format!("SpaceSaving repeats item {item}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::new(0);
    }

    #[test]
    fn exact_while_under_capacity() {
        let mut ss = SpaceSaving::new(100);
        for x in 0..50u64 {
            ss.update(x, (x + 1) as i64);
        }
        assert!(ss.is_exact());
        assert_eq!(ss.error_bound(), 0);
        for x in 0..50u64 {
            assert_eq!(ss.frequency_estimate(x), (x + 1) as f64);
        }
        assert_eq!(ss.len(), 50);
        assert_eq!(ss.total_weight(), (1..=50).sum::<u64>());
    }

    #[test]
    fn eviction_keeps_heavy_items() {
        let mut ss = SpaceSaving::new(10);
        // Two heavy items and a long tail of singletons.
        for _ in 0..1000 {
            ss.update(1, 1);
            ss.update(2, 1);
        }
        for x in 100..600u64 {
            ss.update(x, 1);
        }
        assert!(!ss.is_exact());
        let top = ss.sorted_entries();
        let top_items: Vec<u64> = top.iter().take(2).map(|e| e.item).collect();
        assert!(top_items.contains(&1));
        assert!(top_items.contains(&2));
        // Counts of the heavy items never under-estimate.
        assert!(ss.frequency_estimate(1) >= 1000.0);
        assert!(ss.frequency_estimate(2) >= 1000.0);
    }

    #[test]
    fn overestimate_bounded_by_error_bound() {
        let mut ss = SpaceSaving::new(20);
        for x in 0..500u64 {
            ss.update(x % 50, 1);
        }
        let bound = ss.error_bound();
        for e in ss.entries() {
            let truth = 10.0; // every residue class 0..50 appears 10 times
            assert!(e.count as f64 >= truth || e.count >= 1);
            assert!(
                (e.count as f64) <= truth + bound as f64,
                "count {} exceeds truth+bound {}",
                e.count,
                truth + bound as f64
            );
        }
    }

    #[test]
    fn guaranteed_above_filters_by_lower_bound() {
        let mut ss = SpaceSaving::new(4);
        for _ in 0..100 {
            ss.update(7, 1);
        }
        for x in 0..40u64 {
            ss.update(x + 100, 1);
        }
        let guaranteed = ss.guaranteed_above(50);
        assert_eq!(guaranteed.len(), 1);
        assert_eq!(guaranteed[0].item, 7);
    }

    #[test]
    fn zero_weight_is_a_no_op() {
        let mut ss = SpaceSaving::new(4);
        ss.update(1, 0);
        assert!(ss.is_empty());
        assert_eq!(ss.total_weight(), 0);
    }

    #[test]
    fn merge_exact_summaries_is_exact_union() {
        let mut a = SpaceSaving::new(100);
        let mut b = SpaceSaving::new(100);
        for x in 0..30u64 {
            a.update(x, 2);
        }
        for x in 20..60u64 {
            b.update(x, 3);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.frequency_estimate(0), 2.0);
        assert_eq!(a.frequency_estimate(25), 5.0);
        assert_eq!(a.frequency_estimate(59), 3.0);
        assert!(a.is_exact());
    }

    #[test]
    fn merge_trims_to_capacity() {
        let mut a = SpaceSaving::new(10);
        let mut b = SpaceSaving::new(10);
        for x in 0..10u64 {
            a.update(x, (x + 1) as i64 * 10);
        }
        for x in 10..20u64 {
            b.update(x, (x + 1) as i64 * 10);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.len(), 10);
        assert!(!a.is_exact());
        // The largest items must survive the trim.
        assert!(a.frequency_estimate(19) > 0.0);
        assert_eq!(a.frequency_estimate(0), 0.0);
    }

    #[test]
    fn merge_rejects_capacity_mismatch() {
        let mut a = SpaceSaving::new(10);
        let b = SpaceSaving::new(20);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn space_accounting() {
        let mut ss = SpaceSaving::new(8);
        for x in 0..5u64 {
            ss.update(x, 1);
        }
        assert_eq!(ss.stored_tuples(), 5);
        assert_eq!(ss.space_bytes(), 5 * 24);
    }

    #[test]
    fn sorted_entries_are_descending() {
        let mut ss = SpaceSaving::new(16);
        for (x, f) in [(1u64, 5i64), (2, 50), (3, 20)] {
            ss.update(x, f);
        }
        let sorted = ss.sorted_entries();
        assert_eq!(sorted[0].item, 2);
        assert_eq!(sorted[1].item, 3);
        assert_eq!(sorted[2].item, 1);
    }
}
