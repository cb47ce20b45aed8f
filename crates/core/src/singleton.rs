//! Level 0 of the correlated structure: singleton buckets, one per distinct
//! y value.
//!
//! The insert hot path touches this level on **every** stream element, and
//! profiling (see ROADMAP.md) showed the former `BTreeMap<u64, BucketStore>`
//! lookup — a pointer-chasing ordered walk — was one of the two remaining
//! costs in the shallow 20k-tuple scalar bench. The level's access pattern is
//! extremely skewed toward *point* lookups by exact y value, so the storage
//! here is a flat fmix64-hashed index (`y → slot`) over a dense store pool:
//!
//! * `slot_of(y)` is one fmix64 hash and one open-addressing probe instead of
//!   an `O(log α)` ordered descent — the common case (a y value seen before)
//!   never touches an ordered structure at all;
//! * a side `BTreeSet` of the live y values serves the *ordered* needs —
//!   eviction victims (largest y first) and the query path's `y ≤ c` range —
//!   and is only updated when a y is seen for the first time or evicted,
//!   not on every insert the way the old map's lookup walk was.
//!
//! The eviction policy is byte-for-byte the old one: discard the largest
//! stored y and lower the watermark `Y_0` to it, so scalar, batch, merge, and
//! snapshot-restore paths all keep the structures they produced before this
//! index existed (pinned by the framework behaviour tests).

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::compose::min_watermark;
use crate::error::Result;
use crate::snapshot::{decode_store, encode_store};
use cora_hash::mix::Fmix64Build;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use std::collections::{BTreeSet, HashMap};

/// The singleton level: a flat hash index `y → slot` over a dense pool of
/// per-y bucket stores, plus the level's eviction watermark `Y_0`.
#[derive(Debug, Clone)]
pub(crate) struct SingletonLevel<A: CorrelatedAggregate> {
    /// Live entries: exact y value → slot in `stores`.
    index: HashMap<u64, u32, Fmix64Build>,
    /// The live y values, ordered — touched only on first sight / eviction.
    ys: BTreeSet<u64>,
    /// Dense store pool; slots are recycled through `free`.
    stores: Vec<BucketStore<A>>,
    /// Recyclable slots of evicted entries.
    free: Vec<u32>,
    /// Eviction watermark `Y_0`; `None` = `+∞`.
    y_bound: Option<u64>,
}

impl<A: CorrelatedAggregate> SingletonLevel<A> {
    /// An empty level.
    pub(crate) fn new() -> Self {
        Self {
            index: HashMap::with_hasher(Fmix64Build),
            ys: BTreeSet::new(),
            stores: Vec::new(),
            free: Vec::new(),
            y_bound: None,
        }
    }

    /// Number of live singleton buckets.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Eviction watermark `Y_0` (`None` = `+∞`).
    pub(crate) fn y_bound(&self) -> Option<u64> {
        self.y_bound
    }

    /// True iff the level still accepts inserts for `y` (below the watermark).
    #[inline]
    pub(crate) fn admits(&self, y: u64) -> bool {
        match self.y_bound {
            None => true,
            Some(bound) => y < bound,
        }
    }

    /// The slot holding `y`'s bucket, allocating an empty one on first sight.
    #[inline]
    pub(crate) fn slot_of(&mut self, y: u64) -> u32 {
        if let Some(&slot) = self.index.get(&y) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.stores.push(BucketStore::new());
                (self.stores.len() - 1) as u32
            }
        };
        self.index.insert(y, slot);
        self.ys.insert(y);
        slot
    }

    /// Mutable access to the store in `slot` (a value returned by
    /// [`Self::slot_of`]).
    #[inline]
    pub(crate) fn store_mut(&mut self, slot: u32) -> &mut BucketStore<A> {
        &mut self.stores[slot as usize]
    }

    /// Enforce the α budget: discard the singletons with the largest y and
    /// lower the watermark until the level fits. Shared by the insert, merge,
    /// and restore paths so their eviction policies cannot diverge.
    pub(crate) fn enforce_budget(&mut self, alpha: usize) {
        while self.index.len() > alpha {
            let &largest_y = self
                .ys
                .iter()
                .next_back()
                .expect("len > alpha >= 1, so non-empty");
            self.remove_entry(largest_y);
            self.y_bound = Some(match self.y_bound {
                None => largest_y,
                Some(b) => b.min(largest_y),
            });
        }
    }

    /// Drop one live entry, recycling its slot.
    fn remove_entry(&mut self, y: u64) {
        self.ys.remove(&y);
        let slot = self.index.remove(&y).expect("entry is live");
        self.stores[slot as usize] = BucketStore::new();
        self.free.push(slot);
    }

    /// Remove every entry at or past `bound` (entries that can never be
    /// composed once the watermark dropped there).
    fn prune_from(&mut self, bound: u64) {
        let doomed: Vec<u64> = self.ys.range(bound..).copied().collect();
        for y in doomed {
            self.remove_entry(y);
        }
    }

    /// Merge another singleton level into this one: entry-wise store merges,
    /// the lower watermark, then α re-enforcement — the same sequence the
    /// old `BTreeMap` path used. Entries are visited in ascending y order so
    /// the merged structure is deterministic.
    pub(crate) fn merge_from(&mut self, agg: &A, other: &Self, alpha: usize) -> Result<()> {
        for (y, store) in other.sorted_entries() {
            let slot = self.slot_of(y);
            self.stores[slot as usize].absorb(agg, store)?;
        }
        self.y_bound = min_watermark(self.y_bound, other.y_bound);
        if let Some(bound) = self.y_bound {
            self.prune_from(bound);
        }
        self.enforce_budget(alpha);
        Ok(())
    }

    /// The live `(y, store)` entries in ascending y order (query composition
    /// and snapshot encoding — both off the insert path).
    pub(crate) fn sorted_entries(&self) -> Vec<(u64, &BucketStore<A>)> {
        self.ys
            .iter()
            .map(|&y| (y, &self.stores[self.index[&y] as usize]))
            .collect()
    }

    /// The live entries with `y ≤ c`, in ascending y order (Algorithm 3's
    /// level-0 composition).
    pub(crate) fn sorted_upto(&self, c: u64) -> Vec<(u64, &BucketStore<A>)> {
        self.ys
            .range(..=c)
            .map(|&y| (y, &self.stores[self.index[&y] as usize]))
            .collect()
    }

    /// Iterate over the live stores in arbitrary order (space accounting).
    pub(crate) fn live_stores(&self) -> impl Iterator<Item = &BucketStore<A>> {
        self.index.values().map(|&slot| &self.stores[slot as usize])
    }

    /// Rebuild a level from `(y, store)` entries and a watermark (snapshot
    /// restore). Entries must be unique and strictly below the watermark.
    pub(crate) fn from_parts(
        entries: Vec<(u64, BucketStore<A>)>,
        y_bound: Option<u64>,
    ) -> Option<Self> {
        let mut level = Self::new();
        level.y_bound = y_bound;
        for (y, store) in entries {
            if !level.admits(y) || level.index.contains_key(&y) {
                return None;
            }
            let slot = level.slot_of(y);
            level.stores[slot as usize] = store;
        }
        Some(level)
    }

    /// Serialise the level (snapshot persistence): watermark plus the live
    /// entries in ascending y order, so equal states are equal bytes.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_opt_u64(self.y_bound);
        let entries = self.sorted_entries();
        w.put_len(entries.len());
        for (y, store) in entries {
            w.put_u64(y);
            encode_store(store, w);
        }
    }

    /// Rebuild a level from [`Self::encode_state`] bytes.
    pub(crate) fn decode_state(agg: &A, r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let y_bound = r.get_opt_u64()?;
        // Each entry is at least y (8) + store tag (1) + store state.
        let n = r.get_count(9)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((r.get_u64()?, decode_store(agg, r)?));
        }
        Self::from_parts(entries, y_bound).ok_or_else(|| {
            CodecError::Corrupt(
                "singleton level entries duplicate a y value or violate the watermark".into(),
            )
        })
    }

    /// Assert the level's structural invariants (test / `invariant-checks`
    /// builds only): budget respected, every entry below the watermark, no
    /// entry left exact past its spill point, and the free list exactly
    /// covering the slots the index does not.
    #[cfg(any(test, feature = "invariant-checks"))]
    pub(crate) fn check_invariants(&self, agg: &A, alpha: usize) {
        assert!(
            self.index.len() <= alpha,
            "singleton level exceeds its bucket budget"
        );
        for (y, store) in self.sorted_entries() {
            assert!(
                !store.past_spill_point(agg),
                "singleton y={y} is still exact past its spill point"
            );
        }
        let indexed: BTreeSet<u64> = self.index.keys().copied().collect();
        assert_eq!(indexed, self.ys, "ordered y set out of sync with the index");
        if let Some(bound) = self.y_bound {
            for &y in self.index.keys() {
                assert!(y < bound, "singleton stored at or past the watermark");
            }
        }
        let live: std::collections::BTreeSet<u32> = self.index.values().copied().collect();
        assert_eq!(live.len(), self.index.len(), "two y values share a slot");
        let free: std::collections::BTreeSet<u32> = self.free.iter().copied().collect();
        assert_eq!(free.len(), self.free.len(), "slot freed twice");
        assert!(live.is_disjoint(&free), "slot both live and free");
        assert_eq!(
            live.len() + free.len(),
            self.stores.len(),
            "store pool has unaccounted slots"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f2::F2Aggregate;

    fn agg() -> F2Aggregate {
        F2Aggregate::new(0.3, 0.1, 7)
    }

    fn insert(level: &mut SingletonLevel<F2Aggregate>, agg: &F2Aggregate, x: u64, y: u64, alpha: usize) {
        if !level.admits(y) {
            return;
        }
        let slot = level.slot_of(y);
        level.store_mut(slot).update(agg, x, 1);
        level.enforce_budget(alpha);
    }

    #[test]
    fn evicts_largest_y_and_lowers_watermark() {
        let agg = agg();
        let mut level = SingletonLevel::new();
        for y in [10u64, 30, 20, 40, 5] {
            insert(&mut level, &agg, y, y, 4);
        }
        // Inserting y=40 overflowed alpha=4: 40 itself is the largest.
        assert_eq!(level.len(), 4);
        assert_eq!(level.y_bound(), Some(40));
        assert!(!level.admits(40));
        assert!(level.admits(39));
        // Entries stay sorted and below the bound.
        let ys: Vec<u64> = level.sorted_entries().iter().map(|&(y, _)| y).collect();
        assert_eq!(ys, vec![5, 10, 20, 30]);
        level.check_invariants(&agg, 4);
    }

    #[test]
    fn slot_reuse_recycles_evicted_slots() {
        let agg = agg();
        let mut level = SingletonLevel::new();
        for y in 0..20u64 {
            insert(&mut level, &agg, y, y, 8);
        }
        assert_eq!(level.len(), 8);
        assert!(level.stores.len() <= 20);
        let pool = level.stores.len();
        for y in 0..8u64 {
            insert(&mut level, &agg, 100 + y, y, 8);
        }
        assert_eq!(level.stores.len(), pool, "existing slots must be reused");
        level.check_invariants(&agg, 8);
    }

    #[test]
    fn merge_unions_entries_and_takes_min_watermark() {
        let agg = agg();
        let mut a = SingletonLevel::new();
        let mut b = SingletonLevel::new();
        for y in 0..6u64 {
            insert(&mut a, &agg, y, y * 2, 64);
            insert(&mut b, &agg, y, y * 3, 64);
        }
        b.y_bound = Some(12);
        b.prune_from(12);
        a.merge_from(&agg, &b, 64).unwrap();
        assert_eq!(a.y_bound(), Some(12));
        let ys: Vec<u64> = a.sorted_entries().iter().map(|&(y, _)| y).collect();
        assert_eq!(ys, vec![0, 2, 3, 4, 6, 8, 9, 10]);
        // Shared y=0/6 merged entry-wise: stored tuples reflect both inputs.
        let total: usize = a.live_stores().map(BucketStore::stored_tuples).sum();
        assert!(total >= 8);
        a.check_invariants(&agg, 64);
    }

    #[test]
    fn sorted_upto_filters_and_orders() {
        let agg = agg();
        let mut level = SingletonLevel::new();
        for y in [9u64, 1, 5, 7, 3] {
            insert(&mut level, &agg, y, y, 64);
        }
        let upto: Vec<u64> = level.sorted_upto(5).iter().map(|&(y, _)| y).collect();
        assert_eq!(upto, vec![1, 3, 5]);
    }

    #[test]
    fn from_parts_rejects_duplicates_and_watermark_violations() {
        let dup = vec![(1u64, BucketStore::<F2Aggregate>::new()), (1, BucketStore::new())];
        assert!(SingletonLevel::from_parts(dup, None).is_none());
        let past = vec![(5u64, BucketStore::<F2Aggregate>::new())];
        assert!(SingletonLevel::from_parts(past, Some(5)).is_none());
        let ok = vec![(4u64, BucketStore::<F2Aggregate>::new())];
        assert!(SingletonLevel::from_parts(ok, Some(5)).is_some());
    }
}
