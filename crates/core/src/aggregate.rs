//! The aggregate abstraction: the paper's Conditions I–V as a trait.
//!
//! Section 2 of the paper states five conditions an aggregation function `f`
//! must satisfy for the reduction to whole-stream sketching to apply:
//!
//! * **I** — `f(R)` is bounded by a polynomial in `|R|` (captured here by
//!   [`CorrelatedAggregate::f_max_log2`], a bound on `log2 f` used to size the
//!   number of levels);
//! * **II** — superadditivity: `f(R1 ∪ R2) ≥ f(R1) + f(R2)`;
//! * **III** — there is `c1(·)` with `f(∪ R_i) ≤ c1(j) · max_i f(R_i)` for `j`
//!   sets ([`CorrelatedAggregate::c1`]);
//! * **IV** — there is `c2(ε)` such that removing a subset with
//!   `f(B) ≤ c2(ε) f(A)` changes `f` by at most a `(1−ε)` factor
//!   ([`CorrelatedAggregate::c2`]);
//! * **V** — `f` has a composable sketching function
//!   ([`CorrelatedAggregate::new_sketch`] + the sketch's
//!   [`cora_sketch::MergeableSketch`] impl).
//!
//! Conditions II–IV are mathematical facts about `f` established once per
//! aggregate (see the instantiations in [`crate::f2`], [`crate::fk`],
//! [`crate::sum`]); the trait records the resulting constants so the generic
//! framework ([`crate::framework::CorrelatedSketch`]) can derive its bucket
//! budget and thresholds from them.

use cora_sketch::codec::StateCodec;
use cora_sketch::{
    Estimate, ExactFrequencies, MergeableSketch, SharedUpdate, SpaceUsage, StreamSketch,
};

/// An aggregation function usable with the correlated-aggregation framework.
///
/// Implementations are small, cloneable descriptor objects (they carry the
/// accuracy parameters and seed needed to build per-bucket sketches); the
/// actual stream state lives in the sketches they create.
pub trait CorrelatedAggregate: Clone {
    /// The whole-stream sketch type used inside each bucket (Property V).
    ///
    /// The [`SharedUpdate`] bound is what lets the framework hash each stream
    /// element once and reuse the coordinates across every bucket the element
    /// touches — sound because Property V already forces all buckets of one
    /// structure to share hash seeds. The [`StateCodec`] bound serves
    /// snapshots and the aggregate fingerprint that merges and restores
    /// check: the encoding of a fresh sketch names its whole family.
    type Sketch: StreamSketch
        + Estimate
        + MergeableSketch
        + SharedUpdate
        + SpaceUsage
        + StateCodec
        + Clone
        + std::fmt::Debug;

    /// Human-readable name ("F2", "F_k(3)", "sum", ...) used in reports.
    fn name(&self) -> String;

    /// Condition III: `f(∪_{i=1..j} R_i) ≤ c1(j) · max_i f(R_i)`.
    fn c1(&self, j: f64) -> f64;

    /// Condition IV: if `f(B) ≤ c2(ε) · f(A)` for `B ⊆ A` then
    /// `f(A − B) ≥ (1 − ε) f(A)`.
    fn c2(&self, eps: f64) -> f64;

    /// Condition I: an upper bound on `log2 f(S)` for any stream `S` this
    /// aggregate will be asked to process, given a bound on the number of
    /// stream elements. Used to size the number of levels.
    fn f_max_log2(&self, max_stream_len: u64) -> u32;

    /// Property V: create a fresh, empty whole-stream sketch. Every sketch
    /// created by the same aggregate instance must be mergeable with every
    /// other (they share hash seeds).
    fn new_sketch(&self) -> Self::Sketch;

    /// The (approximate) number of stored tuples a fully-populated sketch from
    /// [`Self::new_sketch`] occupies. Used by the hybrid bucket store to decide
    /// when an exact frequency vector stops being the cheaper representation;
    /// it must be cheap to compute (no sketch construction).
    fn sketch_size_hint(&self) -> usize;

    /// Evaluate the aggregate exactly from a frequency vector. Used by the
    /// hybrid bucket store (exact small buckets), by the exact baseline and by
    /// the accuracy harness.
    fn exact_value(&self, freqs: &ExactFrequencies) -> f64;

    /// The *weight headroom* of a bucket: the largest total (absolute) weight
    /// that can be appended to a multiset `R` with current estimate `value`
    /// while guaranteeing the estimate stays **below** `threshold`.
    ///
    /// The framework uses this to amortize the bucket-closing threshold check
    /// of Algorithm 2: after each real estimate it stores the headroom, and
    /// subsequent inserts skip the (possibly expensive) estimate entirely
    /// until the weight added since then reaches it — one `f64` comparison on
    /// the hot path. Returning `0.0` (the default) means "no usable bound,
    /// check on every update", which preserves eager checking for aggregates
    /// that do not override this.
    ///
    /// For the frequency moments the bound follows from the triangle
    /// inequality on the ℓ_k norm: `F_k = ‖f‖_k^k`, and appending a frequency
    /// vector `g` with `‖g‖_k ≤ ‖g‖_1 = w` gives
    /// `F_k(R') ≤ (F_k(R)^{1/k} + w)^k`, so any `w < threshold^{1/k} −
    /// F_k(R)^{1/k}` cannot cross. For exactly-stored buckets (where the
    /// estimate *is* the true value) this gating is lossless. For `F_2` it is
    /// lossless for the sketched representation as well: the fast-AMS
    /// estimate is a median of per-row squared ℓ₂ norms of signed projections
    /// of the frequency vector, each row's norm grows by at most `w`, and the
    /// median is monotone under pointwise domination — so the same headroom
    /// bounds the estimate's growth. A headroom is only valid for one
    /// *representation*: the framework forces a fresh check whenever a bucket
    /// converts from exact to sketched storage, since the sketch's estimate
    /// need not match the exact value the headroom was derived from.
    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        let _ = (value, threshold);
        0.0
    }

    /// True iff [`BucketStore::estimate`] costs O(1) in the store's size for
    /// this aggregate, in both representations: the exact frequency vector
    /// and the sketch each keep the estimate as a running value that a merge
    /// updates.
    ///
    /// The framework then answers [`CorrelatedSketch::query`] from one
    /// prefix table per level: it folds the level's buckets once, in span
    /// order, and records the running estimate at every span end. That
    /// records one estimate per bucket, so an aggregate whose estimate scans
    /// the store (`F_k` for `k ≠ 2` re-reads the whole exact vector) must
    /// keep the default `false` and is composed per threshold instead. The
    /// merged values must also be integers, so the fold's bucket order
    /// cannot change them: a table entry is then bit-identical to composing
    /// the same buckets from an empty store.
    ///
    /// [`CorrelatedSketch::query`]: crate::framework::CorrelatedSketch::query
    fn incremental_estimates(&self) -> bool {
        false
    }
}

/// A bucket's storage: exact while small, sketched once the exact
/// representation would outgrow the sketch.
///
/// The paper's level-0 structure stores singleton buckets exactly; in the same
/// spirit every bucket in this implementation starts as an exact frequency
/// vector and is converted to the aggregate's sketch the first time the exact
/// form would use more space than the sketch would — whether the bucket grew
/// by inserts ([`Self::update`]) or by merging another structure into it
/// (`absorb`: shard composites, window panes, replicated state). This never
/// increases space relative to the pure-sketch design, removes all estimation
/// error from small buckets (the common case at low levels, where the closing
/// threshold `2^{ℓ+1}` is tiny), and is transparent to the framework. Only
/// query-time composites ([`Self::merge_from`] into a scratch accumulator)
/// stay exact past that point: they answer one query and are not stored.
#[derive(Debug, Clone)]
pub enum BucketStore<A: CorrelatedAggregate> {
    /// Exact frequency vector (small buckets).
    Exact(ExactFrequencies),
    /// The aggregate's whole-stream sketch (large buckets).
    Sketched(A::Sketch),
}

impl<A: CorrelatedAggregate> BucketStore<A> {
    /// A new, empty store (starts exact).
    pub fn new() -> Self {
        BucketStore::Exact(ExactFrequencies::new())
    }

    /// Insert an item with a weight.
    pub fn update(&mut self, agg: &A, item: u64, weight: i64) {
        match self {
            BucketStore::Exact(freqs) => {
                freqs.update(item, weight);
                self.spill_if_due(agg);
            }
            BucketStore::Sketched(sketch) => sketch.update(item, weight),
        }
    }

    /// True iff this is an exact store at or past its spill point: it holds
    /// more than 16 and at least `sketch_size_hint` distinct items, so the
    /// exact representation is no longer the cheaper one. The one statement
    /// of the exact→sketched rule; the level invariant checks assert no
    /// stored bucket satisfies it.
    pub(crate) fn past_spill_point(&self, agg: &A) -> bool {
        match self {
            BucketStore::Exact(freqs) => {
                let n = freqs.stored_tuples();
                n > 16 && n >= agg.sketch_size_hint().max(1)
            }
            BucketStore::Sketched(_) => false,
        }
    }

    /// Convert to the sketched representation if the spill rule says so.
    fn spill_if_due(&mut self, agg: &A) {
        if self.past_spill_point(agg) {
            self.convert(agg);
        }
    }

    /// Merge `other` into this **stored** bucket, then apply the spill rule,
    /// so a bucket grown by merging converts exactly where one grown by
    /// inserts would. Query-time accumulators use [`Self::merge_from`]
    /// instead and stay exact.
    pub(crate) fn absorb(&mut self, agg: &A, other: &Self) -> crate::error::Result<()> {
        self.merge_from(agg, other)?;
        self.spill_if_due(agg);
        Ok(())
    }

    /// Apply updates `range` of a prepared batch: `items` is the
    /// `(item, weight)` slice the batch was prepared from (see
    /// [`SharedUpdate::prepare_batch_into`]). Equivalent to [`Self::update`]
    /// on each update of the range, in order.
    ///
    /// Sketched stores apply the whole range through the sketch's flat batch
    /// layout; exact stores go one update at a time (they key on the raw
    /// item), switching the remainder of the range to the batched path if
    /// the store converts to its sketched representation mid-range.
    pub(crate) fn update_batch_range(
        &mut self,
        agg: &A,
        items: &[(u64, i64)],
        batch: &<A::Sketch as SharedUpdate>::PreparedBatch,
        mut range: std::ops::Range<usize>,
    ) {
        if let BucketStore::Sketched(sketch) = self {
            sketch.apply_prepared_range(batch, range);
            return;
        }
        while let Some(i) = range.next() {
            let (item, weight) = items[i];
            self.update(agg, item, weight);
            if let BucketStore::Sketched(sketch) = self {
                if !range.is_empty() {
                    sketch.apply_prepared_range(batch, range);
                }
                return;
            }
        }
    }

    /// Force conversion to the sketched representation.
    pub fn convert(&mut self, agg: &A) {
        if let BucketStore::Exact(freqs) = self {
            let mut sketch = agg.new_sketch();
            sketch.update_all(freqs.iter());
            *self = BucketStore::Sketched(sketch);
        }
    }

    /// Estimate the aggregate of the items in this store.
    pub fn estimate(&self, agg: &A) -> f64 {
        match self {
            BucketStore::Exact(freqs) => agg.exact_value(freqs),
            BucketStore::Sketched(sketch) => sketch.estimate(),
        }
    }

    /// True if this store holds an exact frequency vector.
    pub fn is_exact(&self) -> bool {
        matches!(self, BucketStore::Exact(_))
    }

    /// Merge `other` into `self` without applying the spill rule (used at
    /// query time to compose buckets; stored buckets merge through `absorb`).
    pub fn merge_from(&mut self, agg: &A, other: &Self) -> crate::error::Result<()> {
        match (&mut *self, other) {
            (BucketStore::Exact(a), BucketStore::Exact(b)) => {
                a.merge_from(b)?;
                Ok(())
            }
            (BucketStore::Sketched(a), BucketStore::Sketched(b)) => {
                a.merge_from(b)?;
                Ok(())
            }
            (BucketStore::Sketched(a), BucketStore::Exact(b)) => {
                a.update_all(b.iter());
                Ok(())
            }
            (BucketStore::Exact(_), BucketStore::Sketched(_)) => {
                // Promote self to a sketch, then merge sketch-to-sketch.
                self.convert(agg);
                self.merge_from(agg, other)
            }
        }
    }

    /// Number of stored tuples (counters or exact entries).
    pub fn stored_tuples(&self) -> usize {
        match self {
            BucketStore::Exact(freqs) => freqs.stored_tuples(),
            BucketStore::Sketched(sketch) => sketch.stored_tuples(),
        }
    }

    /// Approximate heap bytes.
    pub fn space_bytes(&self) -> usize {
        match self {
            BucketStore::Exact(freqs) => freqs.space_bytes(),
            BucketStore::Sketched(sketch) => sketch.space_bytes(),
        }
    }
}

impl<A: CorrelatedAggregate> Default for BucketStore<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Thread-safety audit for the sharded ingest front-end
/// (`cora_stream::sharded`): every aggregate store shipped with this crate is
/// plain data (hash coefficients + counters), so the whole sketch stack is
/// `Send + Sync` by auto-derivation. These assertions fail to *compile* if a
/// future store picks up a non-thread-safe member (`Rc`, raw pointers,
/// un-`Sync` interior mutability), rather than failing at some distant
/// `thread::spawn`.
#[allow(dead_code)]
mod thread_safety_audit {
    fn assert_send_sync<T: Send + Sync>() {}

    fn audit() {
        assert_send_sync::<crate::framework::CorrelatedSketch<crate::f2::F2Aggregate>>();
        assert_send_sync::<crate::framework::CorrelatedSketch<crate::fk::FkAggregate>>();
        assert_send_sync::<crate::framework::CorrelatedSketch<crate::sum::SumAggregate>>();
        assert_send_sync::<crate::framework::CorrelatedSketch<crate::sum::CountAggregate>>();
        assert_send_sync::<
            crate::framework::CorrelatedSketch<crate::heavy_hitters::F2HeavyAggregate>,
        >();
        assert_send_sync::<super::BucketStore<crate::f2::F2Aggregate>>();
        assert_send_sync::<crate::f0::CorrelatedF0>();
        assert_send_sync::<crate::rarity::CorrelatedRarity>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f2::F2Aggregate;

    fn agg() -> F2Aggregate {
        F2Aggregate::new(0.3, 0.1, 7)
    }

    #[test]
    fn store_starts_exact_and_is_accurate() {
        let agg = agg();
        let mut store: BucketStore<F2Aggregate> = BucketStore::new();
        store.update(&agg, 1, 3);
        store.update(&agg, 2, 4);
        assert!(store.is_exact());
        assert_eq!(store.estimate(&agg), 25.0);
        assert_eq!(store.stored_tuples(), 2);
    }

    #[test]
    fn store_converts_when_large() {
        let agg = agg();
        let sketch_size = agg.new_sketch().stored_tuples();
        let mut store: BucketStore<F2Aggregate> = BucketStore::new();
        for x in 0..(sketch_size as u64 + 20) {
            store.update(&agg, x, 1);
        }
        assert!(!store.is_exact(), "store should have converted to a sketch");
        assert!(store.stored_tuples() <= sketch_size);
    }

    #[test]
    fn conversion_preserves_estimate_accuracy() {
        let agg = agg();
        let mut store: BucketStore<F2Aggregate> = BucketStore::new();
        for x in 0..10u64 {
            store.update(&agg, x, 5);
        }
        let exact = store.estimate(&agg);
        store.convert(&agg);
        let sketched = store.estimate(&agg);
        let rel = (sketched - exact).abs() / exact;
        assert!(rel < 0.3, "conversion changed estimate too much: {exact} -> {sketched}");
    }

    #[test]
    fn merge_all_combinations() {
        let agg = agg();
        // exact + exact
        let mut a: BucketStore<F2Aggregate> = BucketStore::new();
        let mut b: BucketStore<F2Aggregate> = BucketStore::new();
        a.update(&agg, 1, 2);
        b.update(&agg, 1, 3);
        a.merge_from(&agg, &b).unwrap();
        assert_eq!(a.estimate(&agg), 25.0);

        // sketched + exact
        let mut s: BucketStore<F2Aggregate> = BucketStore::new();
        s.update(&agg, 7, 4);
        s.convert(&agg);
        s.merge_from(&agg, &b).unwrap();
        assert!(s.estimate(&agg) > 0.0);

        // exact + sketched (self promotes)
        let mut e: BucketStore<F2Aggregate> = BucketStore::new();
        e.update(&agg, 9, 1);
        let mut sk: BucketStore<F2Aggregate> = BucketStore::new();
        sk.update(&agg, 9, 1);
        sk.convert(&agg);
        e.merge_from(&agg, &sk).unwrap();
        assert!(!e.is_exact());
        assert!((e.estimate(&agg) - 4.0).abs() < 1.0);
    }

    fn store_bytes(store: &BucketStore<F2Aggregate>) -> Vec<u8> {
        let mut w = cora_sketch::codec::ByteWriter::new();
        crate::snapshot::encode_store(store, &mut w);
        w.as_bytes().to_vec()
    }

    #[test]
    fn absorb_spills_where_update_would_and_matches_it_bit_for_bit() {
        let agg = agg();
        let spill = agg.sketch_size_hint();
        // Two exact halves, each below the spill point, overlapping on ten
        // items; their union holds spill + 5 distinct items.
        let half = spill as u64 / 2;
        let left: Vec<(u64, i64)> = (0..half + 5).map(|x| (x, 1 + (x % 3) as i64)).collect();
        let right: Vec<(u64, i64)> = (half - 5..spill as u64 + 5).map(|x| (x, 2)).collect();
        let (mut a, mut b, mut direct) =
            (BucketStore::<F2Aggregate>::new(), BucketStore::new(), BucketStore::new());
        for &(x, w) in &left {
            a.update(&agg, x, w);
            direct.update(&agg, x, w);
        }
        for &(x, w) in &right {
            b.update(&agg, x, w);
            direct.update(&agg, x, w);
        }
        assert!(a.is_exact() && b.is_exact() && !direct.is_exact());
        // Query-time composition keeps the union exact...
        let mut composed = a.clone();
        composed.merge_from(&agg, &b).unwrap();
        assert!(composed.is_exact() && composed.past_spill_point(&agg));
        // ...a stored bucket spills, to exactly what inserts build (the
        // sketch is linear, so conversion order cannot move a counter).
        a.absorb(&agg, &b).unwrap();
        assert!(!a.is_exact());
        assert!(store_bytes(&a) == store_bytes(&direct), "absorb differs from update");
    }

    #[test]
    fn absorb_below_the_spill_point_is_merge_from() {
        let agg = agg();
        let (mut a, mut b) = (BucketStore::<F2Aggregate>::new(), BucketStore::new());
        for x in 0..40u64 {
            a.update(&agg, x, 3);
            b.update(&agg, x + 20, 1);
        }
        let mut merged = a.clone();
        merged.merge_from(&agg, &b).unwrap();
        a.absorb(&agg, &b).unwrap();
        assert!(a.is_exact());
        assert_eq!(a.stored_tuples(), 60);
        assert!(store_bytes(&a) == store_bytes(&merged));
    }

    #[test]
    fn default_is_empty_exact() {
        let store: BucketStore<F2Aggregate> = BucketStore::default();
        assert!(store.is_exact());
        assert_eq!(store.stored_tuples(), 0);
        assert_eq!(store.estimate(&agg()), 0.0);
    }
}
