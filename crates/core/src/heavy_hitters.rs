//! Correlated `F_2`-heavy hitters (Section 3.3 of the paper).
//!
//! "In the correlated F2-heavy hitters problem with y-bound of c and
//! parameters ε, φ, we wish to return all x for which
//! `|{(x_i, y_i) | x_i = x ∧ y_i ≤ c}|² ≥ φ F2(c)` and no x for which the
//! squared frequency is at most `(φ − ε) F2(c)`." The construction reuses the
//! correlated `F_2` structure: each bucket's CountSketch-style counter array
//! serves both the bucket's `F_2` estimate and the point estimate of every
//! item inserted into it, and the point estimates, composed over the buckets
//! selected for threshold `c`, give each candidate's frequency up to a small
//! additive error.
//!
//! The per-bucket summary ([`HhBucketSketch`]) is therefore **one** fast-AMS
//! counter lane plus a bounded candidate tracker that remembers which items
//! are worth point-querying; the framework treats it as a single sketch whose
//! `estimate()` is the `F_2` estimate. An insert hashes the item once (the
//! framework's shared coordinates), adds it to the lane, reads its point
//! estimate back from the counters just written, and offers it to the
//! tracker — which rejects it with one comparison unless the estimate beats
//! the weakest tracked candidate.
//!
//! # Candidate tracker
//!
//! At most `⌈4/φ⌉` `(item, recorded estimate)` pairs in a flat `Vec`. While
//! there is room every offered item is tracked; once full, an offer at or
//! below the *floor* (the smallest recorded estimate) is dropped without a
//! scan, and a stronger one either refreshes its own record or replaces the
//! minimum under the total order `(estimate, item)`. Items are unique, so
//! that minimum is unique and the tracker is a deterministic function of the
//! update sequence — two processes fed the same stream hold the same
//! candidates in the same order and emit the same snapshot bytes. Bulk loads
//! (merges, exact→sketched conversion, query-time composition) do not depend
//! on the order their inputs arrive in: they re-score the union of candidates
//! against the merged lane and keep the top `⌈4/φ⌉` by the same order.
//! Recorded estimates only rank candidates for admission; queries always
//! re-estimate from the (composed) lane.
//!
//! # One structure for `F_2` and heavy hitters
//!
//! [`F2HeavyAggregate`] derives its lane exactly as
//! [`F2Aggregate`](crate::f2::F2Aggregate) does (width, depth 3, seed, the
//! Lemma 6–8 constants, the weight headroom) and spills at the same `w·d`
//! distinct items. Whenever `F2Aggregate` keeps all three rows
//! (`δ < e^{-1/4} ≈ 0.78`), a `CorrelatedSketch<F2HeavyAggregate>` therefore
//! builds the same buckets as a `CorrelatedSketch<F2Aggregate>` fed the same
//! stream and answers [`CorrelatedSketch::query`] bit-identically; the
//! candidate trackers ride along. A holder of the former needs no second
//! structure for `F_2`: it reads heavy hitters with
//! [`CorrelatedSketch::query_heavy_hitters`]. [`CorrelatedHeavyHitters`] is
//! that sketch's name, built by [`CorrelatedSketch::with_seed`].

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::config::CorrelatedConfig;
use crate::error::Result;
use crate::framework::CorrelatedSketch;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError, CodecResult, StateCodec};
use cora_sketch::error::{Result as SketchResult, SketchError};
use cora_sketch::{
    Estimate, ExactFrequencies, FastAmsBatch, FastAmsSketch, MergeableSketch,
    SharedUpdate, SpaceUsage, StreamSketch,
};

/// The admission rank of a point estimate: its rounded magnitude.
fn rank_of(estimate: f64) -> i64 {
    estimate.abs().round() as i64
}

/// Per-bucket summary for correlated heavy hitters: one fast-AMS counter
/// lane answering both the bucket's `F_2` estimate and per-item point
/// queries, plus the bounded candidate tracker (see the module docs).
#[derive(Debug, Clone)]
pub struct HhBucketSketch {
    lane: FastAmsSketch,
    /// Tracked `(item, recorded rank)` pairs: unique items, at most `cap`.
    candidates: Vec<(u64, i64)>,
    cap: usize,
    /// The smallest recorded rank once `candidates` is full; `-1` (below
    /// every rank) while there is still room.
    floor: i64,
}

impl HhBucketSketch {
    fn new(width: usize, depth: usize, cap: usize, seed: u64) -> Self {
        Self {
            lane: FastAmsSketch::with_dimensions(width, depth, seed),
            candidates: Vec::with_capacity(cap),
            cap,
            floor: -1,
        }
    }

    /// Point estimate of the frequency of `item` among the summarised tuples.
    pub fn frequency_estimate(&self, item: u64) -> f64 {
        self.lane.frequency_estimate(item)
    }

    /// The tracked candidate heavy items with their current point estimates.
    pub fn candidates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.candidates
            .iter()
            .map(|&(item, _)| (item, self.lane.frequency_estimate(item)))
    }

    /// Offer `item`, whose point estimate just became `estimate`, to the
    /// candidate tracker.
    #[inline]
    fn offer(&mut self, item: u64, estimate: f64) {
        let rank = rank_of(estimate);
        if rank <= self.floor {
            return;
        }
        if let Some(tracked) = self.candidates.iter_mut().find(|c| c.0 == item) {
            tracked.1 = rank;
        } else if self.candidates.len() < self.cap {
            self.candidates.push((item, rank));
        } else if let Some(weakest) = self.candidates.iter_mut().min_by_key(|c| (c.1, c.0)) {
            *weakest = (item, rank);
        }
        self.refresh_floor();
    }

    fn refresh_floor(&mut self) {
        self.floor = if self.candidates.len() < self.cap {
            -1
        } else {
            self.candidates.iter().map(|c| c.1).min().unwrap_or(-1)
        };
    }

    /// Re-rank the tracked candidates together with `extra` items against
    /// the current lane and keep the strongest `cap` — the order-independent
    /// bulk counterpart of [`Self::offer`], run after the lane absorbed a
    /// whole summary at once.
    fn retrack(&mut self, extra: impl Iterator<Item = u64>) {
        let mut items: Vec<u64> = self.candidates.iter().map(|c| c.0).chain(extra).collect();
        items.sort_unstable();
        items.dedup();
        let mut ranked: Vec<(u64, i64)> = items
            .into_iter()
            .map(|item| (item, rank_of(self.lane.frequency_estimate(item))))
            .collect();
        ranked.sort_unstable_by_key(|&(item, rank)| std::cmp::Reverse((rank, item)));
        ranked.truncate(self.cap);
        // Copy into the tracker's own `cap`-sized buffer: the scratch list
        // can be as long as a whole exact bucket and must not outlive this.
        self.candidates.clear();
        self.candidates.extend_from_slice(&ranked);
        self.refresh_floor();
    }
}

impl StreamSketch for HhBucketSketch {
    fn update(&mut self, item: u64, weight: i64) {
        if weight != 0 {
            self.lane.update(item, weight);
            self.offer(item, self.lane.frequency_estimate(item));
        }
    }

    fn update_all(&mut self, entries: impl Iterator<Item = (u64, i64)>) {
        let items: Vec<u64> = entries
            .map(|(item, weight)| {
                self.lane.update(item, weight);
                item
            })
            .collect();
        self.retrack(items.into_iter());
    }
}

/// Precomputed coordinates for a batch of heavy-hitters bucket updates: the
/// lane's flat row-major coordinates, plus the raw `(item, weight)` pairs the
/// candidate tracker needs.
#[derive(Debug, Clone, Default)]
pub struct HhBatch {
    lane: FastAmsBatch,
    items: Vec<(u64, i64)>,
}

impl SharedUpdate for HhBucketSketch {
    type PreparedBatch = HhBatch;

    fn prepare_batch_into(&self, items: &[(u64, i64)], out: &mut HhBatch) {
        self.lane.prepare_batch_into(items, &mut out.lane);
        out.items.clear();
        out.items.extend_from_slice(items);
    }

    fn apply_prepared_range(&mut self, batch: &HhBatch, range: std::ops::Range<usize>) {
        // Apply → estimate → track one item at a time, in stream order: the
        // tracker sees exactly the estimates `update` would show it.
        for i in range {
            let (item, weight) = batch.items[i];
            if weight != 0 {
                let estimate = self.lane.apply_batch_item_estimating(&batch.lane, i, weight);
                self.offer(item, estimate);
            }
        }
    }
}

impl Estimate for HhBucketSketch {
    fn estimate(&self) -> f64 {
        self.lane.estimate()
    }
}

impl MergeableSketch for HhBucketSketch {
    fn merge_from(&mut self, other: &Self) -> SketchResult<()> {
        if self.cap != other.cap {
            return Err(SketchError::IncompatibleMerge {
                detail: format!(
                    "heavy-hitter candidate capacities differ: {} vs {}",
                    self.cap, other.cap
                ),
            });
        }
        self.lane.merge_from(&other.lane)?;
        self.retrack(other.candidates.iter().map(|c| c.0));
        Ok(())
    }
}

impl SpaceUsage for HhBucketSketch {
    fn stored_tuples(&self) -> usize {
        self.lane.stored_tuples() + self.candidates.len()
    }

    fn space_bytes(&self) -> usize {
        self.lane.space_bytes() + self.candidates.len() * std::mem::size_of::<(u64, i64)>()
    }
}

impl StateCodec for HhBucketSketch {
    /// The lane, then the candidate list **in tracker order** (the order is
    /// state: it decides nothing by itself, but equal states must be equal
    /// bytes and a restored tracker must continue exactly as the original).
    fn encode_state(&self, w: &mut ByteWriter) {
        self.lane.encode_state(w);
        w.put_len(self.cap);
        w.put_len(self.candidates.len());
        for &(item, rank) in &self.candidates {
            w.put_u64(item);
            w.put_i64(rank);
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.lane.decode_state(r)?;
        let cap = r.get_len()?;
        let n = r.get_count(16)?;
        if cap != self.cap || n > cap {
            return Err(CodecError::Corrupt(format!(
                "heavy-hitter candidate list of {n} with capacity {cap}, receiving sketch holds {}",
                self.cap
            )));
        }
        self.candidates.clear();
        for _ in 0..n {
            self.candidates.push((r.get_u64()?, r.get_i64()?));
        }
        let mut items: Vec<u64> = self.candidates.iter().map(|c| c.0).collect();
        items.sort_unstable();
        if items.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(CodecError::Corrupt(
                "heavy-hitter candidate list repeats an item".into(),
            ));
        }
        self.refresh_floor();
        Ok(())
    }
}

/// Aggregate descriptor: correlated `F_2` with heavy-hitter support.
///
/// `PartialEq` compares the construction parameters (dimensions, candidate
/// capacity, seed). The candidate capacity is derived from `phi` and is
/// *not* part of [`CorrelatedConfig`]; it reaches the aggregate fingerprint
/// that [`CorrelatedSketch::merge_from`] and
/// [`CorrelatedSketch::restore_from`] check through the bucket sketch's
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct F2HeavyAggregate {
    width: usize,
    depth: usize,
    candidates: usize,
    seed: u64,
}

impl F2HeavyAggregate {
    /// Create the aggregate; `phi` is the smallest heavy-hitter threshold the
    /// structure should support (candidate sets are sized as `⌈4/φ⌉`).
    pub fn new(epsilon: f64, phi: f64, seed: u64) -> Self {
        let upsilon = (epsilon / 2.0).clamp(1e-6, 0.999);
        let width = ((2.0 / (upsilon * upsilon)).ceil() as usize).clamp(8, 1 << 16);
        let candidates = ((4.0 / phi.clamp(1e-4, 1.0)).ceil() as usize).clamp(8, 4096);
        Self {
            width,
            depth: 3,
            candidates,
            seed,
        }
    }
}

impl CorrelatedAggregate for F2HeavyAggregate {
    type Sketch = HhBucketSketch;

    fn name(&self) -> String {
        "F2-heavy-hitters".to_string()
    }

    fn c1(&self, j: f64) -> f64 {
        j * j
    }

    fn c2(&self, eps: f64) -> f64 {
        let v = eps / 18.0;
        v * v
    }

    fn f_max_log2(&self, max_stream_len: u64) -> u32 {
        (2 * (64 - max_stream_len.leading_zeros())).clamp(4, 126)
    }

    fn new_sketch(&self) -> HhBucketSketch {
        HhBucketSketch::new(self.width, self.depth, self.candidates, self.seed)
    }

    fn sketch_size_hint(&self) -> usize {
        // The lane's w·d counters, as for the plain F2 aggregate: buckets
        // spill where its buckets do, so both build the same structure.
        self.width * self.depth
    }

    fn exact_value(&self, freqs: &ExactFrequencies) -> f64 {
        freqs.frequency_moment(2)
    }

    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        // Same ℓ₂ triangle-inequality bound as the plain F2 aggregate.
        (threshold.max(0.0).sqrt() - value.max(0.0).sqrt()).max(0.0)
    }

    fn incremental_estimates(&self) -> bool {
        // The estimate is the lane's, kept like the plain F2 aggregate's;
        // the candidate trackers never enter it.
        true
    }
}

/// A reported correlated heavy hitter.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitter {
    /// The item identifier.
    pub item: u64,
    /// Estimated frequency among tuples with `y ≤ c`.
    pub frequency: f64,
    /// Estimated squared-frequency share of `F_2(c)`.
    pub share: f64,
}

/// Correlated `F_2`-heavy-hitters sketch: the framework sketch over
/// [`F2HeavyAggregate`]. It answers `F_2` through
/// [`CorrelatedSketch::query`] and heavy hitters through
/// [`CorrelatedSketch::query_heavy_hitters`]; it snapshots, restores and
/// merges like every framework sketch.
pub type CorrelatedHeavyHitters = CorrelatedSketch<F2HeavyAggregate>;

impl CorrelatedSketch<F2HeavyAggregate> {
    /// Build the sketch. `phi` is the smallest share threshold that will be
    /// queried; `epsilon` controls both the `F_2` accuracy and the separation
    /// between reported and suppressed items. Restore a snapshot with
    /// [`CorrelatedSketch::restore_from`] and
    /// `F2HeavyAggregate::new(epsilon, phi, seed)`.
    pub fn with_seed(
        epsilon: f64,
        delta: f64,
        phi: f64,
        y_max: u64,
        max_stream_len: u64,
        seed: u64,
    ) -> Result<Self> {
        let agg = F2HeavyAggregate::new(epsilon, phi, seed);
        let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
            .with_seed(seed);
        CorrelatedSketch::new(agg, config)
    }

    /// Report the items whose squared frequency among tuples with `y ≤ c` is
    /// estimated to be at least `phi · F_2(c)`, sorted by decreasing share
    /// (ties by item).
    ///
    /// Reads the store [`Self::with_composed`] composes for `c` (memoized
    /// per threshold until the next update or merge): every item of an
    /// exact store, or the tracked candidates of a sketched one, re-estimated
    /// from the composed lane.
    pub fn query_heavy_hitters(&self, c: u64, phi: f64) -> Result<Vec<HeavyHitter>> {
        self.with_composed(c, |store| heavy_hitters_of(store, phi))
    }
}

/// The items of a composed store with `share ≥ phi`, with their point
/// estimates and shares, sorted by decreasing share, then item.
fn heavy_hitters_of(store: &BucketStore<F2HeavyAggregate>, phi: f64) -> Vec<HeavyHitter> {
    let reported = |f2: f64, (item, frequency): (u64, f64)| {
        let share = frequency * frequency / f2;
        (share >= phi).then_some(HeavyHitter {
            item,
            frequency,
            share,
        })
    };
    let mut out: Vec<HeavyHitter> = match store {
        BucketStore::Exact(freqs) => {
            let f2 = freqs.frequency_moment(2);
            if f2 == 0.0 {
                return Vec::new();
            }
            freqs
                .iter()
                .filter_map(|(item, f)| reported(f2, (item, f as f64)))
                .collect()
        }
        BucketStore::Sketched(sketch) => {
            let f2 = sketch.estimate();
            if f2 <= 0.0 {
                return Vec::new();
            }
            sketch
                .candidates()
                .filter_map(|candidate| reported(f2, candidate))
                .collect()
        }
    };
    out.sort_by(|a, b| b.share.total_cmp(&a.share).then(a.item.cmp(&b.item)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_SEED;

    #[test]
    fn finds_planted_heavy_hitter() {
        let y_max = 4095u64;
        let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, y_max, 100_000, 3).unwrap();
        // Item 7 is heavy among tuples with small y; item 8 is heavy only for
        // large y. Light noise everywhere.
        for i in 0..4_000u64 {
            hh.insert(7, i % 1000).unwrap();
            hh.insert(8, 3000 + (i % 1000)).unwrap();
            hh.insert(1000 + (i % 500), (i * 7) % (y_max + 1)).unwrap();
        }
        // At c = 1200, item 7 dominates F2(c) and item 8 contributes nothing.
        let hitters = hh.query_heavy_hitters(1200, 0.2).unwrap();
        assert!(
            hitters.iter().any(|h| h.item == 7),
            "expected item 7 among heavy hitters: {hitters:?}"
        );
        assert!(
            !hitters.iter().any(|h| h.item == 8),
            "item 8 has no occurrences below the threshold: {hitters:?}"
        );
        // At c = y_max both are heavy.
        let hitters = hh.query_heavy_hitters(y_max, 0.2).unwrap();
        let items: Vec<u64> = hitters.iter().map(|h| h.item).collect();
        assert!(items.contains(&7) && items.contains(&8), "items {items:?}");
    }

    #[test]
    fn f2_query_is_consistent_with_plain_f2() {
        let mut hh = CorrelatedHeavyHitters::with_seed(0.25, 0.1, 0.1, 1023, 10_000, 5).unwrap();
        let mut f2 = crate::f2::correlated_f2_seeded(0.25, 0.1, 1023, 10_000, 5).unwrap();
        for i in 0..5_000u64 {
            let x = i % 100;
            let y = (i * 13) % 1024;
            hh.insert(x, y).unwrap();
            f2.insert(x, y).unwrap();
        }
        let a = hh.query(512).unwrap();
        let b = f2.query(512).unwrap();
        let rel = (a - b).abs() / b.max(1.0);
        assert!(rel < 0.25, "HH-F2 {a} vs plain F2 {b}");
    }

    #[test]
    fn no_heavy_hitters_on_uniform_stream() {
        let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.05, 1023, 50_000, 7).unwrap();
        for i in 0..20_000u64 {
            hh.insert(i % 2_000, i % 1024).unwrap();
        }
        // Every item has share ~ 1/2000, far below phi = 0.05.
        let hitters = hh.query_heavy_hitters(1023, 0.05).unwrap();
        assert!(hitters.is_empty(), "unexpected heavy hitters: {hitters:?}");
    }

    #[test]
    fn candidate_cache_serves_repeats_and_invalidates_on_update() {
        let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 1023, 50_000, 3).unwrap();
        for i in 0..5_000u64 {
            hh.insert(7, i % 1024).unwrap();
            hh.insert(100 + (i % 400), (i * 13) % 1024).unwrap();
        }
        let first = hh.query_heavy_hitters(512, 0.1).unwrap();
        // A repeat (same c, same phi) reads the memoized composition and
        // answers identically.
        assert_eq!(hh.query_heavy_hitters(512, 0.1).unwrap(), first);
        // Same composition, different phi: a looser threshold reports a
        // superset.
        let loose = hh.query_heavy_hitters(512, 0.01).unwrap();
        assert!(loose.len() >= first.len());
        for h in &first {
            assert!(loose.iter().any(|l| l.item == h.item));
        }
        // An update must invalidate the cache.
        for _ in 0..2_000 {
            hh.insert(9999, 100).unwrap();
        }
        let after = hh.query_heavy_hitters(512, 0.1).unwrap();
        assert!(
            after.iter().any(|h| h.item == 9999),
            "new heavy item missing after cache invalidation: {after:?}"
        );
    }

    #[test]
    fn merge_combines_shards_and_rejects_mismatch() {
        let build = || CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 1023, 50_000, 3).unwrap();
        let mut a = build();
        let mut b = build();
        // Item 7 is heavy only when both shards are combined.
        for i in 0..3_000u64 {
            a.insert(7, i % 1024).unwrap();
            b.insert(7, (i * 3) % 1024).unwrap();
            a.insert(100 + (i % 300), (i * 7) % 1024).unwrap();
            b.insert(500 + (i % 300), (i * 11) % 1024).unwrap();
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.items_processed(), 12_000);
        let hitters = a.query_heavy_hitters(1023, 0.2).unwrap();
        assert!(
            hitters.iter().any(|h| h.item == 7),
            "merged shards must surface the jointly-heavy item: {hitters:?}"
        );
        let mut mismatched = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 1023, 50_000, 4).unwrap();
        assert!(mismatched.merge_from(&build()).is_err());
        // A phi mismatch changes only the candidate capacity — invisible to
        // the framework config check — and must still be rejected.
        let mut coarse = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.2, 1023, 50_000, 3).unwrap();
        assert!(matches!(
            coarse.merge_from(&build()),
            Err(crate::error::CoreError::IncompatibleMerge { .. })
        ));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 4095, 100_000, 3).unwrap();
        for i in 0..6_000u64 {
            hh.insert(7, i % 1000).unwrap();
            hh.insert(1000 + (i % 400), (i * 7) % 4096).unwrap();
        }
        let bytes = hh.snapshot();
        let restored =
            CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.2, 0.1, 3), &bytes).unwrap();
        assert_eq!(restored.items_processed(), hh.items_processed());
        assert_eq!(restored.stored_tuples(), hh.stored_tuples());
        for c in (0..=4096u64).step_by(256) {
            assert_eq!(restored.query(c).unwrap(), hh.query(c).unwrap(), "c={c}");
            assert_eq!(
                restored.query_heavy_hitters(c, 0.05).unwrap(),
                hh.query_heavy_hitters(c, 0.05).unwrap(),
                "c={c}"
            );
        }
        // Merge compatibility survives the round trip.
        let mut shard = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 4095, 100_000, 3).unwrap();
        for i in 0..2_000u64 {
            shard.insert(9, i % 4096).unwrap();
        }
        let mut a = hh.clone();
        let mut b = restored;
        a.merge_from(&shard).unwrap();
        b.merge_from(&shard).unwrap();
        for c in (0..=4096u64).step_by(1024) {
            assert_eq!(a.query(c).unwrap(), b.query(c).unwrap(), "c={c}");
            assert_eq!(
                a.query_heavy_hitters(c, 0.05).unwrap(),
                b.query_heavy_hitters(c, 0.05).unwrap(),
                "c={c}"
            );
        }
        assert_eq!(hh.snapshot(), bytes);
    }

    #[test]
    fn snapshot_rejects_corruption_and_truncation() {
        let mut hh = CorrelatedHeavyHitters::with_seed(0.3, 0.1, 0.1, 255, 1000, 3).unwrap();
        for i in 0..300u64 {
            hh.insert(i % 10, i % 256).unwrap();
        }
        let bytes = hh.snapshot();
        let restore = |bytes: &[u8]| {
            CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.3, 0.1, 3), bytes)
        };
        assert!(restore(&bytes).is_ok());
        let mut corrupt = bytes.clone();
        corrupt[40] ^= 2;
        assert!(matches!(restore(&corrupt), Err(crate::error::CoreError::Snapshot { .. })));
        assert!(restore(&bytes[..bytes.len() / 2]).is_err());
        // The phi-derived candidate capacity is part of the fingerprint.
        assert!(CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.3, 0.3, 3), &bytes).is_err());
    }

    #[test]
    fn tracker_rejects_at_the_floor_and_evicts_by_estimate_then_item() {
        // Wide lane, few items: point estimates are exact, so the tracker's
        // decisions can be spelled out.
        let mut s = HhBucketSketch::new(4096, 3, 3, 9);
        for item in [30u64, 10, 20] {
            s.update(item, 5);
        }
        assert_eq!(s.candidates, vec![(30, 5), (10, 5), (20, 5)]);
        assert_eq!(s.floor, 5);
        // Equal to the floor: rejected, whatever the item.
        s.update(1, 5);
        assert_eq!(s.candidates, vec![(30, 5), (10, 5), (20, 5)]);
        // Stronger: replaces the minimum under (estimate, item) — item 10.
        s.update(40, 6);
        assert_eq!(s.candidates, vec![(30, 5), (40, 6), (20, 5)]);
        // A tracked item refreshes its own record in place.
        s.update(20, 3);
        assert_eq!(s.candidates, vec![(30, 5), (40, 6), (20, 8)]);
        assert_eq!(s.floor, 5);
        // Zero-weight updates touch nothing.
        s.update(99, 0);
        assert_eq!(s.candidates.len(), 3);
        assert_eq!(s.frequency_estimate(99), 0.0);
    }

    #[test]
    fn bulk_loads_do_not_depend_on_arrival_order() {
        // Exact→sketched conversion and query-time composition hand the
        // sketch a hash map's entries in table order; the resulting state
        // must be a function of the entry *set*.
        let entries: Vec<(u64, i64)> = (0..500u64).map(|x| (x * 7919 % 10_007, (x % 4) as i64 + 1)).collect();
        let mut forward = HhBucketSketch::new(64, 3, 16, 5);
        let mut backward = forward.clone();
        forward.update_all(entries.iter().copied());
        backward.update_all(entries.iter().rev().copied());
        let bytes = |s: &HhBucketSketch| {
            let mut w = ByteWriter::new();
            s.encode_state(&mut w);
            w.into_bytes()
        };
        assert!(bytes(&forward) == bytes(&backward));
        assert_eq!(forward.candidates.len(), 16);
        // Merging is the same routine: a ⊕ b and b ⊕ a agree.
        let mut a = HhBucketSketch::new(64, 3, 16, 5);
        let mut b = a.clone();
        a.update_all(entries[..300].iter().copied());
        b.update_all(entries[300..].iter().copied());
        let (ab, ba) = (a.merged(&b).unwrap(), b.merged(&a).unwrap());
        assert!(bytes(&ab) == bytes(&ba));
        // A capacity mismatch is refused.
        assert!(a.merged(&HhBucketSketch::new(64, 3, 8, 5)).is_err());
    }

    #[test]
    fn independently_built_sketches_agree_byte_for_byte_on_ties() {
        // 20k items that each occur once, over 16 y values: every singleton
        // bucket spills to its sketch holding ~1 250 equal estimates, far
        // more distinct items than the 40-slot trackers keep. Which of the
        // tied items a bucket tracks must depend on nothing but the stream.
        let build = || {
            let mut hh = CorrelatedHeavyHitters::with_seed(0.25, 0.1, 0.1, 15, 100_000, 11).unwrap();
            let mut state = 99u64;
            for i in 0..20_000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                hh.insert(i, (state >> 20) % 16).unwrap();
            }
            // A few repeated items so the answers below are not empty.
            for i in 0..900u64 {
                hh.insert(1_000_000 + i % 3, i % 16).unwrap();
            }
            hh
        };
        let (a, b) = (build(), build());
        let sketched = a.with_composed(15, |store| !store.is_exact()).unwrap();
        assert!(sketched, "the stream must reach sketched buckets");
        assert!(a.snapshot() == b.snapshot(), "snapshots differ");
        for c in 0..16u64 {
            for phi in [0.0001, 0.001, 0.01, 0.1] {
                assert_eq!(
                    a.query_heavy_hitters(c, phi).unwrap(),
                    b.query_heavy_hitters(c, phi).unwrap(),
                    "c={c} phi={phi}"
                );
            }
        }
        let reported = a.query_heavy_hitters(15, 0.01).unwrap();
        for item in 1_000_000..1_000_003u64 {
            assert!(reported.iter().any(|h| h.item == item), "{item} missing: {reported:?}");
        }
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let hh = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.1, 255, 1000, DEFAULT_SEED).unwrap();
        assert!(hh.query_heavy_hitters(100, 0.1).unwrap().is_empty());
        assert_eq!(hh.query(100).unwrap(), 0.0);
        assert_eq!(hh.stored_tuples(), 0);
    }
}
