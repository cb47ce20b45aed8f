//! The general correlated-aggregation framework: Algorithms 1–3 of the paper.
//!
//! A [`CorrelatedSketch`] maintains `ℓ_max + 1` levels:
//!
//! * **level 0** holds *singleton* buckets, one per distinct y value seen, each
//!   containing a summary of the items carrying exactly that y value;
//! * **level ℓ ≥ 1** holds buckets over *dyadic intervals* of the y domain,
//!   organised as a binary tree grown lazily from the root `[0, y_max]`. A
//!   bucket is updated while it is *open*; once its estimate reaches the
//!   level's threshold `2^{ℓ+1}` it is *closed* and subsequent items falling
//!   into its span are routed into its children (created on demand).
//!
//! Every level stores at most `α` buckets. On overflow, the bucket with the
//! largest left endpoint is discarded and the level's *eviction watermark*
//! `Y_ℓ` is lowered to that endpoint: the level can from then on only answer
//! queries with threshold `c < Y_ℓ`.
//!
//! A query for `f({x : y ≤ c})` picks the smallest level whose watermark is
//! still above `c`, composes the summaries of all its buckets whose span lies
//! entirely inside `[0, c]`, and returns the composed estimate (Algorithm 3).
//! The buckets that straddle `c` are exactly the ones whose omission the
//! paper's analysis charges against the level's bucket budget `α`.
//!
//! This module is the thin **coordinator**: it owns the configuration, the
//! singleton level, the update-generation counter, and the one update path
//! (`insert` and `update` apply a batch of one, `update_batch` a batch of
//! unit-weight tuples), and delegates
//!
//! * all dyadic-level state and the level walk of that path to the
//!   structure-of-arrays level engine in `crate::levels` (bucket arenas, leaf
//!   routing, headroom-gated closing, eviction, the shared dormant-level
//!   tail, and same-slot runs over the flat prepared batch);
//! * query-time composition and its memoization to the unified query core in
//!   [`crate::compose`] (Algorithm 3's level selection, per-level prefix
//!   tables and per-threshold bucket composition, each behind a
//!   generation-validated [`GenCache`]).

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::compose::{self, GenCache};
use crate::config::CorrelatedConfig;
use crate::dyadic::DyadicInterval;
use crate::error::{CoreError, Result};
use crate::levels::{BatchOf, LevelEngine};
use crate::singleton::SingletonLevel;
use crate::snapshot::{self, SnapshotKind};
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError, StateCodec};
use cora_sketch::SharedUpdate;
use std::sync::Mutex;

/// Statistics describing the internal state of a [`CorrelatedSketch`]; used by
/// the experiment harness and exposed for observability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchStats {
    /// Number of singleton buckets at level 0.
    pub singleton_buckets: usize,
    /// Number of dyadic buckets summed over all levels ≥ 1.
    pub dyadic_buckets: usize,
    /// Number of levels (≥ 1) that have evicted at least one bucket.
    pub levels_with_evictions: usize,
    /// Total stored tuples (counters + exact entries) across the structure —
    /// the unit reported in the paper's space figures.
    pub stored_tuples: usize,
    /// Approximate heap footprint in bytes.
    pub space_bytes: usize,
    /// Number of stream elements processed.
    pub items_processed: u64,
}

/// The generic correlated-aggregation sketch (Algorithms 1–3).
#[derive(Debug)]
pub struct CorrelatedSketch<A: CorrelatedAggregate> {
    agg: A,
    /// Fingerprint of `agg`'s per-bucket sketch family (see
    /// [`Self::agg_fingerprint`]), computed once: merges and restores check it.
    agg_fingerprint: u64,
    config: CorrelatedConfig,
    alpha: usize,
    /// Level 0: singleton buckets behind a flat fmix64 hash index keyed by
    /// exact y value (see `crate::singleton`).
    singletons: SingletonLevel<A>,
    /// All dyadic levels, the packed watermark array, and the shared tail.
    engine: LevelEngine<A>,
    items_processed: u64,
    /// A pristine sketch used solely to compute shared update coordinates
    /// ([`SharedUpdate::prepare_batch_into`] depends only on dimensions and
    /// seed).
    proto_sketch: A::Sketch,
    /// Reusable buffers for the update path: the `(item, weight)` view of
    /// the batch in flight and its flat prepared coordinates.
    batch_items: Vec<(u64, i64)>,
    batch_scratch: BatchOf<A>,
    /// Memoized query compositions per `(generation, threshold)` (interior
    /// mutability: queries take `&self`).
    compose_cache: Mutex<GenCache<u64, u64, BucketStore<A>>>,
    /// Prefix tables per `(generation, level)`, for aggregates with
    /// [`CorrelatedAggregate::incremental_estimates`]. Holds every level, so
    /// no table is evicted within a generation.
    prefix_tables: Mutex<GenCache<u64, u32, compose::PrefixTable>>,
}

impl<A: CorrelatedAggregate> Clone for CorrelatedSketch<A> {
    fn clone(&self) -> Self {
        Self {
            agg: self.agg.clone(),
            agg_fingerprint: self.agg_fingerprint,
            config: self.config.clone(),
            alpha: self.alpha,
            singletons: self.singletons.clone(),
            engine: self.engine.clone(),
            items_processed: self.items_processed,
            proto_sketch: self.proto_sketch.clone(),
            batch_items: Vec::new(),
            batch_scratch: BatchOf::<A>::default(),
            // Caches don't travel: the clone starts with cold caches.
            compose_cache: Mutex::new(GenCache::new(compose::COMPOSE_CACHE_CAPACITY)),
            prefix_tables: Self::prefix_table_cache(&self.config),
        }
    }
}

impl<A: CorrelatedAggregate> CorrelatedSketch<A> {
    /// Build a correlated sketch for aggregate `agg` under `config`.
    pub fn new(agg: A, config: CorrelatedConfig) -> Result<Self> {
        config.validate()?;
        let root = DyadicInterval::root(config.y_max);
        let logy = f64::from(config.log2_y());
        let alpha = config.alpha(agg.c1(logy), agg.c2(config.epsilon / 2.0));
        let max_level = config.num_levels() as u32 - 1;
        let proto_sketch = agg.new_sketch();
        let prefix_tables = Self::prefix_table_cache(&config);
        Ok(Self {
            agg,
            agg_fingerprint: Self::agg_fingerprint(&proto_sketch),
            config,
            alpha,
            singletons: SingletonLevel::new(),
            // Levels materialize lazily as the stream's aggregate grows past
            // their thresholds; an empty sketch has none.
            engine: LevelEngine::new(root, max_level),
            items_processed: 0,
            proto_sketch,
            batch_items: Vec::new(),
            batch_scratch: BatchOf::<A>::default(),
            compose_cache: Mutex::new(GenCache::new(compose::COMPOSE_CACHE_CAPACITY)),
            prefix_tables,
        })
    }

    /// An empty prefix-table cache with room for every level `query_level`
    /// can name: the singletons, levels `1 ..= ℓ_max`, and the dormant tail,
    /// which takes the number of the first unmaterialized level.
    fn prefix_table_cache(
        config: &CorrelatedConfig,
    ) -> Mutex<GenCache<u64, u32, compose::PrefixTable>> {
        Mutex::new(GenCache::new(config.num_levels()))
    }

    /// The aggregate descriptor.
    pub fn aggregate(&self) -> &A {
        &self.agg
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> &CorrelatedConfig {
        &self.config
    }

    /// The per-level bucket budget α in effect.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Number of stream elements processed so far.
    pub fn items_processed(&self) -> u64 {
        self.items_processed
    }

    /// Process a stream element `(x, y)` with unit weight.
    pub fn insert(&mut self, x: u64, y: u64) -> Result<()> {
        self.update(x, y, 1)
    }

    /// Process a stream element `(x, y)` with a positive weight.
    ///
    /// Negative weights are rejected: the single-pass structure only supports
    /// the cash-register model (Section 4 of the paper proves that no small
    /// single-pass summary exists once deletions are allowed; use the
    /// multi-pass algorithm in `cora-stream` for that setting). A zero
    /// weight is a no-op. The element is applied as a batch of one (see
    /// [`Self::update_batch`]).
    pub fn update(&mut self, x: u64, y: u64, weight: i64) -> Result<()> {
        if weight < 0 {
            return Err(CoreError::InvalidParameter {
                name: "weight",
                detail: "single-pass correlated sketches require non-negative weights".into(),
            });
        }
        if y > self.config.padded_y_max() {
            return Err(CoreError::YOutOfRange {
                y,
                y_max: self.config.padded_y_max(),
            });
        }
        if weight > 0 {
            self.apply(&[(x, y)], weight);
        }
        Ok(())
    }

    /// Process a batch of unit-weight stream elements `(x, y)`.
    ///
    /// Equivalent to calling [`insert`](Self::insert) for each tuple in
    /// order — both run the one update path: every element's sketch
    /// coordinates are hashed once up front into one flat allocation, each
    /// level's arena is walked for the whole batch at once (level-major
    /// traversal), and runs of consecutive tuples routed to the same bucket
    /// are applied through the sketch's contiguous batch layout (see
    /// `crate::levels`). The structure does not depend on how the stream is
    /// cut into batches.
    ///
    /// The batch is validated up front: if any `y` is out of range, an error
    /// is returned and **no** tuple of the batch is applied.
    pub fn update_batch(&mut self, tuples: &[(u64, u64)]) -> Result<()> {
        let y_max = self.config.padded_y_max();
        for &(_, y) in tuples {
            if y > y_max {
                return Err(CoreError::YOutOfRange { y, y_max });
            }
        }
        self.apply(tuples, 1);
        Ok(())
    }

    /// The one update path: apply every tuple of a validated batch at
    /// `weight`. The batch is hashed once into the sketch's flat coordinate
    /// layout; level 0 takes each tuple in turn (singleton buckets keyed by
    /// exact y, behind the flat hash index), and the level engine walks the
    /// batch level by level.
    fn apply(&mut self, tuples: &[(u64, u64)], weight: i64) {
        self.items_processed += tuples.len() as u64;
        let mut items = std::mem::take(&mut self.batch_items);
        items.clear();
        items.extend(tuples.iter().map(|&(x, _)| (x, weight)));
        let mut batch = std::mem::take(&mut self.batch_scratch);
        self.proto_sketch.prepare_batch_into(&items, &mut batch);

        let (agg, alpha) = (&self.agg, self.alpha);
        for (i, &(_, y)) in tuples.iter().enumerate() {
            if self.singletons.admits(y) {
                let slot = self.singletons.slot_of(y);
                self.singletons
                    .store_mut(slot)
                    .update_batch_range(agg, &items, &batch, i..i + 1);
                self.singletons.enforce_budget(alpha);
            }
        }
        self.engine.update_batch(agg, alpha, tuples, &items, &batch);

        self.batch_items = items;
        self.batch_scratch = batch;
    }

    /// Merge `other` into `self` (Property V): the result summarises the
    /// concatenation of the two input streams.
    ///
    /// Requires the two sketches to share a configuration (accuracy
    /// parameters, y domain, level count, bucket policy, and master hash
    /// seed) and an aggregate fingerprint (per-bucket sketch dimensions and
    /// seed, and for heavy hitters the `phi`-derived candidate capacity) —
    /// the same requirement Property V puts on per-bucket sketches, lifted to
    /// whole structures. Returns
    /// [`CoreError::IncompatibleMerge`](crate::error::CoreError) otherwise,
    /// with `self` untouched.
    ///
    /// The merge is carried out per layer: singleton stores merge entry-wise
    /// (watermark lowered, α re-enforced), dyadic levels union-merge with
    /// bucket-closing re-run, and the shared tails merge with the
    /// materialization check re-run (see the level engine in `crate::levels`).
    ///
    /// Merged buckets spill from exact to sketched storage at the same size
    /// inserted ones do, so a merged structure never stores more than its
    /// buckets × one sketch, however many inputs it absorbed.
    ///
    /// Per-bucket stores are linear summaries, so merged buckets carry the
    /// same relative error as sequentially-built ones. What composition *can*
    /// inflate is the boundary-bucket omission of Algorithm 3: a merged
    /// bucket straddling the query threshold holds up to one closed bucket's
    /// worth of weight **per input**, so merging `k` shards scales that error
    /// term by at most `k` — absorbed by the α budget's constant-factor
    /// headroom for small `k` (the sharded-ingest property tests pin this
    /// empirically).
    pub fn merge_from(&mut self, other: &Self) -> Result<()> {
        if self.config != other.config {
            return Err(CoreError::IncompatibleMerge {
                detail: format!(
                    "configurations differ: {:?} vs {:?}",
                    self.config, other.config
                ),
            });
        }
        // Checked before anything is touched: a bucket-sketch merge would
        // refuse a foreign family only part-way through the structure.
        if self.agg_fingerprint != other.agg_fingerprint {
            return Err(CoreError::IncompatibleMerge {
                detail: format!(
                    "aggregates differ (per-bucket sketch dimensions, seed, or candidate \
                     capacity): {} vs {}",
                    self.agg.name(),
                    other.agg.name()
                ),
            });
        }
        debug_assert_eq!(self.alpha, other.alpha);

        // Level 0: entry-wise singleton merge, then re-enforce watermark + α
        // (both inside the singleton level, shared with the insert path).
        self.singletons
            .merge_from(&self.agg, &other.singletons, self.alpha)?;

        // Dyadic levels + shared tail.
        let (agg, alpha) = (&self.agg, self.alpha);
        self.engine.merge_from(agg, alpha, &other.engine)?;

        self.items_processed += other.items_processed;
        // The merged structure invalidates any memoized composition or table
        // (merging an empty sketch leaves the generation where it was).
        self.compose_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.prefix_tables
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        Ok(())
    }

    /// Merge an ordered collection of same-configured sketches into one fresh
    /// composite — Property V applied left to right. This is the pane/shard
    /// composition primitive: the sharded ingest readers and the windowed
    /// pane rings in `cora-stream` both reduce their multi-part state to a
    /// single queryable structure through it.
    ///
    /// Every part must share `config` (including the seed) or the merge fails
    /// with [`CoreError::IncompatibleMerge`](crate::error::CoreError) and the
    /// partial composite is discarded.
    pub fn merge_all<'a>(
        agg: A,
        config: CorrelatedConfig,
        parts: impl IntoIterator<Item = &'a Self>,
    ) -> Result<Self>
    where
        A: 'a,
    {
        let mut composite = Self::new(agg, config)?;
        for part in parts {
            composite.merge_from(part)?;
        }
        Ok(composite)
    }

    /// Answer a correlated query: estimate `f({x : (x, y) ∈ S, y ≤ c})`
    /// (Algorithm 3).
    ///
    /// The level is selected as [`Self::query_level`] selects it. If the
    /// aggregate has [`CorrelatedAggregate::incremental_estimates`] (`F_2`
    /// and the heavy-hitters `F_2`), the answer is read from that level's
    /// prefix table by binary search. The table is built on the first query
    /// that selects the level and kept until the next update or merge, so
    /// a cold threshold costs O(log α) instead of a fresh merge of its
    /// buckets. Its answers are bit-identical to
    /// `with_composed(c, |s| s.estimate(agg))`, which every other aggregate
    /// still uses.
    pub fn query(&self, c: u64) -> Result<f64> {
        if !self.agg.incremental_estimates() {
            return self.with_composed(c, |store| store.estimate(&self.agg));
        }
        let c = c.min(self.config.padded_y_max());
        let level = self
            .query_level(c)
            .ok_or(CoreError::QueryFailed { threshold: c })?;
        compose::cached_query(
            &self.prefix_tables,
            self.items_processed,
            level,
            || compose::prefix_table(&self.agg, &self.singletons, &self.engine, level),
            |table| table.estimate_upto(c),
        )
    }

    /// Compose the summaries Algorithm 3 would use for threshold `c` into a
    /// single store and return it. `query` is `estimate` over this store;
    /// richer queries (heavy hitters, Section 3.3) inspect the composed store
    /// directly.
    ///
    /// Compositions are memoized per threshold (16 thresholds) until the
    /// next update, so repeated queries against a quiescent sketch return a
    /// clone of the cached store instead of re-merging every bucket. Callers
    /// that only need to *read* the composed store should prefer
    /// [`Self::with_composed`], which skips the clone.
    pub fn compose_for_threshold(&self, c: u64) -> Result<BucketStore<A>> {
        self.with_composed(c, Clone::clone)
    }

    /// Run `f` against the composed store for threshold `c` without cloning
    /// it out of the memoization cache.
    ///
    /// This is the zero-copy read path behind the heavy-hitters queries and
    /// behind [`Self::query`] for aggregates without incremental estimates.
    /// It memoizes the composed store per threshold; [`Self::query`]'s
    /// prefix tables are a separate cache. `f` runs while the cache lock is
    /// held, so it must not call back into this sketch's query API.
    pub fn with_composed<R>(&self, c: u64, f: impl FnOnce(&BucketStore<A>) -> R) -> Result<R> {
        let c = c.min(self.config.padded_y_max());
        compose::cached_query(
            &self.compose_cache,
            self.items_processed,
            c,
            || compose::compose_for_threshold(&self.agg, &self.singletons, &self.engine, c),
            f,
        )
    }

    /// The level Algorithm 3 would use for threshold `c` (0 = singleton level);
    /// `None` if the query would fail. Exposed for diagnostics and tests.
    pub fn query_level(&self, c: u64) -> Option<u32> {
        let c = c.min(self.config.padded_y_max());
        compose::query_level(self.singletons.y_bound(), &self.engine, c)
    }

    /// Estimate the aggregate over the entire stream (threshold `y_max`).
    pub fn query_all(&self) -> Result<f64> {
        self.query(self.config.padded_y_max())
    }

    /// Internal statistics (space accounting, level usage).
    pub fn stats(&self) -> SketchStats {
        let singleton_tuples: usize = self
            .singletons
            .live_stores()
            .map(BucketStore::stored_tuples)
            .sum();
        let singleton_bytes: usize = self
            .singletons
            .live_stores()
            .map(BucketStore::space_bytes)
            .sum();
        let (dyadic_buckets, dyadic_tuples, dyadic_bytes, levels_with_evictions) =
            self.engine.space_accounting();
        SketchStats {
            singleton_buckets: self.singletons.len(),
            dyadic_buckets,
            levels_with_evictions,
            stored_tuples: singleton_tuples + dyadic_tuples,
            space_bytes: singleton_bytes + dyadic_bytes,
            items_processed: self.items_processed,
        }
    }

    /// Total stored tuples — the paper's space unit.
    pub fn stored_tuples(&self) -> usize {
        self.stats().stored_tuples
    }

    /// Assert the structure's invariants: the singleton level respects its
    /// budget and watermark, every dyadic level passes the
    /// structure-of-arrays checks (leaf tiling, predecessor-index agreement,
    /// eviction-set consistency — see `Level::check_invariants` in
    /// `crate::levels`), and no stored bucket is exact past its spill point.
    /// Panics on violation. Compiled only under `cfg(test)`
    /// or the `invariant-checks` feature; property tests run it after merges.
    #[cfg(any(test, feature = "invariant-checks"))]
    pub fn check_invariants(&self) {
        self.singletons.check_invariants(&self.agg, self.alpha);
        self.engine.check_invariants(&self.agg);
    }
    /// Serialise the full sketch state into a versioned, checksummed snapshot
    /// frame (see [`crate::snapshot`] for the format). The frame embeds the
    /// configuration — seed included — so the restored sketch answers every
    /// query **bit-identically** and stays merge-compatible with live
    /// sketches built from the same configuration.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out);
        out
    }

    /// [`Self::snapshot`], appending the frame to a caller-provided buffer:
    /// configuration, aggregate name and fingerprint, α, then the level state.
    pub fn snapshot_to(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        snapshot::encode_config(&self.config, &mut w);
        w.put_str(&self.agg.name());
        w.put_u64(self.agg_fingerprint);
        w.put_u64(self.alpha as u64);
        w.put_u64(self.items_processed);
        self.singletons.encode_state(&mut w);
        self.engine.encode_state(&mut w);
        snapshot::seal_frame_into(SnapshotKind::Framework, w.as_bytes(), out);
    }

    /// Rebuild a sketch from [`Self::snapshot`] bytes.
    ///
    /// `agg` must be the same aggregate descriptor the snapshot was taken
    /// with (same accuracy parameters and seed — the decoded per-bucket
    /// sketch dimensions are verified against it, and the configuration in
    /// the frame header is validated before any state is interpreted).
    pub fn restore_from(agg: A, bytes: &[u8]) -> Result<Self> {
        let payload = snapshot::open_frame(bytes, SnapshotKind::Framework)?;
        let mut r = ByteReader::new(payload);
        let config = snapshot::decode_config(&mut r)?;
        let mut sketch = Self::new(agg, config)?;
        let corrupt = |detail: String| CoreError::from(CodecError::Corrupt(detail));
        let name = r.get_str()?;
        if name != sketch.agg.name() {
            return Err(corrupt(format!(
                "snapshot is for aggregate {name:?}, restoring into {:?}",
                sketch.agg.name()
            )));
        }
        if r.get_u64()? != sketch.agg_fingerprint {
            return Err(corrupt(
                "aggregate mismatch: the snapshot's per-bucket sketch family \
                 (dimensions, seed, or candidate capacity) differs from the \
                 restoring aggregate's"
                    .into(),
            ));
        }
        let alpha = r.get_u64()?;
        if alpha != sketch.alpha as u64 {
            return Err(corrupt(format!(
                "bucket budget differs: snapshot alpha {alpha}, derived {}",
                sketch.alpha
            )));
        }
        sketch.items_processed = r.get_u64()?;
        sketch.singletons = SingletonLevel::decode_state(&sketch.agg, &mut r)?;
        let root = DyadicInterval::root(sketch.config.y_max);
        let max_level = sketch.config.num_levels() as u32 - 1;
        sketch.engine = LevelEngine::decode_state(&sketch.agg, root, max_level, &mut r)?;
        r.expect_end()?;
        Ok(sketch)
    }

    /// Fingerprint of an aggregate's per-bucket sketch family, from a fresh
    /// sketch of it: the encoded state of an empty sketch covers its
    /// dimensions and seed (and, for heavy hitters, the `phi`-derived
    /// candidate capacity), so two aggregates share a fingerprint iff their
    /// sketches are mergeable. This catches a wrong-seed restore or merge
    /// even when every bucket is still exact (no sketched store around to
    /// carry the seed itself).
    fn agg_fingerprint(fresh: &A::Sketch) -> u64 {
        let mut w = ByteWriter::new();
        fresh.encode_state(&mut w);
        cora_sketch::codec::fnv1a64(w.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlphaPolicy;
    use crate::f2::F2Aggregate;

    fn f2_sketch(epsilon: f64, y_max: u64, alpha: AlphaPolicy) -> CorrelatedSketch<F2Aggregate> {
        let config = CorrelatedConfig::new(epsilon, 0.1, y_max, 40)
            .unwrap()
            .with_alpha_policy(alpha)
            .with_seed(7);
        CorrelatedSketch::new(F2Aggregate::new(epsilon, 0.1, 7), config).unwrap()
    }

    #[test]
    fn empty_sketch_answers_zero() {
        let s = f2_sketch(0.2, 1023, AlphaPolicy::Fixed(64));
        assert_eq!(s.query(10).unwrap(), 0.0);
        assert_eq!(s.query_all().unwrap(), 0.0);
        assert_eq!(s.query_level(10), Some(0));
        assert_eq!(s.stored_tuples(), 0);
    }

    #[test]
    fn rejects_negative_weights_and_out_of_range_y() {
        let mut s = f2_sketch(0.2, 1023, AlphaPolicy::Fixed(64));
        assert!(matches!(
            s.update(1, 5, -1),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            s.update(1, 5000, 1),
            Err(CoreError::YOutOfRange { .. })
        ));
        assert!(s.update(1, 5, 0).is_ok());
        assert_eq!(s.items_processed(), 0);
    }

    #[test]
    fn update_batch_rejects_bad_y_atomically() {
        let mut s = f2_sketch(0.3, 255, AlphaPolicy::Fixed(64));
        let batch = [(1u64, 3u64), (2, 5000), (3, 7)];
        assert!(matches!(
            s.update_batch(&batch),
            Err(CoreError::YOutOfRange { .. })
        ));
        assert_eq!(s.items_processed(), 0);
        assert_eq!(s.stored_tuples(), 0);
    }

    #[test]
    fn compose_cache_is_invalidated_by_updates() {
        let mut s = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
        for i in 0..3_000u64 {
            s.insert(i % 90, (i * 11) % 1024).unwrap();
        }
        let first = s.query(500).unwrap();
        // Cached repeat answers identically.
        assert_eq!(s.query(500).unwrap(), first);
        // An update must invalidate the cache: insert weight below the
        // threshold and require the answer to move.
        for _ in 0..50 {
            s.insert(12345, 100).unwrap();
        }
        let second = s.query(500).unwrap();
        assert!(
            second > first,
            "query after updates must reflect the new items: {first} -> {second}"
        );
        // compose_for_threshold returns an equivalent store from the cache.
        let store = s.compose_for_threshold(500).unwrap();
        assert_eq!(store.estimate(s.aggregate()), second);
        // `query` reads the level's prefix table, which no insert, batch or
        // merge may leave stale: each must move the answer, and the answer
        // must stay the composed one.
        let composed = |s: &CorrelatedSketch<F2Aggregate>, c: u64| {
            s.with_composed(c, |store| store.estimate(s.aggregate()))
                .unwrap()
                .to_bits()
        };
        assert_eq!(s.query(500).unwrap().to_bits(), composed(&s, 500));
        s.update_batch(&[(54321, 200); 40]).unwrap();
        let third = s.query(500).unwrap();
        assert!(third > second, "query after a batch: {second} -> {third}");
        assert_eq!(third.to_bits(), composed(&s, 500));
        let mut other = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
        for _ in 0..40 {
            other.insert(777, 300).unwrap();
        }
        s.merge_from(&other).unwrap();
        let fourth = s.query(500).unwrap();
        assert!(fourth > third, "query after a merge: {third} -> {fourth}");
        assert_eq!(fourth.to_bits(), composed(&s, 500));
    }

    /// Prefix tables built on this thread so far.
    fn tables_built() -> u64 {
        compose::PREFIX_TABLES_BUILT.with(std::cell::Cell::get)
    }

    #[test]
    fn prefix_tables_are_built_once_per_level_per_generation() {
        let mut s = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        for i in 0..12_000u64 {
            s.insert(i % 120, (i * 37) % 4096).unwrap();
        }
        let at_level = |s: &CorrelatedSketch<F2Aggregate>, level| -> Vec<u64> {
            (0..=4096u64)
                .filter(|&c| s.query_level(c) == Some(level))
                .collect()
        };
        let level = s.query_level(4095).unwrap();
        assert!(level > 0, "the stream must reach the dyadic levels");
        let thresholds = at_level(&s, level);
        assert!(thresholds.len() >= 64, "{} thresholds", thresholds.len());
        let before = tables_built();
        for _ in 0..2 {
            for &c in &thresholds {
                s.query(c).unwrap();
            }
        }
        assert_eq!(tables_built() - before, 1, "one level, one generation");
        // A new generation rebuilds the level's table, once.
        s.insert(5, 4000).unwrap();
        for &c in &at_level(&s, level) {
            s.query(c).unwrap();
        }
        assert_eq!(tables_built() - before, 2);
        // Clones start cold and build their own.
        let clone = s.clone();
        clone.query(4095).unwrap();
        assert_eq!(tables_built() - before, 3);
    }

    #[test]
    fn aggregates_without_incremental_estimates_compose_per_threshold() {
        use crate::fk::FkAggregate;
        let agg = FkAggregate::new(3, 0.3, 7).unwrap();
        assert!(!agg.incremental_estimates());
        let config = CorrelatedConfig::new(0.3, 0.1, 1023, 40)
            .unwrap()
            .with_alpha_policy(AlphaPolicy::Fixed(24))
            .with_seed(7);
        let mut s = CorrelatedSketch::new(agg, config).unwrap();
        for i in 0..6_000u64 {
            s.insert(i % 90, (i * 11) % 1024).unwrap();
        }
        let before = tables_built();
        for c in (0..=1024u64).step_by(7) {
            let composed = s
                .clone()
                .with_composed(c, |store| store.estimate(s.aggregate()))
                .unwrap();
            assert_eq!(s.query(c).unwrap().to_bits(), composed.to_bits(), "c={c}");
        }
        assert_eq!(tables_built(), before, "F_3 must not build prefix tables");
    }

    #[test]
    fn composed_answers_stay_exact_past_the_spill_point() {
        let mut s = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
        let spill = s.aggregate().sketch_size_hint() as u64;
        // Four singleton buckets of spill/2 distinct items each: every stored
        // bucket stays exact, their union is twice the spill point.
        for x in 0..2 * spill {
            s.insert(x, x % 4).unwrap();
        }
        s.check_invariants();
        assert_eq!(s.query_level(3), Some(0));
        let (exact, tuples) = s
            .with_composed(3, |store| (store.is_exact(), store.stored_tuples()))
            .unwrap();
        assert!(exact, "a query-time accumulator must not spill");
        assert_eq!(tuples as u64, 2 * spill);
        assert_eq!(s.query(3).unwrap(), (2 * spill) as f64);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_and_merge_compatible() {
        let mut s = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        for i in 0..12_000u64 {
            s.insert(i % 120, (i * 37) % 4096).unwrap();
        }
        let bytes = s.snapshot();
        let restored =
            CorrelatedSketch::restore_from(F2Aggregate::new(0.25, 0.1, 7), &bytes).unwrap();
        restored.check_invariants();
        assert_eq!(restored.items_processed(), s.items_processed());
        assert_eq!(restored.stats(), s.stats());
        for c in (0..=4096u64).step_by(128) {
            assert_eq!(restored.query(c).unwrap(), s.query(c).unwrap(), "c={c}");
            assert_eq!(restored.query_level(c), s.query_level(c), "c={c}");
        }
        // Restored sketches keep Property V: merging a live shard into the
        // restored sketch equals merging it into the original.
        let mut shard = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        for i in 0..3_000u64 {
            shard.insert(i % 60, (i * 11) % 4096).unwrap();
        }
        let mut a = s.clone();
        let mut b = restored;
        a.merge_from(&shard).unwrap();
        b.merge_from(&shard).unwrap();
        for c in (0..=4096u64).step_by(512) {
            assert_eq!(a.query(c).unwrap(), b.query(c).unwrap(), "c={c}");
        }
        // A second snapshot of identical state is identical bytes.
        assert_eq!(s.snapshot(), bytes);
    }

    #[test]
    fn snapshot_rejects_wrong_aggregate_and_corruption() {
        let mut s = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(16));
        for i in 0..2_000u64 {
            s.insert(i % 50, i % 1024).unwrap();
        }
        let bytes = s.snapshot();
        // Wrong seed: the per-bucket sketch dimensions check fires.
        assert!(matches!(
            CorrelatedSketch::restore_from(F2Aggregate::new(0.3, 0.1, 8), &bytes),
            Err(CoreError::Snapshot { .. })
        ));
        // Wrong accuracy: different sketch width.
        assert!(CorrelatedSketch::restore_from(F2Aggregate::new(0.1, 0.1, 7), &bytes).is_err());
        // Truncation and corruption.
        assert!(CorrelatedSketch::restore_from(
            F2Aggregate::new(0.3, 0.1, 7),
            &bytes[..bytes.len() - 9]
        )
        .is_err());
        let mut corrupt = bytes;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(matches!(
            CorrelatedSketch::restore_from(F2Aggregate::new(0.3, 0.1, 7), &corrupt),
            Err(CoreError::Snapshot { .. })
        ));
    }

    #[test]
    fn empty_sketch_snapshot_round_trips() {
        let s = f2_sketch(0.2, 1023, AlphaPolicy::Fixed(64));
        let restored =
            CorrelatedSketch::restore_from(F2Aggregate::new(0.2, 0.1, 7), &s.snapshot()).unwrap();
        assert_eq!(restored.query(512).unwrap(), 0.0);
        assert_eq!(restored.items_processed(), 0);
    }

    #[test]
    fn insert_merge_and_batch_paths_preserve_invariants() {
        let mut a = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        let mut b = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        let mut batched = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(24));
        let tuples: Vec<(u64, u64)> = (0..8_000u64).map(|i| (i % 120, (i * 37) % 4096)).collect();
        for &(x, y) in &tuples {
            a.insert(x, y).unwrap();
            b.insert(y % 64, x % 4096).unwrap();
        }
        for chunk in tuples.chunks(512) {
            batched.update_batch(chunk).unwrap();
        }
        a.check_invariants();
        b.check_invariants();
        batched.check_invariants();
        a.merge_from(&b).unwrap();
        a.check_invariants();
    }
}
