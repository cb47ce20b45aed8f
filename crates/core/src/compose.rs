//! The unified query core: watermark arithmetic, level selection,
//! generation-validated memo caches, and Algorithm 3's query-time
//! composition.
//!
//! Every correlated structure in this crate answers a query the same way:
//! pick the smallest level whose **eviction watermark** still covers the
//! threshold `c`, then read that level (composing bucket summaries for the
//! framework sketch, counting retained samples for the distinct-sampling
//! structures). This module owns that shared machinery so
//! [`CorrelatedSketch`](crate::framework::CorrelatedSketch) (heavy hitters
//! included), [`CorrelatedF0`](crate::f0::CorrelatedF0) and
//! [`CorrelatedRarity`](crate::rarity::CorrelatedRarity) run one code path
//! instead of three re-implementations:
//!
//! * `min_watermark` / `watermark_answers` / `first_answering` — the
//!   watermark algebra (`None` = `+∞`, merges take the minimum, a level
//!   answers `c` iff its watermark exceeds it);
//! * [`GenCache`] — a small memo cache validated by an update *generation*.
//!   Its instances back the framework's per-level prefix tables (keyed by
//!   level) and its per-threshold compositions (keyed by `c`, which the
//!   heavy-hitters queries read), the windowed rings' composites, and
//!   `cora_stream::sharded`'s merged composite (where the generation is the
//!   vector of per-shard batch counters);
//! * `compose_for_threshold` / `query_level` — Algorithm 3 against the level
//!   engine (`crate::levels`): compose every bucket of the selected level
//!   whose dyadic span lies entirely inside `[0, c]`;
//! * `prefix_table` — the same answer for every `c` at once. The buckets
//!   Algorithm 3 composes are a prefix of the level's buckets in span-end
//!   order, so one fold in that order, recording the running estimate at
//!   each span end, answers any threshold by binary search. Only aggregates
//!   whose estimate is O(1) and integer-valued use it
//!   ([`CorrelatedAggregate::incremental_estimates`]).

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::error::{CoreError, Result};
use crate::levels::LevelEngine;
use crate::singleton::SingletonLevel;
use std::sync::Mutex;

/// Number of `(threshold, composed value)` pairs kept by the query caches.
pub(crate) const COMPOSE_CACHE_CAPACITY: usize = 16;

/// Combine two eviction watermarks, where `None` means "nothing evicted yet"
/// (an unbounded watermark, i.e. `+∞`): the merged structure can only answer
/// what *both* inputs can, so the result is the smaller bound.
///
/// Note `Option::min` would be wrong here — `None < Some(_)` in the derived
/// order, collapsing "unbounded" to "most restricted".
pub(crate) fn min_watermark(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (None, None) => None,
        (Some(w), None) | (None, Some(w)) => Some(w),
        (Some(x), Some(y)) => Some(x.min(y)),
    }
}

/// True iff a level with eviction watermark `w` can still answer queries with
/// threshold `c` (nothing relevant to `[0, c]` was ever evicted).
#[inline]
pub(crate) fn watermark_answers(w: Option<u64>, c: u64) -> bool {
    match w {
        None => true,
        Some(bound) => bound > c,
    }
}

/// The first level (smallest index) whose eviction watermark still answers
/// `c` — the level-selection rule shared by Algorithm 3 and the
/// distinct-sampling structures (`F_0`, rarity).
#[inline]
pub(crate) fn first_answering<T>(
    levels: &[T],
    c: u64,
    watermark: impl Fn(&T) -> Option<u64>,
) -> Option<(usize, &T)> {
    levels
        .iter()
        .enumerate()
        .find(|(_, level)| watermark_answers(watermark(level), c))
}

/// A small keyed memo cache validated by an update **generation**: entries
/// are only served while the cached generation equals the caller's, and
/// inserting under a new generation drops every stale entry.
///
/// The generation type is caller-defined: the framework uses its
/// `items_processed` counter, the sharded front-end the vector of per-shard
/// batch counters. Capacity eviction is FIFO.
#[derive(Debug)]
pub struct GenCache<G, K, V> {
    generation: Option<G>,
    entries: Vec<(K, V)>,
    capacity: usize,
}

impl<G: PartialEq, K: PartialEq, V> GenCache<G, K, V> {
    /// An empty cache holding at most `capacity` entries per generation.
    pub fn new(capacity: usize) -> Self {
        Self {
            generation: None,
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// The entry under `key`, provided the cached generation equals
    /// `generation`.
    pub fn get(&self, generation: &G, key: &K) -> Option<&V> {
        match &self.generation {
            Some(cached) if cached == generation => {
                self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Store `value` under `(generation, key)` and return a reference to it.
    /// A generation change clears every existing entry first.
    pub fn insert(&mut self, generation: G, key: K, value: V) -> &V {
        if self.generation.as_ref() != Some(&generation) {
            self.generation = Some(generation);
            self.entries.clear();
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
        let (_, stored) = self.entries.last().expect("just pushed");
        stored
    }

    /// Drop every entry (used after merges, which invalidate any memo).
    pub fn clear(&mut self) {
        self.generation = None;
        self.entries.clear();
    }
}

/// Lock a [`GenCache`] mutex, ignoring poisoning (the caches hold pure memo
/// state, always valid to read).
fn lock<G, K, V>(cache: &Mutex<GenCache<G, K, V>>) -> std::sync::MutexGuard<'_, GenCache<G, K, V>> {
    cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serve `read(&value)` for `key` out of a generation-validated cache,
/// building (and memoizing) the value with `build` on a miss. `read` runs
/// while the cache lock is held, so it must not call back into the same
/// cache.
pub(crate) fn cached_query<G, K, V, R>(
    cache: &Mutex<GenCache<G, K, V>>,
    generation: G,
    key: K,
    build: impl FnOnce() -> Result<V>,
    read: impl FnOnce(&V) -> R,
) -> Result<R>
where
    G: PartialEq,
    K: PartialEq,
{
    {
        let cache = lock(cache);
        if let Some(value) = cache.get(&generation, &key) {
            return Ok(read(value));
        }
    }
    let value = build()?;
    let mut cache = lock(cache);
    Ok(read(cache.insert(generation, key, value)))
}

/// Compose the summaries Algorithm 3 uses for threshold `c` into one store:
/// level 0 (exact singletons) if its watermark allows, otherwise the
/// smallest answering dyadic level with every bucket whose span lies inside
/// `[0, c]` merged, otherwise the shared tail standing in for the dormant
/// levels. `c` must already be clamped to the padded y domain.
///
/// This is the reference [`prefix_table`] answers must equal bit for bit,
/// and the path for everything that reads the composed store itself (heavy
/// hitters, aggregates without incremental estimates).
pub(crate) fn compose_for_threshold<A: CorrelatedAggregate>(
    agg: &A,
    singletons: &SingletonLevel<A>,
    engine: &LevelEngine<A>,
    c: u64,
) -> Result<BucketStore<A>> {
    if watermark_answers(singletons.y_bound(), c) {
        let mut acc: BucketStore<A> = BucketStore::new();
        for (_, store) in singletons.sorted_upto(c) {
            acc.merge_from(agg, store)?;
        }
        return Ok(acc);
    }
    if let Some((_, level)) = first_answering(engine.levels(), c, |l| l.y_bound()) {
        let mut acc: BucketStore<A> = BucketStore::new();
        for (interval, store) in level.live_buckets() {
            if interval.within_threshold(c) {
                acc.merge_from(agg, store)?;
            }
        }
        return Ok(acc);
    }
    // Dormant levels never evict, so the smallest of them answers any c.
    // Their only bucket is the open root, which Algorithm 3 includes exactly
    // when its whole span lies inside [0, c].
    if engine.has_dormant() {
        let mut acc: BucketStore<A> = BucketStore::new();
        if engine.root().within_threshold(c) {
            acc.merge_from(agg, engine.tail_store())?;
        }
        return Ok(acc);
    }
    Err(CoreError::QueryFailed { threshold: c })
}

/// One answering level's composed estimates at every span end: entry `i` is
/// `(hi_i, estimate of every bucket whose span ends at or below hi_i)`, with
/// `hi` strictly ascending. At most α + 1 entries of 16 bytes.
#[derive(Debug)]
pub(crate) struct PrefixTable {
    entries: Vec<(u64, f64)>,
    /// The empty store's estimate, for a `c` below every span end.
    empty: f64,
}

impl PrefixTable {
    /// The estimate Algorithm 3 returns for `c` at this level: the last
    /// entry with `hi ≤ c`.
    pub(crate) fn estimate_upto(&self, c: u64) -> f64 {
        match self.entries.partition_point(|&(hi, _)| hi <= c) {
            0 => self.empty,
            n => self.entries[n - 1].1,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Prefix tables built on this thread (the build runs on the querying
    /// thread), so tests can count builds without a field on the sketch.
    pub(crate) static PREFIX_TABLES_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Build the prefix table of `level`, numbered as [`query_level`] numbers
/// it: 0 for the singletons, ℓ for a materialized dyadic level, and
/// `levels().len() + 1` for the dormant tail. Buckets fold into one
/// accumulator with the compose's own [`BucketStore::merge_from`], in
/// ascending span end; a closed parent and its right child share a span end
/// and are recorded once, after both.
pub(crate) fn prefix_table<A: CorrelatedAggregate>(
    agg: &A,
    singletons: &SingletonLevel<A>,
    engine: &LevelEngine<A>,
    level: u32,
) -> Result<PrefixTable> {
    #[cfg(test)]
    PREFIX_TABLES_BUILT.with(|n| n.set(n.get() + 1));
    let buckets: Vec<(u64, &BucketStore<A>)> = match level {
        0 => singletons.sorted_entries(),
        _ => match engine.levels().get(level as usize - 1) {
            Some(dyadic) => {
                let mut buckets: Vec<_> = dyadic
                    .live_buckets()
                    .map(|(interval, store)| (interval.hi, store))
                    .collect();
                buckets.sort_by_key(|&(hi, _)| hi);
                buckets
            }
            None => vec![(engine.root().hi, engine.tail_store())],
        },
    };
    let mut acc: BucketStore<A> = BucketStore::new();
    let empty = acc.estimate(agg);
    let mut entries: Vec<(u64, f64)> = Vec::new();
    let mut buckets = buckets.into_iter().peekable();
    while let Some((hi, store)) = buckets.next() {
        acc.merge_from(agg, store)?;
        if buckets.peek().map_or(true, |&(next, _)| next != hi) {
            entries.push((hi, acc.estimate(agg)));
        }
    }
    Ok(PrefixTable { entries, empty })
}

/// The level Algorithm 3 would use for threshold `c` (0 = singleton level);
/// `None` if the query would fail. `c` must already be clamped.
pub(crate) fn query_level<A: CorrelatedAggregate>(
    singleton_y_bound: Option<u64>,
    engine: &LevelEngine<A>,
    c: u64,
) -> Option<u32> {
    if watermark_answers(singleton_y_bound, c) {
        return Some(0);
    }
    if let Some((_, level)) = first_answering(engine.levels(), c, |l| l.y_bound()) {
        return Some(level.index());
    }
    // The smallest dormant level (never evicted) answers everything.
    if engine.has_dormant() {
        return Some(engine.levels().len() as u32 + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_watermark_treats_none_as_unbounded() {
        assert_eq!(min_watermark(None, None), None);
        assert_eq!(min_watermark(Some(5), None), Some(5));
        assert_eq!(min_watermark(None, Some(7)), Some(7));
        assert_eq!(min_watermark(Some(5), Some(7)), Some(5));
    }

    #[test]
    fn watermark_answers_is_strict() {
        assert!(watermark_answers(None, u64::MAX));
        assert!(watermark_answers(Some(10), 9));
        assert!(!watermark_answers(Some(10), 10));
        assert!(!watermark_answers(Some(0), 0));
    }

    #[test]
    fn first_answering_picks_smallest_level() {
        let levels = [Some(5u64), Some(100), None];
        assert_eq!(first_answering(&levels, 3, |&w| w).unwrap().0, 0);
        assert_eq!(first_answering(&levels, 50, |&w| w).unwrap().0, 1);
        assert_eq!(first_answering(&levels, 10_000, |&w| w).unwrap().0, 2);
        let all_evicted = [Some(0u64), Some(1)];
        assert!(first_answering(&all_evicted, 5, |&w| w).is_none());
    }

    #[test]
    fn gen_cache_serves_and_invalidates_by_generation() {
        let mut cache: GenCache<u64, u64, &'static str> = GenCache::new(2);
        assert!(cache.get(&1, &10).is_none());
        cache.insert(1, 10, "a");
        assert_eq!(cache.get(&1, &10), Some(&"a"));
        assert!(cache.get(&2, &10).is_none(), "new generation must miss");
        // Capacity eviction is FIFO within a generation.
        cache.insert(1, 11, "b");
        cache.insert(1, 12, "c");
        assert!(cache.get(&1, &10).is_none());
        assert_eq!(cache.get(&1, &12), Some(&"c"));
        // Inserting under a new generation drops the old entries.
        cache.insert(2, 10, "d");
        assert!(cache.get(&1, &11).is_none());
        assert_eq!(cache.get(&2, &10), Some(&"d"));
        cache.clear();
        assert!(cache.get(&2, &10).is_none());
    }

    #[test]
    fn cached_query_builds_once_per_generation() {
        let cache: Mutex<GenCache<u64, u64, u64>> = Mutex::new(GenCache::new(4));
        let mut builds = 0u32;
        for _ in 0..3 {
            let v = cached_query(&cache, 7, 100, || {
                builds += 1;
                Ok(55)
            }, |&v| v)
            .unwrap();
            assert_eq!(v, 55);
        }
        assert_eq!(builds, 1);
        // A new generation rebuilds.
        cached_query(&cache, 8, 100, || {
            builds += 1;
            Ok(56)
        }, |&v| v)
        .unwrap();
        assert_eq!(builds, 2);
    }
}
