//! Worker-sharded parallel ingest front-end for correlated sketches
//! (scale-out ingest, as opposed to the scale-up hot-path work inside
//! `cora-core`).
//!
//! ## Why sharding is lossless here
//!
//! The paper's Property V requires every per-bucket summary inside one
//! correlated structure to share hash seeds, so that bucket summaries
//! *compose*: the merge of the sketches of two multisets is a sketch of their
//! union. The same property lifts one level up — two whole
//! [`CorrelatedSketch`]es built with the same configuration and seed over
//! *disjoint sub-streams* merge into a sketch of the concatenated stream
//! ([`CorrelatedSketch::merge_from`]). Per-bucket stores are linear (exact
//! frequency vectors add entry-wise, fast-AMS counters add counter-wise), so
//! a merged bucket is indistinguishable from one built sequentially; the only
//! composition-specific error term is Algorithm 3's boundary-bucket omission,
//! which grows at most linearly in the number of shards and is absorbed by
//! the α budget for small shard counts (see the property tests in
//! `tests/tests/sharded_merge.rs`).
//!
//! Because of that, a stream may be partitioned *arbitrarily* across N
//! ingest workers — no key-based routing is needed — and queries answered by
//! merging the per-worker sketches. [`ShardedIngest`] packages this:
//!
//! * the caller's thread batches tuples and hands each batch to one worker
//!   round-robin through that worker's bounded FIFO queue
//!   ([`crate::worker::Worker`]);
//! * each worker owns a same-seeded [`CorrelatedSketch`] and applies batches
//!   with the amortized [`CorrelatedSketch::update_batch`] path;
//! * queries merge the shard sketches into a **composite** that is cached
//!   and invalidated by per-shard generation counters (one generation per
//!   applied batch) through the unified query core's
//!   [`cora_core::GenCache`], so a quiescent system answers
//!   repeated queries from the cache — and through the composite's own
//!   memoized compositions — without re-merging anything. A serving layer
//!   that wants stale-tolerant reads builds composites off the query path
//!   from a [`ShardReader`] instead (`cora-serve`'s background merger).
//!
//! ```
//! use cora_stream::sharded::sharded_correlated_f2;
//!
//! let mut ingest = sharded_correlated_f2(0.2, 0.1, 1023, 100_000, 7, 4).unwrap();
//! for i in 0..10_000u64 {
//!     ingest.insert(i % 500, i % 1024).unwrap();
//! }
//! ingest.flush(); // barrier: every accepted tuple is applied
//! let f2_below_200 = ingest.query(200).unwrap();
//! assert!(f2_below_200 > 0.0);
//! ```

use crate::worker::{Worker, WorkerState};
use cora_core::{CoreError, CorrelatedAggregate, CorrelatedConfig, CorrelatedSketch, F2Aggregate};
use cora_core::{GenCache, Result, SketchStats};
use cora_sketch::codec::StateCodec;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// Default number of tuples per dispatched batch.
const DEFAULT_BATCH_SIZE: usize = 1024;

/// Batches a shard's queue holds before a dispatch blocks on its worker.
/// With the default batch size this bounds the in-flight buffer per worker
/// to 32k tuples.
const QUEUE_BATCHES: usize = 32;

/// What one shard worker owns. Its applied-batch count is the shard's
/// update *generation*, read by the composite cache for invalidation and by
/// `flush` as its barrier.
struct ShardState<A: CorrelatedAggregate> {
    sketch: CorrelatedSketch<A>,
    /// A second, same-seeded sketch fed only the batches applied since the
    /// last [`ShardedIngest::take_delta`] cut — the per-shard half of the
    /// replication delta. `None` until delta tracking is enabled; the extra
    /// sketch work runs on the worker thread, off the producer's path.
    delta: Option<CorrelatedSketch<A>>,
}

/// A shard worker, fed batches of `(x, y)` tuples.
type ShardWorker<A> = Worker<ShardState<A>, Vec<(u64, u64)>>;

impl<A: CorrelatedAggregate> ShardState<A> {
    fn apply(&mut self, batch: Vec<(u64, u64)>) {
        self.sketch
            .update_batch(&batch)
            .expect("y values validated before dispatch");
        if let Some(delta) = self.delta.as_mut() {
            delta
                .update_batch(&batch)
                .expect("y values validated before dispatch");
        }
    }
}

/// Total batches applied since `cached` (the per-shard generation vector a
/// composite was built from): the composite's staleness in batches. Public
/// because the serving layer (`cora-serve`) uses the same arithmetic to
/// decide when its background merger rebuilds the published composite.
pub fn staleness(cached: &[u64], current: &[u64]) -> u64 {
    cached
        .iter()
        .zip(current)
        .map(|(&c, &n)| n.saturating_sub(c))
        .sum()
}

/// A read-side handle onto a [`ShardedIngest`]'s shard sketches, detached
/// from the front-end's `&mut self` ingest API so a **background merger
/// thread** can rebuild the merged composite off the ingest and query paths
/// (see `cora-serve`).
///
/// The handle shares the shard state through `Arc`s: building a composite
/// locks each shard's sketch briefly (the same locks the ingest workers take
/// per applied batch), never the front-end itself. A reader that outlives
/// its front-end keeps working against the final, frozen shard state.
pub struct ShardReader<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    shards: Vec<Arc<WorkerState<ShardState<A>>>>,
    agg: A,
    config: CorrelatedConfig,
}

impl<A> Clone for ShardReader<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            agg: self.agg.clone(),
            config: self.config.clone(),
        }
    }
}

impl<A> ShardReader<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    /// The configuration every shard sketch was built with.
    pub fn config(&self) -> &CorrelatedConfig {
        &self.config
    }

    /// The per-shard applied-batch counters (the generation vector composite
    /// caches are validated against).
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.applied()).collect()
    }

    /// Merge every shard sketch into a fresh composite, returning it with
    /// the generation vector read **before** the merge — the composite
    /// contains at least those batches, so tagging it with the pre-read
    /// vector keeps staleness estimates conservative.
    pub fn build_composite(&self) -> Result<(Vec<u64>, CorrelatedSketch<A>)> {
        let generations = self.generations();
        let mut sketch = CorrelatedSketch::new(self.agg.clone(), self.config.clone())?;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            sketch.merge_from(&shard.sketch)?;
        }
        Ok((generations, sketch))
    }
}

/// A worker-sharded ingest front-end over N same-seeded correlated sketches.
///
/// Tuples accepted by [`insert`](Self::insert) / [`ingest`](Self::ingest) are
/// batched and distributed round-robin to worker threads over bounded FIFO
/// queues; queries merge the per-worker sketches into a cached composite. See
/// the [module docs](self) for why the partition is lossless.
///
/// Consistency model: queries observe every batch already *applied* by the
/// workers — call [`flush`](Self::flush) first for a read-your-writes
/// barrier over everything accepted so far. Dropping the front-end flushes
/// implicitly and joins the workers.
pub struct ShardedIngest<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    workers: Vec<ShardWorker<A>>,
    /// Tuples accepted but not yet dispatched to any worker.
    buffer: Vec<(u64, u64)>,
    batch_size: usize,
    next_shard: usize,
    items_accepted: u64,
    agg: A,
    config: CorrelatedConfig,
    padded_y_max: u64,
    /// Merged composite, cached under the per-shard generation vector it was
    /// built from (the unified query core's generation-validated cache).
    composite: Mutex<GenCache<Vec<u64>, (), CorrelatedSketch<A>>>,
    /// Whether the shards carry per-shard delta sketches (see
    /// [`Self::enable_delta_tracking`]).
    delta_tracking: bool,
    /// Replication generation: the number of delta cuts taken so far. A cut
    /// covers the tuples applied in the span `(g_from, g_to]` of this
    /// counter.
    delta_gen: u64,
}

impl<A> ShardedIngest<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    /// Spawn `num_shards` ingest workers, each owning a fresh
    /// [`CorrelatedSketch`] built from `agg` and `config` (same seed, so the
    /// shard sketches are mutually mergeable).
    pub fn new(agg: A, config: CorrelatedConfig, num_shards: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(CoreError::InvalidParameter {
                name: "num_shards",
                detail: "at least one ingest worker is required".into(),
            });
        }
        let padded_y_max = config.padded_y_max();
        // On an early return, dropping `workers` closes and joins the
        // workers spawned so far.
        let mut workers = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let sketch = CorrelatedSketch::new(agg.clone(), config.clone())?;
            let state = ShardState { sketch, delta: None };
            let worker = Worker::spawn("cora-shard", state, QUEUE_BATCHES, ShardState::apply)
                .map_err(|e| CoreError::InvalidParameter {
                    name: "num_shards",
                    detail: format!("could not spawn ingest worker: {e}"),
                })?;
            workers.push(worker);
        }
        Ok(Self {
            workers,
            buffer: Vec::with_capacity(DEFAULT_BATCH_SIZE),
            batch_size: DEFAULT_BATCH_SIZE,
            next_shard: 0,
            items_accepted: 0,
            agg,
            config,
            padded_y_max,
            composite: Mutex::new(GenCache::new(1)),
            delta_tracking: false,
            delta_gen: 0,
        })
    }

    /// Override the dispatch batch size (builder style; clamped to ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The configuration every shard sketch was built with.
    pub fn config(&self) -> &CorrelatedConfig {
        &self.config
    }

    /// Total tuples accepted so far (buffered, in flight, or applied).
    pub fn items_accepted(&self) -> u64 {
        self.items_accepted
    }

    /// Accept one `(x, y)` tuple with unit weight.
    pub fn insert(&mut self, x: u64, y: u64) -> Result<()> {
        if y > self.padded_y_max {
            return Err(CoreError::YOutOfRange {
                y,
                y_max: self.padded_y_max,
            });
        }
        self.buffer.push((x, y));
        self.items_accepted += 1;
        if self.buffer.len() >= self.batch_size {
            self.dispatch_buffer();
        }
        Ok(())
    }

    /// Accept a slice of tuples. Validated up front: if any `y` is out of
    /// range an error is returned and **no** tuple of the slice is accepted.
    pub fn ingest(&mut self, tuples: &[(u64, u64)]) -> Result<()> {
        for &(_, y) in tuples {
            if y > self.padded_y_max {
                return Err(CoreError::YOutOfRange {
                    y,
                    y_max: self.padded_y_max,
                });
            }
        }
        self.items_accepted += tuples.len() as u64;
        let mut rest = tuples;
        while !rest.is_empty() {
            // The buffer can already exceed the batch size if
            // `with_batch_size` shrank it mid-stream; flush first so `room`
            // below cannot underflow.
            if self.buffer.len() >= self.batch_size {
                self.dispatch_buffer();
            }
            let room = self.batch_size - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() >= self.batch_size {
                self.dispatch_buffer();
            }
        }
        Ok(())
    }

    /// Seal the active buffer (if non-empty) and queue it round-robin.
    fn dispatch_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buffer, Vec::with_capacity(self.batch_size));
        let idx = self.next_shard;
        self.next_shard = (idx + 1) % self.workers.len();
        if self.workers[idx].send(batch).is_err() {
            worker_died(idx);
        }
    }

    /// Barrier: dispatch everything buffered and wait until every worker has
    /// applied every batch queued so far. After `flush` returns, queries
    /// observe all accepted tuples.
    pub fn flush(&mut self) {
        self.dispatch_buffer();
        for (idx, worker) in self.workers.iter().enumerate() {
            if worker.state().caught_up().is_err() {
                worker_died(idx);
            }
        }
    }

    /// Run `f` against the merged composite of all shard sketches.
    ///
    /// The composite is cached under the per-shard generation vector it was
    /// built from and revalidated through the unified query core's
    /// [`GenCache`]: while no worker applies a new batch, repeated calls
    /// reuse the merged sketch (whose own query compositions are memoized in
    /// turn).
    pub fn with_composite<R>(&self, f: impl FnOnce(&CorrelatedSketch<A>) -> R) -> Result<R> {
        // The cache lock is held across the rebuild: concurrent queries that
        // miss would otherwise each run the N-shard merge, and a slower
        // older-generation build finishing last would overwrite a fresher
        // cached composite (GenCache::insert clears on generation change).
        // Workers never take this lock, so ingest is not blocked. The
        // generation vector is read under the lock for the same reason —
        // the tag must not lag the admission decision.
        let mut cache = self
            .composite
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let reader = self.reader();
        if let Some(sketch) = cache.get(&reader.generations(), &()) {
            return Ok(f(sketch));
        }
        let (generations, sketch) = reader.build_composite()?;
        Ok(f(cache.insert(generations, (), sketch)))
    }

    /// A detached read-side handle for background composite rebuilds (see
    /// [`ShardReader`]).
    pub fn reader(&self) -> ShardReader<A> {
        ShardReader {
            shards: self.workers.iter().map(|w| Arc::clone(w.state())).collect(),
            agg: self.agg.clone(),
            config: self.config.clone(),
        }
    }

    /// Estimate `f({x : y ≤ c})` over everything applied so far (Algorithm 3
    /// against the merged composite).
    pub fn query(&self, c: u64) -> Result<f64> {
        self.with_composite(|s| s.query(c))?
    }

    /// Estimate the aggregate over the entire applied stream.
    pub fn query_all(&self) -> Result<f64> {
        self.query(self.padded_y_max)
    }

    /// Structure statistics of the merged composite.
    pub fn stats(&self) -> Result<SketchStats> {
        self.with_composite(CorrelatedSketch::stats)
    }

    /// Start tracking replication deltas: each shard gets a second
    /// same-seeded sketch fed every batch applied from now on, so
    /// [`Self::take_delta`] can cut an incremental sketch covering exactly
    /// the tuples since the previous cut. Flushes first, so tuples accepted
    /// before this call belong to the pre-tracking base, never to a delta.
    /// Idempotent; the extra per-batch sketch work runs on the worker
    /// threads. The benchmark's per-layer ledger (`sharded.take_delta_us`)
    /// is its only caller outside tests: `cora-serve` replicates the acked
    /// tuples instead.
    pub fn enable_delta_tracking(&mut self) -> Result<()> {
        if self.delta_tracking {
            return Ok(());
        }
        self.flush();
        let mut fresh = Vec::with_capacity(self.workers.len());
        for _ in 0..self.workers.len() {
            fresh.push(CorrelatedSketch::new(self.agg.clone(), self.config.clone())?);
        }
        for (worker, sketch) in self.workers.iter().zip(fresh) {
            worker.state().lock().unwrap_or_else(PoisonError::into_inner).delta = Some(sketch);
        }
        self.delta_tracking = true;
        Ok(())
    }

    /// Cut a replication delta: flush (barrier), swap every shard's delta
    /// sketch for a fresh one, and merge the swapped-out sketches into one
    /// composite covering exactly the tuples applied in `(g_from, g_to]`.
    /// Returns `(g_from, g_to, delta)`; merging `delta` into any structure
    /// holding everything up to `g_from` yields the structure for
    /// everything up to `g_to` (Property V). Requires
    /// [`Self::enable_delta_tracking`] first. Like it, called outside tests
    /// only by the benchmark's per-layer ledger.
    pub fn take_delta(&mut self) -> Result<(u64, u64, CorrelatedSketch<A>)> {
        if !self.delta_tracking {
            return Err(CoreError::InvalidParameter {
                name: "delta_tracking",
                detail: "enable_delta_tracking() must be called before take_delta()".into(),
            });
        }
        self.flush();
        // Build the replacements before touching any shard, so a constructor
        // failure leaves every delta tracker intact.
        let mut fresh = Vec::with_capacity(self.workers.len());
        for _ in 0..self.workers.len() {
            fresh.push(CorrelatedSketch::new(self.agg.clone(), self.config.clone())?);
        }
        let mut delta = CorrelatedSketch::new(self.agg.clone(), self.config.clone())?;
        for (worker, replacement) in self.workers.iter().zip(fresh) {
            let taken = {
                let mut shard = worker.state().lock().unwrap_or_else(PoisonError::into_inner);
                shard.delta.replace(replacement)
            };
            delta.merge_from(&taken.expect("delta tracking enabled above"))?;
        }
        let g_from = self.delta_gen;
        self.delta_gen += 1;
        Ok((g_from, self.delta_gen, delta))
    }
}

impl<A> ShardedIngest<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
    <A as CorrelatedAggregate>::Sketch: StateCodec,
{
    /// Serialise the front-end's state: flush every accepted tuple (barrier),
    /// merge all shards into a fresh composite, and snapshot it as one
    /// framework frame (see `cora_core::snapshot` for the format). The frame
    /// carries the full configuration and seed, so [`Self::restore_from`]
    /// rebuilds a front-end that answers every query identically and whose
    /// sketches stay merge-compatible with other same-seeded shards.
    pub fn snapshot(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out)?;
        Ok(out)
    }

    /// [`Self::snapshot`], appending the frame to a caller-provided buffer.
    pub fn snapshot_to(&mut self, out: &mut Vec<u8>) -> Result<()> {
        self.flush();
        self.reader().build_composite()?.1.snapshot_to(out);
        Ok(())
    }

    /// Rebuild a sharded front-end from [`Self::snapshot`] bytes, spawning
    /// `num_shards` fresh workers (the shard count need not match the
    /// snapshotting front-end's — the snapshot is one merged composite).
    ///
    /// The restored composite is installed as shard 0's sketch, so the first
    /// query's N-way merge sees the full pre-snapshot state plus whatever
    /// the new workers have applied since.
    pub fn restore_from(agg: A, num_shards: usize, bytes: &[u8]) -> Result<Self> {
        let composite = CorrelatedSketch::restore_from(agg.clone(), bytes)?;
        let config = composite.config().clone();
        let mut front = Self::new(agg, config, num_shards)?;
        front.items_accepted = composite.items_processed();
        front.workers[0]
            .state()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sketch = composite;
        Ok(front)
    }
}

impl<A> Drop for ShardedIngest<A>
where
    A: CorrelatedAggregate + Send + 'static,
    CorrelatedSketch<A>: Send,
{
    fn drop(&mut self) {
        // Hand any buffered tuples to a worker, then close every queue: each
        // worker applies what is left and exits. While unwinding, skip the
        // dispatch and the re-raise below to avoid a double-panic abort.
        let unwinding = thread::panicking();
        if !unwinding {
            self.dispatch_buffer();
        }
        for worker in self.workers.drain(..) {
            if worker.join().is_err() && !unwinding {
                // Surface a worker panic that nothing else observed (e.g. the
                // producer dropped without another dispatch or flush).
                panic!("cora-shard ingest worker panicked; its sketch data is lost");
            }
        }
    }
}

/// Panic with a clear message: worker `idx` exited before its queue closed.
/// It can only have died by panicking (e.g. a bug inside `update_batch`);
/// under a caller's lock this panic poisons that lock, so the caller fails
/// closed instead of answering without the shard's batches.
fn worker_died(idx: usize) -> ! {
    panic!("cora-shard ingest worker {idx} died (panicked) — see its panic output");
}

/// Build a [`ShardedIngest`] for correlated `F_2` — the sharded counterpart
/// of [`cora_core::correlated_f2_seeded`].
pub fn sharded_correlated_f2(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
    seed: u64,
    num_shards: usize,
) -> Result<ShardedIngest<F2Aggregate>> {
    let agg = F2Aggregate::new(epsilon, delta, seed);
    let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
        .with_seed(seed);
    ShardedIngest::new(agg, config, num_shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_core::correlated_f2_seeded;
    use std::time::Duration;

    #[test]
    fn sharded_matches_sequential_after_flush() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 3)
            .unwrap()
            .with_batch_size(64);
        let mut seq = correlated_f2_seeded(0.3, 0.1, 1023, 10_000, 7).unwrap();
        for i in 0..500u64 {
            let (x, y) = (i % 40, (i * 13) % 900);
            sharded.insert(x, y).unwrap();
            seq.insert(x, y).unwrap();
        }
        sharded.flush();
        let stats = sharded.stats().unwrap();
        assert_eq!(stats.items_processed, 500);
        assert_eq!(sharded.items_accepted(), 500);
        // Small stream: everything is exact, so answers must be identical.
        for c in (0..1024u64).step_by(128) {
            assert_eq!(sharded.query(c).unwrap(), seq.query(c).unwrap(), "c={c}");
        }
    }

    #[test]
    fn composite_cache_revalidates_on_new_batches() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2)
            .unwrap()
            .with_batch_size(32);
        for i in 0..200u64 {
            sharded.insert(i % 10, i % 1024).unwrap();
        }
        sharded.flush();
        let first = sharded.query(1023).unwrap();
        assert_eq!(sharded.query(1023).unwrap(), first);
        for i in 0..200u64 {
            sharded.insert(i % 10, 5).unwrap();
        }
        sharded.flush();
        let second = sharded.query(1023).unwrap();
        assert!(second > first, "composite must pick up new batches: {first} -> {second}");
    }

    #[test]
    fn rejects_out_of_range_y_atomically() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 255, 1_000, 7, 2).unwrap();
        assert!(sharded.insert(1, 100_000).is_err());
        assert!(sharded.ingest(&[(1, 3), (2, 100_000), (3, 7)]).is_err());
        assert_eq!(sharded.items_accepted(), 0);
        sharded.flush();
        assert_eq!(sharded.stats().unwrap().items_processed, 0);
    }

    #[test]
    fn drop_without_flush_applies_buffered_tuples() {
        // Dropping must not lose accepted tuples nor hang; verify via a
        // composite clone taken before the drop of a *flushed* twin.
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2).unwrap();
        for i in 0..100u64 {
            sharded.insert(i, i % 1024).unwrap();
        }
        drop(sharded); // buffered batch dispatched + workers joined
    }

    #[test]
    fn idle_workers_take_a_push_a_flush_and_the_drop() {
        // Idle workers block on their queues; each hand-off below comes
        // after they have sat idle.
        let idle = || thread::sleep(Duration::from_millis(100));
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2)
            .unwrap()
            .with_batch_size(32);
        idle();
        // A full batch is dispatched by the insert itself: the send alone
        // (no flush yet) must get it applied.
        for i in 0..32u64 {
            sharded.insert(i, i).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sharded.stats().unwrap().items_processed < 32 {
            assert!(std::time::Instant::now() < deadline, "an idle worker missed its batch");
            thread::yield_now();
        }
        idle();
        sharded.insert(40, 40).unwrap(); // partial batch: flush dispatches it
        sharded.flush();
        assert_eq!(sharded.stats().unwrap().items_processed, 33);
        idle();
        drop(sharded); // closes both queues and joins both workers
    }

    #[test]
    fn a_dispatch_after_a_worker_died_panics_and_the_drop_re_raises() {
        fn message(panic: Box<dyn std::any::Any + Send>) -> String {
            match panic.downcast::<String>() {
                Ok(formatted) => *formatted,
                Err(panic) => panic.downcast_ref::<&str>().copied().unwrap_or_default().into(),
            }
        }
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 1)
            .unwrap()
            .with_batch_size(1);
        // A delta sketch with a smaller y range makes the worker's apply
        // panic on the next batch whose `y` it cannot hold.
        let narrow = CorrelatedConfig::new(0.3, 0.1, 15, 40).unwrap().with_seed(7);
        let narrow = CorrelatedSketch::new(F2Aggregate::new(0.3, 0.1, 7), narrow).unwrap();
        sharded.workers[0].state().lock().unwrap().delta = Some(narrow);
        // Batches sent before the worker exits are queued; once the queue
        // is full a dispatch waits for the exit. So one of these fails.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..(QUEUE_BATCHES as u64 + 2) {
                sharded.insert(i, 1_000).unwrap();
            }
        }));
        let died = message(died.expect_err("a dispatch to a dead worker must panic"));
        assert!(died.contains("cora-shard ingest worker 0 died"), "{died}");
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(sharded)));
        let dropped = message(dropped.expect_err("the drop re-raises the worker's panic"));
        assert!(dropped.contains("its sketch data is lost"), "{dropped}");
    }

    #[test]
    fn bulk_ingest_matches_scalar_inserts() {
        let tuples: Vec<(u64, u64)> = (0..700u64).map(|i| (i % 37, (i * 11) % 1024)).collect();
        let mut bulk = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2)
            .unwrap()
            .with_batch_size(128);
        let mut scalar = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2)
            .unwrap()
            .with_batch_size(128);
        bulk.ingest(&tuples).unwrap();
        for &(x, y) in &tuples {
            scalar.insert(x, y).unwrap();
        }
        bulk.flush();
        scalar.flush();
        for c in (0..1024u64).step_by(256) {
            assert_eq!(bulk.query(c).unwrap(), scalar.query(c).unwrap());
        }
    }

    #[test]
    fn shrinking_batch_size_mid_stream_does_not_underflow() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2).unwrap();
        for i in 0..500u64 {
            sharded.insert(i % 20, i % 1024).unwrap(); // buffers under default 1024
        }
        sharded = sharded.with_batch_size(8); // buffer (500) now exceeds the batch size
        let more: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 20, i % 1024)).collect();
        sharded.ingest(&more).unwrap();
        sharded.flush();
        assert_eq!(sharded.stats().unwrap().items_processed, 600);
    }

    #[test]
    fn reader_builds_composites_off_the_front_end() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 2)
            .unwrap()
            .with_batch_size(32);
        let reader = sharded.reader();
        assert_eq!(reader.generations(), vec![0, 0]);
        for i in 0..320u64 {
            sharded.insert(i % 10, i % 1024).unwrap();
        }
        sharded.flush();
        let generations = reader.generations();
        assert_eq!(generations.iter().sum::<u64>(), 10);
        let (tag, composite) = reader.build_composite().unwrap();
        assert_eq!(tag, generations);
        assert_eq!(composite.items_processed(), 320);
        // The reader's composite answers like the front-end's.
        for c in (0..1024u64).step_by(256) {
            assert_eq!(composite.query(c).unwrap(), sharded.query(c).unwrap());
        }
        assert_eq!(staleness(&tag, &reader.generations()), 0);
    }

    #[test]
    fn snapshot_restore_round_trips_the_front_end() {
        let mut original = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 3)
            .unwrap()
            .with_batch_size(64);
        for i in 0..5_000u64 {
            original.insert(i % 80, (i * 13) % 1024).unwrap();
        }
        let bytes = original.snapshot().unwrap();
        let agg = F2Aggregate::new(0.3, 0.1, 7);
        // Restore with a different shard count: the snapshot is one merged
        // composite, so the worker count is a fresh choice.
        let mut restored = ShardedIngest::restore_from(agg, 2, &bytes).unwrap();
        assert_eq!(restored.items_accepted(), 5_000);
        restored.flush();
        for c in (0..1024u64).step_by(128) {
            assert_eq!(restored.query(c).unwrap(), original.query(c).unwrap(), "c={c}");
        }
        assert_eq!(
            restored.stats().unwrap().items_processed,
            original.stats().unwrap().items_processed
        );
        // The restored front-end keeps ingesting and reflects new tuples.
        for i in 0..500u64 {
            restored.insert(i % 10, 5).unwrap();
        }
        restored.flush();
        assert_eq!(restored.stats().unwrap().items_processed, 5_500);
        assert!(restored.query(1023).unwrap() > original.query(1023).unwrap());
    }

    #[test]
    fn snapshot_rejects_wrong_seed_and_corruption() {
        let mut original = sharded_correlated_f2(0.3, 0.1, 255, 1_000, 7, 2).unwrap();
        for i in 0..200u64 {
            original.insert(i, i % 256).unwrap();
        }
        let bytes = original.snapshot().unwrap();
        let wrong_seed = F2Aggregate::new(0.3, 0.1, 8);
        assert!(ShardedIngest::restore_from(wrong_seed, 2, &bytes).is_err());
        let agg = F2Aggregate::new(0.3, 0.1, 7);
        let mut corrupt = bytes;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 4;
        assert!(ShardedIngest::restore_from(agg, 2, &corrupt).is_err());
    }

    #[test]
    fn delta_cuts_cover_disjoint_spans_and_recompose_the_stream() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, 3)
            .unwrap()
            .with_batch_size(32);
        // Cutting before enabling is an error; enabling twice is fine.
        assert!(sharded.take_delta().is_err());
        // Tuples accepted before enabling belong to the base, not a delta.
        for i in 0..300u64 {
            sharded.insert(i % 30, i % 1024).unwrap();
        }
        sharded.enable_delta_tracking().unwrap();
        sharded.enable_delta_tracking().unwrap();
        let (_, base) = sharded.reader().build_composite().unwrap();

        // Replay the base + each delta into an independent replica and check
        // it matches the live front-end exactly (small stream: exact stores,
        // so answers are bit-identical).
        let agg = F2Aggregate::new(0.3, 0.1, 7);
        let mut replica =
            CorrelatedSketch::new(agg, sharded.config().clone()).unwrap();
        replica.merge_from(&base).unwrap();
        let mut items_replayed = base.items_processed();
        for round in 0..3u64 {
            for i in 0..200u64 {
                let v = round * 1000 + i;
                sharded.insert(v % 50, (v * 7) % 1024).unwrap();
            }
            let (g_from, g_to, delta) = sharded.take_delta().unwrap();
            assert_eq!((g_from, g_to), (round, round + 1));
            assert_eq!(delta.items_processed(), 200);
            items_replayed += delta.items_processed();
            replica.merge_from(&delta).unwrap();
        }
        // An empty span cuts an empty (but valid) delta.
        let (_, _, empty) = sharded.take_delta().unwrap();
        assert_eq!(empty.items_processed(), 0);
        replica.merge_from(&empty).unwrap();
        assert_eq!(replica.items_processed(), items_replayed);
        sharded.flush();
        for c in (0..1024u64).step_by(128) {
            assert_eq!(replica.query(c).unwrap(), sharded.query(c).unwrap(), "c={c}");
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let agg = F2Aggregate::new(0.3, 0.1, 7);
        let config = CorrelatedConfig::new(0.3, 0.1, 1023, 40).unwrap().with_seed(7);
        assert!(ShardedIngest::new(agg, config, 0).is_err());
    }
}
