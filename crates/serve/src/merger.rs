//! The background merger: epoch-published composites rebuilt off the read
//! path.
//!
//! PR 4's `ShardedIngest::with_merge_every(k)` bounded how *often* the
//! N-shard composite is re-merged, but the merge itself still ran on
//! whichever thread happened to query first — a latency spike exactly where
//! a serving system least wants one. This module moves the rebuild onto a
//! **dedicated merger thread**:
//!
//! * the merger polls the shards' applied-batch generations through a
//!   [`ShardReader`] (one atomic load per shard per poll tick);
//! * once at least `merge_every` new batches have been applied since the
//!   published composite was built — or a [`refresh`](BackgroundMerger::refresh)
//!   barrier forces it — the merger rebuilds the composite (locking each
//!   shard sketch briefly, exactly like a foreground merge would) and
//!   **publishes** it by swapping an `Arc` behind a mutex held only for the
//!   pointer swap;
//! * readers call [`current`](BackgroundMerger::current), which clones that
//!   `Arc` — a reader arriving mid-rebuild gets the previous epoch
//!   immediately instead of waiting for the merge (this non-blocking bound
//!   is pinned by `query_during_slow_rebuild_does_not_block` below, using
//!   the [`slow-merge hook`](BackgroundMerger::spawn_with_hook)).
//!
//! ## Staleness bound, end to end
//!
//! Let `B` be the ingest batch size. Once the lag trigger is reached, a
//! rebuild starts as soon as a reader has shown up (every
//! [`current`](BackgroundMerger::current) bumps a demand counter) or the
//! published composite is older than the [`STALENESS_FLOOR`]; reads lag
//! writes by `O(merge_every · B)` tuples plus the floor plus one merge
//! duration — and never block. Tuples still buffered or in the SPSC rings
//! are invisible to even a foreground merge; `ShardedIngest::flush` +
//! [`refresh`](BackgroundMerger::refresh) is the read-your-writes barrier
//! over everything accepted.
//!
//! ## Demand- and duty-bounded rebuilds
//!
//! Rebuilding a composite costs real CPU — on a small box it competes with
//! ingest for cores, and an ingest-only workload (a loader, the
//! `serve_ingest` bench) used to pay a ~2x tax for composites nobody read.
//! The loop therefore rebuilds only when (a) a
//! [`refresh`](BackgroundMerger::refresh) barrier forces
//! it, or (b) the lag trigger has fired **and** either a reader has asked
//! for a composite since the last publish or the staleness floor has
//! elapsed. Unforced rebuilds are additionally duty-capped: after a rebuild
//! that took `d`, the next unforced one waits at least `d`, bounding the
//! merger at half a core even under a query storm.
//!
//! ## The one idle wake-up left
//!
//! Connection threads block in `read` and shard workers park until the
//! producer unparks them, so on an idle node this loop's 500 µs `POLL_INTERVAL`
//! timer is the only thing still waking up. It stays a poll because nothing
//! notifies the merger of an applied batch (the shard workers publish a
//! generation counter, not an event) and the demand / staleness-floor rule
//! above is evaluated against the clock.

use cora_core::{CoreError, CorrelatedAggregate, CorrelatedSketch, Result};
use cora_stream::sharded::{staleness, ShardReader};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long the merger parks between generation polls while idle.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Wall-clock freshness floor: with the lag trigger fired but no reader
/// demand, a rebuild still runs once the published composite is this old,
/// so an idle-reader system converges instead of serving arbitrarily stale
/// epochs to the *first* query that eventually arrives.
pub const STALENESS_FLOOR: Duration = Duration::from_millis(250);

/// Test/ops instrumentation invoked between building a composite and
/// publishing it (e.g. an artificial delay proving readers don't block).
pub type MergeHook = Arc<dyn Fn() + Send + Sync>;

/// One published composite: the merged sketch, the per-shard generation
/// vector it was built from, and its publish epoch.
#[derive(Debug)]
pub struct EpochComposite<A: CorrelatedAggregate> {
    sketch: CorrelatedSketch<A>,
    built_from: Vec<u64>,
    epoch: u64,
}

impl<A: CorrelatedAggregate> EpochComposite<A> {
    /// The merged composite sketch (full query surface).
    pub fn sketch(&self) -> &CorrelatedSketch<A> {
        &self.sketch
    }

    /// Per-shard applied-batch counters the composite was built from.
    pub fn built_from(&self) -> &[u64] {
        &self.built_from
    }

    /// Monotone publish counter (0 = the initial empty composite).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Shared state between the merger thread and readers.
struct Shared<A: CorrelatedAggregate + Send + Sync + 'static>
where
    CorrelatedSketch<A>: Send + Sync,
{
    reader: ShardReader<A>,
    /// The published composite. The lock is held only to clone or swap the
    /// `Arc` — never across a rebuild — so readers are wait-free in
    /// practice.
    published: Mutex<Arc<EpochComposite<A>>>,
    /// Rebuild trigger: staleness (in applied batches) that forces a
    /// re-merge.
    merge_every: u64,
    /// Set by [`BackgroundMerger::refresh`] to force a rebuild regardless of
    /// staleness.
    force: AtomicBool,
    /// Reader arrivals since the last publish — the demand signal that lets
    /// an ingest-only workload skip rebuilds nobody would read.
    demand: AtomicU64,
    shutdown: AtomicBool,
    /// Rebuilds completed (diagnostics; epoch of the current composite).
    epoch: AtomicU64,
    hook: Option<MergeHook>,
}

impl<A: CorrelatedAggregate + Send + Sync + 'static> Shared<A>
where
    CorrelatedSketch<A>: Send + Sync,
{
    /// The published composite without registering reader demand (the
    /// merger loop's own view).
    fn peek(&self) -> Arc<EpochComposite<A>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn current(&self) -> Arc<EpochComposite<A>> {
        self.demand.fetch_add(1, Ordering::Relaxed);
        self.peek()
    }

    fn publish(&self, built_from: Vec<u64>, sketch: CorrelatedSketch<A>) {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let composite = Arc::new(EpochComposite {
            sketch,
            built_from,
            epoch,
        });
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = composite;
    }
}

/// The merger loop: poll generations; rebuild + publish when a forced
/// refresh fires, or when the lag trigger has been reached *and* the
/// rebuild is wanted (reader demand since the last publish, or the
/// staleness floor elapsed) *and* the duty cap allows it; park briefly
/// otherwise.
fn merger_loop<A>(shared: &Shared<A>)
where
    A: CorrelatedAggregate + Send + Sync + 'static,
    CorrelatedSketch<A>: Send + Sync,
{
    let mut last_publish = Instant::now();
    let mut last_cost = Duration::ZERO;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let current = shared.reader.generations();
        let lag = staleness(&shared.peek().built_from, &current);
        let forced = shared.force.swap(false, Ordering::AcqRel);
        // Order matters: the demand counter is consumed (swapped to zero)
        // only once the lag trigger and the duty cap both allow a rebuild,
        // so demand arriving during the cooldown is not silently dropped.
        let since_publish = last_publish.elapsed();
        let due = lag >= shared.merge_every
            && since_publish >= last_cost
            && (shared.demand.swap(0, Ordering::AcqRel) > 0
                || since_publish >= STALENESS_FLOOR);
        if forced || due {
            let start = Instant::now();
            match shared.reader.build_composite() {
                Ok((built_from, sketch)) => {
                    if let Some(hook) = &shared.hook {
                        hook();
                    }
                    shared.publish(built_from, sketch);
                    last_cost = start.elapsed();
                    last_publish = Instant::now();
                }
                Err(_) => {
                    // A failed merge (config drift mid-shutdown) leaves the
                    // previous epoch published; back off instead of spinning.
                    thread::park_timeout(10 * POLL_INTERVAL);
                }
            }
        } else {
            thread::park_timeout(POLL_INTERVAL);
        }
    }
}

/// Owns the merger thread and the epoch-published composite.
///
/// Dropping the merger shuts the thread down and joins it; the last
/// published composite stays readable through any outstanding `Arc`s.
pub struct BackgroundMerger<A: CorrelatedAggregate + Send + Sync + 'static>
where
    CorrelatedSketch<A>: Send + Sync,
{
    shared: Arc<Shared<A>>,
    worker: Option<thread::JoinHandle<()>>,
}

impl<A> BackgroundMerger<A>
where
    A: CorrelatedAggregate + Send + Sync + 'static,
    CorrelatedSketch<A>: Send + Sync,
{
    /// Spawn a merger over `reader`, rebuilding once at least `merge_every`
    /// new batches (≥ 1) have been applied since the published composite was
    /// built. The initial composite is built synchronously so readers always
    /// have an epoch to hit.
    pub fn spawn(reader: ShardReader<A>, merge_every: u64) -> Result<Self> {
        Self::spawn_with_hook(reader, merge_every, None)
    }

    /// [`Self::spawn`] with a hook run between each rebuild and its publish
    /// — test instrumentation (an artificially slow merge proves readers
    /// never wait on one).
    pub fn spawn_with_hook(
        reader: ShardReader<A>,
        merge_every: u64,
        hook: Option<MergeHook>,
    ) -> Result<Self> {
        let (built_from, sketch) = reader.build_composite()?;
        let shared = Arc::new(Shared {
            reader,
            published: Mutex::new(Arc::new(EpochComposite {
                sketch,
                built_from,
                epoch: 0,
            })),
            merge_every: merge_every.max(1),
            force: AtomicBool::new(false),
            demand: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            hook,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("cora-merger".into())
            .spawn(move || merger_loop(&worker_shared))
            .map_err(|e| CoreError::InvalidParameter {
                name: "merger",
                detail: format!("could not spawn the background merger: {e}"),
            })?;
        Ok(Self {
            shared,
            worker: Some(worker),
        })
    }

    /// The currently published composite — an `Arc` clone, never a wait on
    /// an in-flight rebuild.
    pub fn current(&self) -> Arc<EpochComposite<A>> {
        self.shared.current()
    }

    /// Publish epoch of the current composite (monotone; 0 = initial).
    /// Read from the published slot itself, so it can never run ahead of
    /// what [`Self::current`] returns.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Staleness of the published composite right now, in applied batches.
    pub fn staleness_batches(&self) -> u64 {
        staleness(
            &self.current().built_from,
            &self.shared.reader.generations(),
        )
    }

    /// Barrier: force rebuilds until the published composite covers every
    /// batch **applied before this call**, then return. Combined with
    /// `ShardedIngest::flush` (which drains accepted tuples into applied
    /// batches) this gives read-your-writes over everything accepted.
    pub fn refresh(&self) {
        let target = self.shared.reader.generations();
        let mut spins = 0u32;
        loop {
            if staleness(&self.current().built_from, &target) == 0 {
                return;
            }
            self.shared.force.store(true, Ordering::Release);
            if let Some(worker) = &self.worker {
                worker.thread().unpark();
            }
            spins = spins.saturating_add(1);
            if spins < 64 {
                thread::yield_now();
            } else {
                thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

impl<A> Drop for BackgroundMerger<A>
where
    A: CorrelatedAggregate + Send + Sync + 'static,
    CorrelatedSketch<A>: Send + Sync,
{
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(worker) = self.worker.take() {
            worker.thread().unpark();
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_stream::sharded::sharded_correlated_f2;
    use std::time::Instant;

    fn fill(
        sharded: &mut cora_stream::ShardedIngest<cora_core::F2Aggregate>,
        n: u64,
        offset: u64,
    ) {
        for i in 0..n {
            sharded.insert((offset + i) % 50, (offset + i) % 1024).unwrap();
        }
        sharded.flush();
    }

    #[test]
    fn merger_publishes_fresh_composites_and_refresh_is_a_barrier() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(64);
        let merger = BackgroundMerger::spawn(sharded.reader(), 1).unwrap();
        assert_eq!(merger.current().sketch().items_processed(), 0);
        fill(&mut sharded, 2_000, 0);
        merger.refresh();
        let composite = merger.current();
        assert_eq!(composite.sketch().items_processed(), 2_000);
        assert!(composite.epoch() >= 1);
        assert_eq!(merger.staleness_batches(), 0);
        // Matches a foreground merge exactly.
        assert_eq!(
            composite.sketch().query(512).unwrap(),
            sharded.query(512).unwrap()
        );
    }

    #[test]
    fn query_during_slow_rebuild_does_not_block() {
        // An artificially slow merge (the acceptance criterion's slow-merge
        // hook): queries issued while the rebuild is in flight must return
        // immediately with the previous epoch.
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(64);
        let delay = Duration::from_millis(400);
        let merger = BackgroundMerger::spawn_with_hook(
            sharded.reader(),
            1,
            Some(Arc::new(move || thread::sleep(delay))),
        )
        .unwrap();
        let before = merger.current();
        fill(&mut sharded, 1_000, 0); // triggers a (slow) background rebuild
        // Give the merger a moment to pick up the trigger and enter the
        // slow hook, then query mid-rebuild.
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let during = merger.current();
        let answer = during.sketch().query(1023).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < delay / 4,
            "reader waited {elapsed:?} on a {delay:?} rebuild"
        );
        assert_eq!(during.epoch(), before.epoch(), "mid-rebuild reads serve the previous epoch");
        assert_eq!(answer, before.sketch().query(1023).unwrap());
        // The barrier waits the rebuild out and then sees everything.
        merger.refresh();
        assert_eq!(merger.current().sketch().items_processed(), 1_000);
    }

    #[test]
    fn merge_every_k_bounds_published_staleness() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(32);
        let merger = BackgroundMerger::spawn(sharded.reader(), 1_000_000).unwrap();
        // Far below the trigger: the initial epoch stays published even
        // though batches were applied (staleness is visible and bounded).
        fill(&mut sharded, 320, 0); // 10 batches << 1_000_000
        thread::sleep(Duration::from_millis(20));
        assert_eq!(merger.epoch(), 0, "below the trigger nothing is republished");
        assert_eq!(merger.staleness_batches(), 10);
        // The forced barrier still works under an arbitrarily large k.
        merger.refresh();
        assert_eq!(merger.current().sketch().items_processed(), 320);
    }
}
