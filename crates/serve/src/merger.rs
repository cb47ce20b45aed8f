//! The background merger: epoch-published composites, rebuilt off the read
//! path for the readers and barriers that will read them.
//!
//! `ShardedIngest::with_composite` re-merges the N shards on whichever
//! thread happens to query first after a new batch — a latency spike
//! exactly where a serving system least wants one. This module moves the
//! rebuild onto a **dedicated merger thread**, and bounds how often it runs
//! with its own staleness policy:
//!
//! * the merger rebuilds the composite (locking each shard sketch briefly,
//!   exactly like a foreground merge would) and **publishes** it by swapping
//!   an `Arc` behind a mutex held only for the pointer swap, then notifies a
//!   condvar on that mutex;
//! * readers call [`read`](BackgroundMerger::read), which clones that `Arc`
//!   — a reader arriving mid-rebuild normally gets the previous epoch at
//!   once instead of waiting for the merge (pinned by
//!   `query_during_slow_rebuild_does_not_block` below, using the
//!   [`slow-merge hook`](BackgroundMerger::spawn_with_hook)).
//!
//! ## Rebuild policy: builds follow readers, not the clock
//!
//! A build runs only when (a) a [`refresh`](BackgroundMerger::refresh)
//! barrier forces it, or (b) a reader found an applied batch missing from
//! the published composite and asked for one; either way, only while a
//! batch is still missing. Reader-asked builds are duty-capped: after a
//! build that took `d`, the next one waits at least `d`, bounding the merger
//! at half a core even under a query storm. Ingest nobody reads — a
//! replicating node whose analyst reads the aggregator, a load that ends in
//! a `flush` — costs no builds beyond its barriers.
//!
//! ## Staleness bound and the one-build wait
//!
//! A reader that asks for a build still answers at once from the published
//! composite if that was built less than [`STALENESS_FLOOR`] ago; otherwise
//! it waits for the build it asked for. So an answer covers every batch
//! applied before it or comes from generations read within the floor, and
//! a reader waits for at most one build (plus its duty cap): only the first
//! read after a floor's worth of unread ingest. Tuples still buffered or
//! queued for a shard worker are invisible to even a foreground merge;
//! `ShardedIngest::flush` + `refresh` is the read-your-writes barrier over
//! everything accepted.
//!
//! A merger whose thread is gone (a panic, or a failed build) fails closed:
//! `refresh`, and a reader that would wait, get `None` — the server's
//! poisoned-state error — while a read that needs no wait still answers from
//! the last epoch. The merger still wakes every `POLL_INTERVAL` although a
//! barrier or a reader also unparks it; the constant says why.

use cora_core::{CoreError, CorrelatedAggregate, CorrelatedSketch, Result};
use cora_stream::sharded::{staleness, ShardReader};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long the merger parks between checks for a barrier or a reader's
/// request. Both also unpark it, yet it keeps polling on purpose: a merger
/// that parked until unparked used the same CPU, but `f2` / `f0` p50 rose
/// 23% / 31% on a 2-vCPU VM, where waking a fully idle vCPU costs a query
/// about 20 µs. It is the only timer an idle node still runs.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Freshness floor: a reader that finds the published composite missing an
/// applied batch *and* built longer ago than this waits for the build it
/// asks for instead of answering from it.
pub const STALENESS_FLOOR: Duration = Duration::from_millis(250);

/// Test/ops instrumentation invoked between building a composite and
/// publishing it (e.g. an artificial delay proving readers don't block).
pub type MergeHook = Arc<dyn Fn() + Send + Sync>;

/// One published composite: the merged sketch, the per-shard generation
/// vector it was built from, when that vector was read, and its epoch.
#[derive(Debug)]
pub struct EpochComposite<A: CorrelatedAggregate> {
    sketch: CorrelatedSketch<A>,
    built_from: Vec<u64>,
    epoch: u64,
    built_at: Instant,
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

    /// When the generations in [`Self::built_from`] were read.
    pub fn built_at(&self) -> Instant {
        self.built_at
    }
}

/// Shared state between the merger thread and readers.
struct Shared<A: CorrelatedAggregate + Send + Sync + 'static>
where
    CorrelatedSketch<A>: Send + Sync,
{
    reader: ShardReader<A>,
    /// The published composite. The lock is held only to clone or swap the
    /// `Arc` — never across a rebuild.
    published: Mutex<Arc<EpochComposite<A>>>,
    /// Notified after every publish and when the merger thread exits.
    fresh: Condvar,
    /// Set by [`BackgroundMerger::refresh`]: build unless nothing is new.
    force: AtomicBool,
    /// Set by a reader that found the published composite too stale.
    demand: AtomicBool,
    shutdown: AtomicBool,
    /// Cleared when the merger thread exits, however it exits.
    alive: AtomicBool,
    hook: Option<MergeHook>,
}

impl<A: CorrelatedAggregate + Send + Sync + 'static> Shared<A>
where
    CorrelatedSketch<A>: Send + Sync,
{
    fn peek(&self) -> Arc<EpochComposite<A>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, built_from: Vec<u64>, sketch: CorrelatedSketch<A>, built_at: Instant) {
        let mut published = self.published.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = published.epoch + 1;
        *published = Arc::new(EpochComposite { sketch, built_from, epoch, built_at });
        drop(published);
        self.fresh.notify_all();
    }

    /// The published composite once `done` holds for it, or `None` if the
    /// merger thread exits first.
    fn wait_until(
        &self,
        done: impl Fn(&EpochComposite<A>) -> bool,
    ) -> Option<Arc<EpochComposite<A>>> {
        let published = self.published.lock().unwrap_or_else(PoisonError::into_inner);
        let alive = || self.alive.load(Ordering::Acquire);
        let pending = |c: &mut Arc<EpochComposite<A>>| !done(c) && alive();
        let published = self
            .fresh
            .wait_while(published, pending)
            .unwrap_or_else(PoisonError::into_inner);
        done(&published).then(|| Arc::clone(&published))
    }
}

/// Marks the merger gone however its loop leaves, and wakes every waiter.
struct Exit<'a, A: CorrelatedAggregate + Send + Sync + 'static>(&'a Shared<A>)
where
    CorrelatedSketch<A>: Send + Sync;

impl<A: CorrelatedAggregate + Send + Sync + 'static> Drop for Exit<'_, A>
where
    CorrelatedSketch<A>: Send + Sync,
{
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::Release);
        // Under the lock, so no waiter sleeps through the notification.
        let _ordered = self.0.published.lock();
        self.0.fresh.notify_all();
    }
}

/// The merger loop: build and publish for a forced refresh that a new batch
/// makes necessary, or for a reader's request once the duty cap allows it;
/// park briefly otherwise.
fn merger_loop<A>(shared: &Shared<A>)
where
    A: CorrelatedAggregate + Send + Sync + 'static,
    CorrelatedSketch<A>: Send + Sync,
{
    let _exit = Exit(shared);
    let mut last_end = Instant::now();
    let mut last_cost = Duration::ZERO;
    while !shared.shutdown.load(Ordering::Acquire) {
        let forced = shared.force.swap(false, Ordering::AcqRel);
        // A request arriving during the cooldown stays pending.
        let asked = last_end.elapsed() >= last_cost && shared.demand.swap(false, Ordering::AcqRel);
        // Skip a build with nothing new: a forced one, or a request an
        // earlier build has already answered.
        let lag = || staleness(&shared.peek().built_from, &shared.reader.generations());
        if !(forced || asked) || lag() == 0 {
            thread::park_timeout(POLL_INTERVAL);
            continue;
        }
        // This build answers every request made before it.
        shared.demand.store(false, Ordering::Release);
        let built_at = Instant::now();
        // A failed merge (config drift) cannot heal: exiting releases every
        // waiter with an error.
        let Ok((built_from, sketch)) = shared.reader.build_composite() else {
            return;
        };
        if let Some(hook) = &shared.hook {
            hook();
        }
        shared.publish(built_from, sketch, built_at);
        last_cost = built_at.elapsed();
        last_end = Instant::now();
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
    /// Spawn a merger over `reader` whose readers ask for a build once the
    /// published composite misses an applied batch. The initial composite is
    /// built synchronously so readers always have an epoch to hit.
    pub fn spawn(reader: ShardReader<A>) -> Result<Self> {
        Self::spawn_with_hook(reader, None)
    }

    /// [`Self::spawn`] with a hook run between each rebuild and its publish
    /// — test instrumentation (an artificially slow merge proves readers
    /// never wait on one).
    pub fn spawn_with_hook(reader: ShardReader<A>, hook: Option<MergeHook>) -> Result<Self> {
        let built_at = Instant::now();
        let (built_from, sketch) = reader.build_composite()?;
        let shared = Arc::new(Shared {
            reader,
            published: Mutex::new(Arc::new(EpochComposite {
                sketch,
                built_from,
                epoch: 0,
                built_at,
            })),
            fresh: Condvar::new(),
            force: AtomicBool::new(false),
            demand: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            alive: AtomicBool::new(true),
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

    fn wake(&self) {
        if let Some(worker) = &self.worker {
            worker.thread().unpark();
        }
    }

    /// The composite a query answers from. When the published one misses an
    /// applied batch, this asks the merger for a build, and waits for it
    /// only if that composite is also older than [`STALENESS_FLOOR`]. `None`
    /// if it must wait and the merger is gone.
    pub fn read(&self) -> Option<Arc<EpochComposite<A>>> {
        let composite = self.shared.peek();
        let lag = staleness(&composite.built_from, &self.shared.reader.generations());
        if lag == 0 {
            return Some(composite);
        }
        self.shared.demand.store(true, Ordering::Release);
        self.wake();
        if composite.built_at.elapsed() < STALENESS_FLOOR {
            return Some(composite);
        }
        self.shared.wait_until(|c| c.epoch > composite.epoch)
    }

    /// The published composite as it is — an `Arc` clone that neither asks
    /// for a build nor waits for one.
    pub fn current(&self) -> Arc<EpochComposite<A>> {
        self.shared.peek()
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

    /// Barrier: wait until the published composite covers every batch
    /// **applied before this call** — forcing one build if it does not yet —
    /// and return it; `None` if the merger is gone first. Combined with
    /// `ShardedIngest::flush` (which drains accepted tuples into applied
    /// batches) this gives read-your-writes over everything accepted.
    pub fn refresh(&self) -> Option<Arc<EpochComposite<A>>> {
        let target = self.shared.reader.generations();
        let covers = |c: &EpochComposite<A>| staleness(&c.built_from, &target) == 0;
        let composite = self.shared.peek();
        if covers(&composite) {
            return Some(composite);
        }
        self.shared.force.store(true, Ordering::Release);
        self.wake();
        self.shared.wait_until(covers)
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
    use std::sync::atomic::AtomicU64;
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
        let merger = BackgroundMerger::spawn(sharded.reader()).unwrap();
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
        // An artificially slow merge (the slow-merge hook): a first reader
        // finds the composite stale and starts the build; a second reader,
        // still inside the staleness floor, must get the previous epoch at
        // once instead of waiting for it.
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(64);
        let delay = Duration::from_millis(400);
        let entered = Arc::new(AtomicBool::new(false));
        let in_hook = Arc::clone(&entered);
        let slow: MergeHook = Arc::new(move || {
            in_hook.store(true, Ordering::Release);
            thread::sleep(delay);
        });
        let merger = BackgroundMerger::spawn_with_hook(sharded.reader(), Some(slow)).unwrap();
        let before = merger.current();
        fill(&mut sharded, 1_000, 0);
        thread::sleep(Duration::from_millis(20));
        assert!(!entered.load(Ordering::Acquire), "no reader yet, so no build");
        assert_eq!(merger.read().unwrap().epoch(), before.epoch());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !entered.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "the first reader's build never started");
            thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        let during = merger.read().unwrap();
        let answer = during.sketch().query(1023).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < delay / 4,
            "reader waited {elapsed:?} on a {delay:?} rebuild"
        );
        assert_eq!(during.epoch(), before.epoch(), "mid-rebuild reads serve the previous epoch");
        assert_eq!(answer, before.sketch().query(1023).unwrap());
        // The barrier waits the rebuild out and then sees everything.
        merger.refresh().unwrap();
        assert_eq!(merger.current().sketch().items_processed(), 1_000);
    }

    #[test]
    fn a_refresh_costs_one_build_and_none_when_nothing_is_new() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(64);
        let builds = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&builds);
        let count: MergeHook = Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(20));
        });
        let merger = BackgroundMerger::spawn_with_hook(sharded.reader(), Some(count)).unwrap();
        // Builds counted once any stray one has had time to run.
        let settled = || {
            thread::sleep(Duration::from_millis(50));
            builds.load(Ordering::Relaxed)
        };
        // A reader inside the floor starts a build; a refresh arriving while
        // it runs is met by it and forces no second one.
        fill(&mut sharded, 2_000, 0);
        merger.read().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while builds.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "the reader's build never started");
            thread::sleep(Duration::from_millis(1));
        }
        merger.refresh().unwrap();
        assert_eq!(settled(), 1, "a refresh met by a build in flight costs none");
        merger.refresh().unwrap();
        assert_eq!(settled(), 1, "a refresh with nothing new costs none");
        fill(&mut sharded, 2_000, 2_000);
        assert_eq!(settled(), 1, "ingest after a barrier builds nothing");
        let composite = merger.refresh().unwrap();
        assert_eq!(settled(), 2, "a refresh after new batches costs one build");
        assert_eq!(composite.sketch().items_processed(), 4_000);
    }

    #[test]
    fn a_write_only_period_builds_nothing_and_the_next_read_waits_for_one_build() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(64);
        let merger = BackgroundMerger::spawn(sharded.reader()).unwrap();
        fill(&mut sharded, 1_000, 0);
        thread::sleep(STALENESS_FLOOR + Duration::from_millis(50));
        fill(&mut sharded, 1_000, 1_000);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(merger.epoch(), 0, "no reader, no build");
        assert!(merger.staleness_batches() > 0);
        // The published composite is older than the floor, so a read without
        // a barrier waits for one build over every applied batch.
        let asked = Instant::now();
        let composite = merger.read().unwrap();
        assert_eq!(composite.epoch(), 1);
        assert!(composite.built_at() >= asked, "answered from a build it waited for");
        assert_eq!(composite.sketch().items_processed(), 2_000);
        assert_eq!(
            composite.sketch().query(1023).unwrap(),
            sharded.query(1023).unwrap()
        );
    }

    #[test]
    fn a_dead_merger_fails_closed_but_answers_reads_that_need_no_wait() {
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 100_000, 7, 2)
            .unwrap()
            .with_batch_size(32);
        let panics: MergeHook = Arc::new(|| panic!("merger build panics (expected in this test)"));
        let merger = BackgroundMerger::spawn_with_hook(sharded.reader(), Some(panics.clone())).unwrap();
        fill(&mut sharded, 320, 0);
        let start = Instant::now();
        assert!(merger.refresh().is_none(), "a barrier the merger cannot meet fails");
        assert!(merger.refresh().is_none(), "and keeps failing");
        assert!(start.elapsed() < Duration::from_secs(1));
        // A read inside the staleness floor needs no build: the last epoch
        // answers. (Checked only if the floor had not passed by the read.)
        let read = merger.read();
        if merger.current().built_at().elapsed() < STALENESS_FLOOR {
            assert_eq!(read.unwrap().epoch(), 0);
        }
        // A reader that must wait is released when its build dies.
        let merger = BackgroundMerger::spawn_with_hook(sharded.reader(), Some(panics)).unwrap();
        fill(&mut sharded, 320, 320);
        thread::sleep(STALENESS_FLOOR);
        assert!(merger.read().is_none());
    }
}
