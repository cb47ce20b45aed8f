//! The window worker: one thread owns both pane rings and applies the
//! batches the ack path stamps and queues, in journal order. The `server`
//! module docs give the lock order and which ops wait for it.

use crate::server::StatePoisoned;
use cora_stream::windowed::{WindowedF0, WindowedF2};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// Stamped batches the FIFO holds before an ingest blocks on the worker.
pub(crate) const QUEUE_BATCHES: usize = 4;

/// Both pane rings plus the number of batches applied to them.
pub(crate) struct Rings {
    pub(crate) f2: WindowedF2,
    pub(crate) f0: WindowedF0,
    applied: u64,
}

/// What the ack path, the readers and the worker share.
pub(crate) struct WindowRings {
    rings: Mutex<Rings>,
    /// Signalled after every applied batch and when the worker exits.
    progress: Condvar,
    /// Batches queued. Raised before the send, so it never trails `applied`.
    sent: AtomicU64,
    alive: AtomicBool,
}

impl WindowRings {
    /// False once the worker has exited or a panic poisoned the rings.
    pub(crate) fn usable(&self) -> bool {
        self.alive.load(Ordering::Acquire) && !self.rings.is_poisoned()
    }

    /// The rings once every batch queued before this call is applied.
    pub(crate) fn caught_up(&self) -> Result<MutexGuard<'_, Rings>, StatePoisoned> {
        let target = self.sent.load(Ordering::Acquire);
        let rings = self.rings.lock().map_err(|_| StatePoisoned)?;
        let behind = |r: &mut Rings| r.applied < target && self.alive.load(Ordering::Acquire);
        let rings = self.progress.wait_while(rings, behind).map_err(|_| StatePoisoned)?;
        (rings.applied >= target).then_some(rings).ok_or(StatePoisoned)
    }

    /// The rings as of the last applied batch, plus the batches queued.
    pub(crate) fn as_applied(&self) -> Result<(MutexGuard<'_, Rings>, u64), StatePoisoned> {
        if !self.usable() {
            return Err(StatePoisoned);
        }
        let rings = self.rings.lock().map_err(|_| StatePoisoned)?;
        let pending = self.sent.load(Ordering::Acquire).saturating_sub(rings.applied);
        Ok((rings, pending))
    }
}

/// The ack path's end of the FIFO, kept in the node state so batches are
/// stamped and queued in journal order. Dropping it joins the worker.
pub(crate) struct WindowFeed {
    /// The tick clock: the next arrival tick, past every explicit one.
    pub(crate) clock: u64,
    tx: Option<SyncSender<Vec<(u64, u64, u64)>>>,
    worker: Option<thread::JoinHandle<()>>,
    pub(crate) rings: Arc<WindowRings>,
}

impl WindowFeed {
    /// Hand both rings to a new window worker; the clock resumes at `clock`.
    pub(crate) fn spawn(f2: WindowedF2, f0: WindowedF0, clock: u64) -> std::io::Result<Self> {
        let rings = Arc::new(WindowRings {
            rings: Mutex::new(Rings { f2, f0, applied: 0 }),
            progress: Condvar::new(),
            sent: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        });
        let (tx, rx) = sync_channel(QUEUE_BATCHES);
        let shared = Arc::clone(&rings);
        let worker = thread::Builder::new().name("cora-window".into());
        let worker = worker.spawn(move || apply(&shared, rx))?;
        Ok(Self { clock, tx: Some(tx), worker: Some(worker), rings })
    }

    /// Stamp one validated batch (`ts` empty or one per tuple) and queue it.
    pub(crate) fn send(&mut self, tuples: &[(u64, u64)], ts: &[u64]) -> Result<(), StatePoisoned> {
        let mut stamp = |i: usize, (x, y): (u64, u64)| {
            let t = ts.get(i).copied().unwrap_or(self.clock);
            self.clock = self.clock.max(t.saturating_add(1));
            (x, y, t)
        };
        let batch = tuples.iter().enumerate().map(|(i, &tuple)| stamp(i, tuple)).collect();
        self.rings.sent.fetch_add(1, Ordering::AcqRel);
        self.tx.as_ref().expect("open until drop").send(batch).map_err(|_| StatePoisoned)
    }
}

impl Drop for WindowFeed {
    fn drop(&mut self) {
        self.tx = None;
        let _ = self.worker.take().map(thread::JoinHandle::join);
    }
}

/// The worker loop: apply each batch in FIFO order until the feed closes.
fn apply(shared: &WindowRings, batches: Receiver<Vec<(u64, u64, u64)>>) {
    /// Marks the worker gone however it leaves, and wakes every waiter.
    struct Exit<'a>(&'a WindowRings);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.alive.store(false, Ordering::Release);
            // Under the lock, so no waiter sleeps through the notification.
            let _ordered = self.0.rings.lock();
            self.0.progress.notify_all();
        }
    }
    let _exit = Exit(shared);
    for batch in batches {
        let Ok(mut rings) = shared.rings.lock() else { return };
        for (x, y, t) in batch {
            // Ingest checked `y ≤ y_max`, all a ring can reject; late ticks
            // are dropped and counted. An error is a bug: the panic poisons
            // the rings and the node fails closed.
            rings.f2.observe(x, y, t).expect("the F2 ring refused a validated tuple");
            rings.f0.observe(x, y, t).expect("the F0 ring refused a validated tuple");
        }
        rings.applied += 1;
        drop(rings);
        shared.progress.notify_all();
    }
}
