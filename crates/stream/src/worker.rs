//! One bounded queue-fed worker: a thread that owns a state `S` behind a
//! mutex and applies each queued item to it in FIFO order. The shard
//! workers of [`ShardedIngest`](crate::ShardedIngest) and the serving
//! node's window worker are both this type.
//!
//! The producer holds the [`Worker`] and readers share its [`WorkerState`].
//! The worker holds the state lock across each apply, so a reader sees an
//! item applied entirely or not at all. A sent/applied counter pair turns
//! the queue into a barrier ([`WorkerState::caught_up`]). An exit guard
//! marks the worker gone however it leaves (a closed queue, a panic in the
//! apply, a state lock poisoned by someone else) and wakes every waiter, so
//! nothing waits on a dead worker and a send after the exit fails.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread;

/// The worker has exited, or a panic poisoned its state: it applies
/// nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gone;

/// What the producer, the readers and the worker thread share.
pub struct WorkerState<S> {
    state: Mutex<S>,
    /// Notified after every applied item and when the worker exits.
    progress: Condvar,
    /// Items queued. Raised before the send, so it never trails `applied`.
    sent: AtomicU64,
    /// Items applied. Raised under the state lock after each apply, with
    /// `Release`; the `Acquire` loads that read it pair with that store.
    applied: AtomicU64,
    /// Cleared by the exit guard, after the queue's receiver is dropped.
    alive: AtomicBool,
}

impl<S> WorkerState<S> {
    /// Lock the state. Poisoned once a panic under the lock may have left
    /// it half updated.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, S>> {
        self.state.lock()
    }

    /// Items applied so far: a lock-free read.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// False once the worker has exited or a panic poisoned the state.
    pub fn usable(&self) -> bool {
        self.alive.load(Ordering::Acquire) && !self.state.is_poisoned()
    }

    /// The state once every item queued before this call is applied, or
    /// [`Gone`] if the worker exits first or the state is poisoned. A wait
    /// the worker cannot finish returns only after its exit.
    pub fn caught_up(&self) -> Result<MutexGuard<'_, S>, Gone> {
        let target = self.sent.load(Ordering::Acquire);
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let behind = |_: &mut S| self.applied() < target && self.alive.load(Ordering::Acquire);
        let state = self.progress.wait_while(state, behind);
        let state = state.unwrap_or_else(PoisonError::into_inner);
        let whole = self.applied() >= target && !self.state.is_poisoned();
        whole.then_some(state).ok_or(Gone)
    }

    /// The state as of the last applied item, plus the items still queued.
    pub fn as_applied(&self) -> Result<(MutexGuard<'_, S>, u64), Gone> {
        if !self.usable() {
            return Err(Gone);
        }
        let state = self.state.lock().map_err(|_| Gone)?;
        let pending = self
            .sent
            .load(Ordering::Acquire)
            .saturating_sub(self.applied());
        Ok((state, pending))
    }
}

/// Marks the worker gone however it leaves, and wakes every waiter.
struct Exit<'a, S>(&'a WorkerState<S>);

impl<S> Drop for Exit<'_, S> {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::Release);
        // Under the lock, so no waiter sleeps through the notification.
        let _ordered = self.0.state.lock();
        self.0.progress.notify_all();
    }
}

/// The producer's end of the queue. Dropping it closes the queue: the
/// worker applies what is left, exits, and is joined.
pub struct Worker<S, T> {
    tx: Option<SyncSender<T>>,
    thread: Option<thread::JoinHandle<()>>,
    shared: Arc<WorkerState<S>>,
}

impl<S: Send + 'static, T: Send + 'static> Worker<S, T> {
    /// Spawn a thread named `name` that owns `state` and applies each item
    /// sent, in order, with `apply`. Up to `capacity` items wait in the
    /// queue before [`Self::send`] blocks.
    pub fn spawn(
        name: &str,
        state: S,
        capacity: usize,
        mut apply: impl FnMut(&mut S, T) + Send + 'static,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(WorkerState {
            state: Mutex::new(state),
            progress: Condvar::new(),
            sent: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        });
        let (tx, rx) = sync_channel(capacity);
        let worker = Arc::clone(&shared);
        let thread = thread::Builder::new().name(name.into()).spawn(move || {
            let _exit = Exit(&worker);
            // The loop owns the receiver and drops it before `_exit` runs,
            // so a send that follows the exit fails.
            for item in rx {
                let Ok(mut state) = worker.state.lock() else {
                    return;
                };
                apply(&mut state, item);
                worker.applied.fetch_add(1, Ordering::Release);
                drop(state);
                worker.progress.notify_all();
            }
        })?;
        Ok(Self {
            tx: Some(tx),
            thread: Some(thread),
            shared,
        })
    }

    /// What the readers share.
    pub fn state(&self) -> &Arc<WorkerState<S>> {
        &self.shared
    }

    /// Queue one item, blocking while the queue is full; [`Gone`] once the
    /// worker has exited.
    pub fn send(&self, item: T) -> Result<(), Gone> {
        self.shared.sent.fetch_add(1, Ordering::AcqRel);
        let tx = self
            .tx
            .as_ref()
            .expect("the queue is open until the worker is joined");
        tx.send(item).map_err(|_| Gone)
    }

    /// Close the queue and join the worker once it has applied everything
    /// queued. The error is the panic that ended the worker early.
    pub fn join(mut self) -> thread::Result<()> {
        self.tx = None;
        self.thread.take().map_or(Ok(()), thread::JoinHandle::join)
    }
}

impl<S, T> Drop for Worker<S, T> {
    fn drop(&mut self) {
        self.tx = None;
        let _ = self.thread.take().map(thread::JoinHandle::join);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// An item the test workers refuse by panicking.
    const SENTINEL: u64 = u64::MAX;

    fn recorder() -> Worker<Vec<u64>, u64> {
        Worker::spawn(
            "cora-test-worker",
            Vec::new(),
            4,
            |seen: &mut Vec<u64>, item| {
                assert_ne!(item, SENTINEL, "sentinel item (expected in this test)");
                seen.push(item);
            },
        )
        .unwrap()
    }

    #[test]
    fn items_apply_in_fifo_order_and_the_barrier_sees_them_all() {
        let worker = recorder();
        let state = Arc::clone(worker.state());
        for item in 0..1_000 {
            worker.send(item).unwrap();
        }
        assert_eq!(*state.caught_up().unwrap(), (0..1_000).collect::<Vec<_>>());
        assert_eq!(state.applied(), 1_000);
        let (seen, pending) = state.as_applied().unwrap();
        assert_eq!((seen.len(), pending), (1_000, 0));
        drop(seen);
        worker.join().unwrap();
        // A closed queue ends the worker, yet the barrier still holds.
        assert!(!state.usable());
        assert_eq!(state.caught_up().unwrap().len(), 1_000);
    }

    #[test]
    fn a_panicking_apply_releases_the_barrier_and_fails_later_sends() {
        let worker = recorder();
        let state = Arc::clone(worker.state());
        worker.send(1).unwrap();
        worker.send(SENTINEL).unwrap();
        // The barrier runs on its own thread, so a hang fails the deadline
        // instead of the whole test binary.
        let (done, outcome) = channel();
        let waiter = Arc::clone(&state);
        let barrier = thread::spawn(move || done.send(waiter.caught_up().err()).unwrap());
        let gone = outcome.recv_timeout(Duration::from_secs(5));
        assert_eq!(
            gone,
            Ok(Some(Gone)),
            "the barrier must report the dead worker"
        );
        barrier.join().unwrap();
        assert!(!state.usable());
        assert!(state.as_applied().is_err());
        assert_eq!(state.applied(), 1);
        assert_eq!(worker.send(2), Err(Gone), "a send after the exit must fail");
        assert!(
            worker.join().is_err(),
            "the apply's panic reaches the joiner"
        );
    }
}
