//! The window worker: one thread owns both pane rings and applies the
//! batches the ack path stamps and queues, in journal order. It is a
//! [`cora_stream::worker::Worker`]; the `server` module docs give the lock
//! order and which ops wait for it.

use crate::server::StatePoisoned;
use cora_stream::windowed::{WindowedF0, WindowedF2};
use cora_stream::worker::{Gone, Worker, WorkerState};
use std::sync::Arc;

/// Stamped batches the FIFO holds before an ingest blocks on the worker.
pub(crate) const QUEUE_BATCHES: usize = 4;

/// Both pane rings.
pub(crate) struct Rings {
    pub(crate) f2: WindowedF2,
    pub(crate) f0: WindowedF0,
}

/// What the ack path, the readers and the worker share.
pub(crate) type WindowRings = WorkerState<Rings>;

impl From<Gone> for StatePoisoned {
    fn from(_: Gone) -> Self {
        StatePoisoned
    }
}

/// The ack path's end of the FIFO, kept in the node state so batches are
/// stamped and queued in journal order. Dropping it joins the worker.
pub(crate) struct WindowFeed {
    /// The tick clock: the next arrival tick, past every explicit one.
    pub(crate) clock: u64,
    worker: Worker<Rings, Vec<(u64, u64, u64)>>,
}

impl WindowFeed {
    /// Hand both rings to a new window worker; the clock resumes at `clock`.
    pub(crate) fn spawn(f2: WindowedF2, f0: WindowedF0, clock: u64) -> std::io::Result<Self> {
        let worker = Worker::spawn("cora-window", Rings { f2, f0 }, QUEUE_BATCHES, apply)?;
        Ok(Self { clock, worker })
    }

    /// The rings' read side.
    pub(crate) fn rings(&self) -> &Arc<WindowRings> {
        self.worker.state()
    }

    /// Stamp one validated batch (`ts` empty or one per tuple) and queue it.
    pub(crate) fn send(&mut self, tuples: &[(u64, u64)], ts: &[u64]) -> Result<(), StatePoisoned> {
        let mut stamp = |i: usize, (x, y): (u64, u64)| {
            let t = ts.get(i).copied().unwrap_or(self.clock);
            self.clock = self.clock.max(t.saturating_add(1));
            (x, y, t)
        };
        let batch = tuples.iter().enumerate().map(|(i, &tuple)| stamp(i, tuple)).collect();
        Ok(self.worker.send(batch)?)
    }
}

/// Apply one stamped batch to both rings.
fn apply(rings: &mut Rings, batch: Vec<(u64, u64, u64)>) {
    for (x, y, t) in batch {
        // Ingest checked `y ≤ y_max`, all a ring can reject; late ticks are
        // dropped and counted. An error is a bug: the panic poisons the
        // rings and the node fails closed.
        rings.f2.observe(x, y, t).expect("the F2 ring refused a validated tuple");
        rings.f0.observe(x, y, t).expect("the F0 ring refused a validated tuple");
    }
}
