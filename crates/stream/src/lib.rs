//! # cora-stream
//!
//! The streaming substrate around the correlated-aggregation library:
//!
//! * [`mod@tuple`] — the `(x, y, weight)` stream model (cash-register and
//!   turnstile);
//! * [`generators`] — the paper's experimental workloads (Uniform, Zipf(α),
//!   the Ethernet-trace surrogate, and stress generators);
//! * [`multipass`] — the `O(log y_max)`-pass MULTIPASS algorithm for the
//!   turnstile model (Algorithm 4) over a replayable [`multipass::StoredStream`];
//! * [`lower_bound`] — GREATER-THAN hard instances behind the single-pass
//!   lower bound (Section 4.1);
//! * [`async_window`] — sliding-window aggregation over asynchronous
//!   (out-of-order) streams via the reduction to correlated aggregates;
//! * [`windowed`] — the exponential-histogram pane ring answering
//!   `(sliding time window, y-threshold)` two-dimensional slices of `F_2`
//!   and `F_0` by composing mergeable panes;
//! * [`sharded`] — the worker-sharded parallel ingest front-end
//!   ([`ShardedIngest`]): bounded queues feeding N same-seeded correlated
//!   sketches, merged at query time (Property V);
//! * [`worker`] — the bounded queue-fed worker thread behind each shard
//!   (and the serving node's window worker);
//! * [`driver`] — measurement plumbing shared by the experiment harness;
//! * [`json`] — hand-rolled JSON helpers for the report types (the build is
//!   offline, so there is no `serde`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod async_window;
pub mod driver;
pub mod generators;
pub mod json;
pub mod lower_bound;
pub mod multipass;
pub mod sharded;
pub mod tuple;
pub mod windowed;
pub mod worker;

pub use async_window::{AsyncWindowCount, AsyncWindowF2};
pub use windowed::{
    windowed_f0, windowed_f2, PaneConfig, PaneRing, WindowPane, WindowedF0, WindowedF2,
};
pub use sharded::{sharded_correlated_f2, ShardReader, ShardedIngest};
pub use driver::{default_thresholds, relative_errors, time_ingest, RunReport};
pub use generators::{
    f0_experiment_generators, f2_experiment_generators, DatasetGenerator, EthernetGenerator,
    SortedYGenerator, UniformGenerator, ZipfGenerator,
};
pub use lower_bound::{greater_than_instance, solve_exactly};
pub use multipass::{multipass_f2, MultipassEstimator, StoredStream};
pub use tuple::{summarize, DatasetSummary, StreamTuple};
