//! # cora-serve
//!
//! The serving layer of the cora workspace: everything needed to keep a set
//! of correlated sketches **always on** — ingesting from many clients,
//! answering queries with bounded staleness and without ever blocking on a
//! composite rebuild, and surviving restarts through snapshots.
//!
//! Four cooperating pieces:
//!
//! * [`merger`] — a **background merger**: a dedicated thread that watches a
//!   [`cora_stream::ShardedIngest`]'s shard generations through a
//!   [`cora_stream::ShardReader`], rebuilds the merged composite off the
//!   read path whenever the merge-every-`k` trigger fires, and publishes it
//!   behind an epoch-tagged atomic slot ([`merger::BackgroundMerger`]).
//!   Readers take an `Arc` clone of the current composite — a pointer copy —
//!   so a query issued *during* a rebuild normally returns at once against
//!   the previous epoch instead of waiting, and a composite is built only
//!   when a reader or a `flush` will read it;
//! * **snapshot persistence & crash-safe durability** — the `snapshot` op
//!   seals every structure's `cora_core::snapshot` frame into one
//!   checksummed container, the format replication ships too, and
//!   [`server::start_restored`] boots a server from it with bit-identical
//!   answers. With [`server::DurabilityConfig`] set, a
//!   write-ahead [`journal`] makes every acked ingest batch crash-safe:
//!   batches are journaled (fsync'd) before they are applied, a background
//!   thread rotates snapshot generations, and recovery-on-start restores
//!   the newest readable snapshot plus the journal tail — proven by a
//!   deterministic fault-injection harness ([`faults`]) and `SIGKILL`
//!   process tests. [`retry::RetryingClient`] completes the story
//!   client-side with reconnect, exponential backoff, and idempotent
//!   sequence-numbered replay;
//! * [`server`] / [`client`] / [`wire`] — a `std::net::TcpListener` server
//!   speaking **two wire protocols**, negotiated per connection by its
//!   first byte: newline-delimited JSON (reusing `cora_stream::json`) and
//!   a length-prefixed **binary frame protocol** ([`wire`]) with pipelined
//!   no-ack batch ingest. Both expose the same ops — batch ingest,
//!   `f2`/`f0`/`rarity`/heavy-hitter queries, windowed slices, flush,
//!   snapshot, stats — with bit-identical answers. Everything a batch
//!   mutates sits behind the node's one state lock, the pane rings behind a
//!   window worker's (a panic under either fails the node closed); `f2` and
//!   heavy hitters, one structure, are read lock-free from the merger. Each
//!   connection is served by a blocking thread of its own — the transport
//!   both node kinds share — and bounded by
//!   [`server::ServeConfig::max_connections`]. The blocking
//!   [`client::ServeClient`] speaks either protocol and is used by the
//!   `serve_demo` example and the `serve_latency` bench;
//! * [`cluster`] — **distributed fan-in**: ingest nodes replicate as they
//!   recover — a snapshot, then checksummed containers of the acked tuples
//!   that the aggregator replays ([`server::ServeConfig::replicate`]) — into
//!   an aggregator ([`start_aggregator`] / the `cora_serve_agg` binary) that
//!   serves every query family over the union of all streams (Property V
//!   mergeability) plus `set_f0` set-expression queries
//!   (`|A ∪ B|`, `|A ∩ B|`, `|A ∖ B|` under `y ≤ c`), with chain-checked
//!   deltas, full-resync fallback, warm standby from a dead upstream's
//!   durable directory, and an optional shared-secret auth gate
//!   ([`server::ServeConfig::auth_token`]) on both transports.
//!
//! ## Consistency model
//!
//! Ingest is accepted in batches and applied by the sharded workers; the
//! published composite is rebuilt in the background when a query finds it
//! missing an applied batch. A query therefore observes **every batch
//! applied before it, or a composite built within the merger's staleness
//! floor**, and waits for at most one rebuild — only when the composite is
//! older than that floor. `flush` is the read-your-writes barrier: it
//! drains the workers *and* blocks until the published composite covers
//! every batch applied before the call.
//!
//! ```no_run
//! use cora_serve::client::ServeClient;
//! use cora_serve::server::{start, ServeConfig};
//!
//! let server = start(ServeConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! client.ingest(&[(1, 10), (2, 20), (1, 900)]).unwrap();
//! client.flush().unwrap();
//! let f2 = client.query_f2(100).unwrap();
//! assert!(f2 > 0.0);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod cluster;
pub mod faults;
pub mod journal;
pub mod merger;
pub mod protocol;
pub mod retry;
pub mod server;
mod sketches;
mod transport;
mod windows;
pub mod wire;

pub use client::ServeClient;
pub use cluster::{start_aggregator, start_aggregator_seeded};
pub use faults::{FaultPlan, FaultyStorage};
pub use journal::{DiskStorage, JournalWriter, Storage};
pub use merger::BackgroundMerger;
pub use retry::{RetryPolicy, RetryingClient};
pub use server::{
    start, start_restored, start_with_storage, DurabilityConfig, ReplicateConfig, RunningServer,
    ServeConfig, ServeError,
};
