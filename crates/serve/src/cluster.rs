//! Distributed fan-in: the replication link and the aggregator node.
//!
//! ## Topology
//!
//! ```text
//!   ingest node A ──┐  per pass: repl_hello, then at most one repl_delta
//!   (ServeConfig::  ├─────────────► aggregator (start_aggregator)
//!    replicate)     │                 stream "A": F2/HH + F0 + rarity
//!   ingest node B ──┘                 stream "B": F2/HH + F0 + rarity
//!                                     union composite (lazy, cached)
//!        queries (f2/f0/rarity/hh) ───► answered over the union
//!        set_f0 a=A b=B op=union|intersect|diff ───► inclusion–exclusion
//! ```
//!
//! An ingest node replicates the way it recovers: a snapshot, then the
//! batches acked after it ([`crate::server::ServeConfig::replicate`]), in
//! the formats it writes to disk. The first cut and every resync is a
//! **full** cut (`g_from = 0`): the snapshot bundle's `F_2`/HH, `F_0` and
//! rarity sections, sealed the same way, which replace the stream's state.
//! Every later cut carries the tuples acked since the previous one as one
//! batch payload, the bytes of a journal record without timestamps or
//! pair, which the aggregator **replays** with `insert_batch`, as warm
//! standby replays a journal. A stream is thus always built by Algorithms
//! 1–2 one insert at a time, the premise of the `(1 ± ε)` bound, and its
//! `F_0` and rarity are the node's bit for bit. Every section is restored,
//! and every shipped tuple checked for `y ≤ y_max`, before the stream is
//! touched.
//!
//! **The price of replay** is one insert per shipped tuple, 5–6 µs on one
//! core at the served config (ε = 0.25, `y_max` 4095), under the
//! aggregator's lock: ≈ 5% of a core at 8 000 tuples/s, a ≈ 0.2 s hold for
//! a 50 000-tuple burst, saturation near 170 000 tuples/s. Only the union of
//! streams still merges (Property V); merged buckets spill to their sketch
//! as inserted ones do, so the union stays bounded.
//!
//! ## Chain discipline
//!
//! Every container travels as one `repl_delta` request, answered like any
//! other op with the aggregator's `high_water`. It carries `(g_from, g_to]`
//! generation bounds and a configuration fingerprint, which also covers the
//! replication format, so a node and an aggregator that ship different
//! container kinds are refused at `repl_hello`. `g_from = 0` marks a full
//! replacement, which applies at any high water. The aggregator accepts an
//! incremental container only when `g_from` equals its high-water
//! generation for that stream; anything else is answered with a `request`
//! error and the replica falls back to a **full resync**.
//!
//! The replica keeps two things: `acked`, the high water the aggregator
//! last acknowledged (0 = a full cut is due), and the tuples taken from the
//! node since then, which no acknowledged container holds. Every pass takes
//! the node's tail, connects only when there is no session, and sends
//! `repl_hello`, idle or not: a high water other than `acked` (the
//! aggregator restarted, or applied a container whose acknowledgement was
//! lost) makes a full cut due. It then ships at most one container: a full
//! cut when one is due, else the unacknowledged tuples as `(acked, g]`, and
//! nothing when there are none. A refused container makes a full cut due
//! for the next pass, over the same session. A full cut is thus taken only
//! over a live session, never for a link that is down, and unacked tuples
//! that outgrow the last full cut are dropped for a resync instead of
//! piling up.
//!
//! ## Warm standby
//!
//! [`start_aggregator_seeded`] pre-loads a stream's state from an upstream
//! durable directory (newest readable snapshot plus journal replay — the
//! same recovery walk the ingest node itself performs), so an aggregator
//! can serve queries for a dead upstream immediately. The seeded stream's
//! high water stays 0: when the upstream returns, its first handshake sees
//! `high_water = 0` and ships a full resync, replacing the seeded state
//! exactly (never double-counting it).
//!
//! ## Set-expression accuracy
//!
//! `set_f0` estimates `|A ∪ B|` directly from the merged samplers (Property
//! V, so the union estimate carries the same `(ε, δ)` guarantee as any
//! single-stream `F_0`). `|A ∩ B|` and `|A ∖ B|` come from
//! inclusion–exclusion over three estimates, so their *absolute* errors add:
//! the result is within `ε(|A| + |B| + |A ∪ B|)` of truth, which is only a
//! weak *relative* guarantee when the intersection is small. The reply
//! carries the three raw estimates alongside the value so callers can judge.

use crate::client::{ClientError, ServeClient};
use crate::protocol::{Reply, Request, SetOp, Value};
use crate::server::{
    recover, ReplicateConfig, RunningServer, ServeConfig, ServeError, ServerCore, StatePoisoned,
};
use crate::sketches::{seal_batches, seal_sections, Shipped, SketchSet, SKETCH_SECTIONS};
use crate::transport::{spawn_acceptor, ServiceCore};
use cora_core::snapshot::open_sections;
use cora_core::{CoreError, SectionsHeader};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Whether `name` can label a replicated stream: 1–64 bytes of
/// `[A-Za-z0-9_.-]` (it travels in wire frames and doubles as a map key).
fn valid_stream_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The refusal every entry point gives a name that cannot label a stream.
pub(crate) fn check_stream_name(name: &str) -> Result<(), String> {
    if valid_stream_name(name) {
        return Ok(());
    }
    Err(format!("replication stream name {name:?} must be 1-64 bytes of [A-Za-z0-9_.-]"))
}

/// One upstream stream's merged state on the aggregator.
struct StreamState {
    set: SketchSet,
    /// The replication generation this state covers; a delta must chain
    /// from exactly here. 0 = never shipped to (or seeded out-of-band).
    high_water: u64,
}

/// Registered streams plus the union cache, under one lock (replication
/// applies and queries serialize: a query waits for the replay of any cut
/// being applied — see the module docs for its cost).
struct AggState {
    streams: BTreeMap<String, StreamState>,
    /// Bumped on every applied container (reported by `stats`).
    epoch: u64,
    /// The cross-stream union composite, built by the first query after
    /// any stream changed and cleared with every `epoch` bump, so queries
    /// between replication events reuse it without any merging.
    union: Option<SketchSet>,
}

/// The aggregator's service core: answers the query surface of an ingest
/// node over the **union** of its registered streams, plus the
/// replication ops and the multi-stream `set_f0` / `streams` ops. Plugged
/// into the shared transport stack via [`ServiceCore`].
pub(crate) struct AggCore {
    config: ServeConfig,
    fingerprint: u64,
    /// Reached only through [`AggCore::state`].
    state: Mutex<AggState>,
    requests: AtomicU64,
    deltas_applied: AtomicU64,
    snapshots_applied: AtomicU64,
    repl_rejected: AtomicU64,
}

impl AggCore {
    fn new(config: ServeConfig) -> Result<Self, ServeError> {
        // Fail at start, not at the first handshake, if the parameters
        // cannot build the sketch family.
        let _ = SketchSet::fresh(&config)?;
        let fingerprint = config.replication_fingerprint();
        Ok(Self {
            config,
            fingerprint,
            state: Mutex::new(AggState {
                streams: BTreeMap::new(),
                epoch: 0,
                union: None,
            }),
            requests: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            snapshots_applied: AtomicU64::new(0),
            repl_rejected: AtomicU64::new(0),
        })
    }

    /// The one way to the aggregator's mutable state; a poisoned lock is
    /// refused, never entered (see [`StatePoisoned`]).
    fn state(&self) -> Result<MutexGuard<'_, AggState>, StatePoisoned> {
        self.state.lock().map_err(|_| StatePoisoned)
    }

    /// Answer a sketch query against the up-to-date union composite,
    /// rebuilding it first if any stream changed since it was cached.
    fn union_answer(&self, request: &Request) -> Result<Reply, StatePoisoned> {
        let mut state = self.state()?;
        let AggState { streams, union, .. } = &mut *state;
        if union.is_none() {
            let merged = SketchSet::fresh(&self.config).and_then(|mut set| {
                streams
                    .values()
                    .try_for_each(|stream| set.merge_from(&stream.set))
                    .map(|()| set)
            });
            match merged {
                Ok(set) => *union = Some(set),
                Err(e) => return Ok(Reply::sketch_error(e.to_string())),
            }
        }
        let union = union.as_ref().expect("just built");
        Ok(union.answer(request, self.config.y_max))
    }

    /// `set_f0`: inclusion–exclusion over two streams' distinct samplers
    /// (see the module docs for the accuracy caveat on intersect/diff).
    fn set_f0(&self, a: &str, b: &str, op: SetOp, c: u64) -> Result<Reply, StatePoisoned> {
        let cc = c.min(self.config.y_max);
        let state = self.state()?;
        let unknown = |name: &str| {
            Reply::request_error(format!(
                "unknown stream {name:?}: no replica has registered it (see the streams op)"
            ))
        };
        let Some(sa) = state.streams.get(a) else {
            return Ok(unknown(a));
        };
        let Some(sb) = state.streams.get(b) else {
            return Ok(unknown(b));
        };
        let (f0_a, f0_b) = (sa.set.f0(), sb.set.f0());
        let estimates = (|| -> Result<(f64, f64, f64), CoreError> {
            let f_a = f0_a.query(cc)?;
            let f_b = f0_b.query(cc)?;
            // A's sampler merged into an empty one is A's sampler.
            let mut merged = f0_a.clone();
            merged.merge_from(f0_b)?;
            Ok((f_a, f_b, merged.query(cc)?))
        })();
        Ok(match estimates {
            Ok((f_a, f_b, f_union)) => {
                // Clamp the derived quantities at 0: estimation noise can
                // push inclusion–exclusion slightly negative.
                let intersect = (f_a + f_b - f_union).max(0.0);
                let value = match op {
                    SetOp::Union => f_union,
                    SetOp::Intersect => intersect,
                    SetOp::Diff => (f_a - intersect).max(0.0),
                };
                Reply::Ok(vec![
                    ("value", Value::F64(value)),
                    ("f_a", Value::F64(f_a)),
                    ("f_b", Value::F64(f_b)),
                    ("f_union", Value::F64(f_union)),
                ])
            }
            Err(e) => Reply::sketch_error(e.to_string()),
        })
    }

    /// The replication handshake: register (or re-find) the stream and tell
    /// the replica where the chain stands.
    fn repl_hello(&self, stream: &str, fingerprint: u64) -> Result<Reply, StatePoisoned> {
        if let Err(refusal) = check_stream_name(stream) {
            return Ok(Reply::request_error(refusal));
        }
        if fingerprint != self.fingerprint {
            self.repl_rejected.fetch_add(1, Ordering::Relaxed);
            return Ok(Reply::request_error(format!(
                "configuration fingerprint mismatch (replica {fingerprint:#018x}, aggregator \
                 {:#018x}): sketches built from different parameters or seeds cannot merge",
                self.fingerprint
            )));
        }
        let mut state = self.state()?;
        if !state.streams.contains_key(stream) {
            match SketchSet::fresh(&self.config) {
                Ok(fresh) => {
                    let fresh = StreamState { set: fresh, high_water: 0 };
                    state.streams.insert(stream.to_string(), fresh);
                }
                Err(e) => return Ok(Reply::server_error(e.to_string())),
            }
        }
        let high_water = state.streams[stream].high_water;
        Ok(Reply::Ok(vec![("high_water", Value::U64(high_water))]))
    }

    /// Apply one sealed container to `stream`: a full replacement when its
    /// `g_from` is 0, an incremental cut that must chain otherwise.
    fn repl_apply(&self, stream: &str, frame: &[u8]) -> Result<Reply, StatePoisoned> {
        let reject = |message: String| {
            self.repl_rejected.fetch_add(1, Ordering::Relaxed);
            Ok(Reply::request_error(message))
        };
        let (header, sections) = match open_sections(frame) {
            Ok(opened) => opened,
            Err(e) => return reject(format!("unreadable replication container: {e}")),
        };
        if header.fingerprint != self.fingerprint {
            return reject(format!(
                "configuration fingerprint mismatch (container {:#018x}, aggregator {:#018x})",
                header.fingerprint, self.fingerprint
            ));
        }
        // Restore or decode every section before touching the stream state,
        // so a corrupt or mismatched section rejects the container atomically.
        let shipped = match Shipped::open(&self.config, header.g_from == 0, &sections) {
            Ok(shipped) => shipped,
            Err(detail) => return reject(detail),
        };
        let mut state = self.state()?;
        let Some(stream_state) = state.streams.get_mut(stream) else {
            return reject(format!("unknown stream {stream:?}: send repl_hello first"));
        };
        match shipped {
            // Full replacement: the container *is* the stream's state.
            Shipped::Full(set) => {
                stream_state.set = *set;
                self.snapshots_applied.fetch_add(1, Ordering::Relaxed);
            }
            Shipped::Batches(tuples) => {
                if header.g_from != stream_state.high_water {
                    return reject(format!(
                        "delta chains from generation {} but stream {stream:?} stands at {} — \
                         resync with a full snapshot",
                        header.g_from, stream_state.high_water
                    ));
                }
                if let Err(e) = stream_state.set.insert_batch(&tuples) {
                    // A half-applied replay would corrupt the stream; force
                    // the replica to replace it wholesale.
                    stream_state.high_water = 0;
                    state.epoch += 1;
                    state.union = None;
                    return Ok(Reply::sketch_error(format!(
                        "delta replay failed ({e}); stream {stream:?} reset, resync required"
                    )));
                }
                self.deltas_applied.fetch_add(1, Ordering::Relaxed);
            }
        }
        stream_state.high_water = header.g_to;
        state.epoch += 1;
        state.union = None;
        Ok(Reply::Ok(vec![("high_water", Value::U64(header.g_to))]))
    }

    /// Warm-standby seeding: load `stream` from an upstream's durable
    /// directory (newest readable snapshot + journal replay; the windowed
    /// and sequence sections do not replicate). High water stays 0, so a
    /// returning upstream full-resyncs over this state.
    fn catch_up_from_dir(&self, stream: &str, dir: &Path) -> Result<(), ServeError> {
        check_stream_name(stream).map_err(ServeError::Invalid)?;
        // `recover` creates a missing directory, as an ingest node's first
        // start wants; a seed that is not there is a mistyped path.
        if !dir.is_dir() {
            return Err(ServeError::Invalid(format!(
                "seed directory {dir:?} for stream {stream:?} does not exist"
            )));
        }
        let storage = crate::journal::disk_storage();
        let recovered = recover(&storage, dir)?;
        // The fingerprint covers every mergeable parameter; a bundle from a
        // differently-configured node must not masquerade as this stream.
        let mut seeded = match &recovered.restored {
            Some((_, [f2, f0, rarity, ..])) => SketchSet::restore(&self.config, [f2, f0, rarity])?,
            None => SketchSet::fresh(&self.config)?,
        };
        for record in &recovered.replay {
            seeded.insert_batch(&record.tuples)?;
        }
        let mut state = self.state()?;
        if state.streams.contains_key(stream) {
            return Err(ServeError::Invalid(format!(
                "stream {stream:?} is seeded twice"
            )));
        }
        state.streams.insert(stream.to_string(), StreamState { set: seeded, high_water: 0 });
        state.epoch += 1;
        state.union = None;
        Ok(())
    }

    /// The reply to one request; `ping`, `config`, `flush` and `shutdown`
    /// keep answering when the state lock is poisoned.
    fn answer(&self, request: Request) -> Result<Reply, StatePoisoned> {
        let not_here = |what: &str| {
            Reply::request_error(format!(
                "{what} is an ingest-node op; an aggregator only merges replicated streams"
            ))
        };
        Ok(match request {
            // Reads are always against fully-applied state; flush is the
            // no-op barrier it promises to be.
            Request::Ping | Request::Flush | Request::Shutdown => Reply::ok(),
            Request::Config => {
                let c = &self.config;
                Reply::Ok(vec![
                    ("role", Value::Str("aggregator".to_string())),
                    ("fingerprint", Value::U64(self.fingerprint)),
                    ("epsilon", Value::F64(c.epsilon)),
                    ("delta", Value::F64(c.delta)),
                    ("y_max", Value::U64(c.y_max)),
                    ("max_stream_len", Value::U64(c.max_stream_len)),
                    ("seed", Value::U64(c.seed)),
                    ("phi", Value::F64(c.phi)),
                    ("x_domain_log2", Value::U64(u64::from(c.x_domain_log2))),
                    ("max_connections", Value::U64(c.max_connections as u64)),
                ])
            }
            Request::QueryF2 { .. }
            | Request::QueryF0 { .. }
            | Request::QueryRarity { .. }
            | Request::QueryHeavyHitters { .. } => self.union_answer(&request)?,
            Request::SetF0 { a, b, op, c } => self.set_f0(&a, &b, op, c)?,
            Request::Streams => {
                let state = self.state()?;
                let names: Vec<&str> = state.streams.keys().map(String::as_str).collect();
                Reply::Ok(vec![
                    ("streams", Value::Str(names.join(","))),
                    ("count", Value::U64(names.len() as u64)),
                ])
            }
            Request::ReplHello { stream, fingerprint } => self.repl_hello(&stream, fingerprint)?,
            Request::Stats => {
                let state = self.state()?;
                let high_water_sum = state.streams.values().map(|s| s.high_water).sum::<u64>();
                let count = |counter: &AtomicU64| Value::U64(counter.load(Ordering::Relaxed));
                Reply::Ok(vec![
                    ("requests", count(&self.requests)),
                    ("streams", Value::U64(state.streams.len() as u64)),
                    ("epoch", Value::U64(state.epoch)),
                    ("high_water_sum", Value::U64(high_water_sum)),
                    ("deltas_applied", count(&self.deltas_applied)),
                    ("snapshots_applied", count(&self.snapshots_applied)),
                    ("repl_rejected", count(&self.repl_rejected)),
                ])
            }
            Request::Auth { .. } => Reply::request_error(
                "auth is handled by the connection transport before dispatch",
            ),
            Request::Ingest { .. } => not_here("ingest"),
            Request::WindowF2 { .. } | Request::WindowF0 { .. } => {
                not_here("a windowed query (windows do not replicate)")
            }
            Request::Snapshot { .. } => not_here("snapshot"),
        })
    }
}

impl ServiceCore for AggCore {
    fn auth_token(&self) -> Option<&str> {
        self.config.auth_token.as_deref()
    }

    fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn handle(&self, request: Request) -> (Reply, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let stop = matches!(request, Request::Shutdown);
        (self.answer(request).unwrap_or_else(Reply::from), stop)
    }

    fn ingest_binary(&self, _tuples: &[(u64, u64)], _ts: &[u64], _seq: Option<(u64, u64)>) -> Reply {
        Reply::request_error(
            "an aggregator does not accept ingest; send tuples to an ingest node and let \
             replication fan them in",
        )
    }

    fn repl_delta(&self, stream: &str, container: &[u8]) -> Reply {
        self.repl_apply(stream, container).unwrap_or_else(Reply::from)
    }
}

/// Start an aggregator node on `bind`, speaking both wire protocols over
/// the same transport stack as an ingest server. `config` must match the
/// upstream ingest nodes' configuration (the handshake enforces this via
/// the [`ServeConfig::replication_fingerprint`] check). The
/// `durability` / `replicate` fields are ignored — an aggregator neither
/// journals nor replicates onward.
pub fn start_aggregator(config: ServeConfig, bind: &str) -> Result<RunningServer, ServeError> {
    start_aggregator_seeded(config, bind, &[])
}

/// [`start_aggregator`], pre-seeding streams from upstream durable
/// directories before the listener opens (warm standby — see the module
/// docs). Each `(stream, dir)` pair runs the ingest node's own recovery
/// walk: newest readable snapshot, then journal replay.
pub fn start_aggregator_seeded(
    config: ServeConfig,
    bind: &str,
    seeds: &[(&str, &Path)],
) -> Result<RunningServer, ServeError> {
    let max_connections = config.max_connections;
    let core = Arc::new(AggCore::new(config)?);
    for &(stream, dir) in seeds {
        core.catch_up_from_dir(stream, dir)?;
    }
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let acceptor = spawn_acceptor(core, listener, Arc::clone(&shutdown), max_connections)?;
    Ok(RunningServer {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        replicator: None,
    })
}

/// Progress shared between an ingest node's replication thread and its
/// observers ([`RunningServer::replication_sync`], shutdown).
#[derive(Default)]
struct ReplProgress {
    /// Highest generation the aggregator has acknowledged.
    acked_gen: u64,
    /// Barrier tickets: a sync request bumps `sync_requests`; the loop
    /// publishes `sync_completions` after a pass that covers the ticket.
    sync_requests: u64,
    sync_completions: u64,
    /// The failure that ended the most recent pass, cleared on success.
    last_error: Option<String>,
    stop: bool,
}

#[derive(Default)]
struct ReplShared {
    progress: Mutex<ReplProgress>,
    cvar: Condvar,
}

impl ReplShared {
    /// Every critical section on the progress assigns scalars or one
    /// message, so a panic cannot leave it half-updated and a poisoned lock
    /// is safe to enter.
    fn progress(&self) -> MutexGuard<'_, ReplProgress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to a running replication thread (one per
/// [`ServeConfig::replicate`] server).
pub struct ReplicatorHandle {
    shared: Arc<ReplShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ReplicatorHandle {
    /// Replication barrier: wake the replication thread, wait until a pass
    /// requested after this call completes, and return the acknowledged
    /// generation. A pass that could not reach the aggregator returns its
    /// error (the thread keeps retrying in the background regardless).
    pub(crate) fn sync(&self, timeout: Duration) -> Result<u64, String> {
        let mut progress = self.shared.progress();
        progress.sync_requests += 1;
        let ticket = progress.sync_requests;
        self.shared.cvar.notify_all();
        let deadline = Instant::now() + timeout;
        while progress.sync_completions < ticket {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "replication sync timed out after {timeout:?} (last error: {:?})",
                    progress.last_error
                ));
            }
            let (guard, _) = self
                .shared
                .cvar
                .wait_timeout(progress, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            progress = guard;
        }
        match &progress.last_error {
            Some(e) => Err(e.clone()),
            None => Ok(progress.acked_gen),
        }
    }

    /// Stop the thread and wait for it to exit.
    pub(crate) fn stop_and_join(&mut self) {
        {
            let mut progress = self.shared.progress();
            progress.stop = true;
            self.shared.cvar.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Spawn the per-upstream replication thread: every `interval_ms` (or on a
/// sync barrier) it handshakes and ships the tuples acked since its last
/// acknowledged container, falling back to a full resync whenever the chain
/// breaks (see the module docs).
pub(crate) fn spawn_replicator(core: Arc<ServerCore>, cfg: ReplicateConfig) -> ReplicatorHandle {
    let shared = Arc::new(ReplShared::default());
    let thread = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("cora-serve-repl".into())
            .spawn(move || Replicator::new(core, cfg, shared).run())
            .ok()
    };
    ReplicatorHandle { shared, thread }
}

/// The bytes one tuple takes in an incremental container's batch.
const TUPLE_BYTES: usize = 16;

/// The replica-side state machine living on the replication thread. It
/// holds no sealed container: each pass seals at most one, from `acked`
/// and `unacked`, and drops it once shipped.
struct Replicator {
    core: Arc<ServerCore>,
    cfg: ReplicateConfig,
    shared: Arc<ReplShared>,
    fingerprint: u64,
    session: Option<ServeClient>,
    /// The aggregator's high water for this stream as this replica last
    /// saw it acknowledged; 0 = a full cut is due (initially: the base
    /// state, empty or restored, predates the replication tail).
    acked: u64,
    /// The tuples taken from the node's tail that no acknowledged container
    /// holds yet, in ack order. Empty while a full cut is due (the cut
    /// covers them), and never more bytes than the last full cut.
    unacked: Vec<(u64, u64)>,
    /// The last generation sealed. Every container gets a fresh `g_to`, so
    /// a high water equal to `acked` means the aggregator holds exactly the
    /// acknowledged chain.
    generation: u64,
    /// Size of the last full cut: unacked tuples that outgrow it are
    /// dropped for a full resync, which ships the same state in fewer bytes.
    full_bytes: usize,
    /// Consecutive failed passes, for backoff.
    failures: u32,
}

impl Replicator {
    fn new(core: Arc<ServerCore>, cfg: ReplicateConfig, shared: Arc<ReplShared>) -> Self {
        let fingerprint = core.config().replication_fingerprint();
        Self {
            core,
            cfg,
            shared,
            fingerprint,
            session: None,
            acked: 0,
            unacked: Vec::new(),
            generation: 0,
            full_bytes: 0,
            failures: 0,
        }
    }

    fn run(mut self) {
        while let Some(ticket) = self.wait(self.wait_duration()) {
            let result = self.pass();
            let mut progress = self.shared.progress();
            match result {
                Ok(()) => {
                    self.failures = 0;
                    progress.last_error = None;
                }
                Err(e) => {
                    self.failures = self.failures.saturating_add(1);
                    progress.last_error = Some(e);
                }
            }
            progress.sync_completions = ticket;
            self.shared.cvar.notify_all();
        }
    }

    /// Interval plus exponential backoff after failures (capped at 2 s).
    fn wait_duration(&self) -> Duration {
        let interval = Duration::from_millis(self.cfg.interval_ms.max(1));
        if self.failures == 0 {
            return interval;
        }
        let backoff = Duration::from_millis(20)
            .saturating_mul(1u32 << self.failures.min(7))
            .min(Duration::from_secs(2));
        interval.saturating_add(backoff)
    }

    /// Sleep until the next tick or a sync barrier, and return the newest
    /// sync ticket, which the pass that follows covers; `None` on stop.
    fn wait(&self, wait: Duration) -> Option<u64> {
        let mut progress = self.shared.progress();
        let deadline = Instant::now() + wait;
        loop {
            if progress.stop {
                return None;
            }
            let now = Instant::now();
            if progress.sync_requests > progress.sync_completions || now >= deadline {
                return Some(progress.sync_requests);
            }
            let (guard, _) = self
                .shared
                .cvar
                .wait_timeout(progress, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            progress = guard;
        }
    }

    /// Drop the unacknowledged tuples and make a full cut due.
    fn resync(&mut self) {
        self.acked = 0;
        self.unacked.clear();
    }

    /// One replication pass: take the node's tail, make sure of a session,
    /// handshake, then ship the one due container, if any. Success means
    /// the aggregator holds every tuple taken so far.
    fn pass(&mut self) -> Result<(), String> {
        // A due full cut covers the tail, so it is dropped.
        let tail = self.core.repl_take_tail().map_err(|e| format!("replication tail: {e}"))?;
        if self.acked != 0 {
            self.unacked.extend_from_slice(&tail);
            if self.unacked.len() * TUPLE_BYTES > self.full_bytes {
                self.resync();
            }
        }
        if self.session.is_none() {
            self.session = Some(self.connect()?);
        }
        let session = self.session.as_mut().expect("connected above");
        // Every pass handshakes, idle or not: a high water other than
        // `acked` makes a full cut due.
        match session.repl_hello(&self.cfg.stream, self.fingerprint) {
            Ok(high_water) if high_water == self.acked => {}
            Ok(_) => self.resync(),
            Err(e) => {
                self.session = None;
                return Err(format!("replication handshake: {e}"));
            }
        }
        if self.acked != 0 && self.unacked.is_empty() {
            return Ok(());
        }
        let g_from = self.acked;
        self.generation += 1;
        let header = SectionsHeader { g_from, g_to: self.generation, fingerprint: self.fingerprint };
        let container = if g_from == 0 {
            let [f2, f0, rarity] = self
                .core
                .repl_snapshot()
                .map_err(|e| format!("full replication cut failed: {e}"))?;
            let full = seal_sections(&header, SKETCH_SECTIONS, [&f2, &f0, &rarity]);
            self.full_bytes = full.len();
            full
        } else {
            seal_batches(&header, &self.unacked)
        };
        let session = self.session.as_mut().expect("kept by the handshake");
        match session.repl_delta(&self.cfg.stream, &container) {
            Ok(_high_water) => {
                self.acked = header.g_to;
                self.unacked.clear();
                self.shared.progress().acked_gen = header.g_to;
                Ok(())
            }
            // A `request` refusal means the chain broke; the connection
            // itself is fine, so keep it and resync on the next pass.
            // Anything else kills the session.
            Err(ClientError::Server(server)) if server.kind == "request" => {
                self.resync();
                Err(format!("aggregator rejected the container: {}", server.message))
            }
            Err(e) => {
                self.session = None;
                Err(format!("shipping to {}: {e}", self.cfg.target))
            }
        }
    }

    /// Connect to the aggregator and authenticate.
    fn connect(&self) -> Result<ServeClient, String> {
        let target = &self.cfg.target;
        let mut session = ServeClient::connect_binary_timeout(target, Duration::from_secs(5))
            .map_err(|e| format!("connect to {target}: {e}"))?;
        session
            .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        if let Some(token) = &self.cfg.auth_token {
            session
                .auth(token)
                .map_err(|e| format!("authentication with the aggregator: {e}"))?;
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_names_are_validated() {
        assert!(valid_stream_name("node-a"));
        assert!(valid_stream_name("A_b.c-9"));
        assert!(!valid_stream_name(""));
        assert!(!valid_stream_name("has space"));
        assert!(!valid_stream_name("ünïcode"));
        assert!(!valid_stream_name(&"x".repeat(65)));
        assert!(valid_stream_name(&"x".repeat(64)));
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            epsilon: 0.25,
            delta: 0.1,
            y_max: 4095,
            max_stream_len: 100_000,
            seed: 7,
            shards: 2,
            phi: 0.05,
            x_domain_log2: 16,
            pane_ticks: 256,
            pane_k: 4,
            pane_retention: None,
            max_connections: 64,
            durability: None,
            auth_token: None,
            replicate: None,
        }
    }

    #[test]
    fn hello_registers_and_rejects_mismatched_fingerprints() {
        let core = AggCore::new(test_config()).unwrap();
        let fp = test_config().replication_fingerprint();
        let reply = core.repl_hello("node-a", fp).unwrap();
        assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(0))]));
        // Same stream again: still registered, same high water.
        let reply = core.repl_hello("node-a", fp).unwrap();
        assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(0))]));
        // Wrong fingerprint: refused and counted.
        let reply = core.repl_hello("node-a", fp ^ 1).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        assert_eq!(core.repl_rejected.load(Ordering::Relaxed), 1);
        // Bad names never register.
        let reply = core.repl_hello("no spaces", fp).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
    }

    #[test]
    fn apply_rejects_garbage_unknown_streams_and_broken_chains() {
        let core = AggCore::new(test_config()).unwrap();
        let fp = test_config().replication_fingerprint();
        // Garbage container.
        let reply = core.repl_apply("node-a", b"garbage").unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // Unknown stream with a structurally valid (but empty) container.
        let header = SectionsHeader { g_from: 0, g_to: 1, fingerprint: fp };
        let mut frame = Vec::new();
        cora_core::snapshot::seal_sections_into(&header, &[], &mut frame);
        let reply = core.repl_apply("node-a", &frame).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // Registered stream, but the container is missing its sections.
        core.repl_hello("node-a", fp).unwrap();
        let reply = core.repl_apply("node-a", &frame).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // An incremental container without its batches section.
        let header = SectionsHeader { g_from: 3, g_to: 4, fingerprint: fp };
        let mut frame = Vec::new();
        cora_core::snapshot::seal_sections_into(&header, &[], &mut frame);
        let reply = core.repl_apply("node-a", &frame).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        assert!(core.repl_rejected.load(Ordering::Relaxed) >= 4);
    }

    /// `n` deterministic tuples inside `test_config`'s domains.
    fn tuples(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 97, (i * 31) % 4096)).collect()
    }

    /// A full container holding `n` tuples' worth of sketches built under
    /// `built_with`, sealed with `header`.
    fn full_container(built_with: &ServeConfig, header: &SectionsHeader, n: u64) -> Vec<u8> {
        let mut f2 = cora_core::CorrelatedSketch::new(
            built_with.shard_aggregate(),
            built_with.f2_config().unwrap(),
        )
        .unwrap();
        f2.update_batch(&tuples(n)).unwrap();
        let mut aux = crate::sketches::AuxSet::fresh(built_with).unwrap();
        aux.insert_batch(&tuples(n)).unwrap();
        let [f0, rarity] = aux.frames();
        seal_sections(header, SKETCH_SECTIONS, [&f2.snapshot(), &f0, &rarity])
    }

    /// Every whole-stream answer the aggregator gives, rendered, plus the
    /// stream's chain position — what a rejected container must not move.
    fn observable(core: &AggCore, stream: &str) -> (Vec<String>, u64, u64) {
        let answers = [
            Request::QueryF2 { c: 4095 },
            Request::QueryF0 { c: 2000 },
            Request::QueryRarity { c: 4095 },
            Request::QueryHeavyHitters { c: 4095, phi: 0.05 },
        ]
        .into_iter()
        .map(|request| core.handle(request).0.render_json())
        .collect();
        let state = core.state().unwrap();
        (answers, state.streams[stream].high_water, state.epoch)
    }

    #[test]
    fn a_container_missing_any_section_or_built_under_other_parameters_changes_nothing() {
        let config = test_config();
        let core = AggCore::new(config.clone()).unwrap();
        let fp = config.replication_fingerprint();
        core.repl_hello("node-a", fp).unwrap();
        let base = SectionsHeader { g_from: 0, g_to: 1, fingerprint: fp };
        let reply = core.repl_apply("node-a", &full_container(&config, &base, 3_000));
        assert_eq!(reply.unwrap(), Reply::Ok(vec![("high_water", Value::U64(1))]));
        let before = observable(&core, "node-a");
        let rejected_before = core.repl_rejected.load(Ordering::Relaxed);

        let next = SectionsHeader { g_from: 1, g_to: 2, fingerprint: fp };
        let whole = crate::sketches::seal_batches(&next, &tuples(500));
        let full = full_container(&config, &base, 500);
        let (_, sketches) = open_sections(&full).unwrap();
        let (_, batches) = open_sections(&whole).unwrap();
        assert_eq!((sketches.len(), batches.len()), (3, 1));
        let mut refusals = 0;
        let mut refused = |header: &SectionsHeader, sections: &[(u8, &[u8])], what: &str| {
            let mut frame = Vec::new();
            cora_core::snapshot::seal_sections_into(header, sections, &mut frame);
            let reply = core.repl_apply("node-a", &frame).unwrap();
            assert!(matches!(reply, Reply::Error(_)), "{what}: {reply:?}");
            assert_eq!(observable(&core, "node-a"), before, "{what}");
            refusals += 1;
        };

        // A full container missing any of its three sketch sections.
        for missing in 0..sketches.len() {
            let mut partial = sketches.clone();
            partial.remove(missing);
            refused(&base, &partial, &format!("full without section {missing}"));
        }
        // An incremental container without its batches section, or carrying
        // sketch sections (a delta from a peer on the sketch-delta format).
        refused(&next, &[], "incremental without batches");
        refused(&next, &sketches, "sketch delta");
        // Both kinds of section, as a delta and as a full replacement.
        let both: Vec<(u8, &[u8])> = sketches.iter().chain(&batches).copied().collect();
        refused(&next, &both, "incremental with both kinds");
        refused(&base, &both, "full with both kinds");
        // A batches section whose byte count disagrees with its declared
        // count: one byte short, and one tuple more declared than it holds
        // (the u32 count follows the meta byte).
        let (tag, bytes) = batches[0];
        refused(&next, &[(tag, &bytes[..bytes.len() - 1])], "truncated batches");
        let mut overcount = bytes.to_vec();
        overcount[1] += 1;
        refused(&next, &[(tag, &overcount)], "overcounted batches");
        // A batch with a timestamp lane or a (writer, seq) pair is a journal
        // record or an ingest payload, not a replication tail.
        let mut with_ts = Vec::new();
        crate::wire::encode_ingest_into(&[(1, 2)], &[3], None, &mut with_ts);
        refused(&next, &[(tag, &with_ts)], "batch with timestamps");
        let mut with_seq = Vec::new();
        crate::wire::encode_ingest_into(&[(1, 2)], &[], Some((4, 5)), &mut with_seq);
        refused(&next, &[(tag, &with_seq)], "batch with a sequence pair");
        // A shipped tuple above y_max, after valid ones.
        let high = crate::sketches::seal_batches(&next, &[(1, 2), (3, config.y_max + 1)]);
        let (_, high) = open_sections(&high).unwrap();
        refused(&next, &high, "y above y_max");
        // Sketches built under another phi: F0 and rarity restore cleanly
        // and would replace the stream's. With the aggregator's fingerprint
        // forged onto the container, the F2 section's aggregate fingerprint
        // (its phi-sized candidate trackers) is what refuses it.
        let other = ServeConfig { phi: 0.2, ..config.clone() };
        assert_ne!(other.replication_fingerprint(), fp);
        let other_full = full_container(&other, &base, 500);
        let (_, other_sketches) = open_sections(&other_full).unwrap();
        refused(&base, &other_sketches, "full built under another phi");
        assert_eq!(refusals, 13);
        assert_eq!(core.repl_rejected.load(Ordering::Relaxed), rejected_before + refusals);

        // The chain is intact: the whole delta still applies.
        let reply = core.repl_apply("node-a", &whole).unwrap();
        assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(2))]));
        assert_ne!(observable(&core, "node-a").0, before.0);
    }

    /// A replicating node fed `preload`, cut in full, then fed `rest` in
    /// 500-tuple batches with its tail shipped after every `per_cut`
    /// tuples; every container is applied to stream "a" of an aggregator.
    /// Returns the node, the aggregator and the full container.
    fn replicate(
        config: &ServeConfig,
        preload: &[(u64, u64)],
        rest: &[(u64, u64)],
        per_cut: usize,
    ) -> (ServerCore, AggCore, Vec<u8>) {
        let node = ServerCore::build(config.clone(), None).unwrap();
        let agg = AggCore::new(config.clone()).unwrap();
        let fingerprint = config.replication_fingerprint();
        agg.repl_hello("a", fingerprint).unwrap();
        let header = |g_from| SectionsHeader { g_from, g_to: g_from + 1, fingerprint };
        let ship = |g_to: u64, container: &[u8]| {
            let reply = agg.repl_apply("a", container).unwrap();
            assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(g_to))]));
        };
        let ingest = |tuples: &[(u64, u64)]| {
            for batch in tuples.chunks(500) {
                assert!(matches!(node.ingest_binary(batch, &[], None), Reply::Ok(_)));
            }
        };
        ingest(preload);
        let [f2, f0, rarity] = node.repl_snapshot().unwrap();
        let full = seal_sections(&header(0), SKETCH_SECTIONS, [&f2, &f0, &rarity]);
        ship(1, &full);
        for (g_from, part) in (1..).zip(rest.chunks(per_cut)) {
            ingest(part);
            let tail = node.repl_take_tail().unwrap();
            assert_eq!(tail, part, "the tail is exactly the tuples since the last take");
            ship(g_from + 1, &seal_batches(&header(g_from), &tail));
        }
        assert!(node.repl_take_tail().unwrap().is_empty(), "nothing new: an empty tail");
        (node, agg, full)
    }

    /// The benchmark node's sketch parameters: ε = 0.25, `y_max` 4095.
    fn served_config() -> ServeConfig {
        ServeConfig { max_stream_len: 1_000_000, ..test_config() }
    }

    fn zipf(n: usize, seed: u64) -> Vec<(u64, u64)> {
        use cora_stream::generators::{DatasetGenerator, ZipfGenerator};
        let stream = ZipfGenerator::new(1.1, 65_535, 4_095, seed).generate(n);
        stream.iter().map(|t| (t.x, t.y)).collect()
    }

    /// Whether one sketch over `stream` has evicted buckets, i.e. the stream
    /// is past the regime where merged and direct structures coincide.
    fn past_eviction(config: &ServeConfig, stream: &[(u64, u64)]) -> bool {
        let mut direct =
            cora_core::CorrelatedSketch::new(config.shard_aggregate(), config.f2_config().unwrap())
                .unwrap();
        direct.update_batch(stream).unwrap();
        direct.stats().levels_with_evictions > 0
    }

    #[test]
    fn a_replicated_stream_is_its_full_cut_plus_the_replayed_batches() {
        let config = served_config();
        let stream = zipf(20_000, 5);
        let (preload, rest) = stream.split_at(12_000);
        let (node, agg, full) = replicate(&config, preload, rest, 1_500);
        assert!(rest.chunks(1_500).len() >= 5);
        assert!(past_eviction(&config, &stream), "the stream must evict buckets");

        // The reference: the full cut's structures, then one insert_batch
        // per incremental cut — what the aggregator claims to hold.
        let (_, sections) = open_sections(&full).unwrap();
        let Ok(Shipped::Full(mut reference)) = Shipped::open(&config, true, &sections) else {
            panic!("the full cut must open as a full container");
        };
        for tuples in rest.chunks(1_500) {
            reference.insert_batch(tuples).unwrap();
        }
        node.handle(Request::Flush);
        let state = agg.state().unwrap();
        let replicated = &state.streams["a"].set;
        for c in (0..=4095).step_by(195) {
            for request in [
                Request::QueryF2 { c },
                Request::QueryHeavyHitters { c, phi: 0.05 },
            ] {
                let want = reference.answer(&request, config.y_max);
                assert_eq!(replicated.answer(&request, config.y_max), want, "{request:?}");
            }
            // F0 and rarity are replayed tuple for tuple, so they are the
            // node's own sketches.
            for request in [Request::QueryF0 { c }, Request::QueryRarity { c }] {
                let node_reply = node.handle(request.clone()).0;
                assert_eq!(replicated.answer(&request, config.y_max), node_reply, "{request:?}");
            }
        }
    }

    #[test]
    fn replayed_batches_keep_the_aggregator_within_the_node_s_f2_error() {
        // A replicated_paced-like episode at the served config: a 25k
        // preload in the full cut, then 20 cuts of 1 500 tuples. Merging
        // sketch deltas left the aggregator's worst error at 0.17 here.
        let config = served_config();
        let stream = zipf(55_000, 1);
        let (preload, rest) = stream.split_at(25_000);
        let (_node, agg, _) = replicate(&config, preload, rest, 1_500);
        assert!(rest.chunks(1_500).len() >= 20);
        assert!(past_eviction(&config, preload), "the full cut must already have evicted");
        let mut exact = cora_core::ExactCorrelated::new();
        for &(x, y) in &stream {
            exact.insert(x, y);
        }
        let worst = (0..4096)
            .step_by(64)
            .map(|c| {
                let Reply::Ok(fields) = agg.handle(Request::QueryF2 { c }).0 else {
                    panic!("F2 query at {c} failed");
                };
                let Value::F64(estimate) = fields[0].1 else { panic!("not an estimate") };
                let truth = exact.frequency_moment(2, c);
                (estimate - truth).abs() / truth
            })
            .fold(0.0, f64::max);
        assert!(worst <= 0.10, "aggregator worst F2 relative error {worst}");
    }

    /// The aggregator's `(snapshots_applied, deltas_applied)`.
    fn applied(agg: &AggCore) -> (u64, u64) {
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        (count(&agg.snapshots_applied), count(&agg.deltas_applied))
    }

    /// An aggregator core served on a loopback port, kept in reach so a
    /// test can read its counters and state directly.
    fn serve_agg(config: ServeConfig) -> (Arc<AggCore>, RunningServer) {
        let core = Arc::new(AggCore::new(config).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(Arc::clone(&core), listener, Arc::clone(&shutdown), 4);
        let server = RunningServer {
            addr,
            shutdown,
            acceptor: Some(acceptor.unwrap()),
                replicator: None,
        };
        (core, server)
    }

    /// A replicator shipping `node` to `target` as stream "a", driven pass
    /// by pass instead of on its thread.
    fn replicator(node: &Arc<ServerCore>, target: &str) -> Replicator {
        let cfg = ReplicateConfig::new(target, "a");
        Replicator::new(Arc::clone(node), cfg, Arc::new(ReplShared::default()))
    }

    #[test]
    fn an_outage_takes_no_snapshot_and_ends_in_one_full_cut() {
        let node = Arc::new(ServerCore::build(test_config(), None).unwrap());
        let (agg, server) = serve_agg(test_config());
        let live = server.local_addr().to_string();
        // Nothing listens here: every pass fails to connect, as in an outage.
        let down = "127.0.0.1:1";
        let mut replicator = replicator(&node, down);
        let ingest = || assert!(matches!(node.ingest_binary(&tuples(500), &[], None), Reply::Ok(_)));

        // Down from the start: no container is sealed (so no snapshot
        // taken), and the node keeps no tail for a replica that never cut.
        for _ in 0..5 {
            ingest();
            assert!(replicator.pass().is_err());
            assert_eq!((replicator.generation, replicator.unacked.len()), (0, 0));
        }
        // The link comes up: one full cut, then incrementals.
        replicator.cfg.target = live.clone();
        replicator.pass().unwrap();
        assert_eq!(applied(&agg), (1, 0));
        ingest();
        replicator.pass().unwrap();
        assert_eq!(applied(&agg), (1, 1));

        // The link drops. Tuples pile up in `unacked` until they outgrow
        // the last full cut, then go for a resync; nothing is sealed.
        replicator.session = None;
        replicator.cfg.target = down.to_string();
        let (generation, full_bytes) = (replicator.generation, replicator.full_bytes);
        let mut rounds = 0;
        while replicator.acked != 0 {
            ingest();
            assert!(replicator.pass().is_err());
            assert_eq!(replicator.generation, generation, "round {rounds}: a container sealed");
            assert!(replicator.unacked.len() * TUPLE_BYTES <= full_bytes, "round {rounds}");
            rounds += 1;
            assert!(rounds < 1_000, "{full_bytes} bytes of tuples never outgrew the full cut");
        }
        assert!(rounds > 1, "the unacked tuples were held across passes");
        for _ in 0..3 {
            ingest();
            assert!(replicator.pass().is_err());
            assert_eq!((replicator.generation, replicator.unacked.len()), (generation, 0));
        }
        // The link returns: exactly one full cut, then incrementals again.
        replicator.cfg.target = live;
        replicator.pass().unwrap();
        assert_eq!(applied(&agg), (2, 1));
        ingest();
        replicator.pass().unwrap();
        assert_eq!(applied(&agg), (2, 2));
        server.shutdown();
    }

    #[test]
    fn idle_passes_handshake_and_seal_nothing() {
        let node = Arc::new(ServerCore::build(test_config(), None).unwrap());
        let (agg, server) = serve_agg(test_config());
        let mut replicator = replicator(&node, &server.local_addr().to_string());
        assert!(matches!(node.ingest_binary(&tuples(500), &[], None), Reply::Ok(_)));
        replicator.pass().unwrap();
        assert_eq!(applied(&agg), (1, 0));
        let generation = replicator.generation;
        // With nothing ingested, each pass is one `repl_hello` and no cut.
        for round in 0..5 {
            let requests = agg.requests.load(Ordering::Relaxed);
            replicator.pass().unwrap();
            assert_eq!(replicator.generation, generation, "round {round}: a container sealed");
            assert_eq!(applied(&agg), (1, 0), "round {round}");
            let handshakes = agg.requests.load(Ordering::Relaxed) - requests;
            assert_eq!(handshakes, 1, "round {round}");
        }
        server.shutdown();
    }

    #[test]
    fn an_unauthenticated_repl_delta_frame_moves_nothing() {
        let config = ServeConfig { auth_token: Some("sesame".into()), ..test_config() };
        let fingerprint = config.replication_fingerprint();
        let (core, agg) = serve_agg(config.clone());
        let addr = agg.local_addr();
        let header = |g_from| SectionsHeader { g_from, g_to: g_from + 1, fingerprint };
        let mut authed = ServeClient::connect_binary(addr).unwrap();
        authed.auth("sesame").unwrap();
        authed.repl_hello("a", fingerprint).unwrap();
        let base = full_container(&config, &header(0), 3_000);
        assert_eq!(authed.repl_delta("a", &base).unwrap(), 1);
        let mut seen = || {
            let stats = authed.stats().unwrap();
            (observable(&core, "a"), stats.u64_field("high_water_sum").unwrap())
        };
        let before = seen();

        // The next incremental and a full replacement, each of which an
        // authenticated connection would apply.
        let delta = seal_batches(&header(1), &tuples(500));
        let full = full_container(&config, &header(0), 500);
        let mut stranger = ServeClient::connect_binary(addr).unwrap();
        for container in [&delta, &full] {
            match stranger.repl_delta("a", container) {
                Err(ClientError::Server(e)) => assert_eq!(e.kind, "request", "{e}"),
                other => panic!("expected the auth gate's refusal, got {other:?}"),
            }
            assert_eq!(seen(), before);
        }
        assert_eq!(authed.repl_delta("a", &delta).unwrap(), 2);
        agg.shutdown();
    }

    #[test]
    fn set_f0_requires_known_streams() {
        let core = AggCore::new(test_config()).unwrap();
        let reply = core.set_f0("a", "b", SetOp::Union, 100).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
    }

    #[test]
    fn a_poisoned_aggregator_refuses_state_ops_but_stays_reachable() {
        let core = Arc::new(AggCore::new(test_config()).unwrap());
        let fp = test_config().replication_fingerprint();
        core.repl_hello("node-a", fp).unwrap();
        let panicking = Arc::clone(&core);
        let _ = thread::spawn(move || {
            let _state = panicking.state().unwrap();
            panic!("poison the aggregator state (expected in this test)");
        })
        .join();
        for request in [
            Request::QueryF0 { c: 10 },
            Request::Stats,
            Request::Streams,
            Request::ReplHello { stream: "node-b".into(), fingerprint: fp },
        ] {
            let (reply, stop) = core.handle(request);
            let rendered = reply.render_json();
            assert!(rendered.contains("\"kind\":\"server\""), "{rendered}");
            assert!(rendered.contains("poisoned"), "{rendered}");
            assert!(!stop);
        }
        for request in [Request::Ping, Request::Config, Request::Flush] {
            assert!(matches!(core.handle(request).0, Reply::Ok(_)));
        }
        assert!(core.handle(Request::Shutdown).1);
    }
}
