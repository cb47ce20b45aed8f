//! Distributed fan-in: the replication link and the aggregator node.
//!
//! ## Topology
//!
//! ```text
//!   ingest node A ──┐  REPL_HELLO / REPL_DELTA / REPL_SNAPSHOT
//!   (ServeConfig::  ├─────────────► aggregator (start_aggregator)
//!    replicate)     │                 stream "A": F2/HH + F0 + rarity
//!   ingest node B ──┘                 stream "B": F2/HH + F0 + rarity
//!                                     union composite (lazy, epoch-cached)
//!        queries (f2/f0/rarity/hh) ───► answered over the union
//!        set_f0 a=A b=B op=union|intersect|diff ───► inclusion–exclusion
//! ```
//!
//! The whole design rests on **Property V (mergeability)**: sketches built
//! from the same seed and geometry merge into a valid sketch of the union
//! stream, carrying the same `(ε, δ)` guarantee. An ingest node therefore
//! replicates by tracking a same-seeded *delta* of its sketch set — per-shard
//! deltas of the `F_2` structure, whose buckets carry the heavy-hitter
//! candidates, and a second copy of `F_0` and rarity fed every tuple — and
//! periodically shipping that delta
//! ([`crate::server::ServeConfig::replicate`]); the aggregator decodes each
//! container into the same sketch-set type (`crate::sketches`), merges it
//! into its per-stream state and answers queries with the accuracy of a
//! server that streamed the tuples directly. A container is restored and
//! checked against the aggregator's own parameters in full *before* the
//! stream it targets is touched, so a missing section or sketches built
//! under other parameters reject it atomically. (Below the framework's
//! bucket-eviction threshold the merged state is even *bit-identical* to
//! direct ingestion — the regime the integration tests pin down exactly;
//! past it, merged and direct answers are `ε`-equivalent estimates.) Merged
//! buckets spill from exact to sketched storage at the size inserted ones
//! do, so a stream's state on the aggregator — however many deltas it has
//! absorbed — is bounded by its buckets × one sketch, as the upstream's is,
//! not by the history of every container it applied.
//!
//! ## Chain discipline
//!
//! Every shipped container carries `(g_from, g_to]` generation bounds and a
//! configuration fingerprint. The aggregator accepts a delta only when
//! `g_from` equals its high-water generation for that stream; anything else
//! is answered with a `request` error and the replica falls back to a
//! **full resync** (`g_from = 0`, a replacement snapshot). A replica whose
//! unacked backlog exceeds
//! [`crate::server::ReplicateConfig::max_pending`] collapses the backlog
//! into one full resync instead of queueing unboundedly.
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
    recover, ReplCut, ReplicateConfig, RunningServer, ServeConfig, ServeError, ServerCore,
    StatePoisoned,
};
use crate::sketches::SketchSet;
use crate::transport::{spawn_acceptor, ServiceCore};
use cora_core::snapshot::open_delta;
use cora_core::CoreError;
use std::collections::{BTreeMap, VecDeque};
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

/// The cross-stream union composite, rebuilt lazily: `epoch` names the
/// aggregator state it was built from, so queries between replication
/// events reuse it without any merging.
struct UnionCache {
    epoch: u64,
    set: SketchSet,
}

/// Registered streams plus the union cache, under one lock (replication
/// applies and queries serialize — the aggregator's work per event is a
/// merge or a cached read, not per-tuple processing).
struct AggState {
    streams: BTreeMap<String, StreamState>,
    /// Bumped on every applied container; invalidates `union`.
    epoch: u64,
    union: Option<UnionCache>,
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
        let AggState { streams, epoch, union } = &mut *state;
        if union.as_ref().map(|u| u.epoch) != Some(*epoch) {
            let merged = SketchSet::fresh(&self.config).and_then(|mut set| {
                streams
                    .values()
                    .try_for_each(|stream| set.merge_from(&stream.set))
                    .map(|()| set)
            });
            match merged {
                Ok(set) => *union = Some(UnionCache { epoch: *epoch, set }),
                Err(e) => return Ok(Reply::sketch_error(e.to_string())),
            }
        }
        let union = union.as_ref().expect("just built");
        Ok(union.set.answer(request, self.config.y_max))
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

    /// Apply one sealed container to `stream`. `snapshot_op` marks frames
    /// that arrived via `repl_snapshot`, which must be full replacements.
    fn repl_apply(
        &self,
        stream: &str,
        frame: &[u8],
        snapshot_op: bool,
    ) -> Result<Reply, StatePoisoned> {
        let reject = |message: String| {
            self.repl_rejected.fetch_add(1, Ordering::Relaxed);
            Ok(Reply::request_error(message))
        };
        let (header, sections) = match open_delta(frame) {
            Ok(opened) => opened,
            Err(e) => return reject(format!("unreadable replication container: {e}")),
        };
        if header.fingerprint != self.fingerprint {
            return reject(format!(
                "configuration fingerprint mismatch (container {:#018x}, aggregator {:#018x})",
                header.fingerprint, self.fingerprint
            ));
        }
        if snapshot_op && header.g_from != 0 {
            return reject(format!(
                "repl_snapshot requires a full container (g_from = 0), got g_from = {}",
                header.g_from
            ));
        }
        // Restore every structure before touching the stream state, so a
        // corrupt section rejects the container atomically.
        let shipped = match SketchSet::from_sections(&self.config, &sections) {
            Ok(shipped) => shipped,
            Err(detail) => return reject(detail),
        };
        let mut state = self.state()?;
        let Some(stream_state) = state.streams.get_mut(stream) else {
            return reject(format!("unknown stream {stream:?}: send repl_hello first"));
        };
        if header.g_from == 0 {
            // Full replacement: the container *is* the stream's state.
            stream_state.set = shipped;
            self.snapshots_applied.fetch_add(1, Ordering::Relaxed);
        } else {
            if header.g_from != stream_state.high_water {
                return reject(format!(
                    "delta chains from generation {} but stream {stream:?} stands at {} — \
                     resync with a full snapshot",
                    header.g_from, stream_state.high_water
                ));
            }
            if let Err(e) = stream_state.set.merge_from(&shipped) {
                // A half-applied merge would corrupt the stream; force the
                // replica to replace it wholesale.
                stream_state.high_water = 0;
                state.epoch += 1;
                state.union = None;
                return Ok(Reply::sketch_error(format!(
                    "delta merge failed ({e}); stream {stream:?} reset, resync required"
                )));
            }
            self.deltas_applied.fetch_add(1, Ordering::Relaxed);
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
        let storage = crate::journal::disk_storage();
        let recovered = recover(&storage, dir)?;
        // The fingerprint covers every mergeable parameter; a bundle from a
        // differently-configured node must not masquerade as this stream.
        let mut seeded = match &recovered.bundle {
            Some(bundle) => SketchSet::from_bundle(&self.config, bundle)?,
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
            Request::ReplHello { stream, fingerprint, g_to: _ } => {
                self.repl_hello(&stream, fingerprint)?
            }
            Request::ReplDelta { stream, frame } => self.repl_apply(&stream, &frame, false)?,
            Request::ReplSnapshot { stream, frame } => self.repl_apply(&stream, &frame, true)?,
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
        snapshotter: None,
        replicator: None,
    })
}

/// Progress shared between an ingest node's replication thread and its
/// observers ([`RunningServer::replication_sync`], shutdown).
#[derive(Default)]
struct ReplProgress {
    /// Highest generation the aggregator has acknowledged.
    acked_gen: u64,
    /// Containers acknowledged (deltas and snapshots).
    shipped: u64,
    /// Full resyncs performed (chain breaks, reconnects, overflow).
    full_resyncs: u64,
    /// Barrier tickets: a sync request bumps `sync_requests`; the loop
    /// publishes `sync_completions` after a pass that covers the ticket.
    sync_requests: u64,
    sync_completions: u64,
    /// The failure that ended the most recent pass, cleared on success.
    last_error: Option<String>,
    stop: bool,
}

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

/// What woke the replication loop.
enum Wake {
    /// The shipping interval elapsed.
    Tick,
    /// A [`ReplicatorHandle::sync`] barrier wants a pass; carries its
    /// ticket.
    Sync(u64),
    Stop,
}

/// Spawn the per-upstream replication thread: every `interval_ms` (or on a
/// sync barrier) it cuts the accumulated delta and ships it, falling back
/// to a full resync whenever the chain breaks (see the module docs).
pub(crate) fn spawn_replicator(
    core: Arc<ServerCore>,
    cfg: ReplicateConfig,
    shutdown: Arc<AtomicBool>,
) -> ReplicatorHandle {
    let shared = Arc::new(ReplShared {
        progress: Mutex::new(ReplProgress::default()),
        cvar: Condvar::new(),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("cora-serve-repl".into())
            .spawn(move || Replicator::new(core, cfg, shutdown, shared).run())
            .ok()
    };
    ReplicatorHandle { shared, thread }
}

/// The replica-side state machine living on the replication thread.
struct Replicator {
    core: Arc<ServerCore>,
    cfg: ReplicateConfig,
    shutdown: Arc<AtomicBool>,
    shared: Arc<ReplShared>,
    fingerprint: u64,
    session: Option<ServeClient>,
    /// Cut-but-unacknowledged containers, oldest first. Bounded by
    /// `cfg.max_pending`: overflow collapses into one full resync.
    pending: VecDeque<ReplCut>,
    /// The next pass must ship a full replacement (initially true: the
    /// base state — empty or restored — predates delta tracking).
    need_full: bool,
    /// Consecutive failed passes, for backoff.
    failures: u32,
}

impl Replicator {
    fn new(
        core: Arc<ServerCore>,
        cfg: ReplicateConfig,
        shutdown: Arc<AtomicBool>,
        shared: Arc<ReplShared>,
    ) -> Self {
        let fingerprint = core.config().replication_fingerprint();
        Self {
            core,
            cfg,
            shutdown,
            shared,
            fingerprint,
            session: None,
            pending: VecDeque::new(),
            need_full: true,
            failures: 0,
        }
    }

    fn run(mut self) {
        loop {
            let wait = self.wait_duration();
            let wake = self.wait(wait);
            if matches!(wake, Wake::Stop) || self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let ticket = match wake {
                Wake::Sync(ticket) => Some(ticket),
                _ => None,
            };
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
            if let Some(ticket) = ticket {
                progress.sync_completions = progress.sync_completions.max(ticket);
            }
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

    /// Sleep until the next tick, a sync barrier, or stop.
    fn wait(&self, wait: Duration) -> Wake {
        let mut progress = self.shared.progress();
        let deadline = Instant::now() + wait;
        loop {
            if progress.stop {
                return Wake::Stop;
            }
            if progress.sync_requests > progress.sync_completions {
                return Wake::Sync(progress.sync_requests);
            }
            let now = Instant::now();
            if now >= deadline {
                return Wake::Tick;
            }
            let (guard, _) = self
                .shared
                .cvar
                .wait_timeout(progress, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            progress = guard;
        }
    }

    /// One replication pass: cut, then ship everything pending. Success
    /// means the aggregator acknowledged every cut taken so far.
    fn pass(&mut self) -> Result<(), String> {
        // A second attempt covers exactly one in-session chain rejection
        // (the aggregator restarted between passes): the retry ships the
        // full resync the rejection asked for.
        let mut chain_detail = String::new();
        for _ in 0..2 {
            self.cut()?;
            if self.pending.is_empty() {
                return Ok(());
            }
            match self.ship() {
                Ok(()) => return Ok(()),
                Err(ShipError::Chain(detail)) => chain_detail = detail,
                Err(ShipError::Conn(e)) => return Err(e),
            }
        }
        Err(format!(
            "replication chain rejected twice in one pass: {chain_detail}"
        ))
    }

    /// Take the due cut (incremental, or full when `need_full`), enforcing
    /// the backlog bound.
    fn cut(&mut self) -> Result<(), String> {
        if self.pending.len() >= self.cfg.max_pending.max(1) {
            self.need_full = true;
        }
        if self.need_full {
            // One full replacement subsumes every queued container.
            self.pending.clear();
            let cut = self
                .core
                .repl_cut(true)
                .map_err(|e| format!("full replication cut failed: {e}"))?
                .expect("a full cut is never skipped as idle");
            self.pending.push_back(cut);
            self.need_full = false;
            let mut progress = self.shared.progress();
            progress.full_resyncs += 1;
        } else if let Some(cut) = self
            .core
            .repl_cut(false)
            .map_err(|e| format!("replication cut failed: {e}"))?
        {
            self.pending.push_back(cut);
        }
        Ok(())
    }

    /// Ship every pending container over the (re)established session.
    fn ship(&mut self) -> Result<(), ShipError> {
        let mut session = match self.session.take() {
            Some(session) => session,
            None => self.establish()?,
        };
        while let Some(front) = self.pending.front() {
            let result = if front.g_from == 0 {
                session.repl_snapshot(&self.cfg.stream, front.frame.clone())
            } else {
                session.repl_delta(&self.cfg.stream, front.frame.clone())
            };
            match result {
                Ok(_high_water) => {
                    let acked = self.pending.pop_front().expect("front exists");
                    let mut progress = self.shared.progress();
                    progress.acked_gen = acked.g_to;
                    progress.shipped += 1;
                }
                // A `request` rejection means the chain broke (the
                // aggregator restarted or another replica reset the
                // stream); the connection itself is fine, so keep it and
                // resync in-session. Anything else kills the session.
                Err(ClientError::Server(ref server)) if server.kind == "request" => {
                    self.need_full = true;
                    let detail = format!("aggregator rejected the container: {}", server.message);
                    self.session = Some(session);
                    return Err(ShipError::Chain(detail));
                }
                Err(e) => {
                    return Err(ShipError::Conn(format!(
                        "shipping to {}: {e}",
                        self.cfg.target
                    )))
                }
            }
        }
        self.session = Some(session);
        Ok(())
    }

    /// Connect, authenticate, and handshake. On a chain mismatch (the
    /// aggregator's high water is not where our pending queue resumes) the
    /// next cut is forced full.
    fn establish(&mut self) -> Result<ServeClient, ShipError> {
        let conn_err = |e: String| ShipError::Conn(e);
        let mut session = ServeClient::connect_binary_timeout(
            &self.cfg.target,
            Duration::from_secs(5),
        )
        .map_err(|e| conn_err(format!("connect to {}: {e}", self.cfg.target)))?;
        session
            .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
            .map_err(|e| conn_err(format!("socket timeouts: {e}")))?;
        if let Some(token) = &self.cfg.auth_token {
            session
                .auth(token)
                .map_err(|e| conn_err(format!("authentication with the aggregator: {e}")))?;
        }
        let chain_gen = self.pending.back().map_or(0, |cut| cut.g_to);
        let high_water = session
            .repl_hello(&self.cfg.stream, self.fingerprint, chain_gen)
            .map_err(|e| conn_err(format!("replication handshake: {e}")))?;
        let resumes = match self.pending.front() {
            // A full container applies anywhere; a delta must chain.
            Some(front) => front.g_from == 0 || front.g_from == high_water,
            // Idle queue: only valid if the aggregator already holds our
            // whole chain (a fresh aggregator reports 0 and needs the base).
            None => high_water == chain_gen && high_water != 0,
        };
        if !resumes {
            self.need_full = true;
            self.session = Some(session);
            return Err(ShipError::Chain(format!(
                "aggregator stands at generation {high_water}, local chain at {chain_gen}"
            )));
        }
        Ok(session)
    }

}

/// Why a shipping attempt stopped.
enum ShipError {
    /// The aggregator rejected the chain; retry with a full resync over
    /// the same session.
    Chain(String),
    /// The session is unusable; reconnect with backoff.
    Conn(String),
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
            merge_every: 1,
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
        let reply = core.repl_apply("node-a", b"garbage", false).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // Unknown stream with a structurally valid (but empty) container.
        let header = cora_core::DeltaHeader { g_from: 0, g_to: 1, fingerprint: fp };
        let mut frame = Vec::new();
        cora_core::snapshot::seal_delta_into(&header, &[], &mut frame);
        let reply = core.repl_apply("node-a", &frame, true).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // Registered stream, but the container is missing its sections.
        core.repl_hello("node-a", fp).unwrap();
        let reply = core.repl_apply("node-a", &frame, true).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // A snapshot op must carry g_from = 0.
        let header = cora_core::DeltaHeader { g_from: 3, g_to: 4, fingerprint: fp };
        let mut frame = Vec::new();
        cora_core::snapshot::seal_delta_into(&header, &[], &mut frame);
        let reply = core.repl_apply("node-a", &frame, true).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        assert!(core.repl_rejected.load(Ordering::Relaxed) >= 4);
    }

    /// A container holding `n` tuples' worth of sketches built under
    /// `built_with`, sealed with `header`.
    fn container(built_with: &ServeConfig, header: &cora_core::DeltaHeader, n: u64) -> Vec<u8> {
        let tuples: Vec<(u64, u64)> = (0..n).map(|i| (i % 97, (i * 31) % 4096)).collect();
        let mut f2 = cora_core::CorrelatedSketch::new(
            built_with.shard_aggregate(),
            built_with.f2_config().unwrap(),
        )
        .unwrap();
        f2.update_batch(&tuples).unwrap();
        let mut aux = crate::sketches::AuxSet::fresh(built_with).unwrap();
        aux.insert_batch(&tuples).unwrap();
        crate::sketches::seal_container(header, &f2.snapshot(), &aux.frames())
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
        let base = cora_core::DeltaHeader { g_from: 0, g_to: 1, fingerprint: fp };
        let reply = core.repl_apply("node-a", &container(&config, &base, 3_000), true).unwrap();
        assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(1))]));
        let before = observable(&core, "node-a");
        let rejected_before = core.repl_rejected.load(Ordering::Relaxed);

        // Drop each of the three sections in turn from an otherwise valid
        // delta: refused, and no family of the stream has merged anything.
        let next = cora_core::DeltaHeader { g_from: 1, g_to: 2, fingerprint: fp };
        let whole = container(&config, &next, 500);
        let (_, sections) = open_delta(&whole).unwrap();
        assert_eq!(sections.len(), 3);
        for missing in 0..sections.len() {
            let mut partial = sections.clone();
            partial.remove(missing);
            // Both as a chained delta and as a full replacement.
            for (header, snapshot_op) in [(&next, false), (&base, true)] {
                let mut frame = Vec::new();
                cora_core::snapshot::seal_delta_into(header, &partial, &mut frame);
                let reply = core.repl_apply("node-a", &frame, snapshot_op).unwrap();
                assert!(matches!(reply, Reply::Error(_)), "section {missing}: {reply:?}");
                assert_eq!(observable(&core, "node-a"), before, "section {missing}");
            }
        }

        // Sketches built under another phi: F0 and rarity restore cleanly
        // and would merge. With the aggregator's fingerprint forged onto the
        // container, the F2 section's aggregate fingerprint (its phi-sized
        // candidate trackers) is what keeps the stream from being merged
        // half-way.
        let other = ServeConfig { phi: 0.2, ..config.clone() };
        assert_ne!(other.replication_fingerprint(), fp);
        let reply = core.repl_apply("node-a", &container(&other, &next, 500), false).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        assert_eq!(observable(&core, "node-a"), before);
        let reply = core.repl_apply("node-a", &container(&other, &base, 500), true).unwrap();
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        assert_eq!(observable(&core, "node-a"), before);
        assert_eq!(core.repl_rejected.load(Ordering::Relaxed), rejected_before + 8);

        // The chain is intact: the whole delta still applies.
        let reply = core.repl_apply("node-a", &whole, false).unwrap();
        assert_eq!(reply, Reply::Ok(vec![("high_water", Value::U64(2))]));
        assert_ne!(observable(&core, "node-a").0, before.0);
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
            Request::ReplHello { stream: "node-b".into(), fingerprint: fp, g_to: 0 },
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
