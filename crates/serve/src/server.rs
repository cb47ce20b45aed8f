//! The ingest node: one sharded correlated-`F_2` ingest that also answers
//! heavy hitters (queried through the [background merger](crate::merger)),
//! synchronously-updated `F_0`/rarity sketches and two windowed pane rings,
//! with snapshot persistence, a write-ahead journal, and an optional
//! replication feed. Connections reach it through the transport stack it
//! shares with the aggregator (`crate::transport`).
//!
//! ## Architecture
//!
//! ```text
//!      transport workers (JSON lines or binary frames)
//!        │ ingest / flush / f0 / rarity /           │ f2 / hh queries (no lock;
//!        │ stats / snapshot / repl cut              │ a stale one asks for a build)
//!        ▼                                          ▼
//!   Mutex<NodeState> ── the one state lock     BackgroundMerger ── builds only
//!     ShardedIngest<F2+HH> ─ N queues ──→ N shards ◄── ShardReader for a reader
//!     AuxSet {F0, rarity}                                 or a flush; epoch-
//!     replication tail: tuples acked since the last cut   published composite
//!     WindowFeed: tick clock ─ bounded FIFO ─► window worker
//!     (writer, seq) high-water marks           Mutex<Rings> ── the rings lock
//!     journal + rotation state                   WindowedF2, WindowedF0
//!                                                  ▲ window_* queries
//! ```
//!
//! Everything a batch mutates lives in one `NodeState` behind one mutex,
//! reached through one accessor. Ingest holds it for the whole batch —
//! dedupe, journal append, every structure's insert — so the batch is
//! visible everywhere or nowhere, and a snapshot, a rotation or a replication
//! cut (which take the same lock) can never see the structures at different
//! stream prefixes. A panic under the lock poisons it, and a poisoned lock is
//! never entered: every op that needs the state then answers a `server`
//! error until a restart recovers the acked batches from the journal.
//!
//! The two pane rings are the exception to "every structure's insert": the
//! ack path stamps each batch with the tick clock and queues it, still under
//! the state lock and so in journal order, for one window worker
//! (`crate::windows`) that owns the rings behind their own mutex. An ack no
//! longer waits for the rings' observes and buddy merges. **Lock order:** the
//! state lock before the rings lock; the worker never takes the state lock.
//! A dead worker or a poisoned rings lock answers the same `server` error as
//! a poisoned state lock.
//!
//! The shard workers run `CorrelatedSketch<F2HeavyAggregate>`, whose buckets
//! answer `F_2` and carry the §3.3 candidates. `f2` and `heavy_hitters` both
//! read the merger's published composite without the state lock. The merger
//! builds only for them and for `flush` (`crate::merger`): an answer covers
//! every applied batch or was built within the staleness floor, and a read
//! waits for at most one build, only after a floor's worth of unread
//! ingest; a dead merger fails that wait and `flush` with the same `server`
//! error as a poisoned lock. `F_0` and rarity (`crate::sketches`) answer
//! under the lock with read-your-writes semantics. `flush` is the barrier for everything an ack covers: it makes
//! `f2` and `heavy_hitters` exact and waits until the window worker has
//! applied every queued batch.
//!
//! ## Windowed structures
//!
//! Alongside the whole-stream sketches the server hosts two pane rings
//! (`cora_stream::windowed`): a windowed correlated `F_2` and a windowed
//! correlated `F_0`, fed every ingested tuple by the window worker. Tuples
//! carry either client-supplied timestamps (the optional `ts` ingest array)
//! or consecutive server-side arrival ticks; `window_f2` / `window_f0`
//! answer sliding-window thresholds over them and report the pane-aligned
//! resolved span alongside the value. Window ops keep read-your-writes: they
//! (and a bundle) first wait until the worker has applied every batch acked
//! before them. `stats` does not wait; it reads the rings as of the last
//! applied batch and reports the queue as `window_pending_batches`, and the
//! composite as published, with `staleness_batches` and `composite_age_ms`.
//!
//! ## Snapshot bundle
//!
//! The `snapshot` op writes one file: a `CSRV` container holding the six
//! `cora_core::snapshot` frames (framework composite, F0, rarity, the two
//! windowed pane rings, and the per-writer ingest sequence map), each
//! individually checksummed. [`start_restored`] boots a server
//! from such a file; restored structures answer queries bit-identically
//! (pinned by the integration tests and the CI serve-smoke step).
//!
//! ## Durability
//!
//! With [`ServeConfig::durability`] set, the server journals every accepted
//! ingest batch to a write-ahead log *before* applying it (`crate::journal`),
//! fsyncing by default, so the ack a client receives is a durability
//! receipt. A background thread rotates generations — publish snapshot
//! `snap-<g>.csrv` atomically, open journal `journal-<g>.cjl` for the
//! batches after it — on tuple-count and/or wall-clock triggers; the
//! `snapshot` op with an empty `path` forces a rotation. On start the server
//! recovers: newest readable snapshot (falling back past torn or corrupt
//! ones to the previous generation), then valid-prefix replay of every
//! journal at or after it. Acked batches survive `SIGKILL`; unsynced ones
//! are bounded by the journal's fsync policy. All storage goes through the
//! injectable [`Storage`] trait so the fault-injection suite
//! (`crate::faults`) can prove the recovery paths deterministically.

use crate::journal::{
    journal_path, list_generations, scan_journal, snapshot_path, JournalRecord, JournalWriter,
    Storage,
};
use crate::merger::BackgroundMerger;
use crate::protocol::{Reply, Request, Value};
use crate::sketches::{f0_matches, f2_answer, seal_batches, seal_full, AuxSet};
use crate::transport::{spawn_acceptor, ServiceCore};
use crate::windows::{Rings, WindowFeed, WindowRings};
use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::snapshot::{open_frame, seal_frame_into, DeltaHeader};
use cora_core::{CoreError, CorrelatedConfig, F2Aggregate, SnapshotKind};
use cora_sketch::codec::{ByteReader, ByteWriter};
use cora_stream::windowed::{
    windowed_f0, windowed_f2, PaneConfig, PaneRing, WindowPane, WindowedF0, WindowedF2,
};
use cora_stream::ShardedIngest;
use std::collections::HashMap;
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Errors starting or restoring a server.
#[derive(Debug)]
pub enum ServeError {
    /// A sketch could not be built or restored.
    Core(CoreError),
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// The configuration or snapshot bundle is unusable.
    Invalid(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "sketch error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Invalid(detail) => write!(f, "invalid serve setup: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Construction parameters for a serving instance. Every sketch the server
/// hosts is derived from these (and only these), so a config plus a snapshot
/// bundle fully determines a server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Target relative error for every hosted sketch.
    pub epsilon: f64,
    /// Target failure probability.
    pub delta: f64,
    /// Largest y value accepted by `ingest`.
    pub y_max: u64,
    /// Upper bound on the stream length (sizes the `F_2` level count).
    pub max_stream_len: u64,
    /// Master seed shared by every hosted sketch.
    pub seed: u64,
    /// Ingest worker shards for the `F_2` / heavy-hitters structure.
    pub shards: usize,
    /// Smallest heavy-hitter share threshold the server must support.
    pub phi: f64,
    /// `log2` of the identifier domain (sizes the F0/rarity samplers).
    pub x_domain_log2: u32,
    /// Base pane width (ticks) of the windowed structures.
    pub pane_ticks: u64,
    /// Per-class pane budget of the windowed structures (≥ 2).
    pub pane_k: usize,
    /// Retention horizon of the windowed structures in ticks
    /// (`None` = landmark mode, keep coarsening history forever).
    pub pane_retention: Option<u64>,
    /// Simultaneous client connections — each one a thread — accepted
    /// before new ones are turned away with an error (resource hardening;
    /// see the accept loop).
    pub max_connections: usize,
    /// Crash-safe durability: journal every ingest batch and keep rotating
    /// snapshots in the configured directory (`None` = in-memory only, the
    /// historical behavior).
    pub durability: Option<DurabilityConfig>,
    /// Shared-secret authentication: when set, every connection (both wire
    /// protocols) must present this token via the `auth` op before any
    /// other request is served; unauthenticated requests get a structured
    /// `request` error and the connection stays open for a retry.
    pub auth_token: Option<String>,
    /// Continuous replication to a downstream aggregator node
    /// (`None` = standalone, the historical behavior).
    pub replicate: Option<ReplicateConfig>,
}

/// Replication parameters: where the downstream aggregator lives, what this
/// node's stream is called there, and how the delta shipping is paced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateConfig {
    /// Aggregator address (`host:port`); the replication link speaks the
    /// binary protocol.
    pub target: String,
    /// Stream name this node registers under on the aggregator
    /// (`[A-Za-z0-9_.-]`, at most 64 bytes).
    pub stream: String,
    /// Milliseconds between delta cuts while new tuples keep arriving
    /// (idle periods cut nothing — the generation counter only advances
    /// when a delta actually ships).
    pub interval_ms: u64,
    /// Auth token presented to the aggregator, when it requires one.
    pub auth_token: Option<String>,
    /// Unacknowledged delta cuts buffered while the link is down before
    /// the replicator gives up on the chain and falls back to a full
    /// snapshot resync (bounds replica-side memory, as does a backlog of
    /// more bytes than a full cut).
    pub max_pending: usize,
}

impl ReplicateConfig {
    /// Replicate to `target` as `stream` with the default pacing: cut every
    /// 200 ms, buffer up to 32 unacked cuts, no auth.
    pub fn new(target: impl Into<String>, stream: impl Into<String>) -> Self {
        Self {
            target: target.into(),
            stream: stream.into(),
            interval_ms: 200,
            auth_token: None,
            max_pending: 32,
        }
    }
}

/// Durability parameters: where the journal and snapshots live and when the
/// background thread rotates generations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding `snap-<g>.csrv` / `journal-<g>.cjl` generation
    /// files (created if missing).
    pub dir: PathBuf,
    /// Rotate once this many tuples have been journaled since the last
    /// snapshot (0 disables the tuple trigger).
    pub snapshot_every_tuples: u64,
    /// Rotate once this many milliseconds have passed since the last
    /// snapshot (0 disables the time trigger).
    pub snapshot_interval_ms: u64,
    /// Fsync the journal after every batch append. `true` (the default)
    /// makes every ack a durability receipt; `false` trades bounded loss
    /// (up to one OS write-back window) for throughput.
    pub fsync_each_batch: bool,
}

impl DurabilityConfig {
    /// Durability in `dir` with the default policy: fsync every batch,
    /// rotate every 200 000 tuples, no time trigger.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every_tuples: 200_000,
            snapshot_interval_ms: 0,
            fsync_each_batch: true,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.2,
            delta: 0.1,
            y_max: (1 << 20) - 1,
            max_stream_len: 10_000_000,
            seed: 0xC04A_5EED,
            shards: 4,
            phi: 0.05,
            x_domain_log2: 24,
            pane_ticks: 1_024,
            pane_k: 4,
            pane_retention: None,
            max_connections: 1_024,
            durability: None,
            auth_token: None,
            replicate: None,
        }
    }
}

/// What an incremental replication container carries: 2 = the acked tuples
/// (the unnumbered format before it shipped sketch deltas).
const REPLICATION_FORMAT: u64 = 2;

impl ServeConfig {
    /// Fingerprint of every parameter that must agree across replication
    /// peers — sketches built from the same seed and geometry restore, merge
    /// and replay into the same structures — and of the replication format,
    /// so peers shipping different container kinds are refused at the
    /// handshake. Per-node settings (shards, pane geometry, connection
    /// limits, durability, auth, the replication link) are deliberately
    /// excluded — they may differ per node.
    pub fn replication_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_u64(REPLICATION_FORMAT);
        w.put_u64(self.epsilon.to_bits());
        w.put_u64(self.delta.to_bits());
        w.put_u64(self.y_max);
        w.put_u64(self.max_stream_len);
        w.put_u64(self.seed);
        w.put_u64(self.phi.to_bits());
        w.put_u64(u64::from(self.x_domain_log2));
        cora_sketch::codec::fnv1a64(w.as_bytes())
    }

    /// The derived correlated-`F_2` aggregate of the windowed pane ring.
    pub(crate) fn f2_aggregate(&self) -> F2Aggregate {
        F2Aggregate::new(self.epsilon, self.delta, self.seed)
    }

    /// The derived aggregate of the sharded structure: correlated `F_2` that
    /// also tracks heavy-hitter candidates (`cora_core::heavy_hitters`).
    pub(crate) fn shard_aggregate(&self) -> F2HeavyAggregate {
        F2HeavyAggregate::new(self.epsilon, self.phi, self.seed)
    }

    /// The derived framework configuration of the sharded (and replicated)
    /// correlated-`F_2` structure.
    pub(crate) fn f2_config(&self) -> Result<CorrelatedConfig, CoreError> {
        use cora_core::CorrelatedAggregate;
        let agg = self.f2_aggregate();
        Ok(CorrelatedConfig::new(
            self.epsilon,
            self.delta,
            self.y_max,
            agg.f_max_log2(self.max_stream_len),
        )?
        .with_seed(self.seed))
    }

    /// The derived pane geometry for the windowed structures.
    fn pane_config(&self) -> PaneConfig {
        PaneConfig {
            pane_ticks: self.pane_ticks,
            k: self.pane_k,
            retention: self.pane_retention,
        }
    }
}

/// The live durability machinery: the open journal plus rotation state.
struct DurableState {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    fsync: bool,
    journal: JournalWriter,
    /// Generation of the newest successfully published snapshot — the
    /// retention floor (everything older than the *previous* good snapshot
    /// is deleted after a rotation, keeping one fallback generation).
    last_good: u64,
    /// Tuples journaled since the last snapshot (the rotation trigger).
    tuples_since: u64,
    /// When the last snapshot was published (the time trigger).
    last_snapshot: Instant,
}

/// Everything a batch mutates, behind the core's one state lock (see the
/// module docs); the journal receives batches in exactly apply order.
struct NodeState {
    sharded: ShardedIngest<F2HeavyAggregate>,
    /// `F_0` and rarity, updated inline on every ingest.
    aux: AuxSet,
    /// The tuples acked since the last replication cut, in ack order;
    /// `None` until the first cut, which is always full and so covers every
    /// earlier tuple. [`ServerCore::repl_cut`] takes them, so each
    /// incremental cut ships exactly the tuples between two cuts, and the
    /// aggregator replays them the way recovery replays the journal.
    repl_tail: Option<Vec<(u64, u64)>>,
    /// Replication cuts taken so far; the next one covers
    /// `(repl_gen, repl_gen + 1]`.
    repl_gen: u64,
    /// The tick clock and the window worker's FIFO.
    windows: WindowFeed,
    /// Per-writer ingest sequence high-water marks: a batch tagged
    /// `(writer, seq)` with `seq` at or below the mark is a duplicate
    /// resend and is acked without being applied (idempotent replay).
    seqs: HashMap<u64, u64>,
    /// `Some` once durability is open; `None` while it is off and during
    /// recovery replay, which must not re-journal what it reads.
    durable: Option<DurableState>,
}

/// A state lock was poisoned: a thread panicked while holding it, so the
/// structures behind it may be half-updated. Nothing is served from them
/// again — every op that needs the lock answers a `server` error, and a
/// restart recovers every acked batch from the snapshot and journal. A
/// poisoned rings lock or a dead window worker is reported the same way.
#[derive(Debug)]
pub(crate) struct StatePoisoned;

const POISONED: &str =
    "core state poisoned by an earlier panic; restart to recover from the journal";

impl From<StatePoisoned> for Reply {
    fn from(_: StatePoisoned) -> Self {
        Reply::server_error(POISONED)
    }
}

impl From<StatePoisoned> for ServeError {
    fn from(_: StatePoisoned) -> Self {
        ServeError::Invalid(POISONED.into())
    }
}

/// Shared server state.
pub(crate) struct ServerCore {
    config: ServeConfig,
    /// Reached only through [`ServerCore::state`].
    state: Mutex<NodeState>,
    /// The pane rings' read side; `NodeState.windows` feeds them.
    rings: Arc<WindowRings>,
    merger: BackgroundMerger<F2HeavyAggregate>,
    requests: AtomicU64,
    snapshots: AtomicU64,
    journal_batches: AtomicU64,
    journal_bytes: AtomicU64,
    auto_snapshots: AtomicU64,
    snapshot_errors: AtomicU64,
}

/// One replication cut: a sealed [`SnapshotKind::Delta`] container plus the
/// generation span `(g_from, g_to]` it covers. `g_from == 0` marks a full
/// replacement snapshot (shipped via `repl_snapshot`), anything else an
/// incremental delta that must chain onto the aggregator's high water.
pub(crate) struct ReplCut {
    /// Exclusive lower generation bound (0 = full replacement).
    pub g_from: u64,
    /// Inclusive upper generation bound — the aggregator's high water after
    /// applying this cut.
    pub g_to: u64,
    /// The sealed container (checksummed outer frame; per-structure sections
    /// when full, the batches section otherwise).
    pub frame: Vec<u8>,
}

/// Magic bytes of a snapshot bundle file.
const BUNDLE_MAGIC: [u8; 4] = *b"CSRV";
/// Bundle container version. Version 2 added the windowed sections (5, 6);
/// version 3 the ingest-sequence section (7); version 4 retired the
/// heavy-hitters section (4), whose candidates the `F_2` section now carries.
/// Older bundles are refused rather than restored into a server that would
/// answer from an empty ring, re-apply replayed batches or lack candidates.
const BUNDLE_VERSION: u16 = 4;
/// Section tags inside a bundle, in the order they are written (tag 4 stays
/// unassigned).
const SECTIONS: [u8; 6] = [1, 2, 3, 5, 6, 7];

/// Decoded snapshot bundle: one `cora_core::snapshot` frame per structure.
pub(crate) struct Bundle {
    pub(crate) f2: Vec<u8>,
    pub(crate) f0: Vec<u8>,
    pub(crate) rarity: Vec<u8>,
    pub(crate) window_f2: Vec<u8>,
    pub(crate) window_f0: Vec<u8>,
    pub(crate) seqs: Vec<u8>,
}

fn encode_bundle(bundle: &Bundle) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&BUNDLE_MAGIC);
    w.put_u16(BUNDLE_VERSION);
    w.put_u8(SECTIONS.len() as u8);
    let Bundle { f2, f0, rarity, window_f2, window_f0, seqs } = bundle;
    for (tag, frame) in SECTIONS.into_iter().zip([f2, f0, rarity, window_f2, window_f0, seqs]) {
        w.put_u8(tag);
        w.put_len(frame.len());
        w.put_bytes(frame);
    }
    w.into_bytes()
}

pub(crate) fn decode_bundle(bytes: &[u8]) -> Result<Bundle, ServeError> {
    let invalid = |detail: String| ServeError::Invalid(detail);
    let mut r = ByteReader::new(bytes);
    let magic = r
        .take(4)
        .map_err(|e| invalid(format!("bundle header: {e}")))?;
    if magic != BUNDLE_MAGIC {
        return Err(invalid("not a cora-serve snapshot bundle (bad magic)".into()));
    }
    let version = r.get_u16().map_err(|e| invalid(e.to_string()))?;
    if version != BUNDLE_VERSION {
        return Err(invalid(format!(
            "unsupported bundle version {version} (this build reads {BUNDLE_VERSION})"
        )));
    }
    let sections = r.get_u8().map_err(|e| invalid(e.to_string()))?;
    // One slot per section tag, in `SECTIONS` order.
    let mut slots: [Option<Vec<u8>>; SECTIONS.len()] = Default::default();
    for _ in 0..sections {
        let tag = r.get_u8().map_err(|e| invalid(e.to_string()))?;
        let len = r.get_len().map_err(|e| invalid(e.to_string()))?;
        let frame = r
            .take(len)
            .map_err(|e| invalid(format!("bundle section {tag}: {e}")))?
            .to_vec();
        let slot = SECTIONS.iter().position(|&known| known == tag).map(|i| &mut slots[i]);
        let slot = slot.ok_or_else(|| invalid(format!("unknown bundle section tag {tag}")))?;
        if slot.replace(frame).is_some() {
            return Err(invalid(format!("bundle holds section tag {tag} twice")));
        }
    }
    if !r.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after the declared bundle sections",
            r.remaining()
        )));
    }
    match slots {
        [Some(f2), Some(f0), Some(rarity), Some(window_f2), Some(window_f0), Some(seqs)] => {
            Ok(Bundle { f2, f0, rarity, window_f2, window_f0, seqs })
        }
        _ => Err(invalid("bundle is missing one or more structure sections".into())),
    }
}

/// Seal the per-writer sequence map as a `cora_core::snapshot` frame
/// ([`SnapshotKind::ServeMeta`]): `u32 count`, then `count × (u64 writer,
/// u64 seq)` sorted by writer for deterministic bytes.
fn encode_seqs_frame(seqs: &HashMap<u64, u64>) -> Vec<u8> {
    let mut pairs: Vec<(u64, u64)> = seqs.iter().map(|(&w, &s)| (w, s)).collect();
    pairs.sort_unstable();
    let mut w = ByteWriter::new();
    w.put_u32(pairs.len() as u32);
    for (writer, seq) in pairs {
        w.put_u64(writer);
        w.put_u64(seq);
    }
    let mut out = Vec::new();
    seal_frame_into(SnapshotKind::ServeMeta, w.as_bytes(), &mut out);
    out
}

fn decode_seqs_frame(bytes: &[u8]) -> Result<HashMap<u64, u64>, ServeError> {
    let payload = open_frame(bytes, SnapshotKind::ServeMeta)?;
    let invalid = |e: cora_sketch::codec::CodecError| {
        ServeError::Invalid(format!("sequence section: {e}"))
    };
    let mut r = ByteReader::new(payload);
    let count = r.get_u32().map_err(invalid)? as usize;
    let mut seqs = HashMap::with_capacity(count);
    for _ in 0..count {
        let writer = r.get_u64().map_err(invalid)?;
        let seq = r.get_u64().map_err(invalid)?;
        if seqs.insert(writer, seq).is_some() {
            return Err(ServeError::Invalid(format!(
                "sequence section lists writer {writer} twice"
            )));
        }
    }
    if !r.is_empty() {
        return Err(ServeError::Invalid(format!(
            "{} trailing bytes after the declared sequence entries",
            r.remaining()
        )));
    }
    Ok(seqs)
}

/// Answer one window query: the estimate plus the pane-aligned resolved span
/// `[resolved_lo, resolved_hi)` it actually covers (all zero while the ring
/// is empty or nothing falls inside the window).
fn window_answer<P: WindowPane>(ring: &PaneRing<P>, window: u64, c: u64) -> Reply {
    let answer = |value: f64, lo: u64, hi: u64| {
        Reply::Ok(vec![
            ("value", Value::F64(value)),
            ("resolved_lo", Value::U64(lo)),
            ("resolved_hi", Value::U64(hi)),
        ])
    };
    let Some(now) = ring.t_latest() else {
        return answer(0.0, 0, 0);
    };
    let resolved = ring.resolved_window(now, window).and_then(|span| match span {
        Some((lo, hi)) => Ok(answer(ring.query_sliding(window, c)?, lo, hi)),
        None => Ok(answer(0.0, 0, 0)),
    });
    resolved.unwrap_or_else(|e| Reply::sketch_error(e.to_string()))
}

/// The refusal for restored or shipped sketch state (a snapshot bundle, a
/// durable directory, a replication container) that is not what this config
/// would build fresh.
pub(crate) fn config_mismatch(what: &str) -> ServeError {
    ServeError::Invalid(format!(
        "sketch state was built under a different serve configuration ({what} differs) — \
         a config plus a bundle must fully determine a server"
    ))
}

impl NodeState {
    /// Encode the full bundle. The caller holds the state lock, so every
    /// section describes the same stream prefix — a bundle must fully
    /// determine a server.
    fn bundle_bytes(&mut self) -> Result<Vec<u8>, ServeError> {
        let f2 = self.sharded.snapshot()?;
        let [f0, rarity] = self.aux.frames();
        // One guard for both rings, once every batch queued so far is applied.
        let rings = self.windows.rings().caught_up().map_err(StatePoisoned::from)?;
        let bundle = Bundle {
            f2,
            f0,
            rarity,
            window_f2: rings.f2.snapshot(),
            window_f0: rings.f0.snapshot(),
            seqs: encode_seqs_frame(&self.seqs),
        };
        Ok(encode_bundle(&bundle))
    }

    /// Whether the background snapshotter should rotate now.
    fn snapshot_due(&self, config: &DurabilityConfig) -> bool {
        let Some(ds) = self.durable.as_ref() else {
            return false;
        };
        let by_tuples = config.snapshot_every_tuples > 0
            && ds.tuples_since >= config.snapshot_every_tuples;
        let by_time = config.snapshot_interval_ms > 0
            && ds.last_snapshot.elapsed() >= Duration::from_millis(config.snapshot_interval_ms)
            && ds.journal.batches() > 0;
        // A poisoned journal is rotated out as soon as the snapshotter
        // notices, restoring write availability without operator action.
        by_tuples || by_time || ds.journal.is_poisoned()
    }
}

impl ServerCore {
    /// Build a fresh core (empty sketches) or one restored from a bundle.
    pub(crate) fn build(config: ServeConfig, bundle: Option<&Bundle>) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::Invalid("shards must be at least 1".into()));
        }
        if !(config.phi > 0.0 && config.phi < 1.0) {
            return Err(ServeError::Invalid(format!(
                "phi must be in (0,1), got {}",
                config.phi
            )));
        }
        let agg = config.shard_aggregate();
        let f2_config = config.f2_config()?;
        let fresh_f2 = windowed_f2(
            config.epsilon,
            config.delta,
            config.y_max,
            config.max_stream_len,
            config.seed,
            config.pane_config(),
        )?;
        let fresh_f0 = windowed_f0(
            config.epsilon,
            config.delta,
            config.x_domain_log2,
            config.y_max,
            config.seed,
            config.pane_config(),
        )?;
        let (sharded, aux, (wf2, wf0, clock), seqs) = match bundle {
            None => (
                ShardedIngest::new(agg, f2_config, config.shards)?,
                AuxSet::fresh(&config)?,
                (fresh_f2, fresh_f0, 0),
                HashMap::new(),
            ),
            Some(bundle) => {
                // Every restored structure must match what this config
                // would build fresh (the F2 frame's fingerprint covers phi).
                let sharded = ShardedIngest::restore_from(agg, config.shards, &bundle.f2)?;
                if *sharded.config() != f2_config {
                    return Err(config_mismatch("F2 accuracy, domain, stream bound, or seed"));
                }
                let aux = AuxSet::restore(&config, &bundle.f0, &bundle.rarity)?;
                let wf2 = WindowedF2::restore_from(config.f2_aggregate(), &bundle.window_f2)?;
                let wf0 = WindowedF0::restore_from(&bundle.window_f0)?;
                if wf2.template().config() != fresh_f2.template().config()
                    || wf2.pane_config() != fresh_f2.pane_config()
                {
                    return Err(config_mismatch("windowed F2 parameters or pane geometry"));
                }
                if !f0_matches(wf0.template(), &config)
                    || wf0.pane_config() != fresh_f0.pane_config()
                {
                    return Err(config_mismatch("windowed F0 parameters or pane geometry"));
                }
                // The arrival clock resumes one past the newest restored tick.
                let clock = wf2.t_latest().map_or(0, |t| t.saturating_add(1));
                (sharded, aux, (wf2, wf0, clock), decode_seqs_frame(&bundle.seqs)?)
            }
        };
        let windows = WindowFeed::spawn(wf2, wf0, clock)?;
        let rings = Arc::clone(windows.rings());
        let merger = BackgroundMerger::spawn(sharded.reader())?;
        Ok(Self {
            config,
            state: Mutex::new(NodeState {
                sharded,
                aux,
                repl_tail: None,
                repl_gen: 0,
                windows,
                seqs,
                durable: None,
            }),
            rings,
            merger,
            requests: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            journal_batches: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            auto_snapshots: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
        })
    }

    /// The core a server starts with: restored from `bundle`, empty, or —
    /// with [`ServeConfig::durability`] set — recovered from the durable
    /// directory with its next generation opened.
    fn open(
        config: ServeConfig,
        bundle: Option<&Bundle>,
        storage: Option<Arc<dyn Storage>>,
    ) -> Result<Self, ServeError> {
        let Some(durability) = config.durability.clone() else {
            return Self::build(config, bundle);
        };
        let storage = storage.unwrap_or_else(crate::journal::disk_storage);
        let recovered = recover(&storage, &durability.dir)?;
        let core = Self::build(config, bundle.or(recovered.bundle.as_ref()))?;
        // Replay the journal tail through the normal ingest path (the
        // durable slot is still None, so nothing is re-journaled). Errors
        // cannot occur for batches that were validated before being
        // journaled; a reply is still produced and ignored deliberately.
        for record in &recovered.replay {
            let _ = core.ingest_tuples(&record.tuples, &record.ts, record.seq);
        }
        core.open_durable(&storage, &durability, &recovered)?;
        Ok(core)
    }

    /// This server's construction parameters (the replicator reads the
    /// replication target and fingerprint from here).
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The one way to the node's mutable state. A poisoned lock is refused,
    /// never entered: see [`StatePoisoned`].
    fn state(&self) -> Result<MutexGuard<'_, NodeState>, StatePoisoned> {
        self.state.lock().map_err(|_| StatePoisoned)
    }

    /// The pane rings once every acked batch is applied; refused like
    /// [`ServerCore::state`] once either lock is poisoned or the worker gone.
    fn windows(&self) -> Result<MutexGuard<'_, Rings>, StatePoisoned> {
        if self.state.is_poisoned() {
            return Err(StatePoisoned);
        }
        Ok(self.rings.caught_up()?)
    }

    /// Cut one replication unit. The state lock is held only to take the
    /// tail (and, for a full cut, to snapshot the live structures), so the
    /// cut is atomic with respect to batches: every tuple lands entirely in
    /// this cut or entirely in the next one. Sealing runs outside the lock.
    ///
    /// `full` builds a replacement snapshot of the live structures
    /// (`g_from = 0`), and the replicator's first cut always is one; every
    /// other cut is an incremental container carrying exactly the tuples
    /// acked since the previous cut. Returns `Ok(None)` when the
    /// tail is empty and `full` is false — the generation counter does not
    /// advance, so an idle server never creates a hole in the delta chain.
    pub(crate) fn repl_cut(&self, full: bool) -> Result<Option<ReplCut>, ServeError> {
        let fingerprint = self.config.replication_fingerprint();
        let mut state = self.state()?;
        let NodeState { sharded, aux, repl_tail, repl_gen, .. } = &mut *state;
        let tail = repl_tail.get_or_insert_with(Vec::new);
        if !full && tail.is_empty() {
            return Ok(None);
        }
        // Snapshot before taking the tail, so a failed snapshot leaves the
        // tail and the generation counter untouched.
        let frames = if full { Some((sharded.snapshot()?, aux.frames())) } else { None };
        let tuples = std::mem::take(tail);
        let g_to = *repl_gen + 1;
        let g_from = if full { 0 } else { *repl_gen };
        *repl_gen = g_to;
        drop(state);
        let header = DeltaHeader { g_from, g_to, fingerprint };
        let frame = match frames {
            Some((f2, aux_frames)) => seal_full(&header, &f2, &aux_frames),
            None => seal_batches(&header, &tuples),
        };
        Ok(Some(ReplCut { g_from, g_to, frame }))
    }

    /// The plain `snapshot` op's bundle (a durable rotation encodes its own,
    /// because it must also swap the journal under the same lock hold).
    fn snapshot_bundle(&self, state: &mut NodeState) -> Result<Vec<u8>, ServeError> {
        let bytes = state.bundle_bytes()?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Install the durability machinery: open the journal for the generation
    /// past everything recovery found, publish the matching snapshot of the
    /// current (recovered) state, and prune generations older than the
    /// restored fallback. Called once at start, after recovery replay and
    /// before any connection is served.
    fn open_durable(
        &self,
        storage: &Arc<dyn Storage>,
        config: &DurabilityConfig,
        recovered: &Recovered,
    ) -> Result<(), ServeError> {
        let generation = recovered.open_generation;
        let mut state = self.state()?;
        // Journal before snapshot: if we crash between the two, recovery
        // restores the previous snapshot and replays straight through this
        // (empty) journal — no batch can land in a file recovery won't read.
        let journal = JournalWriter::create(storage.as_ref(), &config.dir, generation)?;
        let bytes = self.snapshot_bundle(&mut state)?;
        storage.write_atomic(&snapshot_path(&config.dir, generation), &bytes)?;
        if let Some(floor) = recovered.restored_generation {
            Self::prune_generations(storage, &config.dir, floor);
        }
        state.durable = Some(DurableState {
            storage: Arc::clone(storage),
            dir: config.dir.clone(),
            fsync: config.fsync_each_batch,
            journal,
            last_good: generation,
            tuples_since: 0,
            last_snapshot: Instant::now(),
        });
        Ok(())
    }

    /// Best-effort retention: delete every generation file strictly older
    /// than `floor` (the previous good snapshot stays as the fallback).
    fn prune_generations(storage: &Arc<dyn Storage>, dir: &std::path::Path, floor: u64) {
        let Ok(listing) = list_generations(storage.as_ref(), dir) else {
            return;
        };
        for &g in listing.snapshots.iter().filter(|&&g| g < floor) {
            let _ = storage.remove(&snapshot_path(dir, g));
        }
        for &g in listing.journals.iter().filter(|&&g| g < floor) {
            let _ = storage.remove(&journal_path(dir, g));
        }
    }

    /// Rotate the durable generation: publish a snapshot of the current
    /// state and start a fresh journal for the batches after it. Returns
    /// the new generation and the snapshot's size in bytes.
    ///
    /// The caller's hold on the state lock spans the journal swap, so every
    /// batch lands either before the snapshot (in its bytes) or after it
    /// (in the new journal), never both. Failure leaves the previous
    /// generation fully in charge (the old journal keeps absorbing batches
    /// unless it was already poisoned) and is counted in `snapshot_errors`.
    fn durable_snapshot(&self, state: &mut NodeState, auto: bool) -> Result<(u64, u64), ServeError> {
        if state.durable.is_none() {
            return Err(ServeError::Invalid(
                "durability is not configured on this server".into(),
            ));
        }
        let rotated = Self::rotate(state);
        if rotated.is_ok() {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
            if auto {
                self.auto_snapshots.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
        }
        rotated
    }

    fn rotate(state: &mut NodeState) -> Result<(u64, u64), ServeError> {
        let bytes = state.bundle_bytes()?;
        let ds = state.durable.as_mut().expect("checked by durable_snapshot");
        let new_gen = ds.journal.generation() + 1;
        let prev_good = ds.last_good;
        // Fresh journal first, snapshot second: a crash between the two
        // leaves snap-(prev) + a full journal-(old) + an empty
        // journal-(new), which recovery replays losslessly. The reverse
        // order would strand post-snapshot batches in a journal older than
        // the restored snapshot.
        let journal = JournalWriter::create(ds.storage.as_ref(), &ds.dir, new_gen)?;
        // On failure the unused journal-(new) file stays behind; recovery
        // replays it as empty and the next rotation attempt recreates it.
        ds.storage.write_atomic(&snapshot_path(&ds.dir, new_gen), &bytes)?;
        ds.journal = journal;
        ds.last_good = new_gen;
        ds.tuples_since = 0;
        ds.last_snapshot = Instant::now();
        Self::prune_generations(&ds.storage, &ds.dir, prev_good);
        Ok((new_gen, bytes.len() as u64))
    }

    /// Ingest one validated batch into every hosted structure — the shared
    /// semantic path behind both the JSON `ingest` op and the binary
    /// protocol's zero-per-tuple-allocation fast path (which decodes frames
    /// straight into reusable scratch slices and calls this). Recovery
    /// replay uses it too: before `open_durable` installs the journal, the
    /// durable slot is `None`, so replayed batches are not re-journaled.
    ///
    /// `ts` carries explicit per-tuple timestamps (same length as `tuples`)
    /// or is empty, in which case the arrival clock stamps each tuple.
    /// `seq` is the client's `(writer, seq)` idempotency pair: a batch at
    /// or below the writer's high-water mark answers
    /// `accepted: 0, duplicate: 1` without being applied or journaled.
    fn ingest_tuples(&self, tuples: &[(u64, u64)], ts: &[u64], seq: Option<(u64, u64)>) -> Reply {
        let fail = Reply::sketch_error;
        debug_assert!(ts.is_empty() || ts.len() == tuples.len());
        // Validate atomically against the *configured* y_max so all hosted
        // structures accept or reject a batch together.
        if let Some(&(_, y)) = tuples.iter().find(|&&(_, y)| y > self.config.y_max) {
            return Reply::request_error(format!(
                "y {y} exceeds configured y_max {}",
                self.config.y_max
            ));
        }
        // The state lock is held across the whole batch.
        let mut state = match self.state() {
            Ok(state) => state,
            Err(poisoned) => return poisoned.into(),
        };
        let NodeState { sharded, aux, repl_tail, windows, seqs, durable, .. } = &mut *state;
        // A batch the rings could no longer apply is refused before it is
        // journaled.
        if !windows.rings().usable() {
            return StatePoisoned.into();
        }
        if let Some((writer, s)) = seq {
            if seqs.get(&writer).is_some_and(|&high| s <= high) {
                return Reply::Ok(vec![
                    ("accepted", Value::U64(0)),
                    ("duplicate", Value::U64(1)),
                ]);
            }
        }
        // Write-ahead: the batch reaches stable storage before any
        // in-memory structure sees it, so the Ok ack below is a durability
        // receipt. A journal failure (including a poisoned journal awaiting
        // rotation) refuses the batch with a structured io error and
        // applies nothing.
        if let Some(ds) = durable.as_mut() {
            let before = ds.journal.bytes();
            if let Err(e) = ds.journal.append_batch(tuples, ts, seq, ds.fsync) {
                return Reply::io_error(format!("journal append failed: {e}"));
            }
            ds.tuples_since += tuples.len() as u64;
            self.journal_batches.fetch_add(1, Ordering::Relaxed);
            self.journal_bytes
                .fetch_add(ds.journal.bytes() - before, Ordering::Relaxed);
        }
        // The rings take the batch in journal order from the window worker,
        // which cannot refuse it: `y ≤ y_max` was checked above, and late
        // ticks are dropped and counted.
        if let Err(gone) = windows.send(tuples, ts) {
            return gone.into();
        }
        if let Err(e) = sharded.ingest(tuples) {
            return fail(e.to_string());
        }
        if let Err(e) = aux.insert_batch(tuples) {
            return fail(format!("auxiliary sketch rejected a tuple: {e}"));
        }
        // The replication tail (present once replication has cut) takes the
        // batch under the same lock hold — a cut can never split a batch.
        if let Some(tail) = repl_tail {
            tail.extend_from_slice(tuples);
        }
        // Raise the high-water mark only after the batch is journaled and
        // applied, so a failed batch can be retried with the same sequence
        // number.
        if let Some((writer, s)) = seq {
            seqs.insert(writer, s);
        }
        Reply::Ok(vec![("accepted", Value::U64(tuples.len() as u64))])
    }

    /// The reply to one request. `ping`, `config`, `shutdown`, `f2` and
    /// `heavy_hitters` (both read lock-free from the merger's published
    /// composite) never touch the state lock; every other op fails with
    /// [`StatePoisoned`] once a panic has poisoned it. Window ops, `flush`,
    /// `stats` and `snapshot` fail the same way once the rings lock is
    /// poisoned or the window worker is gone, and `flush` or an `f2` /
    /// `heavy_hitters` that must wait for a build once the merger is gone.
    fn answer(&self, request: Request) -> Result<Reply, StatePoisoned> {
        let y_max = self.config.y_max;
        Ok(match request {
            Request::Ping | Request::Shutdown => Reply::ok(),
            Request::Config => {
                let c = &self.config;
                Reply::Ok(vec![
                    ("epsilon", Value::F64(c.epsilon)),
                    ("delta", Value::F64(c.delta)),
                    ("y_max", Value::U64(c.y_max)),
                    ("max_stream_len", Value::U64(c.max_stream_len)),
                    ("seed", Value::U64(c.seed)),
                    ("shards", Value::U64(c.shards as u64)),
                    ("phi", Value::F64(c.phi)),
                    ("x_domain_log2", Value::U64(u64::from(c.x_domain_log2))),
                    ("pane_ticks", Value::U64(c.pane_ticks)),
                    ("pane_k", Value::U64(c.pane_k as u64)),
                    (
                        "pane_retention",
                        c.pane_retention.map_or(Value::Null, Value::U64),
                    ),
                    ("max_connections", Value::U64(c.max_connections as u64)),
                ])
            }
            Request::Ingest { xs, ys, ts, seq } => {
                let tuples: Vec<(u64, u64)> = xs.into_iter().zip(ys).collect();
                self.ingest_tuples(&tuples, ts.as_deref().unwrap_or(&[]), seq)
            }
            Request::Flush => {
                self.state()?.sharded.flush();
                self.merger.refresh().ok_or(StatePoisoned)?;
                drop(self.windows()?);
                Reply::ok()
            }
            Request::QueryF2 { .. } | Request::QueryHeavyHitters { .. } => {
                f2_answer(self.merger.read().ok_or(StatePoisoned)?.sketch(), &request)
            }
            Request::QueryF0 { .. } | Request::QueryRarity { .. } => {
                self.state()?.aux.answer(&request, y_max)
            }
            Request::WindowF2 { window, c } => {
                window_answer(&self.windows()?.f2, window, c.min(y_max))
            }
            Request::WindowF0 { window, c } => {
                window_answer(&self.windows()?.f0, window, c.min(y_max))
            }
            Request::Stats => {
                // The rings as of the last applied batch: `stats` reports the
                // window worker's queue instead of waiting for it.
                let (rings, window_pending) = self.rings.as_applied()?;
                let window_panes = rings.f2.pane_count() as u64;
                // Both rings, in the paper's space unit.
                let window_stored = (rings.f2.stored_tuples() + rings.f0.stored_tuples()) as u64;
                let window_late = rings.f2.late_dropped();
                drop(rings);
                // The composite as published: `stats` never waits for a
                // build and never asks for one.
                let composite = self.merger.current();
                let stats = composite.sketch().stats();
                let age_ms = composite.built_at().elapsed().as_millis() as u64;
                let state = self.state()?;
                let (durable_on, generation, journal_poisoned) = match state.durable.as_ref() {
                    Some(ds) => (1, ds.journal.generation(), u64::from(ds.journal.is_poisoned())),
                    None => (0, 0, 0),
                };
                let count = |counter: &AtomicU64| Value::U64(counter.load(Ordering::Relaxed));
                Reply::Ok(vec![
                    ("requests", count(&self.requests)),
                    ("items_accepted", Value::U64(state.sharded.items_accepted())),
                    ("composite_items", Value::U64(stats.items_processed)),
                    ("composite_epoch", Value::U64(composite.epoch())),
                    ("composite_age_ms", Value::U64(age_ms)),
                    (
                        "staleness_batches",
                        Value::U64(self.merger.staleness_batches()),
                    ),
                    ("singleton_buckets", Value::U64(stats.singleton_buckets as u64)),
                    ("dyadic_buckets", Value::U64(stats.dyadic_buckets as u64)),
                    ("stored_tuples", Value::U64(stats.stored_tuples as u64)),
                    ("space_bytes", Value::U64(stats.space_bytes as u64)),
                    ("snapshots_taken", count(&self.snapshots)),
                    ("window_panes", Value::U64(window_panes)),
                    ("window_stored_tuples", Value::U64(window_stored)),
                    ("window_late_dropped", Value::U64(window_late)),
                    ("window_clock", Value::U64(state.windows.clock)),
                    ("window_pending_batches", Value::U64(window_pending)),
                    ("durable", Value::U64(durable_on)),
                    ("generation", Value::U64(generation)),
                    ("journal_poisoned", Value::U64(journal_poisoned)),
                    ("journal_batches", count(&self.journal_batches)),
                    ("journal_bytes", count(&self.journal_bytes)),
                    ("auto_snapshots", count(&self.auto_snapshots)),
                    ("snapshot_errors", count(&self.snapshot_errors)),
                ])
            }
            Request::Snapshot { path } if path.is_empty() => {
                // Empty path = durable rotation: publish the next snapshot
                // generation and swap in a fresh journal.
                let rotated = self.durable_snapshot(&mut *self.state()?, false);
                match rotated {
                    Ok((generation, bytes)) => Reply::Ok(vec![
                        ("generation", Value::U64(generation)),
                        ("bytes", Value::U64(bytes)),
                    ]),
                    Err(ServeError::Io(e)) => {
                        Reply::io_error(format!("snapshot rotation failed: {e}"))
                    }
                    // The rings lock was poisoned under this bundle.
                    Err(ServeError::Invalid(e)) if e == POISONED => Reply::server_error(e),
                    Err(ServeError::Invalid(e)) => Reply::request_error(e),
                    Err(e) => Reply::server_error(e.to_string()),
                }
            }
            Request::Snapshot { path } => {
                // The lock is released before the file is written.
                let bundle = self.snapshot_bundle(&mut *self.state()?);
                match bundle {
                    Ok(bytes) => match std::fs::write(&path, &bytes) {
                        Ok(()) => Reply::Ok(vec![("bytes", Value::U64(bytes.len() as u64))]),
                        Err(e) => {
                            Reply::io_error(format!("could not write snapshot to {path:?}: {e}"))
                        }
                    },
                    Err(ServeError::Io(e)) => Reply::io_error(format!("snapshot failed: {e}")),
                    Err(ServeError::Invalid(e)) if e == POISONED => Reply::server_error(e),
                    Err(e) => Reply::sketch_error(e.to_string()),
                }
            }
            // The transport layer intercepts `auth` before dispatch (the
            // gate is per-connection state); reaching here means the op was
            // issued where it has no meaning.
            Request::Auth { .. } => Reply::request_error(
                "auth is handled by the connection transport before dispatch",
            ),
            Request::SetF0 { .. } | Request::Streams => Reply::request_error(
                "set-expression queries are answered by an aggregator node \
                 (cora_serve_agg), not by an ingest server",
            ),
            Request::ReplHello { .. }
            | Request::ReplDelta { .. }
            | Request::ReplSnapshot { .. } => Reply::request_error(
                "replication frames are accepted by an aggregator node \
                 (cora_serve_agg), not by an ingest server",
            ),
        })
    }
}

impl ServiceCore for ServerCore {
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

    fn ingest_binary(&self, tuples: &[(u64, u64)], ts: &[u64], seq: Option<(u64, u64)>) -> Reply {
        self.ingest_tuples(tuples, ts, seq)
    }
}

/// How often [`RunningServer::wait`] re-reads the shutdown flag.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// A running server: the bound address plus shutdown plumbing. Dropping it
/// shuts the listener down and joins every service thread.
pub struct RunningServer {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) acceptor: Option<thread::JoinHandle<()>>,
    pub(crate) snapshotter: Option<thread::JoinHandle<()>>,
    pub(crate) replicator: Option<crate::cluster::ReplicatorHandle>,
}

impl RunningServer {
    /// The address the listener is bound to (use port 0 to let the OS pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replication barrier (servers started with [`ServeConfig::replicate`]
    /// only): block until every tuple accepted before the call has been
    /// cut, shipped, and acknowledged by the downstream aggregator, or
    /// `timeout` elapses. Returns the acknowledged generation — the
    /// deterministic hook the replication tests and the fan-in demo use
    /// instead of sleeping.
    pub fn replication_sync(&self, timeout: Duration) -> Result<u64, ServeError> {
        match &self.replicator {
            Some(handle) => handle.sync(timeout).map_err(ServeError::Invalid),
            None => Err(ServeError::Invalid(
                "this server was not started with ServeConfig::replicate".into(),
            )),
        }
    }

    /// Block until the server is asked to stop (the `shutdown` op or a
    /// signal-driven [`RunningServer::shutdown`] from another thread). The
    /// standalone `cora_serve_node` binary parks its main thread here.
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::Acquire) {
            thread::sleep(WAIT_TICK);
        }
    }

    /// Stop accepting connections, wind down every connection handler, and
    /// join the service threads. Idempotent with the `shutdown` op.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(mut replicator) = self.replicator.take() {
            replicator.stop_and_join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            // Wake a blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
        if let Some(snapshotter) = self.snapshotter.take() {
            let _ = snapshotter.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What recovery found in a durable directory: the state to restore, the
/// journal batches to replay onto it, and where the fresh generation opens.
pub(crate) struct Recovered {
    pub(crate) bundle: Option<Bundle>,
    /// Generation of the snapshot `bundle` came from (the retention floor).
    pub(crate) restored_generation: Option<u64>,
    pub(crate) replay: Vec<JournalRecord>,
    /// The generation to open next — past every file on disk, so recovery
    /// never appends to (or overwrites) a file it just read.
    pub(crate) open_generation: u64,
}

/// Probe the durable directory: newest readable snapshot wins (torn or
/// corrupt ones are skipped, falling back to the previous generation), then
/// the valid prefix of every journal at or after it is queued for replay.
///
/// Refuses to start only when proceeding would mean *silent* loss of
/// previously-acked data: no snapshot is readable and the journal history
/// does not reach back to generation 0.
pub(crate) fn recover(
    storage: &Arc<dyn Storage>,
    dir: &std::path::Path,
) -> Result<Recovered, ServeError> {
    storage.create_dir_all(dir)?;
    let listing = list_generations(storage.as_ref(), dir)?;
    let mut restored: Option<(u64, Bundle)> = None;
    for &g in &listing.snapshots {
        let Ok(bytes) = storage.read(&snapshot_path(dir, g)) else {
            continue;
        };
        if let Ok(bundle) = decode_bundle(&bytes) {
            restored = Some((g, bundle));
            break;
        }
        // Torn or corrupt snapshot: fall back to the previous generation —
        // its journal chain replays the difference.
    }
    let base = match &restored {
        Some((g, _)) => *g,
        None => {
            let first = listing.journals.first().copied();
            let complete_history =
                first == Some(0) || (first.is_none() && listing.snapshots.is_empty());
            if !complete_history {
                return Err(ServeError::Invalid(format!(
                    "no readable snapshot in {dir:?} and the journal history begins at \
                     generation {first:?}, not 0 — recovering would silently drop acked \
                     batches; restore a snapshot file or point durability at a fresh \
                     directory"
                )));
            }
            0
        }
    };
    let mut replay = Vec::new();
    let relevant: Vec<u64> = listing.journals.iter().copied().filter(|&g| g >= base).collect();
    for (i, &g) in relevant.iter().enumerate() {
        let newest = i + 1 == relevant.len();
        let scanned = storage
            .read(&journal_path(dir, g))
            .map_err(|e| e.to_string())
            .and_then(|bytes| scan_journal(&bytes));
        match scanned {
            Ok(scan) if scan.generation == g => replay.extend(scan.records),
            // The newest journal may have died mid-header (a crash inside
            // rotation); it holds no acked batches, so skip it. Anywhere
            // else an unreadable journal is a hole in acked history.
            _ if newest => {}
            Ok(scan) => {
                return Err(ServeError::Invalid(format!(
                    "journal file for generation {g} carries header generation {} — \
                     refusing to replay a mislabeled journal",
                    scan.generation
                )));
            }
            Err(e) => {
                return Err(ServeError::Invalid(format!(
                    "journal for generation {g} is unreadable ({e}) but newer journals \
                     exist — refusing to recover with a hole in acked history"
                )));
            }
        }
    }
    let open_generation = listing
        .snapshots
        .first()
        .copied()
        .into_iter()
        .chain(listing.journals.last().copied())
        .max()
        .map_or(0, |g| g + 1);
    Ok(Recovered {
        restored_generation: restored.as_ref().map(|(g, _)| *g),
        bundle: restored.map(|(_, b)| b),
        replay,
        open_generation,
    })
}

/// Start a fresh server (empty sketches) bound to `bind`
/// (e.g. `"127.0.0.1:0"`). With [`ServeConfig::durability`] set, recovery
/// runs first against the real filesystem.
pub fn start(config: ServeConfig, bind: &str) -> Result<RunningServer, ServeError> {
    start_inner(config, bind, None, None)
}

/// [`start`], but with an injectable [`Storage`] backing the durability
/// layer — the seam the deterministic fault-injection suite uses. Requires
/// [`ServeConfig::durability`] to be set.
pub fn start_with_storage(
    config: ServeConfig,
    bind: &str,
    storage: Arc<dyn Storage>,
) -> Result<RunningServer, ServeError> {
    if config.durability.is_none() {
        return Err(ServeError::Invalid(
            "start_with_storage requires ServeConfig::durability".into(),
        ));
    }
    start_inner(config, bind, None, Some(storage))
}

/// Start a server from a snapshot bundle previously written by the
/// `snapshot` op. The restored structures answer queries identically to the
/// snapshotting server's at the moment of the snapshot. Incompatible with
/// [`ServeConfig::durability`], whose recovery decides for itself what to
/// restore.
pub fn start_restored(
    config: ServeConfig,
    bind: &str,
    bundle: &[u8],
) -> Result<RunningServer, ServeError> {
    if config.durability.is_some() {
        return Err(ServeError::Invalid(
            "start_restored cannot be combined with durability — recovery restores \
             from the durable directory itself"
                .into(),
        ));
    }
    let bundle = decode_bundle(bundle)?;
    start_inner(config, bind, Some(&bundle), None)
}

fn start_inner(
    config: ServeConfig,
    bind: &str,
    bundle: Option<&Bundle>,
    storage: Option<Arc<dyn Storage>>,
) -> Result<RunningServer, ServeError> {
    let max_connections = config.max_connections;
    let config_replicate = config.replicate.clone();
    let core = Arc::new(ServerCore::open(config, bundle, storage)?);
    if let Some(replicate) = &config_replicate {
        crate::cluster::check_stream_name(&replicate.stream).map_err(ServeError::Invalid)?;
    }
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // The background snapshotter: polls the rotation triggers while the
    // server runs. Spawned before the acceptor moves `core`.
    let snapshotter = match core.config().durability.clone() {
        Some(d) if d.snapshot_every_tuples > 0 || d.snapshot_interval_ms > 0 => {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("cora-serve-snapshot".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        match core.state() {
                            // Failures are counted in snapshot_errors and
                            // retried on the next trigger; the previous
                            // generation stays in charge meanwhile.
                            Ok(mut state) if state.snapshot_due(&d) => {
                                let _ = core.durable_snapshot(&mut state, true);
                            }
                            Ok(_) => {}
                            // A poisoned core can never snapshot again.
                            Err(StatePoisoned) => {
                                core.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                        }
                        thread::sleep(Duration::from_millis(20));
                    }
                })
                .ok()
        }
        _ => None,
    };
    let replicator = config_replicate.map(|replicate| {
        crate::cluster::spawn_replicator(Arc::clone(&core), replicate, Arc::clone(&shutdown))
    });
    let acceptor = spawn_acceptor(core, listener, Arc::clone(&shutdown), max_connections)?;
    Ok(RunningServer {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        snapshotter,
        replicator,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{protocol, wire};

    #[test]
    fn bundle_round_trip_and_rejections() {
        let bundle = Bundle {
            f2: vec![1, 2, 3],
            f0: vec![4],
            rarity: vec![],
            window_f2: vec![7],
            window_f0: vec![8, 9],
            seqs: vec![10],
        };
        let bytes = encode_bundle(&bundle);
        let decoded = decode_bundle(&bytes).unwrap();
        assert_eq!(decoded.f2, bundle.f2);
        assert_eq!(decoded.f0, bundle.f0);
        assert_eq!(decoded.rarity, bundle.rarity);
        assert_eq!(decoded.window_f2, bundle.window_f2);
        assert_eq!(decoded.window_f0, bundle.window_f0);
        assert_eq!(decoded.seqs, bundle.seqs);

        assert!(decode_bundle(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_bundle(b"XXXX").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(decode_bundle(&wrong_version).is_err());
        // The retired heavy-hitters tag is unknown, not a slot.
        let mut w = ByteWriter::new();
        w.put_bytes(&BUNDLE_MAGIC);
        w.put_u16(BUNDLE_VERSION);
        w.put_u8(1);
        w.put_u8(4);
        w.put_len(0);
        let refused = decode_bundle(w.as_bytes()).err().map(|e| e.to_string());
        assert!(refused.is_some_and(|e| e.contains("unknown bundle section tag 4")));
    }

    /// The three byte formats a node produces — full replication cut,
    /// incremental delta container, snapshot bundle — hashed (FNV-1a-64) over
    /// a fixed stream. Moving one byte of any section of any of them fails
    /// here. Pinned at commit 115d452 and re-pinned twice since: once when
    /// merged buckets started spilling to their sketch (every F2 section is
    /// a shard merge, the bundle's rings hold buddy-merged panes; the codec
    /// did not change), once when the F2 sections took over the
    /// heavy-hitter candidates (bundle version 4, no heavy-hitters section
    /// in either container, and F2 buckets that carry candidate trackers),
    /// and once when incremental containers started carrying the acked
    /// tuples instead of sketch deltas (replication format 2: a new
    /// fingerprint in both containers' headers, and the delta container's
    /// one batches section; the full cut's sections did not change).
    #[test]
    fn produced_formats_are_pinned() {
        let config = ServeConfig {
            epsilon: 0.25,
            delta: 0.1,
            y_max: 15,
            max_stream_len: 1_000_000,
            seed: 7,
            shards: 2,
            x_domain_log2: 20,
            pane_ticks: 512,
            ..Default::default()
        };
        let core = ServerCore::build(config, None).unwrap();
        let mut lcg = 0x5EED_u64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 16
        };
        let mut t = 0u64;
        let mut ingest = |batches: std::ops::Range<u64>| {
            for b in batches {
                let tuples: Vec<(u64, u64)> =
                    (0..1000).map(|_| (next() % (1 << 20), next() % 16)).collect();
                // Even batches carry explicit timestamps (every third tuple
                // advances the clock), odd ones take arrival ticks.
                let ts: Vec<u64> = if b % 2 == 0 {
                    (0..1000u64)
                        .map(|i| {
                            t += u64::from(i % 3 == 0);
                            t
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let reply = core.ingest_tuples(&tuples, &ts, Some((b % 3, b + 1)));
                assert_eq!(reply, Reply::Ok(vec![("accepted", Value::U64(1000))]));
            }
        };
        ingest(0..14);
        let full = core.repl_cut(true).unwrap().expect("a full cut is never idle");
        ingest(14..20);
        let delta = core.repl_cut(false).unwrap().expect("six new batches");
        let bundle = core.state().unwrap().bundle_bytes().unwrap();
        // 20k tuples over 16 y values: every singleton bucket is far past the
        // 384 distinct items at which an ε = 0.25 F2 bucket spills to its
        // sketch.
        core.handle(Request::Flush);
        let sketched = core
            .merger
            .current()
            .sketch()
            .with_composed(15, |store| !store.is_exact())
            .unwrap();
        assert!(sketched, "the pinned stream must exercise sketched buckets");
        assert_eq!((full.g_from, delta.g_from, delta.g_to), (0, full.g_to, full.g_to + 1));
        let fnv = cora_sketch::codec::fnv1a64;
        for (name, bytes, len, pin) in [
            ("full cut", &full.frame, 976_834, 0x6a19_fe02_8976_ffea_u64),
            ("delta container", &delta.frame, 96_068, 0x9354_fb97_76e8_70fb),
            ("snapshot bundle", &bundle, 3_658_061, 0x82a0_06e9_78e5_a7bc),
        ] {
            assert_eq!(bytes.len(), len, "{name} length");
            assert_eq!(fnv(bytes), pin, "{name} bytes");
        }
    }

    #[test]
    fn stats_reports_both_rings_stored_tuples_on_both_transports() {
        let config = ServeConfig {
            y_max: 1023,
            pane_ticks: 64,
            ..Default::default()
        };
        let core = ServerCore::build(config, None).unwrap();
        for b in 0..8u64 {
            let tuples: Vec<(u64, u64)> =
                (0..500).map(|i| (b * 500 + i, (i * 37) % 1024)).collect();
            core.ingest_tuples(&tuples, &[], None);
        }
        // `stats` does not wait for the window worker; `flush` does.
        core.handle(Request::Flush);
        let want = {
            let rings = core.windows().unwrap();
            assert!(rings.f2.pane_count() > 4, "the rings must have buddy-merged");
            (rings.f2.stored_tuples() + rings.f0.stored_tuples()) as u64
        };
        let reply = core.handle(Request::Stats).0;
        let json = protocol::Response::parse(&reply.render_json()).unwrap();
        assert_eq!(json.u64_field("window_stored_tuples").unwrap(), want);
        assert_eq!(json.u64_field("window_pending_batches").unwrap(), 0);
        let frame = wire::encode_reply(wire::Opcode::Stats as u8, &reply);
        let header = wire::parse_header(frame[..wire::HEADER_BYTES].try_into().unwrap()).unwrap();
        let wire::DecodedReply::Ok(fields) =
            wire::decode_reply(header.flags, &frame[wire::HEADER_BYTES..]).unwrap()
        else {
            panic!("stats must decode as an ok reply");
        };
        let binary = |name: &str| fields.iter().find(|(key, _)| key == name).map(|(_, v)| v);
        assert_eq!(binary("window_stored_tuples"), Some(&Value::U64(want)));
        assert_eq!(binary("window_pending_batches"), Some(&Value::U64(0)));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cora_core_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// ROADMAP hole 5(b): a panic under the state lock, or under the rings
    /// lock, must stop the core from serving what it may have half-mutated —
    /// and lose nothing acked.
    #[test]
    fn a_poisoned_core_fails_closed_and_a_restart_recovers_every_acked_batch() {
        let poison_state: fn(&ServerCore) = |core| {
            let _state = core.state().unwrap();
            panic!("poison the node state (expected in this test)");
        };
        let poison_rings: fn(&ServerCore) = |core| {
            let _rings = core.windows().unwrap();
            panic!("poison the pane rings (expected in this test)");
        };
        for (case, poison) in [("state", poison_state), ("rings", poison_rings)] {
            let dir = temp_dir(&format!("poison_{case}"));
            let config = ServeConfig {
                shards: 2,
                y_max: 1023,
                pane_ticks: 16,
                durability: Some(DurabilityConfig::new(&dir)),
                ..Default::default()
            };
            // Distinct items, except that the last batch makes one item heavy.
            const HEAVY: u64 = 1 << 40;
            let batch = |b: u64| -> Vec<(u64, u64)> {
                let x = |i| if b == 5 { HEAVY } else { b * 50 + i };
                (0..50).map(|i| (x(i), (b * 131 + i * 17) % 1024)).collect()
            };
            let hh = Request::QueryHeavyHitters { c: 1023, phi: 0.5 };
            let window = Request::WindowF2 { window: 64, c: 1023 };
            let core = Arc::new(ServerCore::open(config.clone(), None, None).unwrap());
            for b in 0..6 {
                let reply = core.ingest_tuples(&batch(b), &[], Some((1, b + 1)));
                assert_eq!(reply, Reply::Ok(vec![("accepted", Value::U64(50))]));
            }
            // `flush` is the heavy hitters' read-your-writes barrier.
            core.handle(Request::Flush);
            let f2_before = core.handle(Request::QueryF2 { c: 1023 }).0;
            let hh_before = core.handle(hh.clone()).0;
            let window_before = core.handle(window.clone()).0;
            let Reply::Ok(fields) = &hh_before else { panic!("{hh_before:?}") };
            assert_eq!(fields[0], ("items", Value::U64Array(vec![HEAVY])));

            let panicking = Arc::clone(&core);
            let _ = thread::spawn(move || poison(&panicking)).join();

            let kind = |reply: Reply| {
                protocol::Response::parse(&reply.render_json()).unwrap().error_kind()
            };
            let server = Some("server".to_string());
            assert_eq!(kind(core.ingest_tuples(&batch(6), &[], Some((1, 7)))), server, "{case}");
            let mut refused = vec![
                window,
                Request::WindowF0 { window: 64, c: 1023 },
                Request::Stats,
                Request::Flush,
                Request::Snapshot { path: String::new() },
            ];
            if case == "state" {
                refused.push(Request::QueryF0 { c: 1023 });
                assert!(core.repl_cut(true).is_err(), "a poisoned cut must not seal anything");
            }
            for request in refused {
                let (reply, stop) = core.handle(request);
                assert!(reply.render_json().contains("poisoned"), "{case}: {reply:?}");
                assert_eq!(kind(reply), server);
                assert!(!stop);
            }
            // What takes neither lock keeps answering.
            assert_eq!(core.handle(Request::QueryF2 { c: 1023 }).0, f2_before);
            assert_eq!(core.handle(hh.clone()).0, hh_before);
            assert_eq!(core.handle(Request::Ping).0, Reply::ok());
            assert!(matches!(core.handle(Request::Config).0, Reply::Ok(_)));
            assert!(core.handle(Request::Shutdown).1);
            drop(core);

            // A fresh core on the same directory: all six acked batches, and
            // not the refused seventh.
            let restarted = ServerCore::open(config, None, None).unwrap();
            restarted.handle(Request::Flush);
            let stats =
                protocol::Response::parse(&restarted.handle(Request::Stats).0.render_json())
                    .unwrap();
            assert_eq!(stats.u64_field("items_accepted").unwrap(), 300, "{case}");
            assert_eq!(restarted.handle(Request::QueryF2 { c: 1023 }).0, f2_before);
            assert_eq!(restarted.handle(hh).0, hh_before);
            let window = Request::WindowF2 { window: 64, c: 1023 };
            assert_eq!(restarted.handle(window).0, window_before, "{case}");
            let resend = restarted.ingest_tuples(&batch(5), &[], Some((1, 6)));
            assert_eq!(
                resend,
                Reply::Ok(vec![("accepted", Value::U64(0)), ("duplicate", Value::U64(1))])
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The rings a server should hold: a test-side copy fed `(x, y, t)`
    /// inline, stamping ticks the way the node's clock does.
    struct InlineRings {
        f2: WindowedF2,
        f0: WindowedF0,
        clock: u64,
    }

    impl InlineRings {
        fn new(config: &ServeConfig) -> Self {
            let (e, d, y_max, seed, panes) =
                (config.epsilon, config.delta, config.y_max, config.seed, config.pane_config());
            Self {
                f2: windowed_f2(e, d, y_max, config.max_stream_len, seed, panes.clone()).unwrap(),
                f0: windowed_f0(e, d, config.x_domain_log2, y_max, seed, panes).unwrap(),
                clock: 0,
            }
        }

        fn observe(&mut self, tuples: &[(u64, u64)], ts: &[u64]) {
            for (i, &(x, y)) in tuples.iter().enumerate() {
                let t = ts.get(i).copied().unwrap_or(self.clock);
                self.clock = self.clock.max(t + 1);
                self.f2.observe(x, y, t).unwrap();
                self.f0.observe(x, y, t).unwrap();
            }
        }

        /// Window answers and bundle sections of `core`, taken without a
        /// `flush`, equal this copy's.
        fn assert_served_by(&self, core: &ServerCore, what: &str) {
            for window in [1, 100, 1_000, u64::MAX] {
                for c in [0, 300, 1_023] {
                    let f2 = core.handle(Request::WindowF2 { window, c }).0;
                    assert_eq!(f2, window_answer(&self.f2, window, c), "{what}: F2 {window} {c}");
                    let f0 = core.handle(Request::WindowF0 { window, c }).0;
                    assert_eq!(f0, window_answer(&self.f0, window, c), "{what}: F0 {window} {c}");
                }
            }
            let bundle = decode_bundle(&core.state().unwrap().bundle_bytes().unwrap()).unwrap();
            assert!(bundle.window_f2 == self.f2.snapshot(), "{what}: F2 ring bytes");
            assert!(bundle.window_f0 == self.f0.snapshot(), "{what}: F0 ring bytes");
        }
    }

    /// Window ops and bundles see every acked batch with no `flush`, and the
    /// worker's rings equal rings fed the same `(x, y, t)` inline: on the
    /// arrival clock, on explicit out-of-order and late ticks, and under a
    /// retention horizon.
    #[test]
    fn window_worker_answers_read_your_writes_without_flush() {
        let arrival = |b: u64| (0..300).map(|i| (b * 300 + i, (b * 131 + i * 17) % 1024)).collect();
        // Ticks run forward in steps of 7 with every fifth one 40 behind; the
        // seventh batch reaches back 3 000 ticks, past the retention horizon.
        let explicit = |b: u64| -> Vec<u64> {
            (0..300u64)
                .map(|i| {
                    let t = 2_000 + b * 2_100 + i * 7;
                    let t = if i % 5 == 0 { t - 40 } else { t };
                    if b == 6 { t - 3_000 } else { t }
                })
                .collect()
        };
        let cases: [(&str, Option<u64>, bool); 3] = [
            ("arrival clock", None, false),
            ("explicit out-of-order and late ticks", Some(2_048), true),
            ("arrival clock under retention", Some(700), false),
        ];
        for (what, pane_retention, timestamped) in cases {
            let config = ServeConfig {
                shards: 1,
                y_max: 1023,
                pane_ticks: 64,
                pane_k: 2,
                pane_retention,
                ..Default::default()
            };
            let core = ServerCore::build(config.clone(), None).unwrap();
            let mut inline = InlineRings::new(&config);
            let mut held = None;
            for b in 0..8 {
                if b == 5 {
                    // Acks do not wait for the rings: the last three batches
                    // are acked while the test holds the rings lock, and the
                    // reads below are the first to wait for the worker.
                    held = Some(core.windows().unwrap());
                }
                let tuples: Vec<(u64, u64)> = arrival(b);
                let ts = if timestamped { explicit(b) } else { Vec::new() };
                let reply = core.ingest_tuples(&tuples, &ts, None);
                assert_eq!(reply, Reply::Ok(vec![("accepted", Value::U64(300))]));
                inline.observe(&tuples, &ts);
            }
            drop(held);
            assert!(inline.f2.pane_count() > 3, "{what}: the rings must have buddy-merged");
            assert_eq!(inline.f2.late_dropped() > 0, timestamped, "{what}: late ticks");
            inline.assert_served_by(&core, what);
        }
    }

    /// Two writers (one on the arrival clock, one with explicit ticks) and
    /// one reader hammer the node. Each writer reads its own writes straight
    /// after every ack, the reader never sees the rings go backwards or
    /// queue more than the FIFO holds, and at the end the rings equal rings
    /// fed inline in the order the journal recorded.
    #[test]
    fn window_worker_applies_in_journal_order_under_two_writers_and_a_reader() {
        use std::sync::atomic::AtomicBool;
        let dir = temp_dir("window_worker_order");
        let config = ServeConfig {
            shards: 2,
            y_max: 1023,
            pane_ticks: 32,
            pane_k: 2,
            durability: Some(DurabilityConfig {
                snapshot_every_tuples: 0,
                fsync_each_batch: false,
                ..DurabilityConfig::new(&dir)
            }),
            ..Default::default()
        };
        let core = ServerCore::open(config.clone(), None, None).unwrap();
        // A window of one pane width resolves the newest pane, whose end is
        // past the newest tick.
        let newest_pane_end = |request: Request| {
            let reply = core.handle(request).0.render_json();
            protocol::Response::parse(&reply).unwrap().u64_field("resolved_hi").unwrap()
        };
        let writing = AtomicBool::new(true);
        thread::scope(|scope| {
            let writers: Vec<_> = [false, true]
                .into_iter()
                .map(|timestamped| {
                    let (core, newest_pane_end) = (&core, &newest_pane_end);
                    scope.spawn(move || {
                        for b in 0..30u64 {
                            let tuples: Vec<(u64, u64)> = (0..100)
                                .map(|i| (b * 1_000 + i, (b * 37 + i * 11) % 1024))
                                .collect();
                            let ts: Vec<u64> = match timestamped {
                                true => (0..100).map(|i| 5_000 + b * 150 + i).collect(),
                                false => Vec::new(),
                            };
                            let seq = Some((u64::from(timestamped), b + 1));
                            let reply = core.ingest_tuples(&tuples, &ts, seq);
                            assert_eq!(reply, Reply::Ok(vec![("accepted", Value::U64(100))]));
                            let end = newest_pane_end(Request::WindowF2 { window: 32, c: 1023 });
                            if let Some(&last) = ts.last() {
                                assert!(end > last, "tick {last} not visible after its ack");
                            }
                        }
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                let mut newest = 0;
                loop {
                    let end = newest_pane_end(Request::WindowF0 { window: 32, c: 1023 });
                    assert!(end >= newest, "the rings went back from {newest} to {end}");
                    newest = end;
                    let stats = core.handle(Request::Stats).0.render_json();
                    let stats = protocol::Response::parse(&stats).unwrap();
                    let pending = stats.u64_field("window_pending_batches").unwrap();
                    assert!(pending <= crate::windows::QUEUE_BATCHES as u64 + 2, "{pending}");
                    if !writing.load(Ordering::Acquire) {
                        return;
                    }
                }
            });
            // Stop the reader before reporting a writer's panic.
            let written: Vec<_> = writers.into_iter().map(|writer| writer.join()).collect();
            writing.store(false, Ordering::Release);
            reader.join().unwrap();
            assert!(written.iter().all(Result::is_ok), "a writer panicked");
        });
        let journal = std::fs::read(journal_path(&dir, 0)).unwrap();
        let mut inline = InlineRings::new(&config);
        let records = scan_journal(&journal).unwrap().records;
        assert_eq!(records.len(), 60);
        for record in &records {
            inline.observe(&record.tuples, &record.ts);
        }
        inline.assert_served_by(&core, "journal order");
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `stats` reports the published composite as it is: while that is
    /// stale it neither waits for a build nor asks for one. The next `f2`
    /// waits for exactly one.
    #[test]
    fn stats_neither_waits_for_nor_triggers_a_build() {
        use crate::merger::STALENESS_FLOOR;
        let config = ServeConfig {
            y_max: 1023,
            ..Default::default()
        };
        let core = ServerCore::build(config, None).unwrap();
        let batch = |b: u64| -> Vec<(u64, u64)> { (0..500).map(|i| (b * 500 + i, i)).collect() };
        core.ingest_tuples(&batch(0), &[], None);
        core.handle(Request::Flush);
        for b in 1..4 {
            core.ingest_tuples(&batch(b), &[], None);
        }
        // Applied by the shards, but no barrier and no reader.
        core.state().unwrap().sharded.flush();
        thread::sleep(STALENESS_FLOOR);
        let stats = || {
            let start = Instant::now();
            let reply = core.handle(Request::Stats).0.render_json();
            (start.elapsed(), protocol::Response::parse(&reply).unwrap())
        };
        let (elapsed, stale) = stats();
        assert!(elapsed < Duration::from_millis(100), "stats took {elapsed:?}");
        assert!(stale.u64_field("staleness_batches").unwrap() > 0);
        let age = stale.u64_field("composite_age_ms").unwrap();
        assert!(age >= STALENESS_FLOOR.as_millis() as u64, "age {age} ms");
        thread::sleep(Duration::from_millis(50));
        let epoch = stale.u64_field("composite_epoch").unwrap();
        assert_eq!(stats().1.u64_field("composite_epoch").unwrap(), epoch);
        core.handle(Request::QueryF2 { c: 1023 });
        let fresh = stats().1;
        assert_eq!(fresh.u64_field("composite_epoch").unwrap(), epoch + 1);
        assert_eq!(fresh.u64_field("staleness_batches").unwrap(), 0);
    }

    /// A merger whose thread died fails `flush` closed on both transports
    /// instead of hanging the connection that sent it.
    #[test]
    fn a_dead_merger_fails_flush_closed_on_both_transports() {
        use crate::client::{ClientError, ServeClient};
        use crate::merger::MergeHook;
        let config = ServeConfig {
            y_max: 1023,
            ..Default::default()
        };
        let mut core = ServerCore::build(config, None).unwrap();
        let reader = core.state().unwrap().sharded.reader();
        let panics: MergeHook = Arc::new(|| panic!("merger build panics (expected in this test)"));
        core.merger = BackgroundMerger::spawn_with_hook(reader, Some(panics)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(Arc::new(core), listener, Arc::clone(&shutdown), 4);
        let _server = RunningServer {
            addr,
            shutdown,
            acceptor: Some(acceptor.unwrap()),
            snapshotter: None,
            replicator: None,
        };
        let clients = [
            ("json", ServeClient::connect(addr).unwrap()),
            ("binary", ServeClient::connect_binary(addr).unwrap()),
        ];
        for (b, (transport, mut client)) in (0u64..).zip(clients) {
            client.ingest(&[(b, 1), (b + 10, 20)]).unwrap();
            let start = Instant::now();
            let refused = client.flush().unwrap_err();
            assert!(start.elapsed() < Duration::from_secs(1), "{transport}");
            let ClientError::Server(e) = refused else { panic!("{transport}: {refused}") };
            assert_eq!(e.kind, "server", "{transport}");
            assert!(e.message.contains("poisoned"), "{transport}: {}", e.message);
        }
    }

    #[test]
    fn core_rejects_bad_configs() {
        let no_shards = ServeConfig {
            shards: 0,
            ..Default::default()
        };
        assert!(ServerCore::build(no_shards, None).is_err());
        let bad_phi = ServeConfig {
            phi: 0.0,
            ..Default::default()
        };
        assert!(ServerCore::build(bad_phi, None).is_err());
        let bad_panes = ServeConfig {
            pane_ticks: 0,
            ..Default::default()
        };
        assert!(ServerCore::build(bad_panes, None).is_err());
    }

    #[test]
    fn core_handles_requests_without_a_socket() {
        let config = ServeConfig {
            shards: 2,
            y_max: 1023,
            pane_ticks: 4,
            ..Default::default()
        };
        let core = ServerCore::build(config, None).unwrap();
        let (reply, stop) = core.handle(Request::Ping);
        assert!(reply.render_json().contains("true") && !stop);
        let (reply, _) = core.handle(Request::Ingest {
            xs: vec![1, 2, 1],
            ys: vec![10, 20, 900],
            ts: None,
            seq: None,
        });
        let resp = reply.render_json();
        assert!(resp.contains("\"accepted\":3"), "{resp}");
        // Out-of-range y rejected atomically.
        let (reply, _) = core.handle(Request::Ingest {
            xs: vec![9],
            ys: vec![5000],
            ts: None,
            seq: None,
        });
        assert!(matches!(reply, Reply::Error(_)), "{reply:?}");
        // Sequence-tagged batches: at-or-below the high-water mark is a
        // duplicate; above it applies.
        let (reply, _) = core.handle(Request::Ingest {
            xs: vec![5],
            ys: vec![50],
            ts: None,
            seq: Some((7, 1)),
        });
        assert!(reply.render_json().contains("\"accepted\":1"));
        let (reply, _) = core.handle(Request::Ingest {
            xs: vec![5],
            ys: vec![50],
            ts: None,
            seq: Some((7, 1)),
        });
        let resp = reply.render_json();
        assert!(
            resp.contains("\"accepted\":0") && resp.contains("\"duplicate\":1"),
            "{resp}"
        );
        core.handle(Request::Flush);
        let (reply, _) = core.handle(Request::QueryF2 { c: 1023 });
        let resp = reply.render_json();
        let value = protocol::Response::parse(&resp).unwrap().f64_field("value").unwrap();
        assert!(value > 0.0);
        let (reply, _) = core.handle(Request::QueryF0 { c: 1023 });
        assert!(protocol::Response::parse(&reply.render_json()).unwrap().is_ok());
        let (reply, stop) = core.handle(Request::Shutdown);
        assert!(reply.render_json().contains("true") && stop);
    }

    #[test]
    fn core_answers_window_queries_with_resolved_spans() {
        let config = ServeConfig {
            shards: 1,
            y_max: 1023,
            pane_ticks: 8,
            ..Default::default()
        };
        let core = ServerCore::build(config, None).unwrap();
        let answer = |request: Request| {
            let (reply, _) = core.handle(request);
            protocol::Response::parse(&reply.render_json()).unwrap()
        };
        // Empty ring answers zero with an empty resolved span.
        let r = answer(Request::WindowF2 { window: 100, c: 1023 });
        assert!(r.is_ok());
        assert_eq!(r.u64_field("resolved_hi").unwrap(), 0);
        // Default clock stamps arrival ticks 0, 1, 2, ...
        let n = 64u64;
        let r = answer(Request::Ingest {
            xs: (0..n).collect(),
            ys: (0..n).map(|i| i % 1024).collect(),
            ts: None,
            seq: None,
        });
        assert_eq!(r.u64_field("accepted").unwrap(), n);
        let r = answer(Request::WindowF2 { window: 32, c: 1023 });
        assert!(r.is_ok());
        assert!(r.f64_field("value").unwrap() > 0.0);
        let lo = r.u64_field("resolved_lo").unwrap();
        let hi = r.u64_field("resolved_hi").unwrap();
        assert!(lo >= 32 && hi == 64, "resolved [{lo}, {hi})");
        // Explicit timestamps drive the window clock.
        let r = answer(Request::Ingest {
            xs: vec![7, 7],
            ys: vec![1, 2],
            ts: Some(vec![1000, 990]),
            seq: None,
        });
        assert_eq!(r.u64_field("accepted").unwrap(), 2);
        let r = answer(Request::WindowF0 { window: 16, c: 1023 });
        assert!(r.is_ok());
        assert!(r.u64_field("resolved_hi").unwrap() > 1000);
    }
}
