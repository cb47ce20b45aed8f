//! The always-on query server: a `std::net::TcpListener` front speaking
//! both wire protocols (newline-JSON and [binary frames](crate::wire),
//! negotiated per connection by its first byte) over one sharded
//! correlated-`F_2` ingest (queried through the
//! [background merger](crate::merger)) plus synchronously-updated
//! `F_0`/rarity/heavy-hitter sketches, with snapshot persistence.
//!
//! ## Architecture
//!
//! ```text
//!      TCP clients (JSON lines or binary frames; first-byte sniff)
//!        │ accept thread → fixed worker pool, non-blocking reads
//!        │ ingest / flush            │ f2 queries
//!        ▼                           ▼
//!   Mutex<ShardedIngest<F2>>   BackgroundMerger ── epoch-published
//!      │ SPSC rings → N shards ◄── ShardReader       composite
//!      ▼                          (demand-bounded rebuilds off the
//!   Mutex<{CorrelatedF0,            read path)
//!          CorrelatedRarity, CorrelatedHeavyHitters}>
//!      ▲ f0 / rarity / heavy_hitters queries + synchronous inserts
//! ```
//!
//! Connections are served by a **fixed pool of polling workers** (2–4
//! threads) instead of one thread each: the acceptor hands sockets to
//! workers round-robin; each worker sweeps its sockets with non-blocking
//! reads, spinning while traffic flows and backing off to timed sleeps as
//! they idle. [`ServeConfig::max_connections`] bounds the total; over the
//! limit, a connection is answered with one error line and closed.
//!
//! `f2` answers come from the merger's published composite and therefore lag
//! ingest by at most `merge_every − 1` applied batches plus one in-flight
//! rebuild — and never block on that rebuild. The auxiliary sketches are
//! updated inline under their own lock (they are `O(1)`-ish per insert) and
//! answer with read-your-writes semantics. `flush` is the barrier that makes
//! `f2` exact too.
//!
//! ## Windowed structures
//!
//! Alongside the whole-stream sketches the server hosts two pane rings
//! (`cora_stream::windowed`): a windowed correlated `F_2` and a windowed
//! correlated `F_0`, updated under their own lock on every ingest. Tuples
//! carry either client-supplied timestamps (the optional `ts` ingest array)
//! or consecutive server-side arrival ticks; `window_f2` / `window_f0`
//! answer sliding-window thresholds over them and report the pane-aligned
//! resolved span alongside the value.
//!
//! ## Snapshot bundle
//!
//! The `snapshot` op writes one file: a `CSRV` container holding the seven
//! `cora_core::snapshot` frames (framework composite, F0, rarity, heavy
//! hitters, the two windowed pane rings, and the per-writer ingest sequence
//! map), each individually checksummed. [`start_restored`] boots a server
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
use crate::protocol::{self, Reply, Request, Value};
use crate::wire::{self, Opcode};
use cora_core::snapshot::{open_frame, seal_delta_into, seal_frame_into, DeltaHeader};
use cora_core::{
    CoreError, CorrelatedConfig, CorrelatedF0, CorrelatedHeavyHitters, CorrelatedRarity,
    F2Aggregate, SnapshotKind,
};
use cora_sketch::codec::{ByteReader, ByteWriter};
use cora_stream::windowed::{
    windowed_f0, windowed_f2, PaneConfig, PaneRing, WindowPane, WindowedF0, WindowedF2,
};
use cora_stream::ShardedIngest;
use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Ingest worker shards for the `F_2` structure.
    pub shards: usize,
    /// Background-merger trigger: rebuild the published composite once this
    /// many new batches have been applied (≥ 1; 1 = republish eagerly).
    pub merge_every: u64,
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
    /// Simultaneous client connections accepted before new ones are turned
    /// away with an error (resource hardening; see the accept loop).
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
    /// snapshot resync (bounds replica-side memory).
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
            merge_every: 4,
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

impl ServeConfig {
    /// Fingerprint of every parameter that must agree across replication
    /// peers for Property-V mergeability: sketches built from the same
    /// seed and geometry merge into the sketch of the union, so a delta
    /// cut here restores and merges cleanly on the aggregator. Transport
    /// settings (shards, merge cadence, pane geometry, connection limits,
    /// durability, auth) are deliberately excluded — they may differ per
    /// node.
    pub fn replication_fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_u64(self.epsilon.to_bits());
        w.put_u64(self.delta.to_bits());
        w.put_u64(self.y_max);
        w.put_u64(self.max_stream_len);
        w.put_u64(self.seed);
        w.put_u64(self.phi.to_bits());
        w.put_u64(u64::from(self.x_domain_log2));
        cora_sketch::codec::fnv1a64(w.as_bytes())
    }

    /// A fresh correlated-`F_0` sampler with this config's parameters.
    pub(crate) fn fresh_f0(&self) -> Result<CorrelatedF0, CoreError> {
        CorrelatedF0::with_seed(
            self.epsilon,
            self.delta,
            self.x_domain_log2,
            self.y_max,
            self.seed,
        )
    }

    /// A fresh correlated-rarity sampler with this config's parameters.
    pub(crate) fn fresh_rarity(&self) -> Result<CorrelatedRarity, CoreError> {
        CorrelatedRarity::with_seed(self.epsilon, self.x_domain_log2, self.y_max, self.seed)
    }

    /// A fresh correlated heavy-hitters sketch with this config's
    /// parameters.
    pub(crate) fn fresh_hh(&self) -> Result<CorrelatedHeavyHitters, CoreError> {
        CorrelatedHeavyHitters::with_seed(
            self.epsilon,
            self.delta,
            self.phi,
            self.y_max,
            self.max_stream_len,
            self.seed,
        )
    }

    /// A fresh (empty) correlated-`F_2` framework sketch with this config's
    /// parameters — the aggregator's per-stream and union composite shape.
    pub(crate) fn fresh_f2_sketch(
        &self,
    ) -> Result<cora_core::CorrelatedSketch<F2Aggregate>, CoreError> {
        cora_core::CorrelatedSketch::new(self.f2_aggregate(), self.f2_config()?)
    }

    /// The derived correlated-`F_2` aggregate.
    pub(crate) fn f2_aggregate(&self) -> F2Aggregate {
        F2Aggregate::new(self.epsilon, self.delta, self.seed)
    }

    /// The derived framework configuration for the `F_2` structure.
    fn f2_config(&self) -> Result<CorrelatedConfig, CoreError> {
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

/// The windowed structures plus the server's tick clock: tuples ingested
/// without explicit timestamps are stamped with consecutive arrival ticks;
/// explicit timestamps advance the clock past themselves.
struct WindowState {
    f2: WindowedF2,
    f0: WindowedF0,
    clock: u64,
}

/// The auxiliary sketches updated synchronously on every ingest, plus —
/// while replication is enabled — since-last-cut delta copies fed the same
/// tuples. [`ServerCore::repl_cut`] swaps the deltas for fresh ones, so each
/// cut covers exactly the tuples between two cuts (Property V makes merging
/// such a delta on the aggregator equivalent to having streamed the tuples
/// there directly).
struct AuxSketches {
    f0: CorrelatedF0,
    rarity: CorrelatedRarity,
    hh: CorrelatedHeavyHitters,
    f0_delta: Option<CorrelatedF0>,
    rarity_delta: Option<CorrelatedRarity>,
    hh_delta: Option<CorrelatedHeavyHitters>,
}

/// The live durability machinery: the open journal plus rotation state.
/// `None` inside the server's `durable` slot while durability is off (and
/// during recovery replay, which must not re-journal what it reads).
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

/// Shared server state.
pub(crate) struct ServerCore {
    config: ServeConfig,
    sharded: Mutex<ShardedIngest<F2Aggregate>>,
    aux: Mutex<AuxSketches>,
    windows: Mutex<WindowState>,
    merger: BackgroundMerger<F2Aggregate>,
    /// Per-writer ingest sequence high-water marks: a batch tagged
    /// `(writer, seq)` with `seq` at or below the mark is a duplicate
    /// resend and is acked without being applied (idempotent replay).
    seqs: Mutex<HashMap<u64, u64>>,
    /// `Some` once durability is open. Lock order: `sharded` → `aux` →
    /// `windows` → `seqs` → `durable` (ingest and rotation both follow it).
    durable: Mutex<Option<DurableState>>,
    requests: AtomicU64,
    accepted: AtomicU64,
    snapshots: AtomicU64,
    journal_batches: AtomicU64,
    journal_bytes: AtomicU64,
    auto_snapshots: AtomicU64,
    snapshot_errors: AtomicU64,
    /// `items_accepted` as of the last replication cut — lets the
    /// replicator skip cutting (and skip advancing the generation counter)
    /// while nothing new has arrived.
    repl_cut_items: AtomicU64,
}

/// Section tags inside a replication delta container
/// ([`SnapshotKind::Delta`](cora_core::SnapshotKind)), one per replicated
/// structure. The windowed pane rings and the per-writer sequence map are
/// deliberately *not* replicated: the aggregator serves whole-stream
/// queries over the union, and idempotency is a per-upstream concern.
pub(crate) const REPL_SECTION_F2: u8 = 1;
/// Delta container section tag: the `F_0` sampler frame.
pub(crate) const REPL_SECTION_F0: u8 = 2;
/// Delta container section tag: the rarity sampler frame.
pub(crate) const REPL_SECTION_RARITY: u8 = 3;
/// Delta container section tag: the heavy-hitters frame.
pub(crate) const REPL_SECTION_HH: u8 = 4;

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
    /// The sealed delta container (checksummed outer frame, per-structure
    /// sections).
    pub frame: Vec<u8>,
}

/// Magic bytes of a snapshot bundle file.
const BUNDLE_MAGIC: [u8; 4] = *b"CSRV";
/// Bundle container version. Version 2 added the windowed sections (5, 6);
/// version 3 added the ingest-sequence section (7). Older bundles are
/// refused rather than restored into a server that would silently answer
/// window queries from an empty ring or re-apply replayed batches.
const BUNDLE_VERSION: u16 = 3;
/// Section tags inside a bundle.
const SECTION_F2: u8 = 1;
const SECTION_F0: u8 = 2;
const SECTION_RARITY: u8 = 3;
const SECTION_HH: u8 = 4;
const SECTION_WINDOW_F2: u8 = 5;
const SECTION_WINDOW_F0: u8 = 6;
const SECTION_SEQS: u8 = 7;

/// Decoded snapshot bundle: one `cora_core::snapshot` frame per structure.
pub(crate) struct Bundle {
    pub(crate) f2: Vec<u8>,
    pub(crate) f0: Vec<u8>,
    pub(crate) rarity: Vec<u8>,
    pub(crate) hh: Vec<u8>,
    pub(crate) window_f2: Vec<u8>,
    pub(crate) window_f0: Vec<u8>,
    pub(crate) seqs: Vec<u8>,
}

fn encode_bundle(bundle: &Bundle) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&BUNDLE_MAGIC);
    w.put_u16(BUNDLE_VERSION);
    w.put_u8(7);
    for (tag, frame) in [
        (SECTION_F2, &bundle.f2),
        (SECTION_F0, &bundle.f0),
        (SECTION_RARITY, &bundle.rarity),
        (SECTION_HH, &bundle.hh),
        (SECTION_WINDOW_F2, &bundle.window_f2),
        (SECTION_WINDOW_F0, &bundle.window_f0),
        (SECTION_SEQS, &bundle.seqs),
    ] {
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
    let mut f2 = None;
    let mut f0 = None;
    let mut rarity = None;
    let mut hh = None;
    let mut window_f2 = None;
    let mut window_f0 = None;
    let mut seqs = None;
    for _ in 0..sections {
        let tag = r.get_u8().map_err(|e| invalid(e.to_string()))?;
        let len = r.get_len().map_err(|e| invalid(e.to_string()))?;
        let frame = r
            .take(len)
            .map_err(|e| invalid(format!("bundle section {tag}: {e}")))?
            .to_vec();
        let slot = match tag {
            SECTION_F2 => &mut f2,
            SECTION_F0 => &mut f0,
            SECTION_RARITY => &mut rarity,
            SECTION_HH => &mut hh,
            SECTION_WINDOW_F2 => &mut window_f2,
            SECTION_WINDOW_F0 => &mut window_f0,
            SECTION_SEQS => &mut seqs,
            other => return Err(invalid(format!("unknown bundle section tag {other}"))),
        };
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
    match (f2, f0, rarity, hh, window_f2, window_f0, seqs) {
        (
            Some(f2),
            Some(f0),
            Some(rarity),
            Some(hh),
            Some(window_f2),
            Some(window_f0),
            Some(seqs),
        ) => Ok(Bundle { f2, f0, rarity, hh, window_f2, window_f0, seqs }),
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
fn window_answer<P: WindowPane>(
    ring: &PaneRing<P>,
    window: u64,
    c: u64,
) -> Result<Vec<(&'static str, Value)>, String> {
    let empty = vec![
        ("value", Value::F64(0.0)),
        ("resolved_lo", Value::U64(0)),
        ("resolved_hi", Value::U64(0)),
    ];
    let Some(now) = ring.t_latest() else {
        return Ok(empty);
    };
    let Some((lo, hi)) = ring.resolved_window(now, window).map_err(|e| e.to_string())? else {
        return Ok(empty);
    };
    let value = ring.query_sliding(window, c).map_err(|e| e.to_string())?;
    Ok(vec![
        ("value", Value::F64(value)),
        ("resolved_lo", Value::U64(lo)),
        ("resolved_hi", Value::U64(hi)),
    ])
}

impl ServerCore {
    /// Build a fresh core (empty sketches) or one restored from a bundle.
    fn build(config: ServeConfig, bundle: Option<&Bundle>) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::Invalid("shards must be at least 1".into()));
        }
        if !(config.phi > 0.0 && config.phi < 1.0) {
            return Err(ServeError::Invalid(format!(
                "phi must be in (0,1), got {}",
                config.phi
            )));
        }
        let agg = config.f2_aggregate();
        let f2_config = config.f2_config()?;
        let fresh_windows = || -> Result<WindowState, ServeError> {
            Ok(WindowState {
                f2: windowed_f2(
                    config.epsilon,
                    config.delta,
                    config.y_max,
                    config.max_stream_len,
                    config.seed,
                    config.pane_config(),
                )?,
                f0: windowed_f0(
                    config.epsilon,
                    config.delta,
                    config.x_domain_log2,
                    config.y_max,
                    config.seed,
                    config.pane_config(),
                )?,
                clock: 0,
            })
        };
        let (sharded, aux, windows) = match bundle {
            None => {
                let sharded = ShardedIngest::new(agg, f2_config, config.shards)?;
                let aux = AuxSketches {
                    f0: config.fresh_f0()?,
                    rarity: config.fresh_rarity()?,
                    hh: config.fresh_hh()?,
                    f0_delta: None,
                    rarity_delta: None,
                    hh_delta: None,
                };
                (sharded, aux, fresh_windows()?)
            }
            Some(bundle) => {
                let mismatch = |what: &str| {
                    Err(ServeError::Invalid(format!(
                        "snapshot bundle was taken under a different serve configuration \
                         ({what} differs) — a config plus a bundle must fully determine \
                         a server"
                    )))
                };
                let sharded = ShardedIngest::restore_from(agg, config.shards, &bundle.f2)?;
                if *sharded.config() != f2_config {
                    return mismatch("F2 accuracy, domain, stream bound, or seed");
                }
                let aux = AuxSketches {
                    f0: CorrelatedF0::restore_from(&bundle.f0)?,
                    rarity: CorrelatedRarity::restore_from(&bundle.rarity)?,
                    hh: CorrelatedHeavyHitters::restore_from(&bundle.hh)?,
                    f0_delta: None,
                    rarity_delta: None,
                    hh_delta: None,
                };
                // Every restored structure must match what this config would
                // build fresh — including the fields the F2 check cannot see
                // (x_domain_log2 sizes the samplers, phi the candidate sets).
                if aux.f0.epsilon() != config.epsilon
                    || aux.f0.delta() != config.delta
                    || aux.f0.y_max() != config.y_max
                    || aux.f0.seed() != config.seed
                    || aux.f0.x_domain_log2() != config.x_domain_log2
                {
                    return mismatch("F0 parameters");
                }
                if aux.rarity.epsilon() != config.epsilon
                    || aux.rarity.y_max() != config.y_max
                    || aux.rarity.seed() != config.seed
                    || aux.rarity.x_domain_log2() != config.x_domain_log2
                {
                    return mismatch("rarity parameters");
                }
                if *aux.hh.aggregate()
                    != cora_core::heavy_hitters::F2HeavyAggregate::new(
                        config.epsilon,
                        config.phi,
                        config.seed,
                    )
                    || *aux.hh.config() != f2_config
                {
                    return mismatch("heavy-hitter parameters (phi, accuracy, or seed)");
                }
                let wf2 = WindowedF2::restore_from(config.f2_aggregate(), &bundle.window_f2)?;
                let wf0 = WindowedF0::restore_from(&bundle.window_f0)?;
                let fresh = fresh_windows()?;
                if wf2.template().config() != fresh.f2.template().config()
                    || wf2.pane_config() != fresh.f2.pane_config()
                {
                    return mismatch("windowed F2 parameters or pane geometry");
                }
                let f0t = wf0.template();
                let fresh_f0t = fresh.f0.template();
                if f0t.epsilon() != fresh_f0t.epsilon()
                    || f0t.delta() != fresh_f0t.delta()
                    || f0t.y_max() != fresh_f0t.y_max()
                    || f0t.seed() != fresh_f0t.seed()
                    || f0t.x_domain_log2() != fresh_f0t.x_domain_log2()
                    || wf0.pane_config() != fresh.f0.pane_config()
                {
                    return mismatch("windowed F0 parameters or pane geometry");
                }
                // The arrival clock resumes one past the newest restored tick.
                let clock = wf2.t_latest().map_or(0, |t| t.saturating_add(1));
                let windows = WindowState { f2: wf2, f0: wf0, clock };
                (sharded, aux, windows)
            }
        };
        let seqs = match bundle {
            None => HashMap::new(),
            Some(bundle) => decode_seqs_frame(&bundle.seqs)?,
        };
        let merger = BackgroundMerger::spawn(sharded.reader(), config.merge_every.max(1))?;
        Ok(Self {
            config,
            sharded: Mutex::new(sharded),
            aux: Mutex::new(aux),
            windows: Mutex::new(windows),
            merger,
            seqs: Mutex::new(seqs),
            durable: Mutex::new(None),
            requests: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            journal_batches: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            auto_snapshots: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
            repl_cut_items: AtomicU64::new(0),
        })
    }

    /// This server's construction parameters (the replicator reads the
    /// replication target and fingerprint from here).
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Turn on replication tracking: per-shard `F_2` deltas in the sharded
    /// ingest plus delta copies of the auxiliary sketches. Everything
    /// already ingested stays out of the deltas (the first shipped cut is a
    /// full snapshot, so nothing is lost). Idempotent; called once at start
    /// when [`ServeConfig::replicate`] is set.
    pub(crate) fn enable_replication(&self) -> Result<(), ServeError> {
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let mut aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
        sharded.enable_delta_tracking()?;
        if aux.f0_delta.is_none() {
            aux.f0_delta = Some(self.config.fresh_f0()?);
            aux.rarity_delta = Some(self.config.fresh_rarity()?);
            aux.hh_delta = Some(self.config.fresh_hh()?);
        }
        Ok(())
    }

    /// Cut one replication unit under the ingest lock order (`sharded` →
    /// `aux`), so the cut is atomic with respect to batches: every tuple
    /// lands entirely in this cut or entirely in the next one.
    ///
    /// `full` builds a replacement snapshot of the live structures
    /// (`g_from = 0`); otherwise an incremental delta covering exactly the
    /// tuples since the previous cut. Returns `Ok(None)` when nothing new
    /// arrived and `full` is false — the generation counter does not
    /// advance, so an idle server never creates a hole in the delta chain.
    pub(crate) fn repl_cut(&self, full: bool) -> Result<Option<ReplCut>, ServeError> {
        let fingerprint = self.config.replication_fingerprint();
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let mut aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
        if !sharded.delta_tracking_enabled() {
            return Err(ServeError::Invalid(
                "replication tracking is not enabled on this server".into(),
            ));
        }
        // `items_accepted` needs the flush barrier to be exact, but staleness
        // here only delays a cut by one interval — never loses tuples.
        sharded.flush();
        if !full && sharded.items_accepted() == self.repl_cut_items.load(Ordering::Acquire) {
            return Ok(None);
        }
        // Build every replacement before swapping anything, so a failed
        // allocation leaves the trackers untouched and consistent.
        let fresh_f0 = self.config.fresh_f0()?;
        let fresh_rarity = self.config.fresh_rarity()?;
        let fresh_hh = self.config.fresh_hh()?;
        let (g_from_cut, g_to, f2_delta) = sharded.take_delta()?;
        let f0_delta = aux.f0_delta.replace(fresh_f0).expect("replication enabled");
        let rarity_delta = aux.rarity_delta.replace(fresh_rarity).expect("replication enabled");
        let hh_delta = aux.hh_delta.replace(fresh_hh).expect("replication enabled");
        self.repl_cut_items.store(sharded.items_accepted(), Ordering::Release);
        let (g_from, f2, f0, rarity, hh) = if full {
            // Replacement cut: snapshot the live structures. The delta
            // trackers were still reset above, so the next incremental cut
            // chains cleanly from `g_to`.
            (
                0,
                sharded.snapshot()?,
                aux.f0.snapshot(),
                aux.rarity.snapshot(),
                aux.hh.snapshot(),
            )
        } else {
            (
                g_from_cut,
                f2_delta.snapshot(),
                f0_delta.snapshot(),
                rarity_delta.snapshot(),
                hh_delta.snapshot(),
            )
        };
        drop(aux);
        drop(sharded);
        let header = DeltaHeader { g_from, g_to, fingerprint };
        let mut frame = Vec::new();
        seal_delta_into(
            &header,
            &[
                (REPL_SECTION_F2, f2.as_slice()),
                (REPL_SECTION_F0, f0.as_slice()),
                (REPL_SECTION_RARITY, rarity.as_slice()),
                (REPL_SECTION_HH, hh.as_slice()),
            ],
            &mut frame,
        );
        Ok(Some(ReplCut { g_from, g_to, frame }))
    }

    /// Encode the full bundle from already-locked structures, so the caller
    /// chooses the consistency scope (the plain `snapshot` op versus a
    /// durable rotation that must also swap the journal atomically).
    fn bundle_bytes_locked(
        sharded: &mut ShardedIngest<F2Aggregate>,
        aux: &AuxSketches,
        windows: &WindowState,
        seqs: &HashMap<u64, u64>,
    ) -> Result<Vec<u8>, ServeError> {
        let bundle = Bundle {
            f2: sharded.snapshot()?,
            f0: aux.f0.snapshot(),
            rarity: aux.rarity.snapshot(),
            hh: aux.hh.snapshot(),
            window_f2: windows.f2.snapshot(),
            window_f0: windows.f0.snapshot(),
            seqs: encode_seqs_frame(seqs),
        };
        Ok(encode_bundle(&bundle))
    }

    fn snapshot_bundle(&self) -> Result<Vec<u8>, ServeError> {
        // Hold the locks (sharded before aux before windows before seqs,
        // like the ingest path) across the whole bundle, so every section
        // describes the same stream prefix — a bundle must fully determine
        // a server.
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let seqs = self.seqs.lock().unwrap_or_else(PoisonError::into_inner);
        let bytes = Self::bundle_bytes_locked(&mut sharded, &aux, &windows, &seqs)?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Install the durability machinery: open the journal for `generation`,
    /// publish the matching snapshot of the current (recovered) state, and
    /// prune generations older than the `retain_from` fallback. Called once
    /// at start, after recovery replay and before any connection is served.
    fn open_durable(
        &self,
        storage: &Arc<dyn Storage>,
        config: &DurabilityConfig,
        generation: u64,
        retain_from: Option<u64>,
    ) -> Result<(), ServeError> {
        // Journal before snapshot: if we crash between the two, recovery
        // restores the previous snapshot and replays straight through this
        // (empty) journal — no batch can land in a file recovery won't read.
        let journal = JournalWriter::create(storage.as_ref(), &config.dir, generation)?;
        let bytes = self.snapshot_bundle()?;
        storage.write_atomic(&snapshot_path(&config.dir, generation), &bytes)?;
        if let Some(floor) = retain_from {
            Self::prune_generations(storage, &config.dir, floor);
        }
        let state = DurableState {
            storage: Arc::clone(storage),
            dir: config.dir.clone(),
            fsync: config.fsync_each_batch,
            journal,
            last_good: generation,
            tuples_since: 0,
            last_snapshot: Instant::now(),
        };
        *self.durable.lock().unwrap_or_else(PoisonError::into_inner) = Some(state);
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
    /// Failure leaves the previous generation fully in charge (the old
    /// journal keeps absorbing batches unless it was already poisoned) and
    /// is counted in `snapshot_errors`.
    fn durable_snapshot(&self, auto: bool) -> Result<(u64, u64), ServeError> {
        // Same lock order as ingest; holding all of them across the
        // journal swap means every batch lands either before the snapshot
        // (in its bytes) or after it (in the new journal), never both.
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
        let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
        let seqs = self.seqs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut durable = self.durable.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(ds) = durable.as_mut() else {
            return Err(ServeError::Invalid(
                "durability is not configured on this server".into(),
            ));
        };
        let fail = |this: &Self, e: ServeError| {
            this.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            Err(e)
        };
        let new_gen = ds.journal.generation() + 1;
        let prev_good = ds.last_good;
        let bytes = match Self::bundle_bytes_locked(&mut sharded, &aux, &windows, &seqs) {
            Ok(bytes) => bytes,
            Err(e) => return fail(self, e),
        };
        // Fresh journal first, snapshot second: a crash between the two
        // leaves snap-(prev) + a full journal-(old) + an empty
        // journal-(new), which recovery replays losslessly. The reverse
        // order would strand post-snapshot batches in a journal older than
        // the restored snapshot.
        let journal = match JournalWriter::create(ds.storage.as_ref(), &ds.dir, new_gen) {
            Ok(journal) => journal,
            Err(e) => return fail(self, ServeError::Io(e)),
        };
        if let Err(e) =
            ds.storage.write_atomic(&snapshot_path(&ds.dir, new_gen), &bytes)
        {
            // The unused journal-(new) file stays behind; recovery replays
            // it as empty and the next rotation attempt recreates it.
            return fail(self, ServeError::Io(e));
        }
        ds.journal = journal;
        ds.last_good = new_gen;
        ds.tuples_since = 0;
        ds.last_snapshot = Instant::now();
        Self::prune_generations(&ds.storage, &ds.dir, prev_good);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        if auto {
            self.auto_snapshots.fetch_add(1, Ordering::Relaxed);
        }
        Ok((new_gen, bytes.len() as u64))
    }

    /// Whether the background snapshotter should rotate now.
    fn snapshot_due(&self, config: &DurabilityConfig) -> bool {
        let durable = self.durable.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(ds) = durable.as_ref() else {
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
        {
            // All locks are held across the whole batch (sharded before aux
            // before windows before seqs before durable, the order the
            // snapshot paths use too), so a concurrent snapshot can never
            // capture the structures at different stream prefixes, and the
            // journal receives batches in exactly apply order.
            let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
            let mut aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
            let mut windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
            let mut seqs = self.seqs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((writer, s)) = seq {
                if seqs.get(&writer).is_some_and(|&high| s <= high) {
                    return Reply::Ok(vec![
                        ("accepted", Value::U64(0)),
                        ("duplicate", Value::U64(1)),
                    ]);
                }
            }
            {
                // Write-ahead: the batch reaches stable storage before any
                // in-memory structure sees it, so the Ok ack below is a
                // durability receipt. A journal failure (including a
                // poisoned journal awaiting rotation) refuses the batch
                // with a structured io error and applies nothing.
                let mut durable = self.durable.lock().unwrap_or_else(PoisonError::into_inner);
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
            }
            if let Err(e) = sharded.ingest(tuples) {
                return fail(e.to_string());
            }
            let aux = &mut *aux;
            for &(x, y) in tuples {
                // The replication deltas (present while replication is on)
                // see exactly the tuples the live sketches see, under the
                // same lock — a cut can never split a batch.
                if let Err(e) = aux
                    .f0
                    .insert(x, y)
                    .and_then(|()| aux.rarity.insert(x, y))
                    .and_then(|()| match aux.f0_delta.as_mut() {
                        Some(d) => d.insert(x, y),
                        None => Ok(()),
                    })
                    .and_then(|()| match aux.rarity_delta.as_mut() {
                        Some(d) => d.insert(x, y),
                        None => Ok(()),
                    })
                {
                    return fail(format!("auxiliary sketch rejected a tuple: {e}"));
                }
            }
            if let Err(e) = aux.hh.update_batch(tuples).and_then(|()| match aux.hh_delta.as_mut() {
                Some(d) => d.update_batch(tuples),
                None => Ok(()),
            }) {
                return fail(format!("auxiliary sketch rejected a tuple: {e}"));
            }
            // Windowed structures: explicit per-tuple timestamps when the
            // client sent them, the arrival counter otherwise.
            let windows = &mut *windows;
            for (i, &(x, y)) in tuples.iter().enumerate() {
                let t = match ts.get(i) {
                    Some(&t) => {
                        windows.clock = windows.clock.max(t.saturating_add(1));
                        t
                    }
                    None => {
                        let t = windows.clock;
                        windows.clock = windows.clock.saturating_add(1);
                        t
                    }
                };
                if let Err(e) = windows
                    .f2
                    .observe(x, y, t)
                    .and_then(|()| windows.f0.observe(x, y, t))
                {
                    return fail(format!("windowed structure rejected a tuple: {e}"));
                }
            }
            // Raise the high-water mark only after the batch is journaled
            // and applied, so a failed batch can be retried with the same
            // sequence number.
            if let Some((writer, s)) = seq {
                seqs.insert(writer, s);
            }
        }
        let n = tuples.len() as u64;
        self.accepted.fetch_add(n, Ordering::Relaxed);
        Reply::Ok(vec![("accepted", Value::U64(n))])
    }

    /// Handle one request; the bool asks the listener to shut down. The
    /// reply is protocol-agnostic — the connection loop renders it as a JSON
    /// line or a binary frame to match the client.
    fn handle(&self, request: Request) -> (Reply, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let fail = |e: String| (Reply::sketch_error(e), false);
        match request {
            Request::Ping => (Reply::ok(), false),
            Request::Config => {
                let c = &self.config;
                (
                    Reply::Ok(vec![
                        ("epsilon", Value::F64(c.epsilon)),
                        ("delta", Value::F64(c.delta)),
                        ("y_max", Value::U64(c.y_max)),
                        ("max_stream_len", Value::U64(c.max_stream_len)),
                        ("seed", Value::U64(c.seed)),
                        ("shards", Value::U64(c.shards as u64)),
                        ("merge_every", Value::U64(c.merge_every)),
                        ("phi", Value::F64(c.phi)),
                        ("x_domain_log2", Value::U64(u64::from(c.x_domain_log2))),
                        ("pane_ticks", Value::U64(c.pane_ticks)),
                        ("pane_k", Value::U64(c.pane_k as u64)),
                        (
                            "pane_retention",
                            c.pane_retention.map_or(Value::Null, Value::U64),
                        ),
                        ("max_connections", Value::U64(c.max_connections as u64)),
                    ]),
                    false,
                )
            }
            Request::Ingest { xs, ys, ts, seq } => {
                let tuples: Vec<(u64, u64)> = xs.into_iter().zip(ys).collect();
                (
                    self.ingest_tuples(&tuples, ts.as_deref().unwrap_or(&[]), seq),
                    false,
                )
            }
            Request::Flush => {
                self.sharded
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .flush();
                self.merger.refresh();
                (Reply::ok(), false)
            }
            Request::QueryF2 { c } => match self.merger.current().sketch().query(c) {
                Ok(value) => (Reply::Ok(vec![("value", Value::F64(value))]), false),
                Err(e) => fail(e.to_string()),
            },
            Request::QueryF0 { c } => {
                let aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
                match aux.f0.query(c.min(self.config.y_max)) {
                    Ok(value) => (Reply::Ok(vec![("value", Value::F64(value))]), false),
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::QueryRarity { c } => {
                let aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
                match aux.rarity.query(c.min(self.config.y_max)) {
                    Ok(value) => (Reply::Ok(vec![("value", Value::F64(value))]), false),
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::QueryHeavyHitters { c, phi } => {
                let aux = self.aux.lock().unwrap_or_else(PoisonError::into_inner);
                match aux.hh.query_heavy_hitters(c, phi) {
                    Ok(hitters) => {
                        let items: Vec<u64> = hitters.iter().map(|h| h.item).collect();
                        let freqs: Vec<f64> = hitters.iter().map(|h| h.frequency).collect();
                        let shares: Vec<f64> = hitters.iter().map(|h| h.share).collect();
                        (
                            Reply::Ok(vec![
                                ("items", Value::U64Array(items)),
                                ("frequencies", Value::F64Array(freqs)),
                                ("shares", Value::F64Array(shares)),
                            ]),
                            false,
                        )
                    }
                    Err(e) => fail(e.to_string()),
                }
            }
            Request::WindowF2 { window, c } => {
                let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
                match window_answer(&windows.f2, window, c.min(self.config.y_max)) {
                    Ok(fields) => (Reply::Ok(fields), false),
                    Err(e) => fail(e),
                }
            }
            Request::WindowF0 { window, c } => {
                let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
                match window_answer(&windows.f0, window, c.min(self.config.y_max)) {
                    Ok(fields) => (Reply::Ok(fields), false),
                    Err(e) => fail(e),
                }
            }
            Request::Stats => {
                let composite = self.merger.current();
                let stats = composite.sketch().stats();
                let accepted = self
                    .sharded
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .items_accepted();
                let (window_panes, window_late_dropped, window_clock) = {
                    let windows = self.windows.lock().unwrap_or_else(PoisonError::into_inner);
                    (windows.f2.pane_count(), windows.f2.late_dropped(), windows.clock)
                };
                let (durable_on, generation, journal_poisoned) = {
                    let durable = self.durable.lock().unwrap_or_else(PoisonError::into_inner);
                    match durable.as_ref() {
                        Some(ds) => (1, ds.journal.generation(), u64::from(ds.journal.is_poisoned())),
                        None => (0, 0, 0),
                    }
                };
                (
                    Reply::Ok(vec![
                        ("requests", Value::U64(self.requests.load(Ordering::Relaxed))),
                        ("items_accepted", Value::U64(accepted)),
                        ("composite_items", Value::U64(stats.items_processed)),
                        ("composite_epoch", Value::U64(composite.epoch())),
                        (
                            "staleness_batches",
                            Value::U64(self.merger.staleness_batches()),
                        ),
                        ("singleton_buckets", Value::U64(stats.singleton_buckets as u64)),
                        ("dyadic_buckets", Value::U64(stats.dyadic_buckets as u64)),
                        ("stored_tuples", Value::U64(stats.stored_tuples as u64)),
                        ("space_bytes", Value::U64(stats.space_bytes as u64)),
                        (
                            "snapshots_taken",
                            Value::U64(self.snapshots.load(Ordering::Relaxed)),
                        ),
                        ("window_panes", Value::U64(window_panes as u64)),
                        ("window_late_dropped", Value::U64(window_late_dropped)),
                        ("window_clock", Value::U64(window_clock)),
                        ("durable", Value::U64(durable_on)),
                        ("generation", Value::U64(generation)),
                        ("journal_poisoned", Value::U64(journal_poisoned)),
                        (
                            "journal_batches",
                            Value::U64(self.journal_batches.load(Ordering::Relaxed)),
                        ),
                        (
                            "journal_bytes",
                            Value::U64(self.journal_bytes.load(Ordering::Relaxed)),
                        ),
                        (
                            "auto_snapshots",
                            Value::U64(self.auto_snapshots.load(Ordering::Relaxed)),
                        ),
                        (
                            "snapshot_errors",
                            Value::U64(self.snapshot_errors.load(Ordering::Relaxed)),
                        ),
                    ]),
                    false,
                )
            }
            Request::Snapshot { path } if path.is_empty() => {
                // Empty path = durable rotation: publish the next snapshot
                // generation and swap in a fresh journal.
                match self.durable_snapshot(false) {
                    Ok((generation, bytes)) => (
                        Reply::Ok(vec![
                            ("generation", Value::U64(generation)),
                            ("bytes", Value::U64(bytes)),
                        ]),
                        false,
                    ),
                    Err(ServeError::Io(e)) => (
                        Reply::io_error(format!("snapshot rotation failed: {e}")),
                        false,
                    ),
                    Err(ServeError::Invalid(e)) => (Reply::request_error(e), false),
                    Err(e) => (Reply::server_error(e.to_string()), false),
                }
            }
            Request::Snapshot { path } => match self.snapshot_bundle() {
                Ok(bytes) => match std::fs::write(&path, &bytes) {
                    Ok(()) => (
                        Reply::Ok(vec![("bytes", Value::U64(bytes.len() as u64))]),
                        false,
                    ),
                    Err(e) => (
                        Reply::io_error(format!("could not write snapshot to {path:?}: {e}")),
                        false,
                    ),
                },
                Err(ServeError::Io(e)) => (
                    Reply::io_error(format!("snapshot failed: {e}")),
                    false,
                ),
                Err(e) => fail(e.to_string()),
            },
            Request::Auth { .. } => {
                // The transport layer intercepts `auth` before dispatch (the
                // gate is per-connection state); reaching here means the op
                // was issued where it has no meaning.
                (
                    Reply::request_error(
                        "auth is handled by the connection transport before dispatch",
                    ),
                    false,
                )
            }
            Request::SetF0 { .. } | Request::Streams => (
                Reply::request_error(
                    "set-expression queries are answered by an aggregator node \
                     (cora_serve_agg), not by an ingest server",
                ),
                false,
            ),
            Request::ReplHello { .. }
            | Request::ReplDelta { .. }
            | Request::ReplSnapshot { .. } => (
                Reply::request_error(
                    "replication frames are accepted by an aggregator node \
                     (cora_serve_agg), not by an ingest server",
                ),
                false,
            ),
            Request::Shutdown => (Reply::ok(), true),
        }
    }
}

/// The protocol-agnostic service surface a connection dispatches into —
/// implemented by [`ServerCore`] (an ingest node) and by the aggregator
/// core in [`crate::cluster`]. The connection state machine, the worker
/// pool, and the acceptor are generic over this trait, so both node kinds
/// share one transport stack (first-byte protocol sniffing, auth gating,
/// pipelining, connection limits).
pub(crate) trait ServiceCore: Send + Sync + 'static {
    /// The configured shared-secret token, when authentication is required.
    fn auth_token(&self) -> Option<&str>;
    /// Count one request (called by the transport for requests it answers
    /// itself: `auth` handling and unauthenticated rejections).
    fn note_request(&self);
    /// Handle one request; the bool asks the listener to shut down.
    fn handle(&self, request: Request) -> (Reply, bool);
    /// The binary ingest fast path (tuples decoded into connection scratch).
    fn ingest_binary(&self, tuples: &[(u64, u64)], ts: &[u64], seq: Option<(u64, u64)>) -> Reply;
}

impl ServiceCore for ServerCore {
    fn auth_token(&self) -> Option<&str> {
        self.config.auth_token.as_deref()
    }

    fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn handle(&self, request: Request) -> (Reply, bool) {
        ServerCore::handle(self, request)
    }

    fn ingest_binary(&self, tuples: &[(u64, u64)], ts: &[u64], seq: Option<(u64, u64)>) -> Reply {
        self.ingest_tuples(tuples, ts, seq)
    }
}

/// Compare a presented auth token against the configured one without an
/// early exit on the first differing byte — neither the token length nor
/// its content leaks through response timing.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Poll interval for the accept loop's shutdown checks and the deepest
/// idle-sleep tier of the connection workers.
const NET_TICK: Duration = Duration::from_millis(50);

/// How many scheduler-yield spins an active worker burns before it starts
/// sleeping — long enough to cover a client's turnaround on loopback, so
/// request/response ping-pong never eats a sleep latency.
const IDLE_SPINS: u32 = 256;

/// First sleep tier after the spin budget; doubles up to [`NET_TICK`].
const IDLE_SLEEP_FLOOR: Duration = Duration::from_micros(200);

/// The structured refusal an unauthenticated request is answered with while
/// an auth token is configured.
const UNAUTHENTICATED: &str =
    "authentication required: send the auth op with the shared token first";

/// Which protocol a connection speaks, decided once by its first byte.
enum ConnMode {
    /// Nothing received yet.
    Sniffing,
    /// Newline-delimited JSON (first byte `{` or leading whitespace).
    Json,
    /// Length-prefixed binary frames (first byte [`wire::MAGIC`]).
    Binary,
}

/// What one service pass over a connection produced.
enum ConnStep {
    /// Bytes moved or requests were handled — keep spinning.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// Connection finished (client closed, fatal error, or protocol abuse).
    Close,
}

/// Per-connection state owned by a worker: the socket (non-blocking), the
/// inbound byte buffer, pending outbound bytes, and the binary ingest
/// scratch that makes frame decoding allocation-free per tuple.
struct Conn {
    stream: TcpStream,
    mode: ConnMode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Close once `outbuf` has drained (protocol abuse or shutdown ack).
    close_after_flush: bool,
    /// Whether this connection has passed the auth gate. Starts `true`
    /// when the core has no token configured; otherwise flips on a
    /// successful `auth` op.
    authed: bool,
    /// Reused binary-ingest decode targets.
    tuples: Vec<(u64, u64)>,
    ts: Vec<u64>,
}

impl Conn {
    fn new(stream: TcpStream, authed: bool) -> Self {
        Self {
            stream,
            mode: ConnMode::Sniffing,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            authed,
            tuples: Vec::new(),
            ts: Vec::new(),
        }
    }

    /// Dispatch one parsed request through the per-connection auth gate:
    /// `auth` is consumed here (constant-time token compare), and while a
    /// token is configured every other op on an unauthenticated connection
    /// is refused with a structured `request` error — the connection stays
    /// open so the client can authenticate and retry.
    fn dispatch<C: ServiceCore>(&mut self, core: &C, request: Request) -> (Reply, bool) {
        if let Request::Auth { token } = &request {
            core.note_request();
            let reply = match core.auth_token() {
                // No token configured: accept the op as a no-op so clients
                // can send auth unconditionally.
                None => Reply::ok(),
                Some(expected) if constant_time_eq(expected.as_bytes(), token.as_bytes()) => {
                    self.authed = true;
                    Reply::ok()
                }
                Some(_) => Reply::request_error("authentication failed: token mismatch"),
            };
            return (reply, false);
        }
        if !self.authed {
            core.note_request();
            return (Reply::request_error(UNAUTHENTICATED), false);
        }
        core.handle(request)
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    fn queue_json_line(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    /// Push pending output to the socket without blocking. Returns false on
    /// a fatal socket error.
    fn flush_out(&mut self, progress: &mut bool) -> bool {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outpos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.outpos == self.outbuf.len() && self.outpos > 0 {
            self.outbuf.clear();
            self.outpos = 0;
        }
        true
    }

    /// Read whatever the socket has ready (bounded per pass so one firehose
    /// client cannot starve its worker's other connections). Returns false
    /// when the connection is done (EOF or fatal error).
    fn fill_in(&mut self, chunk: &mut [u8], progress: &mut bool) -> bool {
        for _ in 0..16 {
            match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    *progress = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// One service pass: flush, read, then handle every complete message
    /// sitting in the inbound buffer.
    fn step<C: ServiceCore>(
        &mut self,
        core: &C,
        shutdown: &Arc<AtomicBool>,
        listener_addr: SocketAddr,
        chunk: &mut [u8],
    ) -> ConnStep {
        let mut progress = false;
        if !self.flush_out(&mut progress) {
            return ConnStep::Close;
        }
        if self.close_after_flush {
            return if self.outpos < self.outbuf.len() {
                ConnStep::Idle
            } else {
                ConnStep::Close
            };
        }
        if !self.fill_in(chunk, &mut progress) {
            // Serve whatever complete requests arrived before EOF, then
            // close once the answers are flushed.
            self.close_after_flush = true;
        }
        let mut pos = 0usize;
        loop {
            match self.mode {
                ConnMode::Sniffing => {
                    // Skip leading whitespace (blank lines between JSON
                    // requests would land here on a reconnect-free client).
                    while pos < self.inbuf.len()
                        && matches!(self.inbuf[pos], b' ' | b'\t' | b'\r' | b'\n')
                    {
                        pos += 1;
                    }
                    match self.inbuf.get(pos) {
                        None => break,
                        Some(&wire::MAGIC) => self.mode = ConnMode::Binary,
                        Some(&b'{') => self.mode = ConnMode::Json,
                        Some(&other) => {
                            self.queue_json_line(&protocol::error(&format!(
                                "unrecognized protocol: first byte 0x{other:02X} is neither \
                                 JSON ('{{') nor a binary frame (0x{:02X})",
                                wire::MAGIC
                            )));
                            self.close_after_flush = true;
                            break;
                        }
                    }
                }
                ConnMode::Json => {
                    let Some(nl) = self.inbuf[pos..].iter().position(|&b| b == b'\n') else {
                        if self.inbuf.len() - pos > wire::MAX_FRAME_BYTES {
                            self.queue_json_line(&protocol::error(&format!(
                                "request line exceeds the {}-byte cap",
                                wire::MAX_FRAME_BYTES
                            )));
                            self.close_after_flush = true;
                        }
                        break;
                    };
                    let line = &self.inbuf[pos..pos + nl];
                    pos += nl + 1;
                    let text = String::from_utf8_lossy(line);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    progress = true;
                    let (reply, stop) = match Request::parse(trimmed) {
                        Ok(request) => self.dispatch(core, request),
                        Err(e) => (Reply::request_error(format!("bad request: {e}")), false),
                    };
                    let line = reply.render_json();
                    self.queue_json_line(&line);
                    if stop {
                        self.begin_shutdown(shutdown, listener_addr);
                        break;
                    }
                }
                ConnMode::Binary => {
                    let avail = &self.inbuf[pos..];
                    if avail.len() < wire::HEADER_BYTES {
                        break;
                    }
                    let header_bytes: &[u8; wire::HEADER_BYTES] =
                        avail[..wire::HEADER_BYTES].try_into().expect("header size");
                    let header = match wire::parse_header(header_bytes) {
                        Ok(header) => header,
                        Err(e) => {
                            // Framing can't be trusted past a bad header
                            // (magic, version, or a hostile length — which
                            // is rejected before any payload is buffered).
                            self.queue(&wire::encode_reply(
                                header_bytes[2],
                                &Reply::request_error(e.to_string()),
                            ));
                            self.close_after_flush = true;
                            progress = true;
                            break;
                        }
                    };
                    if avail.len() < wire::HEADER_BYTES + header.len {
                        break; // incomplete frame; wait for more bytes
                    }
                    let payload_start = pos + wire::HEADER_BYTES;
                    pos = payload_start + header.len;
                    progress = true;
                    let no_ack = header.flags & wire::FLAG_NO_ACK != 0;
                    match Opcode::from_byte(header.opcode) {
                        Some(Opcode::Ingest) if self.authed => {
                            // The hot path: decode straight into this
                            // connection's scratch, no per-tuple allocation,
                            // and skip the ack entirely when pipelined.
                            let payload = &self.inbuf[payload_start..pos];
                            let reply = match wire::decode_ingest_into(
                                payload,
                                &mut self.tuples,
                                &mut self.ts,
                            ) {
                                Ok(meta) => {
                                    core.note_request();
                                    core.ingest_binary(&self.tuples, &self.ts, meta.seq)
                                }
                                Err(e) => Reply::request_error(format!("bad ingest frame: {e}")),
                            };
                            let suppress = no_ack && matches!(reply, Reply::Ok(_));
                            if !suppress {
                                self.queue(&wire::encode_reply(header.opcode, &reply));
                            }
                        }
                        Some(Opcode::Ingest) => {
                            // Unauthenticated fast-path ingest is refused
                            // without decoding; errors are never suppressed,
                            // so even a NO_ACK pipeline hears about it.
                            core.note_request();
                            self.queue(&wire::encode_reply(
                                header.opcode,
                                &Reply::request_error(UNAUTHENTICATED),
                            ));
                        }
                        Some(opcode) => {
                            let payload = &self.inbuf[payload_start..pos];
                            let (reply, stop) = match wire::decode_request(opcode, payload) {
                                Ok(request) => self.dispatch(core, request),
                                Err(e) => {
                                    (Reply::request_error(format!("bad request frame: {e}")), false)
                                }
                            };
                            // Replication requests are acknowledged with the
                            // dedicated REPL_ACK opcode instead of an echo.
                            let reply_opcode = match opcode {
                                Opcode::ReplHello | Opcode::ReplDelta | Opcode::ReplSnapshot => {
                                    Opcode::ReplAck as u8
                                }
                                _ => header.opcode,
                            };
                            let suppress = no_ack && matches!(reply, Reply::Ok(_)) && !stop;
                            if !suppress {
                                self.queue(&wire::encode_reply(reply_opcode, &reply));
                            }
                            if stop {
                                self.begin_shutdown(shutdown, listener_addr);
                                break;
                            }
                        }
                        None => {
                            // A well-formed frame with an unknown opcode:
                            // answer and keep serving, like the JSON
                            // protocol's unknown-op error.
                            self.queue(&wire::encode_reply(
                                header.opcode,
                                &Reply::request_error(format!(
                                    "unknown opcode 0x{:02X}",
                                    header.opcode
                                )),
                            ));
                        }
                    }
                }
            }
        }
        if pos > 0 {
            self.inbuf.drain(..pos);
        }
        if !self.flush_out(&mut progress) {
            return ConnStep::Close;
        }
        if self.close_after_flush && self.outpos >= self.outbuf.len() {
            return ConnStep::Close;
        }
        if progress {
            ConnStep::Progress
        } else {
            ConnStep::Idle
        }
    }

    /// The shutdown op: deliver the ack, then stop the listener. The ack is
    /// flushed with a short blocking retry so the flag flip can't race the
    /// worker teardown and eat the response.
    fn begin_shutdown(&mut self, shutdown: &Arc<AtomicBool>, listener_addr: SocketAddr) {
        let deadline = std::time::Instant::now() + NET_TICK;
        let mut progress = false;
        while self.outpos < self.outbuf.len() && std::time::Instant::now() < deadline {
            if !self.flush_out(&mut progress) {
                break;
            }
            if self.outpos < self.outbuf.len() {
                thread::sleep(Duration::from_micros(100));
            }
        }
        shutdown.store(true, Ordering::Release);
        // The acceptor may be blocked in accept(); wake it with a throwaway
        // connection so the shutdown op alone stops the listener.
        let _ = TcpStream::connect(listener_addr);
        self.close_after_flush = true;
    }
}

/// A connection worker: owns a set of sockets, polls them with non-blocking
/// reads, and escalates from spinning to sleeping as they go idle. A fixed
/// pool of these replaces one-thread-per-connection — thousands of idle
/// clients cost failed `read` syscalls on a few threads, not thousands of
/// parked stacks.
#[allow(clippy::needless_pass_by_value)]
fn worker_loop<C: ServiceCore>(
    core: Arc<C>,
    shutdown: Arc<AtomicBool>,
    rx: std::sync::mpsc::Receiver<TcpStream>,
    live: Arc<AtomicU64>,
    listener_addr: SocketAddr,
) {
    // With no token configured every connection starts authenticated.
    let open = core.auth_token().is_none();
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut spins = 0u32;
    let mut sleep = IDLE_SLEEP_FLOOR;
    loop {
        if shutdown.load(Ordering::Acquire) {
            live.fetch_sub(conns.len() as u64, Ordering::AcqRel);
            return;
        }
        while let Ok(stream) = rx.try_recv() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            conns.push(Conn::new(stream, open));
        }
        let mut progress = false;
        let mut index = 0;
        while index < conns.len() {
            match conns[index].step(core.as_ref(), &shutdown, listener_addr, &mut chunk) {
                ConnStep::Progress => {
                    progress = true;
                    index += 1;
                }
                ConnStep::Idle => index += 1,
                ConnStep::Close => {
                    conns.swap_remove(index);
                    live.fetch_sub(1, Ordering::AcqRel);
                    progress = true;
                }
            }
        }
        if progress {
            spins = 0;
            sleep = IDLE_SLEEP_FLOOR;
            continue;
        }
        if conns.is_empty() {
            // Nothing to poll: block on the hand-off channel (bounded so the
            // shutdown flag is still noticed).
            if let Ok(stream) = rx.recv_timeout(NET_TICK) {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream, open));
            }
            continue;
        }
        spins += 1;
        if spins <= IDLE_SPINS {
            thread::yield_now();
        } else {
            thread::sleep(sleep);
            sleep = (sleep * 2).min(NET_TICK);
        }
    }
}

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
            thread::sleep(NET_TICK);
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
    let durability = config.durability.clone();
    let config_replicate = config.replicate.clone();
    let storage = durability
        .as_ref()
        .map(|_| storage.unwrap_or_else(crate::journal::disk_storage));
    let recovered = match (&durability, &storage) {
        (Some(d), Some(storage)) => Some(recover(storage, &d.dir)?),
        _ => None,
    };
    let effective_bundle = bundle.or(recovered.as_ref().and_then(|r| r.bundle.as_ref()));
    let core = Arc::new(ServerCore::build(config, effective_bundle)?);
    if let Some(recovered) = &recovered {
        // Replay the journal tail through the normal ingest path (the
        // durable slot is still None, so nothing is re-journaled). Errors
        // cannot occur for batches that were validated before being
        // journaled; a reply is still produced and ignored deliberately.
        for record in &recovered.replay {
            let _ = core.ingest_tuples(&record.tuples, &record.ts, record.seq);
        }
        let (d, storage) = (
            durability.as_ref().expect("durability implies recovery"),
            storage.as_ref().expect("durability implies storage"),
        );
        core.open_durable(storage, d, recovered.open_generation, recovered.restored_generation)?;
    }
    if let Some(replicate) = &config_replicate {
        if !crate::cluster::valid_stream_name(&replicate.stream) {
            return Err(ServeError::Invalid(format!(
                "replication stream name {:?} must be 1-64 bytes of [A-Za-z0-9_.-]",
                replicate.stream
            )));
        }
        core.enable_replication()?;
    }
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // The background snapshotter: polls the rotation triggers while the
    // server runs. Spawned before the acceptor moves `core`.
    let snapshotter = match &durability {
        Some(d)
            if d.snapshot_every_tuples > 0
                || d.snapshot_interval_ms > 0 =>
        {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            let d = d.clone();
            thread::Builder::new()
                .name("cora-serve-snapshot".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        if core.snapshot_due(&d) {
                            // Failures are counted in snapshot_errors and
                            // retried on the next trigger; the previous
                            // generation stays in charge meanwhile.
                            let _ = core.durable_snapshot(true);
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

/// Bind the shared transport stack — a fixed worker pool of non-blocking
/// connection pollers fed by one accept thread — over any [`ServiceCore`].
/// Used by [`start`] (ingest nodes) and by
/// [`crate::cluster::start_aggregator`].
pub(crate) fn spawn_acceptor<C: ServiceCore>(
    core: Arc<C>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
) -> Result<thread::JoinHandle<()>, ServeError> {
    let addr = listener.local_addr()?;
    // A small fixed worker pool services every connection with non-blocking
    // reads; the acceptor only hands sockets over. Thousands of idle clients
    // therefore cost a few polling threads, not thousands of parked stacks.
    let workers = thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    let live = Arc::new(AtomicU64::new(0));
    let acceptor_shutdown = shutdown;
    thread::Builder::new()
        .name("cora-serve-accept".into())
        .spawn(move || {
            let mut txs = Vec::with_capacity(workers);
            let mut pool = Vec::with_capacity(workers);
            for i in 0..workers {
                let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
                let core = Arc::clone(&core);
                let shutdown = Arc::clone(&acceptor_shutdown);
                let live = Arc::clone(&live);
                if let Ok(handle) = thread::Builder::new()
                    .name(format!("cora-serve-worker-{i}"))
                    .spawn(move || worker_loop(core, shutdown, rx, live, addr))
                {
                    txs.push(tx);
                    pool.push(handle);
                }
            }
            let mut next = 0usize;
            loop {
                if acceptor_shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        if acceptor_shutdown.load(Ordering::Acquire) {
                            break; // the shutdown wake-up connection
                        }
                        if live.load(Ordering::Acquire) >= max_connections as u64 {
                            // Over the configured limit: answer with one
                            // error line and close, instead of silently
                            // queueing in the accept backlog. (Binary
                            // clients see a failed handshake — the reply is
                            // not a frame — and close too.)
                            let refusal = protocol::error_with_kind(
                                protocol::ErrorKind::Server,
                                &format!(
                                    "connection limit reached \
                                     (max_connections = {max_connections})"
                                ),
                            );
                            let _ = stream.write_all(refusal.as_bytes());
                            let _ = stream.write_all(b"\n");
                            continue;
                        }
                        if txs.is_empty() {
                            continue;
                        }
                        live.fetch_add(1, Ordering::AcqRel);
                        if txs[next % txs.len()].send(stream).is_err() {
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                        next = next.wrapping_add(1);
                    }
                    Err(_) => {
                        if acceptor_shutdown.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
            }
            drop(txs);
            for handle in pool {
                let _ = handle.join();
            }
        })
        .map_err(|e| ServeError::Invalid(format!("could not spawn the accept loop: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_round_trip_and_rejections() {
        let bundle = Bundle {
            f2: vec![1, 2, 3],
            f0: vec![4],
            rarity: vec![],
            hh: vec![5, 6],
            window_f2: vec![7],
            window_f0: vec![8, 9],
            seqs: vec![10],
        };
        let bytes = encode_bundle(&bundle);
        let decoded = decode_bundle(&bytes).unwrap();
        assert_eq!(decoded.f2, bundle.f2);
        assert_eq!(decoded.f0, bundle.f0);
        assert_eq!(decoded.rarity, bundle.rarity);
        assert_eq!(decoded.hh, bundle.hh);
        assert_eq!(decoded.window_f2, bundle.window_f2);
        assert_eq!(decoded.window_f0, bundle.window_f0);
        assert_eq!(decoded.seqs, bundle.seqs);

        assert!(decode_bundle(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_bundle(b"XXXX").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(decode_bundle(&wrong_version).is_err());
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
            merge_every: 1,
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
            merge_every: 1,
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
