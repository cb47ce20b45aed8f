//! Windowed correlated aggregates.
//!
//! The whole-stream structures in `cora-core` answer one-dimensional slices:
//! "AGG of the items whose `y ≤ c`". Production queries are usually
//! two-dimensional — *"F2 of destinations with flow size ≤ c **over the last
//! hour**"*. This module adds the time dimension with an
//! exponential-histogram-style ring of sealed, mergeable sketch *panes*:
//!
//! * the tick axis is tiled into base panes of [`PaneConfig::pane_ticks`]
//!   ticks each; the pane containing the newest timestamp is *open*, older
//!   panes are *sealed*;
//! * every pane is a full correlated sketch built with the **same seed and
//!   configuration**, so pane merges are lossless (Property V, PR 3's
//!   `merge_from`);
//! * whenever more than [`PaneConfig::k`] sealed panes share a size class,
//!   the two oldest are buddy-merged into one pane of the next class — old
//!   history coarsens geometrically, keeping the ring at `O(k · log W)`
//!   panes for a span of `W` ticks;
//! * a sealed pane costs at most its buckets × one sketch, however many
//!   base panes it absorbed: merged buckets spill from exact to sketched
//!   storage at the size inserted ones do ([`BucketStore`]), so coarsening
//!   never accumulates raw frequency vectors (128 served-config F2 panes of
//!   256 tuples fold into ~74k stored tuples, against ~217k for one sketch
//!   fed the same 32k tuples directly). The price is accuracy: a merged
//!   bucket that outgrew its level's threshold answers with its sketch's
//!   error (within ε), not from stored history — see "Choosing
//!   `pane_ticks`" on [`PaneConfig`];
//! * a window query selects the `O(log W)` panes inside the window and
//!   composes them through [`CorrelatedSketch::merge_all`]; the composite is
//!   memoized in a generation-keyed [`GenCache`] so repeated window queries
//!   cost one cache probe plus the framework's own threshold-compose cache.
//!
//! Two rings are built: [`WindowedF2`] and [`WindowedF0`], the sliding
//! windows the serving node answers (`window_f2` / `window_f0`).
//!
//! ## Resolved windows
//!
//! Pane boundaries quantize time. A query for `(now, window)` is answered
//! over the **resolved window**: the union of whole panes whose start lies
//! inside the requested span. The resolved window never reaches *earlier*
//! than requested (the partially-covered oldest pane is excluded), so the
//! estimate covers exactly the tuples with `resolved_lo ≤ t < resolved_hi` —
//! [`PaneRing::resolved_window`] reports the span so callers (and the test
//! oracle) can compare against exact recomputation honestly. Base-pane
//! granularity bounds the snap at the fresh end of history; coarsened panes
//! bound it geometrically further back, exactly as in an exponential
//! histogram.
//!
//! ## Retention and staleness
//!
//! With [`PaneConfig::retention`] set, panes whose whole span falls behind
//! `t_latest − retention` are dropped. Queries reaching past the expiry
//! horizon fail with [`CoreError::WindowExpired`] instead of silently
//! undercounting; late tuples older than the horizon are counted in
//! [`PaneRing::late_dropped`] and discarded. Without retention the ring is a
//! *landmark* structure: it keeps (coarsening) history forever, so "since
//! tick `l`" is the sliding window of `t_latest + 1 − l` ticks.
//!
//! ## Asynchronous arrivals
//!
//! Tuples may arrive out of timestamp order (the paper's asynchronous-stream
//! setting, Section 1.1 — see [`crate::async_window`] for the pure
//! reduction). A late tuple is routed to the sealed pane containing its
//! timestamp; if its slot was already buddy-merged it lands in the coarser
//! covering pane, and if it falls in a never-observed gap a fresh sealed
//! base pane is created in place. Unlike [`crate::async_window`], whose
//! reduction stores the whole stream's worth of sketch state to answer any
//! suffix, the pane ring trades resolution for bounded panes and adds
//! retention and the y-threshold dimension.
//!
//! [`BucketStore`]: cora_core::BucketStore

use cora_core::f0::CorrelatedF0;
use cora_core::f2::F2Aggregate;
use cora_core::snapshot::{self, SnapshotKind};
use cora_core::{CoreError, CorrelatedAggregate, CorrelatedSketch, GenCache, Result};
use cora_sketch::codec::{ByteReader, ByteWriter};
use cora_sketch::StateCodec;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Composite-window cache slots kept per ring (distinct resolved windows
/// memoized at the current generation).
const WINDOW_CACHE_CAPACITY: usize = 8;

/// Geometry of a pane ring: base-pane width, per-class budget, retention.
///
/// # Choosing `pane_ticks`
///
/// Finer panes buy window-edge resolution but cost accuracy: a sealed pane's
/// dyadic buckets are frozen at whatever refinement its own (short) slice of
/// the stream produced, and pane merges union buckets — they can never
/// re-split them. Merging many tens of panes that each held only tens of
/// tuples therefore compounds into systematic underestimates at low
/// y-thresholds. The same frozen buckets keep growing as panes merge, so
/// past their sketch's spill point they answer with the sketch's error (a
/// bucket refined by direct inserts would have closed small and exact).
/// Size panes so each base pane sees at least a few hundred tuples; the
/// windowed row of the accuracy report measures exactly this trade-off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaneConfig {
    /// Width of a base (class-0) pane in ticks. Pane boundaries are the
    /// multiples of this value; it is the finest window resolution.
    pub pane_ticks: u64,
    /// Maximum sealed panes per size class before the two oldest are
    /// buddy-merged into the next class. Larger `k` keeps finer resolution
    /// deeper into history at the cost of more panes (`≥ 2`).
    pub k: usize,
    /// Ticks of history to retain, measured back from the newest observed
    /// timestamp. `None` retains everything (landmark mode).
    pub retention: Option<u64>,
}

impl PaneConfig {
    /// A landmark-mode config with per-class budget 4.
    pub fn new(pane_ticks: u64) -> Self {
        Self { pane_ticks, k: 4, retention: None }
    }

    /// Set the per-class pane budget.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the retention horizon in ticks.
    pub fn with_retention(mut self, retention: u64) -> Self {
        self.retention = Some(retention);
        self
    }

    /// Check the geometry is usable.
    pub fn validate(&self) -> Result<()> {
        if self.pane_ticks == 0 {
            return Err(CoreError::InvalidParameter {
                name: "pane_ticks",
                detail: "base pane width must be at least one tick".to_string(),
            });
        }
        if self.k < 2 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                detail: format!("per-class pane budget must be at least 2, got {}", self.k),
            });
        }
        if let Some(r) = self.retention {
            if r < self.pane_ticks {
                return Err(CoreError::InvalidParameter {
                    name: "retention",
                    detail: format!(
                        "retention ({r} ticks) must cover at least one base pane ({} ticks)",
                        self.pane_ticks
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A correlated sketch usable as one pane of a [`PaneRing`]: insertable,
/// losslessly mergeable with same-configured siblings (Property V), and
/// self-framing for snapshots.
pub trait WindowPane: Clone + fmt::Debug {
    /// Insert one `(x, y)` tuple.
    fn pane_insert(&mut self, x: u64, y: u64) -> Result<()>;
    /// Merge a same-configured pane into this one.
    fn pane_merge_from(&mut self, other: &Self) -> Result<()>;
    /// A fresh, empty pane sharing this pane's configuration and seed.
    fn fresh(&self) -> Result<Self>;
    /// Answer the correlated query at threshold `c`.
    fn pane_query(&self, c: u64) -> Result<f64>;
    /// Tuples currently stored (space accounting).
    fn pane_stored_tuples(&self) -> usize;
    /// Append this pane's state as one self-validating snapshot frame.
    fn encode_frame(&self, out: &mut Vec<u8>);
    /// Rebuild a pane from a frame produced by [`WindowPane::encode_frame`],
    /// rejecting frames whose configuration differs from `template`'s.
    fn decode_frame(template: &Self, bytes: &[u8]) -> Result<Self>;
}

impl<A> WindowPane for CorrelatedSketch<A>
where
    A: CorrelatedAggregate + fmt::Debug,
    A::Sketch: StateCodec,
{
    fn pane_insert(&mut self, x: u64, y: u64) -> Result<()> {
        self.insert(x, y)
    }

    fn pane_merge_from(&mut self, other: &Self) -> Result<()> {
        self.merge_from(other)
    }

    fn fresh(&self) -> Result<Self> {
        CorrelatedSketch::new(self.aggregate().clone(), self.config().clone())
    }

    fn pane_query(&self, c: u64) -> Result<f64> {
        self.query(c)
    }

    fn pane_stored_tuples(&self) -> usize {
        self.stored_tuples()
    }

    fn encode_frame(&self, out: &mut Vec<u8>) {
        self.snapshot_to(out);
    }

    fn decode_frame(template: &Self, bytes: &[u8]) -> Result<Self> {
        let pane = CorrelatedSketch::restore_from(template.aggregate().clone(), bytes)?;
        if pane.config() != template.config() {
            return Err(CoreError::Snapshot {
                detail: "pane frame carries a different configuration than the ring".to_string(),
            });
        }
        Ok(pane)
    }
}

impl WindowPane for CorrelatedF0 {
    fn pane_insert(&mut self, x: u64, y: u64) -> Result<()> {
        self.insert(x, y)
    }

    fn pane_merge_from(&mut self, other: &Self) -> Result<()> {
        self.merge_from(other)
    }

    fn fresh(&self) -> Result<Self> {
        CorrelatedF0::with_seed(
            self.epsilon(),
            self.delta(),
            self.x_domain_log2(),
            self.y_max(),
            self.seed(),
        )
    }

    fn pane_query(&self, c: u64) -> Result<f64> {
        self.query(c)
    }

    fn pane_stored_tuples(&self) -> usize {
        self.stored_tuples()
    }

    fn encode_frame(&self, out: &mut Vec<u8>) {
        self.snapshot_to(out);
    }

    fn decode_frame(template: &Self, bytes: &[u8]) -> Result<Self> {
        let pane = CorrelatedF0::restore_from(bytes)?;
        let same = pane.epsilon() == template.epsilon()
            && pane.delta() == template.delta()
            && pane.x_domain_log2() == template.x_domain_log2()
            && pane.y_max() == template.y_max()
            && pane.seed() == template.seed();
        if !same {
            return Err(CoreError::Snapshot {
                detail: "pane frame carries different F0 parameters than the ring".to_string(),
            });
        }
        Ok(pane)
    }
}

/// One pane: a half-open tick span `[start, end)` plus its sketch. `class`
/// records how many buddy-merges produced it (a class-`ℓ` pane absorbed
/// `2^ℓ`-ish base panes; gaps can stretch its span further).
#[derive(Debug, Clone)]
struct Pane<P> {
    start: u64,
    end: u64,
    class: u32,
    sketch: P,
}

/// An exponential-histogram-style ring of sealed correlated-sketch panes
/// answering `(time window, y-threshold)` two-dimensional slices.
///
/// Generic over the pane type `P`; use the aliases [`WindowedF2`] and
/// [`WindowedF0`] (constructed by [`windowed_f2`] and [`windowed_f0`]).
pub struct PaneRing<P: WindowPane> {
    /// Empty template pane: configuration + seed donor for fresh panes.
    proto: P,
    config: PaneConfig,
    /// Panes sorted by `start`, non-overlapping; the last contains the newest
    /// observed timestamp.
    panes: Vec<Pane<P>>,
    t_latest: u64,
    has_data: bool,
    late_dropped: u64,
    /// Ticks strictly before this may have been lost to retention expiry.
    expired_through: Option<u64>,
    /// Mutation counter — the composite cache's generation key.
    generation: u64,
    /// Memoized window composites keyed by `(resolved_lo, resolved_hi)`.
    composite: Mutex<GenCache<u64, (u64, u64), P>>,
    /// Composites materialized since construction; a repeated window query
    /// must not advance this (the acceptance probe for cache hits).
    composites_built: AtomicU64,
}

/// Windowed correlated F2 over `(x, y, t)` tuples.
pub type WindowedF2 = PaneRing<CorrelatedSketch<F2Aggregate>>;
/// Windowed correlated F0 (distinct `x`) over `(x, y, t)` tuples.
pub type WindowedF0 = PaneRing<CorrelatedF0>;

/// Build a [`WindowedF2`] ring: correlated F2 panes with accuracy
/// `(epsilon, delta)` over y values in `[0, y_max]`, sized for
/// `max_stream_len` tuples, all sharing `seed`.
pub fn windowed_f2(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
    seed: u64,
    panes: PaneConfig,
) -> Result<WindowedF2> {
    let proto = cora_core::correlated_f2_seeded(epsilon, delta, y_max, max_stream_len, seed)?;
    PaneRing::new(proto, panes)
}

/// Build a [`WindowedF0`] ring (correlated distinct-count panes over an
/// identifier domain of `2^x_domain_log2`).
pub fn windowed_f0(
    epsilon: f64,
    delta: f64,
    x_domain_log2: u32,
    y_max: u64,
    seed: u64,
    panes: PaneConfig,
) -> Result<WindowedF0> {
    let proto = CorrelatedF0::with_seed(epsilon, delta, x_domain_log2, y_max, seed)?;
    PaneRing::new(proto, panes)
}

impl<P: WindowPane> PaneRing<P> {
    /// Wrap an **empty** template sketch into a pane ring. The template is
    /// never inserted into; it donates configuration and seed to every pane.
    pub fn new(proto: P, config: PaneConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            proto,
            config,
            panes: Vec::new(),
            t_latest: 0,
            has_data: false,
            late_dropped: 0,
            expired_through: None,
            generation: 0,
            composite: Mutex::new(GenCache::new(WINDOW_CACHE_CAPACITY)),
            composites_built: AtomicU64::new(0),
        })
    }

    /// Observe tuple `(x, y)` at timestamp `t` (ticks; arrivals may be out of
    /// order). Tuples older than the retention horizon are dropped and
    /// counted in [`PaneRing::late_dropped`].
    ///
    /// The common case — `t` lands in an existing pane and does not advance
    /// the clock past anything — is just the pane insert plus O(1)
    /// bookkeeping: expiry can only drop panes when `t_latest` advances, and
    /// after every pane creation the rebalance pass runs to a fixed point
    /// (no class over budget), so neither needs to run again until the pane
    /// set or the clock actually changes.
    pub fn observe(&mut self, x: u64, y: u64, t: u64) -> Result<()> {
        let panes_before = self.panes.len();
        match self.route(t)? {
            Some(idx) => self.panes[idx].sketch.pane_insert(x, y)?,
            None => {
                self.late_dropped += 1;
                self.expired_through =
                    Some(self.expired_through.unwrap_or(0).max(t.saturating_add(1)));
                self.generation += 1;
                return Ok(());
            }
        }
        let created = self.panes.len() > panes_before;
        let advanced = !self.has_data || t > self.t_latest;
        if advanced {
            self.t_latest = t;
            self.has_data = true;
        }
        self.generation += 1;
        if advanced {
            self.expire();
        }
        if created {
            return self.rebalance();
        }
        Ok(())
    }

    /// Index of the pane owning timestamp `t`, creating a pane if `t` falls
    /// in a gap or beyond the tiling; `None` when `t` is behind the
    /// retention/expiry horizon.
    fn route(&mut self, t: u64) -> Result<Option<usize>> {
        let i = self.panes.partition_point(|p| p.start <= t);
        if i > 0 && t < self.panes[i - 1].end {
            return Ok(Some(i - 1));
        }
        // `t` is uncovered. Pane boundaries are multiples of `pane_ticks`, so
        // the base slot around `t` is disjoint from every existing pane.
        if self.is_expired(t) {
            return Ok(None);
        }
        let start = t - t % self.config.pane_ticks;
        let pane = Pane {
            start,
            end: start.saturating_add(self.config.pane_ticks),
            class: 0,
            sketch: self.proto.fresh()?,
        };
        self.panes.insert(i, pane);
        Ok(Some(i))
    }

    fn is_expired(&self, t: u64) -> bool {
        if self.expired_through.is_some_and(|b| t < b) {
            return true;
        }
        match self.config.retention {
            Some(r) if self.has_data => t < self.t_latest.saturating_add(1).saturating_sub(r),
            _ => false,
        }
    }

    /// Drop panes that fell entirely behind the retention horizon.
    fn expire(&mut self) {
        let Some(r) = self.config.retention else { return };
        if !self.has_data {
            return;
        }
        let cutoff = self.t_latest.saturating_add(1).saturating_sub(r);
        let drop = self.panes.partition_point(|p| p.end <= cutoff);
        if drop > 0 {
            let horizon = self.panes[drop - 1].end;
            self.expired_through = Some(self.expired_through.unwrap_or(0).max(horizon));
            self.panes.drain(..drop);
        }
    }

    /// Enforce the per-class budget over sealed panes: while some class holds
    /// more than `k` sealed panes, merge the oldest of that class with its
    /// immediate (older-side-first) neighbour into the next class. With
    /// in-order arrivals classes are age-sorted and this is the textbook
    /// exponential-histogram buddy merge; a late base pane wedged between
    /// coarse panes merges with whatever neighbours it, which still preserves
    /// the tiling.
    fn rebalance(&mut self) -> Result<()> {
        loop {
            let sealed = self.panes.len().saturating_sub(1);
            if sealed < 2 {
                return Ok(());
            }
            let mut counts: Vec<(u32, usize)> = Vec::new();
            for p in &self.panes[..sealed] {
                match counts.iter_mut().find(|(c, _)| *c == p.class) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((p.class, 1)),
                }
            }
            counts.sort_unstable();
            let Some(&(class, _)) = counts.iter().find(|&&(_, n)| n > self.config.k) else {
                return Ok(());
            };
            let i = self
                .panes
                .iter()
                .position(|p| p.class == class)
                .expect("class was counted above");
            debug_assert!(i + 1 < self.panes.len() - 1, "must not merge into the open pane");
            let removed = self.panes.remove(i + 1);
            let target = &mut self.panes[i];
            target.end = removed.end;
            target.class = target.class.max(removed.class).saturating_add(1);
            target.sketch.pane_merge_from(&removed.sketch)?;
        }
    }

    /// Indices of the panes whose `start` lies in the `window` ticks ending
    /// at `now`, or [`CoreError::WindowExpired`] when the window reaches
    /// behind the expiry horizon.
    fn resolve(&self, now: u64, window: u64) -> Result<Range<usize>> {
        let t_lo = now.saturating_add(1).saturating_sub(window);
        if let Some(b) = self.expired_through {
            if t_lo < b {
                return Err(CoreError::WindowExpired {
                    requested_start: t_lo,
                    earliest_available: self.panes.first().map_or(b, |p| p.start),
                });
            }
        }
        let lo = self.panes.partition_point(|p| p.start < t_lo);
        let hi = self.panes.partition_point(|p| p.start <= now);
        Ok(lo..hi.max(lo))
    }

    /// The pane-aligned span `[resolved_lo, resolved_hi)` a query for
    /// `window` ticks ending at `now` is actually answered over, or `None`
    /// when no pane falls inside the request. The estimate covers exactly the
    /// tuples with `resolved_lo ≤ t < resolved_hi`.
    pub fn resolved_window(&self, now: u64, window: u64) -> Result<Option<(u64, u64)>> {
        let r = self.resolve(now, window)?;
        if r.is_empty() {
            return Ok(None);
        }
        Ok(Some((self.panes[r.start].start, self.panes[r.end - 1].end)))
    }

    /// Query the last `window` ticks ending at the newest observed timestamp
    /// with y-threshold `c` (zero when the ring is empty).
    pub fn query_sliding(&self, window: u64, c: u64) -> Result<f64> {
        if !self.has_data {
            return Ok(0.0);
        }
        self.query_at(self.t_latest, window, c)
    }

    /// Query the `window` ticks ending at `now` (which may trail the newest
    /// observed timestamp) with y-threshold `c`.
    pub fn query_at(&self, now: u64, window: u64, c: u64) -> Result<f64> {
        let r = self.resolve(now, window)?;
        if r.is_empty() {
            return Ok(0.0);
        }
        let key = (self.panes[r.start].start, self.panes[r.end - 1].end);
        self.with_composite(r, key, |p| p.pane_query(c))
    }

    /// Run `f` against the merged composite of `panes[range]`, reusing the
    /// generation-keyed cache: a repeated query at an unchanged ring costs a
    /// probe, not a re-merge.
    fn with_composite<R>(
        &self,
        range: Range<usize>,
        key: (u64, u64),
        f: impl FnOnce(&P) -> Result<R>,
    ) -> Result<R> {
        let generation = self.generation;
        {
            let cache = self.composite.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(p) = cache.get(&generation, &key) {
                return f(p);
            }
        }
        let mut built = self.proto.fresh()?;
        for pane in &self.panes[range] {
            built.pane_merge_from(&pane.sketch)?;
        }
        self.composites_built.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.composite.lock().unwrap_or_else(PoisonError::into_inner);
        f(cache.insert(generation, key, built))
    }

    /// Newest observed timestamp, if any tuple has been observed.
    pub fn t_latest(&self) -> Option<u64> {
        self.has_data.then_some(self.t_latest)
    }

    /// The tick span currently covered by panes (start of the oldest to end
    /// of the newest), if any.
    pub fn coverage(&self) -> Option<(u64, u64)> {
        match (self.panes.first(), self.panes.last()) {
            (Some(a), Some(b)) => Some((a.start, b.end)),
            _ => None,
        }
    }

    /// Number of live panes.
    pub fn pane_count(&self) -> usize {
        self.panes.len()
    }

    /// `(start, end, class)` of every live pane, oldest first.
    pub fn pane_spans(&self) -> Vec<(u64, u64, u32)> {
        self.panes.iter().map(|p| (p.start, p.end, p.class)).collect()
    }

    /// Pane geometry.
    pub fn pane_config(&self) -> &PaneConfig {
        &self.config
    }

    /// The empty template pane every real pane is configured from (for
    /// inspecting the sketch parameters a ring was built with).
    pub fn template(&self) -> &P {
        &self.proto
    }

    /// Late tuples discarded for falling behind the retention horizon.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Ticks strictly before this value may have been lost to expiry.
    pub fn expired_through(&self) -> Option<u64> {
        self.expired_through
    }

    /// Tuples stored across all panes.
    pub fn stored_tuples(&self) -> usize {
        self.panes.iter().map(|p| p.sketch.pane_stored_tuples()).sum()
    }

    /// Mutation counter (the composite cache generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Window composites materialized so far. Repeating a query at an
    /// unchanged ring must not advance this — the cache-hit probe used by the
    /// acceptance tests.
    pub fn composites_built(&self) -> u64 {
        self.composites_built.load(Ordering::Relaxed)
    }

    /// Serialize the ring body (geometry, clock, panes as nested frames).
    fn encode_ring_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.config.pane_ticks);
        w.put_len(self.config.k);
        w.put_opt_u64(self.config.retention);
        w.put_bool(self.has_data);
        w.put_u64(self.t_latest);
        w.put_u64(self.late_dropped);
        w.put_opt_u64(self.expired_through);
        w.put_len(self.panes.len());
        let mut frame = Vec::new();
        for pane in &self.panes {
            w.put_u64(pane.start);
            w.put_u64(pane.end);
            w.put_u32(pane.class);
            frame.clear();
            pane.sketch.encode_frame(&mut frame);
            w.put_len(frame.len());
            w.put_bytes(&frame);
        }
    }

    /// Rebuild a ring around `proto` from bytes written by
    /// [`PaneRing::encode_ring_state`], validating geometry and tiling. Each
    /// pane is a full nested snapshot frame, so a corrupted or truncated pane
    /// fails its own magic/checksum validation before any state is decoded.
    fn decode_ring_state(proto: P, r: &mut ByteReader<'_>) -> Result<Self> {
        let corrupt = |detail: String| CoreError::Snapshot { detail };
        let pane_ticks = r.get_u64()?;
        let k = r.get_len()?;
        let retention = r.get_opt_u64()?;
        let config = PaneConfig { pane_ticks, k, retention };
        config.validate().map_err(|e| corrupt(format!("pane geometry: {e}")))?;
        let mut ring = PaneRing::new(proto, config)?;
        ring.has_data = r.get_bool()?;
        ring.t_latest = r.get_u64()?;
        ring.late_dropped = r.get_u64()?;
        ring.expired_through = r.get_opt_u64()?;
        let n = r.get_count(8 + 8 + 4 + 8)?;
        for _ in 0..n {
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            let class = r.get_u32()?;
            let len = r.get_len()?;
            let bytes = r.take(len)?;
            if start >= end || start % pane_ticks != 0 || end % pane_ticks != 0 {
                return Err(corrupt(format!("pane span [{start}, {end}) is not tile-aligned")));
            }
            if let Some(prev) = ring.panes.last() {
                if start < prev.end {
                    return Err(corrupt(format!(
                        "pane [{start}, {end}) overlaps its predecessor ending at {}",
                        prev.end
                    )));
                }
            }
            let sketch = P::decode_frame(&ring.proto, bytes)?;
            ring.panes.push(Pane { start, end, class, sketch });
        }
        if ring.has_data {
            let inside = ring
                .panes
                .last()
                .is_some_and(|p| p.start <= ring.t_latest && ring.t_latest < p.end);
            if !inside {
                return Err(corrupt(format!(
                    "newest timestamp {} lies outside the newest pane",
                    ring.t_latest
                )));
            }
        } else if !ring.panes.is_empty() {
            return Err(corrupt("panes present but no timestamp recorded".to_string()));
        }
        Ok(ring)
    }
}

impl<P: WindowPane> Clone for PaneRing<P> {
    /// The clone starts with a cold composite cache (memoized composites are
    /// cheap to rebuild and keep the clone independent).
    fn clone(&self) -> Self {
        Self {
            proto: self.proto.clone(),
            config: self.config.clone(),
            panes: self.panes.clone(),
            t_latest: self.t_latest,
            has_data: self.has_data,
            late_dropped: self.late_dropped,
            expired_through: self.expired_through,
            generation: self.generation,
            composite: Mutex::new(GenCache::new(WINDOW_CACHE_CAPACITY)),
            composites_built: AtomicU64::new(0),
        }
    }
}

impl<P: WindowPane> fmt::Debug for PaneRing<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PaneRing")
            .field("config", &self.config)
            .field("panes", &self.pane_spans())
            .field("t_latest", &self.t_latest())
            .field("late_dropped", &self.late_dropped)
            .field("expired_through", &self.expired_through)
            .finish()
    }
}

impl<A> PaneRing<CorrelatedSketch<A>>
where
    A: CorrelatedAggregate + fmt::Debug,
    A::Sketch: StateCodec,
{
    /// Serialize the ring into one self-validating snapshot frame
    /// ([`SnapshotKind::WindowedFramework`]); pane states are nested frames
    /// validated individually on restore.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out);
        out
    }

    /// [`PaneRing::snapshot`] appending to a caller buffer.
    pub fn snapshot_to(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        snapshot::encode_config(self.proto.config(), &mut w);
        self.encode_ring_state(&mut w);
        snapshot::seal_frame_into(SnapshotKind::WindowedFramework, w.as_bytes(), out);
    }

    /// Rebuild a ring from [`PaneRing::snapshot`] bytes. `agg` must be the
    /// aggregate the ring was built with (fingerprint-checked per pane).
    pub fn restore_from(agg: A, bytes: &[u8]) -> Result<Self> {
        let payload = snapshot::open_frame(bytes, SnapshotKind::WindowedFramework)?;
        let mut r = ByteReader::new(payload);
        let config = snapshot::decode_config(&mut r).map_err(CoreError::from)?;
        let proto = CorrelatedSketch::new(agg, config)?;
        let ring = Self::decode_ring_state(proto, &mut r)?;
        r.expect_end().map_err(CoreError::from)?;
        Ok(ring)
    }
}

impl WindowedF0 {
    /// Serialize the ring into one self-validating snapshot frame
    /// ([`SnapshotKind::WindowedF0`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_to(&mut out);
        out
    }

    /// [`WindowedF0::snapshot`] appending to a caller buffer.
    pub fn snapshot_to(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_f64(self.proto.epsilon());
        w.put_f64(self.proto.delta());
        w.put_u32(self.proto.x_domain_log2());
        w.put_u64(self.proto.y_max());
        w.put_u64(self.proto.seed());
        self.encode_ring_state(&mut w);
        snapshot::seal_frame_into(SnapshotKind::WindowedF0, w.as_bytes(), out);
    }

    /// Rebuild a ring from [`WindowedF0::snapshot`] bytes (self-contained:
    /// the F0 parameters travel in the frame).
    pub fn restore_from(bytes: &[u8]) -> Result<Self> {
        let payload = snapshot::open_frame(bytes, SnapshotKind::WindowedF0)?;
        let mut r = ByteReader::new(payload);
        let epsilon = r.get_f64().map_err(CoreError::from)?;
        let delta = r.get_f64().map_err(CoreError::from)?;
        let x_domain_log2 = r.get_u32().map_err(CoreError::from)?;
        let y_max = r.get_u64().map_err(CoreError::from)?;
        let seed = r.get_u64().map_err(CoreError::from)?;
        let proto = CorrelatedF0::with_seed(epsilon, delta, x_domain_log2, y_max, seed)?;
        let ring = Self::decode_ring_state(proto, &mut r)?;
        r.expect_end().map_err(CoreError::from)?;
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_f2(pane_ticks: u64, k: usize, retention: Option<u64>) -> WindowedF2 {
        let mut cfg = PaneConfig::new(pane_ticks).with_k(k);
        cfg.retention = retention;
        windowed_f2(0.2, 0.1, 1023, 100_000, 42, cfg).unwrap()
    }

    fn tiling_ok<P: WindowPane>(ring: &PaneRing<P>) {
        let spans = ring.pane_spans();
        let ticks = ring.pane_config().pane_ticks;
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {spans:?}");
        }
        for &(s, e, _) in &spans {
            assert!(s < e && s % ticks == 0 && e % ticks == 0, "misaligned: {spans:?}");
        }
    }

    #[test]
    fn pane_count_stays_logarithmic() {
        let mut ring = small_f2(10, 2, None);
        for t in 0..20_000u64 {
            ring.observe(t % 37, t % 1024, t).unwrap();
        }
        tiling_ok(&ring);
        // 2000 base panes coarsen into O(k log) live panes.
        assert!(ring.pane_count() <= 2 * 12 + 2, "{} panes", ring.pane_count());
        let (lo, hi) = ring.coverage().unwrap();
        assert_eq!((lo, hi), (0, 20_000));
    }

    #[test]
    fn sliding_count_tracks_brute_force() {
        // Every tick carries a distinct `x`, so a slice's F2 is its tuple
        // count.
        let mut ring = windowed_f2(0.1, 0.05, 1023, 100_000, 7, PaneConfig::new(16).with_k(4))
            .unwrap();
        let mut events = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for t in 0..4_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let y = state % 1024;
            events.push((t, y));
            ring.observe(t, y, t).unwrap();
        }
        for window in [64u64, 500, 4_000] {
            let c = 512u64;
            let (lo, hi) = ring.resolved_window(3_999, window).unwrap().unwrap();
            let truth = events
                .iter()
                .filter(|&&(t, y)| t >= lo && t < hi && y <= c)
                .count() as f64;
            let est = ring.query_sliding(window, c).unwrap();
            let err = (est - truth).abs() / truth.max(1.0);
            assert!(err < 0.15, "window {window}: est {est} truth {truth}");
        }
    }

    #[test]
    fn repeated_queries_hit_the_composite_cache() {
        let mut ring = small_f2(8, 4, None);
        for t in 0..1_000u64 {
            ring.observe(t % 17, t % 512, t).unwrap();
        }
        assert_eq!(ring.composites_built(), 0);
        let a = ring.query_sliding(300, 256).unwrap();
        assert_eq!(ring.composites_built(), 1);
        for _ in 0..10 {
            let b = ring.query_sliding(300, 256).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(ring.composites_built(), 1, "repeat query re-merged panes");
        // A different threshold reuses the same composite.
        ring.query_sliding(300, 100).unwrap();
        assert_eq!(ring.composites_built(), 1);
        // A mutation invalidates it.
        let gen_before = ring.generation();
        ring.observe(1, 1, 1_000).unwrap();
        assert!(ring.generation() > gen_before);
        ring.query_sliding(300, 256).unwrap();
        assert_eq!(ring.composites_built(), 2);
    }

    #[test]
    fn late_arrivals_fill_gaps_and_respect_retention() {
        let mut ring = small_f2(10, 4, Some(200));
        for t in (0..500u64).step_by(2) {
            if (100..200).contains(&t) {
                continue; // leave a gap
            }
            ring.observe(t, t % 1024, t).unwrap();
        }
        tiling_ok(&ring);
        // A late tuple inside the retained gap creates a pane in place.
        let before = ring.pane_count();
        ring.observe(9999, 3, 350).unwrap();
        assert!(ring.pane_count() <= before + 1);
        tiling_ok(&ring);
        // A tuple behind the horizon is dropped and counted.
        assert_eq!(ring.late_dropped(), 0);
        ring.observe(1, 1, 10).unwrap();
        assert_eq!(ring.late_dropped(), 1);
        // Queries reaching behind the horizon are refused.
        let err = ring.query_sliding(5_000, 512).unwrap_err();
        assert!(matches!(err, CoreError::WindowExpired { .. }), "{err}");
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut ring = small_f2(8, 3, Some(400));
        for t in 0..900u64 {
            ring.observe(t % 23, t % 1024, t).unwrap();
        }
        let bytes = ring.snapshot();
        let restored = WindowedF2::restore_from(F2Aggregate::new(0.2, 0.1, 42), &bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
        assert_eq!(restored.pane_spans(), ring.pane_spans());
        assert_eq!(
            restored.query_sliding(200, 512).unwrap(),
            ring.query_sliding(200, 512).unwrap()
        );

        let mut f0 = windowed_f0(0.2, 0.1, 16, 1023, 11, PaneConfig::new(8)).unwrap();
        for t in 0..600u64 {
            f0.observe(t % 97, t % 1024, t).unwrap();
        }
        let bytes = f0.snapshot();
        let restored = WindowedF0::restore_from(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let mut ring = small_f2(8, 3, None);
        for t in 0..300u64 {
            ring.observe(t, t % 1024, t).unwrap();
        }
        let agg = || F2Aggregate::new(0.2, 0.1, 42);
        let bytes = ring.snapshot();
        // Truncation.
        assert!(WindowedF2::restore_from(agg(), &bytes[..bytes.len() - 3]).is_err());
        // Flipped byte in a nested pane frame (payload interior).
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(WindowedF2::restore_from(agg(), &bad).is_err());
        // Wrong kind: an F0 windowed frame is not a framework windowed frame.
        let mut f0 = windowed_f0(0.2, 0.1, 12, 1023, 11, PaneConfig::new(8)).unwrap();
        f0.observe(1, 1, 1).unwrap();
        assert!(WindowedF2::restore_from(agg(), &f0.snapshot()).is_err());
    }

    #[test]
    fn landmark_and_async_window_reduction_agree() {
        // The pane ring and the Section 1.1 reduction answer the same
        // sliding-window count on an in-order stream: every tick carries a
        // distinct `x`, so the ring's F2 is the tuple count.
        let t_max = 4_000u64;
        let mut reduction = crate::AsyncWindowCount::new(0.1, 0.05, t_max, 10_000, 5).unwrap();
        let mut ring = windowed_f2(0.1, 0.05, 1023, 10_000, 5, PaneConfig::new(16)).unwrap();
        for t in 0..=t_max {
            reduction.observe(t % 31, t).unwrap();
            ring.observe(t, 0, t).unwrap();
        }
        for window in [256u64, 1_024, 4_000] {
            let a = reduction.query_window(t_max, window).unwrap();
            let (lo, hi) = ring.resolved_window(t_max, window).unwrap().unwrap();
            let b = ring.query_sliding(window, 1023).unwrap();
            // Same ground truth up to pane snapping: compare over spans.
            let exact_a = window + 1; // reduction counts t in [t_max-window, t_max]
            let exact_b = (hi.min(t_max + 1) - lo) as f64;
            assert!((a - exact_a as f64).abs() / exact_a as f64 <= 0.25);
            assert!((b - exact_b).abs() / exact_b <= 0.25, "ring {b} vs {exact_b}");
        }
    }

    #[test]
    fn restored_top_class_panes_merge_without_overflow() {
        // A snapshot may carry any `u32` pane class. Buddy-merging two panes
        // of the top class must saturate: not panic on overflow, not wrap
        // to class 0.
        let mut ring = small_f2(16, 2, None);
        for t in [0u64, 16, 32] {
            ring.observe(t, 1, t).unwrap();
        }
        for pane in &mut ring.panes {
            pane.class = u32::MAX;
        }
        let mut restored =
            WindowedF2::restore_from(F2Aggregate::new(0.2, 0.1, 42), &ring.snapshot()).unwrap();
        restored.observe(48, 1, 48).unwrap();
        assert_eq!(
            restored.pane_spans(),
            vec![(0, 32, u32::MAX), (32, 48, u32::MAX), (48, 64, 0)]
        );
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(windowed_f2(0.2, 0.1, 1023, 1000, 1, PaneConfig::new(0)).is_err());
        assert!(windowed_f2(0.2, 0.1, 1023, 1000, 1, PaneConfig::new(4).with_k(1)).is_err());
        assert!(
            windowed_f2(0.2, 0.1, 1023, 1000, 1, PaneConfig::new(10).with_retention(5)).is_err()
        );
    }
}
