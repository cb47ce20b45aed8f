//! The level engine: the structure-of-arrays hot path behind
//! [`CorrelatedSketch`](crate::framework::CorrelatedSketch).
//!
//! Every stream element touches one bucket on every materialized level plus
//! the shared tail summary, so the per-level bucket state is engineered
//! around that loop:
//!
//! * each level stores its buckets in a **structure-of-arrays arena**
//!   ([`LevelArena`]): the hot per-slot scalars — interval bounds, closed /
//!   evicted flags, and the headroom-gating weights — live in one packed
//!   40-byte lane ([`SlotMeta`], one flat vector), parallel to a dense pool
//!   of the (much larger) per-bucket aggregate stores keyed by the same slot
//!   index. The routing decision for an element — "which leaf contains `y`,
//!   is it closed, is a threshold check due" — therefore costs one bounds
//!   check and at most one cache line, instead of striding over whole bucket
//!   structs (array-of-structs) whose inline sketch state blows the line;
//! * the stored *leaves* of a level's dyadic tree tile the level's reachable
//!   y-domain `[0, Y_ℓ)`, so the textbook root-to-leaf walk collapses to one
//!   predecessor lookup in a `lo → slot` map, and a per-level **cursor**
//!   remembers the last touched leaf so repeated nearby y values skip even
//!   that;
//! * bucket-closing checks are gated behind the aggregate's superadditive
//!   [`CorrelatedAggregate::weight_headroom`]: inserts inside the recorded
//!   headroom window cost a single `f64` comparison;
//! * evictions pick their victim from a `BTreeSet` ordered by
//!   `(left endpoint, depth)` — O(log α) per victim;
//! * levels whose threshold the stream has not reached are **not
//!   materialized**: one shared [`TailState`] stands in for all of them and
//!   levels materialize (with a closed root cloned from the tail) as the
//!   stream's estimate crosses their thresholds;
//! * there is one update path ([`LevelEngine::update_batch`]; a single
//!   insert is a batch of one). It walks each level once for the whole
//!   batch (level-major), slices the batch into **runs of consecutive
//!   updates routed to the same slot**, and applies each run through the
//!   sketch's flat prepared-batch layout
//!   ([`cora_sketch::SharedUpdate::apply_prepared_range`]) — for fast-AMS
//!   buckets that is one contiguous `&[u32]`/`&[i64]` pass per row against a
//!   flat `&mut [i64]` counter slice. A run, a slot's pending weight and the
//!   tail's chunks count weight, and a run ends at the update whose weight
//!   exhausts the headroom, where the threshold check falls due — so the
//!   structure is bit-for-bit the same however the stream is cut into
//!   batches.

use crate::aggregate::{BucketStore, CorrelatedAggregate};
use crate::compose::min_watermark;
use crate::dyadic::DyadicInterval;
use crate::error::Result;
use crate::snapshot::{decode_store, encode_store};
use cora_sketch::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use cora_sketch::SharedUpdate;
use std::collections::BTreeSet;

/// Shorthand for the prepared-batch type of an aggregate's bucket sketch.
pub(crate) type BatchOf<A> = <<A as CorrelatedAggregate>::Sketch as SharedUpdate>::PreparedBatch;

/// Sentinel index for "no slot" (cursor invalidation).
const NIL: u32 = u32::MAX;

/// Flag bit: the bucket reached its level threshold and no longer accepts
/// direct updates (items route to its children).
const FLAG_CLOSED: u8 = 1;
/// Flag bit: the slot belonged to an evicted bucket and awaits reuse.
const FLAG_EVICTED: u8 = 2;

/// The packed per-slot scalar state of one bucket: interval bounds, the
/// headroom-gating weights, and the closed/evicted flags — everything the
/// routing decision reads, in 40 bytes, so one slot touch is one bounds
/// check and (at most) one cache line. The heavyweight aggregate store lives
/// in the arena's separate dense pool under the same slot index.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Inclusive interval lower bound.
    lo: u64,
    /// Inclusive interval upper bound.
    hi: u64,
    /// Weight the bucket can still absorb before its estimate could reach
    /// the level threshold (see [`CorrelatedAggregate::weight_headroom`]).
    headroom: f64,
    /// Weight inserted since the slot's last real threshold check.
    pending: f64,
    /// `FLAG_CLOSED` / `FLAG_EVICTED` bits.
    flags: u8,
}

impl SlotMeta {
    fn fresh(interval: DyadicInterval) -> Self {
        Self {
            lo: interval.lo,
            hi: interval.hi,
            headroom: 0.0,
            pending: 0.0,
            flags: 0,
        }
    }

    #[inline]
    fn interval(&self) -> DyadicInterval {
        DyadicInterval { lo: self.lo, hi: self.hi }
    }

    #[inline]
    fn contains(&self, y: u64) -> bool {
        self.lo <= y && y <= self.hi
    }

    #[inline]
    fn is_unit(&self) -> bool {
        self.lo == self.hi
    }

    #[inline]
    fn is_closed(&self) -> bool {
        self.flags & FLAG_CLOSED != 0
    }

    #[inline]
    fn is_evicted(&self) -> bool {
        self.flags & FLAG_EVICTED != 0
    }
}

/// Structure-of-arrays bucket storage for one level: the hot per-slot scalar
/// state ([`SlotMeta`]: bounds, gating weights, flags) in one flat lane and
/// the aggregate stores in a dense pool keyed by the same slot index. The
/// insert path's routing reads stay packed and cache-dense, and the (much
/// larger) stores are only touched once a slot is actually updated.
#[derive(Debug, Clone)]
struct LevelArena<A: CorrelatedAggregate> {
    /// Packed routing/gating state, indexed by slot.
    meta: Vec<SlotMeta>,
    /// Dense aggregate-state pool, keyed by slot index.
    stores: Vec<BucketStore<A>>,
    /// Recyclable (evicted) slots.
    free: Vec<u32>,
}

impl<A: CorrelatedAggregate> LevelArena<A> {
    fn new() -> Self {
        Self {
            meta: Vec::new(),
            stores: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Allocate a fresh open slot for `interval`, recycling a tombstone if
    /// possible.
    fn alloc(&mut self, interval: DyadicInterval) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.meta[slot as usize] = SlotMeta::fresh(interval);
                self.stores[slot as usize] = BucketStore::new();
                slot
            }
            None => {
                self.meta.push(SlotMeta::fresh(interval));
                self.stores.push(BucketStore::new());
                (self.meta.len() - 1) as u32
            }
        }
    }

    /// Number of allocated slots (used by the invariant checker).
    #[cfg(any(test, feature = "invariant-checks"))]
    fn len(&self) -> usize {
        self.meta.len()
    }

    #[inline]
    fn interval(&self, slot: u32) -> DyadicInterval {
        self.meta[slot as usize].interval()
    }

    /// Tombstone flag of a slot (used by the invariant checker).
    #[cfg(any(test, feature = "invariant-checks"))]
    fn is_evicted(&self, slot: u32) -> bool {
        self.meta[slot as usize].is_evicted()
    }

    /// Tombstone a slot: clear its flags, release its store's heap now, and
    /// queue the slot for reuse.
    fn evict(&mut self, slot: u32) {
        let s = slot as usize;
        self.meta[s].flags = FLAG_EVICTED;
        self.stores[s] = BucketStore::new();
        self.free.push(slot);
    }
}

/// The stored-leaf routing index of one level: `(left endpoint, slot)` pairs
/// in a flat array sorted by endpoint. Routing is the hottest operation in
/// the whole engine — every tuple does a predecessor lookup on every
/// materialized level it reaches — so the lookup is a binary search over
/// contiguous memory instead of a pointer-chasing ordered-map descent. The
/// rare mutations (splits, evictions, rebuilds) pay the `O(n)` memmove a
/// sorted array needs; they are bounded by bucket closings, not stream
/// length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LeafIndex {
    entries: Vec<(u64, u32)>,
}

impl LeafIndex {
    fn clear(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Insert or overwrite the entry for `lo`.
    fn insert(&mut self, lo: u64, slot: u32) {
        match self.entries.binary_search_by_key(&lo, |e| e.0) {
            Ok(i) => self.entries[i].1 = slot,
            Err(i) => self.entries.insert(i, (lo, slot)),
        }
    }

    /// The slot stored for exactly `lo`, if any.
    fn get(&self, lo: u64) -> Option<u32> {
        self.entries
            .binary_search_by_key(&lo, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Remove the entry for `lo` iff it currently maps to `slot`.
    fn remove_if(&mut self, lo: u64, slot: u32) {
        if let Ok(i) = self.entries.binary_search_by_key(&lo, |e| e.0) {
            if self.entries[i].1 == slot {
                self.entries.remove(i);
            }
        }
    }

    /// The leaf with the largest endpoint `≤ y` (the dyadic leaf containing
    /// `y`, by the tiling invariant).
    #[inline]
    fn predecessor(&self, y: u64) -> Option<u32> {
        let i = self.entries.partition_point(|e| e.0 <= y);
        if i == 0 {
            None
        } else {
            Some(self.entries[i - 1].1)
        }
    }

    /// Append an entry with an endpoint at or past the current maximum
    /// (bulk-rebuild path, where entries arrive already sorted).
    fn push_sorted(&mut self, lo: u64, slot: u32) {
        if let Some(&(last, _)) = self.entries.last() {
            debug_assert!(last < lo, "push_sorted got out-of-order endpoint");
        }
        self.entries.push((lo, slot));
    }

    /// The entries in ascending endpoint order.
    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.entries.iter().copied()
    }
}

/// One level `ℓ ≥ 1` of the structure: a lazily-grown dyadic tree in a SoA
/// arena, with the stored leaves indexed by left endpoint.
///
/// Invariant: the stored leaves tile the reachable y-domain `[0, Y_ℓ)`, so
/// the deepest stored bucket containing a reachable `y` — the bucket
/// Algorithm 2 routes the item to — is the unique leaf whose span covers `y`,
/// found by a predecessor lookup in `leaves`. (Evictions remove leaves from
/// the right and lower `Y_ℓ` to the victim's left endpoint, which keeps the
/// tiling intact; interior nodes whose children were all evicted are
/// unreachable, since the watermark already excludes their span.) See
/// [`Level::check_invariants`] for the machine-checked statement.
#[derive(Debug, Clone)]
pub(crate) struct Level<A: CorrelatedAggregate> {
    /// Level index `ℓ` (1-based; level 0 is the singleton level).
    index: u32,
    /// Closing threshold `2^{ℓ+1}`.
    threshold: f64,
    /// SoA bucket storage.
    arena: LevelArena<A>,
    /// Number of live (non-evicted) buckets.
    live: usize,
    /// Stored leaves keyed by left endpoint: the flat routing index.
    leaves: LeafIndex,
    /// Eviction priority over live slots, keyed `(lo, !len, slot)`: the
    /// victim is the maximum — largest left endpoint first, deepest node
    /// first among equal endpoints — so victims are always leaves.
    order: BTreeSet<(u64, u64, u32)>,
    /// Eviction watermark `Y_ℓ`; `None` means `+∞` (nothing evicted yet).
    y_bound: Option<u64>,
    /// Leaf touched by the previous insert; checked before the predecessor
    /// lookup. `NIL` when invalid; any eviction invalidates it.
    cursor: u32,
}

impl<A: CorrelatedAggregate> Level<A> {
    fn new(index: u32, root: DyadicInterval) -> Self {
        let mut level = Self {
            index,
            threshold: 2f64.powi(index as i32 + 1),
            arena: LevelArena::new(),
            live: 0,
            leaves: LeafIndex::default(),
            order: BTreeSet::new(),
            y_bound: None,
            cursor: NIL,
        };
        let root_slot = level.alloc(root);
        level.leaves.insert(root.lo, root_slot);
        level
    }

    /// Slot of the root bucket (only valid right after `new`; used by the
    /// materialization path to seed the root store).
    fn root_slot(&self) -> u32 {
        debug_assert_eq!(self.live, 1);
        self.leaves.get(0).expect("fresh level has its root stored")
    }

    /// Level index `ℓ`.
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// Eviction watermark `Y_ℓ` (`None` = `+∞`).
    pub(crate) fn y_bound(&self) -> Option<u64> {
        self.y_bound
    }

    /// Iterate over the live buckets as `(interval, store)` pairs.
    pub(crate) fn live_buckets(&self) -> impl Iterator<Item = (DyadicInterval, &BucketStore<A>)> {
        self.arena
            .meta
            .iter()
            .zip(&self.arena.stores)
            .filter(|(meta, _)| !meta.is_evicted())
            .map(|(meta, store)| (meta.interval(), store))
    }

    /// Eviction key: victim = maximum, i.e. largest `lo`, then smallest
    /// length (deepest node). The slot disambiguates nothing (intervals are
    /// unique per level) but keeps the tuple self-describing.
    fn order_key(interval: DyadicInterval, slot: u32) -> (u64, u64, u32) {
        (interval.lo, u64::MAX - interval.len(), slot)
    }

    /// Allocate a fresh live bucket and register it for eviction ordering.
    fn alloc(&mut self, interval: DyadicInterval) -> u32 {
        let slot = self.arena.alloc(interval);
        self.order.insert(Self::order_key(interval, slot));
        self.live += 1;
        slot
    }

    /// Locate the stored leaf containing `y`: cursor hit or predecessor
    /// lookup. (A live cursor always names a current leaf — splits go
    /// through this path and evictions reset it.)
    #[inline]
    fn route(&self, y: u64) -> Option<u32> {
        match self.cursor {
            c if c != NIL && self.arena.meta[c as usize].contains(y) => Some(c),
            _ => self.leaves.predecessor(y),
        }
    }

    /// Run the bucket-closing threshold check on an already-borrowed slot if
    /// its pending weight has consumed the recorded headroom. Takes the
    /// split borrows so the callers' single bounds-checked lane accesses are
    /// reused instead of re-indexing the arena.
    #[inline]
    fn close_check(agg: &A, threshold: f64, meta: &mut SlotMeta, store: &BucketStore<A>) {
        if !meta.is_unit() && meta.pending >= meta.headroom {
            let estimate = store.estimate(agg);
            meta.headroom = agg.weight_headroom(estimate, threshold);
            meta.pending = 0.0;
            if estimate >= threshold {
                meta.flags |= FLAG_CLOSED;
            }
        }
    }

    /// Split a closed leaf and insert `(x, y, weight)` into the child
    /// containing `y` (children replace the parent in the leaf tiling). The
    /// fresh child starts exact, so the raw `(x, weight)` update is the
    /// shared-coordinate update.
    fn split_and_insert(&mut self, agg: &A, slot: u32, x: u64, y: u64, weight: i64) {
        let (left_iv, right_iv) = self
            .arena
            .interval(slot)
            .children()
            .expect("closed buckets are never unit intervals");
        let left = self.alloc(left_iv);
        let right = self.alloc(right_iv);
        self.leaves.insert(left_iv.lo, left); // replaces the parent entry
        self.leaves.insert(right_iv.lo, right);
        let target = if left_iv.contains(y) { left } else { right };
        let t = target as usize;
        let store = &mut self.arena.stores[t];
        let was_exact = store.is_exact();
        store.update(agg, x, weight);
        let meta = &mut self.arena.meta[t];
        meta.pending += weight as f64;
        if was_exact && !store.is_exact() {
            meta.headroom = 0.0; // re-check on the next direct insert
        }
        self.cursor = target;
        // (A child is only checked for closing when a later insert reaches it.)
    }

    /// Process updates `from..` of a batch on this level (Algorithm 2, lines
    /// 7–21): `tuples` carries each update's `y`, `items` its `(x, weight)`
    /// — the slice `batch` was prepared from. Consecutive updates routed to
    /// the same open sketched slot are applied as one contiguous
    /// prepared-batch range, and a run ends at the update whose weight
    /// exhausts the slot's headroom, where the threshold check falls due —
    /// so the structure does not depend on how the stream was cut into
    /// batches.
    fn apply_batch(
        &mut self,
        agg: &A,
        alpha: usize,
        tuples: &[(u64, u64)],
        items: &[(u64, i64)],
        batch: &BatchOf<A>,
        from: usize,
    ) {
        let n = tuples.len();
        let mut i = from;
        while i < n {
            let y = tuples[i].1;
            let (x, weight) = items[i];
            let bound = self.y_bound.unwrap_or(u64::MAX);
            if y >= bound {
                i += 1;
                continue;
            }
            let Some(cur) = self.route(y) else {
                i += 1; // y below the watermark yet no leaf: evicted root
                continue;
            };
            let s = cur as usize;
            if self.arena.meta[s].is_closed() {
                self.split_and_insert(agg, cur, x, y, weight);
                i += 1;
                if self.live > alpha {
                    self.evict_overflow(alpha);
                }
                continue;
            }
            if self.arena.stores[s].is_exact() {
                // Exact store: one update at a time — a conversion to the
                // sketched representation must force an immediate re-check,
                // which can close the bucket mid-run.
                let store = &mut self.arena.stores[s];
                store.update(agg, x, weight);
                let meta = &mut self.arena.meta[s];
                meta.pending += weight as f64;
                if !store.is_exact() {
                    // The sketched estimate need not match the exact value
                    // the headroom was computed from.
                    meta.headroom = 0.0;
                }
                Self::close_check(agg, self.threshold, meta, store);
                self.cursor = cur;
                i += 1;
                continue;
            }
            // Sketched open leaf: extend the run while updates keep routing
            // here and the weight taken so far is below the headroom gap
            // (the update that exhausts it is included — the check happens
            // after it). Unit intervals never close.
            let meta = self.arena.meta[s];
            let gap = if meta.is_unit() {
                f64::INFINITY
            } else {
                meta.headroom - meta.pending
            };
            let mut taken = weight;
            let mut j = i + 1;
            while j < n && (taken as f64) < gap {
                let y2 = tuples[j].1;
                if y2 < meta.lo || y2 > meta.hi || y2 >= bound {
                    break;
                }
                taken += items[j].1;
                j += 1;
            }
            let store = &mut self.arena.stores[s];
            store.update_batch_range(agg, items, batch, i..j);
            let slot_meta = &mut self.arena.meta[s];
            slot_meta.pending += taken as f64;
            Self::close_check(agg, self.threshold, slot_meta, store);
            self.cursor = cur;
            i = j;
        }
    }

    /// Merge another same-index level into this one **in place** (Property
    /// V): the node set becomes the union of both dyadic trees, per-interval
    /// stores are merged (summaries are composable because all bucket
    /// sketches share hash seeds) and spill to their sketch at the insert
    /// path's size (`BucketStore::absorb`), and bucket-closing is re-run with
    /// fresh headroom — from the representation the bucket now has — on
    /// every node the merge touched.
    ///
    /// Soundness: both inputs are ancestor-closed subtrees of the same dyadic
    /// tree, so their union is too, and below the merged watermark
    /// `min(Y_a, Y_b)` the union's leaves tile the reachable domain (for any
    /// reachable `y`, the deeper of the two input leaves containing `y` is
    /// the unique union leaf). Every item summarised by either input sits in
    /// exactly one merged node, so query-time composition counts it exactly
    /// once. Interior nodes inherit `closed` from either input; a node whose
    /// merged estimate now reaches the threshold is closed here rather than
    /// on its next insert. Nodes at or above the merged watermark can never
    /// be composed (queries require `c < Y_ℓ`) and are dropped to keep the α
    /// budget for reachable buckets.
    ///
    /// Nodes of `self` that `other` does not store are left untouched: their
    /// pending/headroom gating state still describes exactly the same store,
    /// and a threshold crossing one of them may have silently accumulated is
    /// caught by its next gated insert — the same laziness the insert path
    /// itself relies on. That is what makes the merge asymmetric: the cost is
    /// `O(|other| log α)` — each incoming node finds its match through the
    /// eviction-order set, which doubles as an interval index — not cloning
    /// and re-estimating `self`: absorbing a small pane into a large
    /// accumulator no longer pays for the accumulator.
    fn absorb(&mut self, other: &Self, agg: &A, alpha: usize) -> Result<()> {
        debug_assert_eq!(self.index, other.index);
        let bound = min_watermark(self.y_bound, other.y_bound);
        if bound != self.y_bound {
            // Other's watermark is lower: self's nodes at or past it become
            // unreachable and are dropped, as a rebuild would.
            if let Some(b) = bound {
                self.drop_from(b);
            }
            self.y_bound = bound;
        }
        // Other's live nodes in (lo, depth) order, so fresh slots are
        // allocated deterministically.
        let mut incoming: Vec<(u64, u64, u32)> = other
            .arena
            .meta
            .iter()
            .enumerate()
            .filter(|(_, meta)| !meta.is_evicted())
            .map(|(slot, meta)| (meta.lo, meta.interval().len(), slot as u32))
            .collect();
        incoming.sort_unstable();
        let mut added = false;
        for (lo, len, other_slot) in incoming {
            if let Some(b) = bound {
                if lo >= b {
                    continue; // unreachable past the merged watermark
                }
            }
            let other_meta = &other.arena.meta[other_slot as usize];
            let other_store = &other.arena.stores[other_slot as usize];
            // The eviction-order set is keyed `(lo, !len, slot)`, so an
            // exact-interval probe is one O(log α) range lookup — no
            // interval map has to be built over self.
            let order_key = u64::MAX - len;
            let existing = self
                .order
                .range((lo, order_key, 0)..=(lo, order_key, u32::MAX))
                .next()
                .map(|&(_, _, slot)| slot);
            let slot = match existing {
                Some(slot) => {
                    self.arena.stores[slot as usize].absorb(agg, other_store)?;
                    slot
                }
                None => {
                    let slot = self.alloc(DyadicInterval { lo, hi: lo + (len - 1) });
                    self.arena.stores[slot as usize] = other_store.clone();
                    added = true;
                    slot
                }
            };
            // Re-run the closing check with fresh headroom on the touched
            // node: the merged estimate may have crossed the threshold even
            // if neither input had (unit intervals never close, as in
            // `update`).
            let s = slot as usize;
            let estimate = self.arena.stores[s].estimate(agg);
            let meta = &mut self.arena.meta[s];
            if !meta.is_unit() && (other_meta.is_closed() || estimate >= self.threshold) {
                meta.flags |= FLAG_CLOSED;
            }
            meta.headroom = agg.weight_headroom(estimate, self.threshold);
            meta.pending = 0.0;
        }
        if added {
            self.rebuild_leaves();
        }
        self.cursor = NIL;
        self.evict_overflow(alpha);
        Ok(())
    }

    /// Recompute the leaf tiling from the eviction-order set: a node routes
    /// updates (is a stored leaf) iff its left child is absent, and
    /// ancestor-closure makes the chain of nodes sharing a left endpoint
    /// contiguous — so the leaf at each endpoint is exactly the deepest
    /// stored interval, i.e. the last entry of each endpoint's group in the
    /// `(lo, !len)`-ordered set.
    fn rebuild_leaves(&mut self) {
        self.leaves.clear();
        let mut pending: Option<(u64, u32)> = None;
        for &(lo, _, slot) in &self.order {
            if let Some((plo, pslot)) = pending {
                if plo != lo {
                    // The eviction set iterates in ascending (lo, depth)
                    // order, so the rebuilt index is appended sorted.
                    self.leaves.push_sorted(plo, pslot);
                }
            }
            pending = Some((lo, slot));
        }
        if let Some((plo, pslot)) = pending {
            self.leaves.push_sorted(plo, pslot);
        }
    }

    /// Merge a dormant level's shared-tail store into this level — the
    /// degenerate [`Self::absorb`] where `other` is a single open root
    /// holding `tail` (exactly what a not-yet-materialized level contains).
    /// The union adds no node (a non-empty ancestor-closed level always
    /// stores its root), so this is one store merge plus the root's closing
    /// re-check.
    fn absorb_tail(&mut self, tail: &BucketStore<A>, agg: &A) -> Result<()> {
        // The root has the smallest eviction key (left endpoint 0, largest
        // span), so it is the range's first entry — and it is only ever
        // evicted last, so an empty range means an empty (fully evicted,
        // watermark 0) level, where nothing is reachable and a rebuild would
        // drop the tail node too.
        let Some(&(_, _, slot)) = self.order.range((0, 0, 0)..(1, 0, 0)).next() else {
            return Ok(());
        };
        let s = slot as usize;
        self.arena.stores[s].absorb(agg, tail)?;
        let estimate = self.arena.stores[s].estimate(agg);
        let meta = &mut self.arena.meta[s];
        if !meta.is_unit() && estimate >= self.threshold {
            meta.flags |= FLAG_CLOSED;
        }
        meta.headroom = agg.weight_headroom(estimate, self.threshold);
        meta.pending = 0.0;
        Ok(())
    }

    /// Drop every live node whose left endpoint is at or past `bound`
    /// (unreachable once the watermark sits there). Unlike
    /// [`Self::evict_overflow`] this does not lower the watermark — the
    /// caller is installing `bound` itself.
    fn drop_from(&mut self, bound: u64) {
        for slot in 0..self.arena.meta.len() as u32 {
            let meta = self.arena.meta[slot as usize];
            if meta.is_evicted() || meta.lo < bound {
                continue;
            }
            self.order.remove(&Self::order_key(meta.interval(), slot));
            self.leaves.remove_if(meta.lo, slot);
            self.arena.evict(slot);
            self.live -= 1;
        }
        self.cursor = NIL;
    }

    /// A one-bucket stand-in for a dormant level: an *open* root holding a
    /// clone of the shared tail summary (which is exactly what the eager
    /// formulation's level would contain before its threshold is reached).
    fn from_tail(index: u32, root: DyadicInterval, tail: &BucketStore<A>) -> Self {
        let mut level = Self::new(index, root);
        let root_slot = level.root_slot();
        level.arena.stores[root_slot as usize] = tail.clone();
        level
    }

    /// Evict buckets with the largest left endpoint until the level fits its
    /// budget again, lowering the watermark. O(log α) per victim.
    fn evict_overflow(&mut self, alpha: usize) {
        while self.live > alpha {
            let key = *self
                .order
                .iter()
                .next_back()
                .expect("live > alpha >= 1, so non-empty");
            self.order.remove(&key);
            let (lo, _, slot) = key;
            self.arena.evict(slot);
            // The victim is the deepest node with the largest left endpoint,
            // so if it is in the leaf tiling its entry is its own; interior
            // victims (whose children went first) have no entry left.
            self.leaves.remove_if(lo, slot);
            self.live -= 1;
            self.cursor = NIL;
            self.y_bound = Some(match self.y_bound {
                None => lo,
                Some(b) => b.min(lo),
            });
        }
    }

    /// Serialise the level's live state (snapshot persistence): watermark,
    /// every live slot **in slot order** — compose iterates slots in that
    /// order, so preserving it keeps restored query composition bit-identical
    /// — and the leaf tiling, with slots renumbered densely so tombstones
    /// cost nothing on the wire.
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.index);
        w.put_opt_u64(self.y_bound);
        w.put_len(self.live);
        let mut remap: Vec<u32> = vec![NIL; self.arena.meta.len()];
        let mut next = 0u32;
        for (slot, (meta, store)) in self.arena.meta.iter().zip(&self.arena.stores).enumerate() {
            if meta.is_evicted() {
                continue;
            }
            remap[slot] = next;
            next += 1;
            w.put_u64(meta.lo);
            w.put_u64(meta.hi);
            w.put_f64(meta.headroom);
            w.put_f64(meta.pending);
            w.put_bool(meta.is_closed());
            encode_store(store, w);
        }
        w.put_len(self.leaves.len());
        for (lo, slot) in self.leaves.iter() {
            w.put_u64(lo);
            w.put_u32(remap[slot as usize]);
        }
    }

    /// Rebuild a level from [`Self::encode_state`] bytes: slots are
    /// re-allocated in wire order (dense, no tombstones), the eviction set
    /// and live count rebuilt, and the cursor left invalid (it is a pure
    /// routing hint).
    fn decode_state(agg: &A, root: DyadicInterval, r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let index = r.get_u32()?;
        let y_bound = r.get_opt_u64()?;
        let live = r.get_len()?;
        let mut level = Self {
            index,
            threshold: 2f64.powi(index as i32 + 1),
            arena: LevelArena::new(),
            live: 0,
            leaves: LeafIndex::default(),
            order: BTreeSet::new(),
            y_bound,
            cursor: NIL,
        };
        let mut seen = BTreeSet::new();
        for _ in 0..live {
            let lo = r.get_u64()?;
            let hi = r.get_u64()?;
            if lo > hi || hi > root.hi {
                return Err(CodecError::Corrupt(format!(
                    "level {index} bucket [{lo}, {hi}] outside the root domain"
                )));
            }
            if !seen.insert((lo, hi)) {
                return Err(CodecError::Corrupt(format!(
                    "level {index} stores interval [{lo}, {hi}] twice"
                )));
            }
            let headroom = r.get_f64()?;
            let pending = r.get_f64()?;
            let closed = r.get_bool()?;
            let store = decode_store(agg, r)?;
            let slot = level.alloc(DyadicInterval { lo, hi });
            let s = slot as usize;
            level.arena.meta[s].headroom = headroom;
            level.arena.meta[s].pending = pending;
            if closed {
                level.arena.meta[s].flags |= FLAG_CLOSED;
            }
            level.arena.stores[s] = store;
        }
        let n_leaves = r.get_len()?;
        for _ in 0..n_leaves {
            let lo = r.get_u64()?;
            let slot = r.get_u32()?;
            if slot as usize >= level.arena.meta.len() || level.arena.meta[slot as usize].lo != lo {
                return Err(CodecError::Corrupt(format!(
                    "level {index} leaf entry ({lo}, slot {slot}) does not name a stored bucket"
                )));
            }
            level.leaves.insert(lo, slot);
        }
        Ok(level)
    }

    /// Assert the level's structural invariants (test / `invariant-checks`
    /// builds only): parallel-array consistency, the leaf tiling of the
    /// reachable y-domain, predecessor-index agreement with a linear scan,
    /// eviction-set membership matching the slot flags, and no live bucket
    /// left exact past its spill point.
    #[cfg(any(test, feature = "invariant-checks"))]
    pub(crate) fn check_invariants(&self, agg: &A, root: DyadicInterval) {
        let a = &self.arena;
        let n = a.len();
        assert_eq!(
            a.stores.len(),
            n,
            "SoA meta lane and store pool diverged in length"
        );
        let live_slots: Vec<u32> = (0..n as u32).filter(|&s| !a.is_evicted(s)).collect();
        assert_eq!(live_slots.len(), self.live, "live count out of sync");
        for &slot in &live_slots {
            assert!(
                !a.stores[slot as usize].past_spill_point(agg),
                "level {} bucket {:?} is still exact past its spill point",
                self.index,
                a.interval(slot)
            );
        }
        // Eviction-set membership matches the slot flags exactly: every live
        // slot is orderable for eviction, every tombstone is in the free
        // list with its closed flag cleared.
        assert_eq!(self.order.len(), self.live);
        for &slot in &live_slots {
            assert!(
                self.order.contains(&Self::order_key(a.interval(slot), slot)),
                "live slot {slot} missing from the eviction set"
            );
        }
        let free: BTreeSet<u32> = a.free.iter().copied().collect();
        let evicted: BTreeSet<u32> = (0..n as u32).filter(|&s| a.is_evicted(s)).collect();
        assert_eq!(free, evicted, "free list does not match tombstoned slots");
        for &slot in &evicted {
            assert!(
                !a.meta[slot as usize].is_closed(),
                "evicted slot {slot} still flagged closed"
            );
        }
        // The stored leaves tile the reachable y-domain [0, min(Y_ℓ, y_max+1)).
        let reach = self.y_bound.unwrap_or(root.hi + 1).min(root.hi + 1);
        let mut cover = 0u64;
        for (lo, slot) in self.leaves.iter() {
            assert!(!a.is_evicted(slot), "leaf map points at a tombstone");
            assert_eq!(a.meta[slot as usize].lo, lo, "leaf map key disagrees with the slot");
            if cover >= reach {
                break;
            }
            assert_eq!(lo, cover, "leaf tiling has a gap at {cover}");
            cover = a.meta[slot as usize].hi + 1;
        }
        assert!(cover >= reach, "leaf tiling stops at {cover}, before the watermark {reach}");
        // The predecessor index agrees with a linear scan over the arena:
        // for each leaf boundary, the deepest live slot containing y is the
        // leaf the routing lookup returns.
        for (lo, slot) in self.leaves.iter() {
            for y in [lo, a.meta[slot as usize].hi] {
                if y >= reach {
                    continue;
                }
                let mut deepest: Option<u32> = None;
                for &s in &live_slots {
                    if a.meta[s as usize].contains(y) {
                        deepest = match deepest {
                            Some(d) if a.interval(d).len() <= a.interval(s).len() => Some(d),
                            _ => Some(s),
                        };
                    }
                }
                assert_eq!(deepest, Some(slot), "linear scan disagrees with leaf map at y={y}");
                let routed = self.leaves.predecessor(y);
                assert_eq!(routed, Some(slot), "predecessor lookup disagrees at y={y}");
            }
        }
        if self.cursor != NIL {
            assert!(!a.is_evicted(self.cursor), "cursor points at a tombstone");
            assert_eq!(
                self.leaves.get(a.meta[self.cursor as usize].lo),
                Some(self.cursor),
                "cursor is not a stored leaf"
            );
        }
    }
}

/// The shared summary standing in for every not-yet-materialized level: all
/// their roots are open (the stream's aggregate has not reached their
/// thresholds), so they would each hold exactly this store.
#[derive(Debug, Clone)]
struct TailState<A: CorrelatedAggregate> {
    store: BucketStore<A>,
    /// Weight added since the last real estimate (headroom gating, as in the
    /// arena slots, against the smallest unmaterialized level's threshold).
    pending_weight: f64,
    headroom: f64,
}

impl<A: CorrelatedAggregate> TailState<A> {
    fn new() -> Self {
        Self {
            store: BucketStore::new(),
            pending_weight: 0.0,
            headroom: 0.0,
        }
    }
}

/// The dyadic-level engine: every materialized level, the packed watermark
/// array the insert loop skips on, and the shared tail summary for dormant
/// levels — the entire per-level state of a
/// [`CorrelatedSketch`](crate::framework::CorrelatedSketch) apart from the
/// singleton level, behind a narrow update/merge/read API.
#[derive(Debug, Clone)]
pub(crate) struct LevelEngine<A: CorrelatedAggregate> {
    /// Materialized levels `1 ..= levels.len()`; levels above that are
    /// represented by `tail`.
    levels: Vec<Level<A>>,
    /// `levels[i].y_bound` (with `u64::MAX` for `+∞`), packed flat so the
    /// per-insert level loop can skip watermarked-out levels from one or two
    /// cache lines instead of touching every `Level` struct.
    level_bounds: Vec<u64>,
    /// Shared summary for the dormant levels `levels.len()+1 ..= max_level`.
    tail: TailState<A>,
    /// Largest level index `ℓ_max` the configuration calls for.
    max_level: u32,
    /// The root dyadic interval `[0, padded y_max]`.
    root: DyadicInterval,
}

impl<A: CorrelatedAggregate> LevelEngine<A> {
    /// An empty engine: no materialized levels, an empty tail.
    pub(crate) fn new(root: DyadicInterval, max_level: u32) -> Self {
        Self {
            levels: Vec::new(),
            level_bounds: Vec::new(),
            tail: TailState::new(),
            max_level,
            root,
        }
    }

    /// The materialized levels, smallest index first.
    pub(crate) fn levels(&self) -> &[Level<A>] {
        &self.levels
    }

    /// The root dyadic interval.
    pub(crate) fn root(&self) -> DyadicInterval {
        self.root
    }

    /// True iff dormant levels remain (the tail store stands in for them).
    pub(crate) fn has_dormant(&self) -> bool {
        (self.levels.len() as u32) < self.max_level
    }

    /// Number of dormant levels represented by the shared tail.
    pub(crate) fn dormant_count(&self) -> usize {
        (self.max_level as usize).saturating_sub(self.levels.len())
    }

    /// The shared tail summary (an open root over the whole stream).
    pub(crate) fn tail_store(&self) -> &BucketStore<A> {
        &self.tail.store
    }

    /// Process a batch of updates level-major: each level's arena is walked
    /// for the whole batch at once, which keeps one level's slots hot in
    /// cache instead of cycling through every level per update. Level states
    /// are independent of one another, so this produces exactly the
    /// structure that feeding the updates one at a time would. `tuples`
    /// carries each update's `y` and `items` its `(x, weight)`, the slice
    /// `batch` was prepared from.
    pub(crate) fn update_batch(
        &mut self,
        agg: &A,
        alpha: usize,
        tuples: &[(u64, u64)],
        items: &[(u64, i64)],
        batch: &BatchOf<A>,
    ) {
        let min_y = tuples.iter().map(|&(_, y)| y).min().unwrap_or(u64::MAX);
        for (level, bound) in self.levels.iter_mut().zip(self.level_bounds.iter_mut()) {
            // The packed watermark check skips levels the whole batch lies
            // past without touching their (much larger) Level structs.
            if min_y >= *bound {
                continue;
            }
            level.apply_batch(agg, alpha, tuples, items, batch, 0);
            *bound = level.y_bound.unwrap_or(u64::MAX);
        }
        // The tail is sequential: a level materialized at update i must
        // still receive updates i+1.. through the normal level path. Record
        // where each new level came into existence, then replay the
        // suffixes.
        let mut born_at: Vec<(usize, usize)> = Vec::new(); // (level slot, first unseen update)
        self.update_tail_batch(agg, items, batch, &mut born_at);
        for (slot, from) in born_at {
            let level = &mut self.levels[slot];
            level.apply_batch(agg, alpha, tuples, items, batch, from);
            self.level_bounds[slot] = level.y_bound.unwrap_or(u64::MAX);
        }
    }

    /// Feed the shared tail store (standing in for every dormant level) in
    /// headroom-bounded chunks through the flat prepared layout, and
    /// materialize levels whose threshold the stream's estimate has crossed,
    /// recording in `born_at` each level materialized mid-batch together
    /// with the index of the first update it has not yet seen.
    fn update_tail_batch(
        &mut self,
        agg: &A,
        items: &[(u64, i64)],
        batch: &BatchOf<A>,
        born_at: &mut Vec<(usize, usize)>,
    ) {
        let n = items.len();
        let mut i = 0;
        while i < n && self.has_dormant() {
            let tail = &mut self.tail;
            let j = if tail.store.is_exact() {
                // One update at a time: a conversion forces an immediate
                // re-check.
                let (x, weight) = items[i];
                tail.store.update(agg, x, weight);
                tail.pending_weight += weight as f64;
                if !tail.store.is_exact() {
                    tail.headroom = 0.0;
                }
                i + 1
            } else {
                // The chunk ends at the update whose weight exhausts the
                // headroom, as a slot's run does.
                let gap = tail.headroom - tail.pending_weight;
                let mut taken = items[i].1;
                let mut j = i + 1;
                while j < n && (taken as f64) < gap {
                    taken += items[j].1;
                    j += 1;
                }
                tail.store.update_batch_range(agg, items, batch, i..j);
                tail.pending_weight += taken as f64;
                j
            };
            if self.tail.pending_weight >= self.tail.headroom {
                let before = self.levels.len();
                self.materialize_crossed_levels(agg);
                born_at.extend((before..self.levels.len()).map(|slot| (slot, j)));
            }
            i = j;
        }
    }

    /// Re-estimate the tail and materialize every dormant level whose closing
    /// threshold `2^{ℓ+1}` the estimate has reached. A materialized level
    /// starts with a *closed* root holding a clone of the tail store —
    /// exactly the state the eager per-level loop would have produced, since
    /// an open root sees every stream element.
    fn materialize_crossed_levels(&mut self, agg: &A) {
        loop {
            let next_index = self.levels.len() as u32 + 1;
            if next_index > self.max_level {
                break;
            }
            let threshold = 2f64.powi(next_index as i32 + 1);
            let estimate = self.tail.store.estimate(agg);
            if estimate >= threshold {
                let mut level = Level::new(next_index, self.root);
                let root_slot = level.root_slot() as usize;
                level.arena.stores[root_slot] = self.tail.store.clone();
                level.arena.meta[root_slot].flags |= FLAG_CLOSED;
                self.levels.push(level);
                self.level_bounds.push(u64::MAX);
                // The estimate may have crossed several thresholds at once.
                continue;
            }
            self.tail.headroom = agg.weight_headroom(estimate, threshold);
            self.tail.pending_weight = 0.0;
            break;
        }
    }

    /// Merge `other` into `self` (Property V, lifted to whole level sets):
    /// same-index levels are union-merged in place, a level materialized in
    /// only one input absorbs the other's shared tail (which is exactly that
    /// input's dormant level), and the tails merge with the materialization
    /// check re-run — the combined stream's estimate may have crossed
    /// thresholds neither input had reached.
    pub(crate) fn merge_from(&mut self, agg: &A, alpha: usize, other: &Self) -> Result<()> {
        debug_assert_eq!(self.max_level, other.max_level);
        debug_assert_eq!(self.root, other.root);
        let both = self.levels.len().min(other.levels.len());
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.absorb(b, agg, alpha)?;
        }
        // Levels only self has materialized: other's dormant level is exactly
        // its shared tail — one open root over other's whole stream.
        for level in self.levels.iter_mut().skip(both) {
            level.absorb_tail(&other.tail.store, agg)?;
        }
        // Levels only other has materialized: self's dormant level is its
        // (pre-merge) shared tail.
        for i in self.levels.len()..other.levels.len() {
            let mut level = Level::from_tail(i as u32 + 1, self.root, &self.tail.store);
            level.absorb(&other.levels[i], agg, alpha)?;
            self.levels.push(level);
        }
        self.level_bounds = self
            .levels
            .iter()
            .map(|l| l.y_bound.unwrap_or(u64::MAX))
            .collect();

        // Shared tail: only meaningful while dormant levels remain, in which
        // case both inputs still had live tails (levels.len() < max_level for
        // both). Force a fresh estimate and materialize crossed levels.
        if self.has_dormant() {
            self.tail.store.absorb(agg, &other.tail.store)?;
            self.tail.pending_weight = 0.0;
            self.tail.headroom = 0.0;
            self.materialize_crossed_levels(agg);
        }
        Ok(())
    }

    /// Space accounting over every dyadic level and the shared tail:
    /// `(buckets, stored tuples, bytes, levels with evictions)`. Dormant
    /// levels share one open root bucket; the backing store is physically
    /// stored (and therefore counted) once.
    pub(crate) fn space_accounting(&self) -> (usize, usize, usize, usize) {
        let mut buckets = 0usize;
        let mut tuples = 0usize;
        let mut bytes = 0usize;
        let mut levels_with_evictions = 0usize;
        for level in &self.levels {
            buckets += level.live;
            for (_, store) in level.live_buckets() {
                tuples += store.stored_tuples();
                bytes += store.space_bytes();
            }
            if level.y_bound.is_some() {
                levels_with_evictions += 1;
            }
        }
        let dormant = self.dormant_count();
        if dormant > 0 {
            buckets += dormant;
            tuples += self.tail.store.stored_tuples();
            bytes += self.tail.store.space_bytes();
        }
        (buckets, tuples, bytes, levels_with_evictions)
    }

    /// Serialise the engine (snapshot persistence): every materialized level
    /// in index order plus the shared tail and its gating state.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.levels.len());
        for level in &self.levels {
            level.encode_state(w);
        }
        encode_store(&self.tail.store, w);
        w.put_f64(self.tail.pending_weight);
        w.put_f64(self.tail.headroom);
    }

    /// Rebuild an engine from [`Self::encode_state`] bytes for a structure
    /// with the given root interval and level budget (both derived from the
    /// decoded configuration, never trusted from the payload alone).
    pub(crate) fn decode_state(
        agg: &A,
        root: DyadicInterval,
        max_level: u32,
        r: &mut ByteReader<'_>,
    ) -> CodecResult<Self> {
        let n = r.get_len()?;
        if n > max_level as usize {
            return Err(CodecError::Corrupt(format!(
                "snapshot has {n} materialized levels, configuration allows {max_level}"
            )));
        }
        let mut levels = Vec::with_capacity(n);
        for i in 0..n {
            let level = Level::decode_state(agg, root, r)?;
            if level.index != i as u32 + 1 {
                return Err(CodecError::Corrupt(format!(
                    "level indices not contiguous: found {} at position {i}",
                    level.index
                )));
            }
            levels.push(level);
        }
        let store = decode_store(agg, r)?;
        let pending_weight = r.get_f64()?;
        let headroom = r.get_f64()?;
        let level_bounds = levels
            .iter()
            .map(|l: &Level<A>| l.y_bound.unwrap_or(u64::MAX))
            .collect();
        Ok(Self {
            levels,
            level_bounds,
            tail: TailState {
                store,
                pending_weight,
                headroom,
            },
            max_level,
            root,
        })
    }

    /// Assert the engine's structural invariants (test / `invariant-checks`
    /// builds only): packed bounds mirror the level watermarks, level
    /// indices are contiguous, the shared tail obeys the spill rule, and
    /// every level passes [`Level::check_invariants`].
    #[cfg(any(test, feature = "invariant-checks"))]
    pub(crate) fn check_invariants(&self, agg: &A) {
        assert_eq!(self.levels.len(), self.level_bounds.len());
        assert!(self.levels.len() as u32 <= self.max_level);
        assert!(
            !self.tail.store.past_spill_point(agg),
            "shared tail is still exact past its spill point"
        );
        for (i, (level, &bound)) in self.levels.iter().zip(&self.level_bounds).enumerate() {
            assert_eq!(level.index, i as u32 + 1, "level indices must be contiguous");
            assert_eq!(
                bound,
                level.y_bound.unwrap_or(u64::MAX),
                "packed bound out of sync with level {}",
                level.index
            );
            level.check_invariants(agg, self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f2::F2Aggregate;

    fn agg() -> F2Aggregate {
        F2Aggregate::new(0.3, 0.1, 7)
    }

    /// Feed `tuples` at unit weight to one level, as one batch.
    fn feed(level: &mut Level<F2Aggregate>, agg: &F2Aggregate, alpha: usize, tuples: &[(u64, u64)]) {
        let items: Vec<(u64, i64)> = tuples.iter().map(|&(x, _)| (x, 1)).collect();
        let mut batch = BatchOf::<F2Aggregate>::default();
        agg.new_sketch().prepare_batch_into(&items, &mut batch);
        level.apply_batch(agg, alpha, tuples, &items, &batch, 0);
    }

    /// Feed weighted `(x, y, w)` updates to an engine in batches of `chunk`.
    fn feed_engine(
        engine: &mut LevelEngine<F2Aggregate>,
        agg: &F2Aggregate,
        alpha: usize,
        updates: &[(u64, u64, i64)],
        chunk: usize,
    ) {
        let proto = agg.new_sketch();
        for part in updates.chunks(chunk) {
            let tuples: Vec<(u64, u64)> = part.iter().map(|&(x, y, _)| (x, y)).collect();
            let items: Vec<(u64, i64)> = part.iter().map(|&(x, _, w)| (x, w)).collect();
            let mut batch = BatchOf::<F2Aggregate>::default();
            proto.prepare_batch_into(&items, &mut batch);
            engine.update_batch(agg, alpha, &tuples, &items, &batch);
        }
    }

    #[test]
    fn level_routes_splits_and_evicts_with_valid_invariants() {
        let agg = agg();
        let root = DyadicInterval::root(255);
        let mut level = Level::new(1, root);
        let tuples: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 40, (i * 37) % 256)).collect();
        feed(&mut level, &agg, 8, &tuples);
        assert!(level.live <= 8, "eviction must keep the level within alpha");
        assert!(level.y_bound.is_some(), "alpha = 8 must force evictions here");
        level.check_invariants(&agg, root);
    }

    #[test]
    fn absorb_unions_trees_and_keeps_invariants() {
        let agg = agg();
        let root = DyadicInterval::root(1023);
        let mut a = Level::new(2, root);
        let mut b = Level::new(2, root);
        let tuples: Vec<(u64, u64)> = (0..1_500u64).map(|i| (i % 25, (i * 13) % 1024)).collect();
        let evens: Vec<(u64, u64)> = tuples.iter().copied().step_by(2).collect();
        let odds: Vec<(u64, u64)> = tuples.iter().copied().skip(1).step_by(2).collect();
        feed(&mut a, &agg, 32, &evens);
        feed(&mut b, &agg, 32, &odds);
        a.absorb(&b, &agg, 32).unwrap();
        a.check_invariants(&agg, root);
        assert!(a.live <= 32);
        // The merged level summarises both inputs: total stored weight at
        // least either side's.
        let merged_tuples: usize = a.live_buckets().map(|(_, s)| s.stored_tuples()).sum();
        assert!(merged_tuples > 0);
    }

    #[test]
    fn absorb_node_set_is_direction_independent() {
        let agg = agg();
        let root = DyadicInterval::root(4095);
        let build = |mult: u64, n: u64| {
            let mut level = Level::new(3, root);
            let tuples: Vec<(u64, u64)> = (0..n).map(|i| (i % 40, (i * mult) % 4096)).collect();
            feed(&mut level, &agg, 256, &tuples);
            level
        };
        // No evictions at this budget, so the union must be exact: the same
        // node set (and leaf tiling) whichever side absorbs the other.
        let (a, b) = (build(37, 2_000), build(11, 600));
        let mut ab = a.clone();
        ab.absorb(&b, &agg, 256).unwrap();
        let mut ba = b.clone();
        ba.absorb(&a, &agg, 256).unwrap();
        ab.check_invariants(&agg, root);
        ba.check_invariants(&agg, root);
        let nodes = |l: &Level<F2Aggregate>| -> Vec<(DyadicInterval, usize)> {
            let mut v: Vec<_> = l.live_buckets().map(|(iv, s)| (iv, s.stored_tuples())).collect();
            v.sort_unstable_by_key(|&(iv, _)| (iv.lo, iv.len()));
            v
        };
        assert_eq!(nodes(&ab), nodes(&ba));
        let leaves = |l: &Level<F2Aggregate>| -> Vec<(u64, DyadicInterval)> {
            l.leaves.iter().map(|(lo, s)| (lo, l.arena.interval(s))).collect()
        };
        assert_eq!(leaves(&ab), leaves(&ba));
        // In-place absorb kept everything either side stored.
        let tuples = |l: &Level<F2Aggregate>| -> usize {
            l.live_buckets().map(|(_, s)| s.stored_tuples()).sum()
        };
        assert!(tuples(&ab) >= tuples(&a).max(tuples(&b)));
    }

    #[test]
    fn absorb_adopts_the_lower_watermark_and_drops_unreachable_nodes() {
        let agg = agg();
        let root = DyadicInterval::root(255);
        let mut a = Level::new(1, root);
        let mut b = Level::new(1, root);
        let tuples: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 40, (i * 37) % 256)).collect();
        feed(&mut a, &agg, 1024, &tuples); // no evictions: budget is ample
        feed(&mut b, &agg, 8, &tuples); // tiny budget: forced evictions
        assert_eq!(a.y_bound, None);
        let bound = b.y_bound.expect("alpha = 8 must force evictions");
        // Ample post-merge budget, so no further eviction lowers the
        // watermark past the one inherited from `b`.
        a.absorb(&b, &agg, 1024).unwrap();
        a.check_invariants(&agg, root);
        assert_eq!(a.y_bound, Some(bound));
        for (iv, _) in a.live_buckets() {
            assert!(iv.lo < bound, "node at {iv:?} is unreachable past {bound}");
        }
    }

    #[test]
    fn absorb_tail_feeds_the_root_and_recloses() {
        let agg = agg();
        let root = DyadicInterval::root(1023);
        let mut level = Level::new(2, root);
        let tuples: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 20, (i * 13) % 1024)).collect();
        feed(&mut level, &agg, 64, &tuples);
        let before: usize = level.live_buckets().map(|(_, s)| s.stored_tuples()).sum();
        let node_count = level.live;
        // A dormant level's stand-in: a tail store with some weight.
        let mut tail: BucketStore<F2Aggregate> = BucketStore::new();
        for x in 0..30u64 {
            tail.update(&agg, x, 2);
        }
        level.absorb_tail(&tail, &agg).unwrap();
        level.check_invariants(&agg, root);
        assert_eq!(level.live, node_count, "absorbing a tail adds no node");
        let after: usize = level.live_buckets().map(|(_, s)| s.stored_tuples()).sum();
        assert!(after >= before, "root store must have grown: {before} -> {after}");
        // The root (largest span at endpoint 0) must now be closed: the tail
        // pushed its estimate far past the level-2 threshold of 8.
        let (_, _, root_slot) = *level.order.range((0, 0, 0)..(1, 0, 0)).next().unwrap();
        assert!(level.arena.meta[root_slot as usize].is_closed());
    }

    #[test]
    fn engine_materializes_levels_as_estimates_grow() {
        let agg = agg();
        let root = DyadicInterval::root(1023);
        let mut engine = LevelEngine::new(root, 20);
        assert!(engine.has_dormant());
        assert_eq!(engine.dormant_count(), 20);
        let updates: Vec<(u64, u64, i64)> = (0..3_000u64).map(|i| (i % 50, (i * 11) % 1024, 1)).collect();
        feed_engine(&mut engine, &agg, 64, &updates, 1);
        assert!(
            !engine.levels().is_empty(),
            "3k tuples over 50 ids must cross the first thresholds"
        );
        assert!(engine.has_dormant(), "top levels stay dormant");
        engine.check_invariants(&agg);
    }

    #[test]
    fn engine_structure_does_not_depend_on_batch_boundaries() {
        // Unit and mixed weights, cut into batches of 1, 7 and 512: runs and
        // the tail's chunks end where the weight exhausts the headroom, so
        // every cut must build the same levels.
        let agg = agg();
        let root = DyadicInterval::root(4095);
        let mut state = 11u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut stream = |weight: &dyn Fn(u64) -> i64| -> Vec<(u64, u64, i64)> {
            (0..4_000)
                .map(|_| {
                    let r = next();
                    ((r >> 33) % 200, (r >> 13) % 4096, weight(r))
                })
                .collect()
        };
        let unit = stream(&|_| 1);
        let weighted = stream(&|r| 1 + (r >> 50) as i64 % 40);
        for updates in [&unit, &weighted] {
            let engines: Vec<LevelEngine<F2Aggregate>> = [1, 7, 512]
                .iter()
                .map(|&chunk| {
                    let mut engine = LevelEngine::new(root, 30);
                    feed_engine(&mut engine, &agg, 48, updates, chunk);
                    engine.check_invariants(&agg);
                    engine
                })
                .collect();
            let bytes = |engine: &LevelEngine<F2Aggregate>| {
                let mut w = ByteWriter::new();
                engine.encode_state(&mut w);
                w.into_bytes()
            };
            assert!(engines[0].levels().len() > 1, "the stream must materialize levels");
            assert!(engines[0].levels().iter().any(|l| l.y_bound.is_some()), "alpha must evict");
            for engine in &engines[1..] {
                assert!(bytes(engine) == bytes(&engines[0]), "batch cut changed the structure");
            }
        }
    }
}
