//! Core traits implemented by every whole-stream summary in this crate.
//!
//! The correlated-aggregation framework (`cora-core`) is generic over a
//! "sketching function" in the sense of the paper's Property V: it must be
//! possible to (a) update a sketch with a stream item, (b) obtain an
//! `(υ, γ)`-estimate of the aggregate from the sketch, and (c) **compose** two
//! sketches of two multisets into a sketch of their union. These three
//! capabilities are captured by [`StreamSketch`], [`Estimate`] and
//! [`MergeableSketch`] respectively; [`SpaceUsage`] adds the space accounting
//! that the paper's experiments report (number of stored tuples / bytes).

use crate::error::Result;

/// A summary that can be updated online with weighted item identifiers.
///
/// Weights are `i64`: the cash-register model uses strictly positive weights,
/// the turnstile model (Section 4 of the paper) allows negative weights.
/// Structures that cannot handle negative weights must document it and may
/// debug-assert, but should not silently produce garbage.
pub trait StreamSketch {
    /// Process one stream element with the given weight (frequency delta).
    fn update(&mut self, item: u64, weight: i64);

    /// Convenience wrapper for the common unit-weight insertion.
    fn insert(&mut self, item: u64) {
        self.update(item, 1);
    }

    /// Fold a whole frequency vector into the summary: one [`Self::update`]
    /// per `(item, weight)` entry. The correlated framework calls this to
    /// convert an exact bucket to its sketch and to compose exact buckets
    /// into a sketched one, with entries in hash-map order — so a summary
    /// whose state depends on update order overrides it with an
    /// order-independent bulk load.
    fn update_all(&mut self, entries: impl Iterator<Item = (u64, i64)>)
    where
        Self: Sized,
    {
        for (item, weight) in entries {
            self.update(item, weight);
        }
    }
}

/// A summary that can produce a point estimate of its target aggregate.
pub trait Estimate {
    /// Return the current estimate of the aggregate this sketch tracks
    /// (e.g. `F_2`, `F_0`, `F_k`).
    fn estimate(&self) -> f64;
}

/// A summary whose per-item *coordinates* (hash evaluations, subsampling
/// levels) are determined by its dimensions and construction seed alone, so
/// the work of a batch of `(item, weight)` updates can be computed once and
/// applied to many same-seeded instances.
///
/// The correlated-aggregation framework leans on this: Property V requires
/// every per-bucket summary in one structure to share hash seeds (so they
/// compose), and a single stream element updates one bucket on every level
/// plus a shared tail summary. Preparing a batch's coordinates once removes
/// the dominant per-level hashing cost from the insert path; a single insert
/// is a batch of one.
pub trait SharedUpdate: StreamSketch {
    /// Precomputed coordinates for a batch of `(item, weight)` updates,
    /// stored in one flat allocation so that applying a contiguous sub-range
    /// walks memory sequentially (see [`Self::apply_prepared_range`]).
    type PreparedBatch: Clone + Default + std::fmt::Debug;

    /// Compute the coordinates of every `(item, weight)` in `items` into
    /// `out`, reusing its allocations. The result must depend only on the
    /// sketch's dimensions and seed, never on its counter state, so it is
    /// valid for every sketch produced by the same factory/aggregate.
    fn prepare_batch_into(&self, items: &[(u64, i64)], out: &mut Self::PreparedBatch);

    /// Apply tuples `range` (indices into the `items` slice the batch was
    /// prepared from) of a prepared batch. Must be exactly equivalent to
    /// [`StreamSketch::update`] on each `(item, weight)` of the range, in
    /// order.
    fn apply_prepared_range(&mut self, batch: &Self::PreparedBatch, range: std::ops::Range<usize>);
}

/// A summary of a multiset that can be composed with a summary of another
/// multiset to obtain a summary of the multiset union (Property V(b)).
///
/// Mergeability is what the workspace's scale-out path is built on: because
/// every summary created from one seed composes losslessly (linear sketches
/// add counter-wise; exact vectors add entry-wise), a stream can be
/// partitioned across ingest workers and the per-worker summaries merged at
/// query time — see `CorrelatedSketch::merge_from` in `cora-core` and the
/// worker-sharded front-end in `cora_stream::sharded`, which lift this
/// per-sketch property to whole correlated structures.
pub trait MergeableSketch: Sized {
    /// Merge `other` into `self`.
    ///
    /// Returns an error if the two sketches are structurally incompatible
    /// (different dimensions or different hash seeds). Implementations must
    /// be order-insensitive up to their estimate guarantees: merging shard
    /// summaries in any order yields a summary of the same union multiset.
    fn merge_from(&mut self, other: &Self) -> Result<()>;

    /// Merge two sketches into a new one, leaving the inputs untouched.
    fn merged(&self, other: &Self) -> Result<Self>
    where
        Self: Clone,
    {
        let mut out = self.clone();
        out.merge_from(other)?;
        Ok(out)
    }
}

/// Space accounting, reported the same way the paper's experiments report it.
pub trait SpaceUsage {
    /// Number of "stored tuples" — the unit used in Figures 2–7 of the paper
    /// (counters, samples, or buckets, whichever is the natural atom of the
    /// structure).
    fn stored_tuples(&self) -> usize;

    /// Estimated heap footprint in bytes (structure-specific accounting, not
    /// allocator-level truth; intended for relative comparisons).
    fn space_bytes(&self) -> usize {
        self.stored_tuples() * std::mem::size_of::<(u64, u64)>()
    }
}

/// A summary that supports point queries for individual item frequencies
/// (CountSketch, exact maps).
pub trait PointQuery {
    /// Estimate the (signed) frequency of `item`.
    fn frequency_estimate(&self, item: u64) -> f64;
}

/// Factory trait: build fresh, empty sketches that are all mutually mergeable.
///
/// The correlated framework instantiates *many* per-bucket sketches and must
/// guarantee that any two of them can be composed at query time; it therefore
/// holds a factory (sharing one seed / one set of hash functions) rather than
/// constructing sketches ad hoc.
pub trait SketchFactory {
    /// The sketch type this factory builds.
    type Sketch: StreamSketch + Estimate + MergeableSketch + SpaceUsage + Clone;

    /// Create a new empty sketch. All sketches created by the same factory
    /// must be mergeable with one another.
    fn new_sketch(&self) -> Self::Sketch;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SketchError;

    /// A toy exact-sum "sketch" used to exercise the default trait methods.
    #[derive(Debug, Clone, PartialEq)]
    struct SumSketch {
        total: i64,
        tag: u64,
    }

    impl StreamSketch for SumSketch {
        fn update(&mut self, _item: u64, weight: i64) {
            self.total += weight;
        }
    }
    impl Estimate for SumSketch {
        fn estimate(&self) -> f64 {
            self.total as f64
        }
    }
    impl MergeableSketch for SumSketch {
        fn merge_from(&mut self, other: &Self) -> Result<()> {
            if self.tag != other.tag {
                return Err(SketchError::IncompatibleMerge {
                    detail: "tag mismatch".into(),
                });
            }
            self.total += other.total;
            Ok(())
        }
    }
    impl SpaceUsage for SumSketch {
        fn stored_tuples(&self) -> usize {
            1
        }
    }

    #[test]
    fn insert_is_unit_weight_update() {
        let mut s = SumSketch { total: 0, tag: 0 };
        s.insert(7);
        s.insert(9);
        s.update(1, 5);
        assert_eq!(s.estimate(), 7.0);
    }

    #[test]
    fn merged_leaves_inputs_untouched() {
        let a = SumSketch { total: 3, tag: 1 };
        let b = SumSketch { total: 4, tag: 1 };
        let c = a.merged(&b).unwrap();
        assert_eq!(c.estimate(), 7.0);
        assert_eq!(a.total, 3);
        assert_eq!(b.total, 4);
    }

    #[test]
    fn merge_rejects_incompatible() {
        let a = SumSketch { total: 3, tag: 1 };
        let b = SumSketch { total: 4, tag: 2 };
        assert!(a.merged(&b).is_err());
    }

    #[test]
    fn default_space_bytes_scales_with_tuples() {
        let s = SumSketch { total: 0, tag: 0 };
        assert_eq!(s.space_bytes(), 16);
    }
}
