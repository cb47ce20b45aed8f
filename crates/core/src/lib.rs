//! # cora-core
//!
//! A general method for estimating **correlated aggregates** over a data
//! stream — a Rust implementation of Tirthapura & Woodruff (ICDE 2012 /
//! Algorithmica 2015).
//!
//! A correlated aggregate query `C(σ, AGG, S)` over a stream of `(x, y)`
//! tuples first applies a selection `σ = (y ≤ c)` — with `c` supplied only at
//! **query time** — and then aggregates the surviving item identifiers `x`.
//! This crate provides:
//!
//! * the **generic reduction** from correlated aggregation to whole-stream
//!   sketching ([`framework::CorrelatedSketch`], Algorithms 1–3 of the paper),
//!   parameterised by the paper's Conditions I–V ([`aggregate::CorrelatedAggregate`]);
//! * instantiations for the frequency moments: [`f2::CorrelatedF2`],
//!   [`fk::CorrelatedFk`], and the trivially-smooth [`sum::CorrelatedSum`] /
//!   [`sum::CorrelatedCount`];
//! * the distinct-sampling based [`f0::CorrelatedF0`] (Section 3.2);
//! * the Section 3.3 extensions: [`heavy_hitters::CorrelatedHeavyHitters`]
//!   (the framework sketch over the heavy-hitters aggregate) and
//!   [`rarity::CorrelatedRarity`];
//! * the exact linear-storage baseline [`exact::ExactCorrelated`] used by the
//!   paper's experiments as the comparison point.
//!
//! ## Quick example
//!
//! ```
//! use cora_core::f2::correlated_f2;
//!
//! let mut sketch = correlated_f2(0.2, 0.1, 1023, 10_000).unwrap();
//! // Stream of (item, y) tuples.
//! for i in 0..1000u64 {
//!     sketch.insert(i % 50, i % 1024).unwrap();
//! }
//! // Threshold chosen only now, at query time.
//! let f2_below_200 = sketch.query(200).unwrap();
//! assert!(f2_below_200 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod compose;
pub mod config;
pub mod dyadic;
pub mod error;
pub mod exact;
pub mod f0;
pub mod f2;
pub mod fk;
pub mod framework;
pub mod heavy_hitters;
mod levels;
pub mod rarity;
mod sample_level;
mod singleton;
pub mod snapshot;
pub mod sum;

pub use aggregate::{BucketStore, CorrelatedAggregate};
pub use compose::GenCache;
pub use config::{AlphaPolicy, CorrelatedConfig, DEFAULT_SEED};
pub use dyadic::DyadicInterval;
pub use error::{CoreError, Result};
pub use exact::ExactCorrelated;
pub use f0::CorrelatedF0;
pub use f2::{correlated_f2, correlated_f2_seeded, CorrelatedF2, F2Aggregate};
pub use fk::{correlated_fk, correlated_fk_seeded, CorrelatedFk, FkAggregate};
pub use framework::{CorrelatedSketch, SketchStats};
pub use heavy_hitters::{CorrelatedHeavyHitters, HeavyHitter};
pub use rarity::CorrelatedRarity;
pub use snapshot::{SectionsHeader, SnapshotKind, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use sum::{correlated_count, correlated_sum, CorrelatedCount, CorrelatedSum};

#[cfg(test)]
mod lib_tests {
    #[test]
    fn public_api_round_trip() {
        let mut f2 = crate::correlated_f2(0.3, 0.2, 255, 1000).unwrap();
        let mut f0 = crate::CorrelatedF0::new(0.3, 0.2, 10, 255).unwrap();
        let mut exact = crate::ExactCorrelated::new();
        for i in 0..200u64 {
            f2.insert(i % 20, i % 256).unwrap();
            f0.insert(i % 20, i % 256).unwrap();
            exact.insert(i % 20, i % 256);
        }
        assert!(f2.query(128).unwrap() > 0.0);
        assert!(f0.query(128).unwrap() > 0.0);
        assert!(exact.frequency_moment(2, 128) > 0.0);
    }
}
