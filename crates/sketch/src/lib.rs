//! # cora-sketch
//!
//! Mergeable whole-stream summaries ("sketches") and exact baselines.
//!
//! The correlated-aggregation framework in `cora-core` reduces a correlated
//! aggregate query to the composition of *whole-stream* sketches (Property V
//! of Tirthapura & Woodruff, ICDE 2012). This crate provides those sketches:
//!
//! | aggregate | sketch | module |
//! |---|---|---|
//! | `F_2` and point frequencies | fast AMS / Thorup–Zhang bucketed estimator (the paper's choice); its counter array is a CountSketch | [`fast_ams`] |
//! | frequent items | SpaceSaving | [`space_saving`] |
//! | `F_k`, k ≥ 2 | subsampling + SpaceSaving (Indyk–Woodruff-style) | [`fk`] |
//! | `F_0` | adaptive distinct sampling (Gibbons–Tirthapura) | [`f0::distinct_sampler`] |
//! | `F_0` | bottom-k (KMV) | [`f0::kmv`] |
//! | `F_0` | probabilistic counting (Flajolet–Martin) | [`f0::flajolet_martin`] |
//! | quantiles | Greenwald–Khanna | [`quantiles`] |
//! | everything, exactly | full frequency vector | [`exact`] |
//!
//! All summaries implement the traits in [`traits`]; estimation helpers live
//! in [`estimator_util`] and shared error types in [`error`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod error;
pub mod estimator_util;
pub mod exact;
pub mod f0;
pub mod fast_ams;
pub mod fk;
pub mod quantiles;
pub mod space_saving;
pub mod traits;

pub use codec::{ByteReader, ByteWriter, CodecError, StateCodec};
pub use error::{Result, SketchError};
pub use exact::ExactFrequencies;
pub use f0::{DistinctSampler, F0Sketch, FlajoletMartin, KmvSketch};
pub use fast_ams::{FastAmsBatch, FastAmsSketch};
pub use fk::{FkPrepared, FkSketch};
pub use quantiles::GkQuantiles;
pub use space_saving::SpaceSaving;
pub use traits::{Estimate, MergeableSketch, PointQuery, SharedUpdate, SketchFactory, SpaceUsage, StreamSketch};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut f2 = FastAmsSketch::with_dimensions(16, 3, 1);
        f2.insert(1);
        assert!(f2.estimate() > 0.0);

        let mut f0 = F0Sketch::with_dimensions(16, 3, 1);
        f0.insert(1);
        assert_eq!(f0.estimate(), 1.0);

        let mut exact = ExactFrequencies::new();
        exact.insert(1);
        assert_eq!(exact.frequency_moment(1), 1.0);
    }
}
