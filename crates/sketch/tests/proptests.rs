//! Property-based tests for the whole-stream sketches: merge semantics,
//! linearity, and agreement with exact baselines on small inputs.

use cora_sketch::{
    DistinctSampler, Estimate, ExactFrequencies, F0Sketch, FastAmsSketch, KmvSketch,
    MergeableSketch, PointQuery, SpaceSaving, SpaceUsage, StreamSketch,
};
use proptest::prelude::*;

/// Strategy: a small stream of (item, weight) pairs with positive weights.
fn small_stream() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..200, 1i64..20), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_ams_merge_equals_concatenation(a in small_stream(), b in small_stream(), seed in any::<u64>()) {
        let mut sa = FastAmsSketch::with_dimensions(64, 3, seed);
        let mut sb = FastAmsSketch::with_dimensions(64, 3, seed);
        let mut sc = FastAmsSketch::with_dimensions(64, 3, seed);
        for &(x, w) in &a { sa.update(x, w); sc.update(x, w); }
        for &(x, w) in &b { sb.update(x, w); sc.update(x, w); }
        let merged = sa.merged(&sb).unwrap();
        prop_assert_eq!(merged.estimate(), sc.estimate());
    }

    #[test]
    fn fast_ams_is_linear_in_weights(a in small_stream(), seed in any::<u64>()) {
        // Inserting the stream and then its negation must cancel exactly.
        let mut s = FastAmsSketch::with_dimensions(64, 3, seed);
        for &(x, w) in &a { s.update(x, w); }
        for &(x, w) in &a { s.update(x, -w); }
        prop_assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn kmv_merge_is_order_independent(a in small_stream(), b in small_stream(), seed in any::<u64>()) {
        let mut ab = KmvSketch::new(32, seed);
        let mut ba = KmvSketch::new(32, seed);
        for &(x, _) in &a { ab.insert(x); }
        for &(x, _) in &b { ab.insert(x); }
        for &(x, _) in &b { ba.insert(x); }
        for &(x, _) in &a { ba.insert(x); }
        prop_assert_eq!(ab.estimate(), ba.estimate());
    }

    #[test]
    fn distinct_sampler_never_exceeds_capacity(a in small_stream(), seed in any::<u64>(), cap in 4usize..64) {
        let mut s = DistinctSampler::new(cap, seed);
        for &(x, _) in &a { s.insert(x); }
        prop_assert!(s.sample_size() <= cap);
        prop_assert!(s.stored_tuples() <= cap);
    }

    #[test]
    fn f0_exact_when_small(a in prop::collection::vec(0u64..50, 1..40), seed in any::<u64>()) {
        // Fewer distinct items than capacity: the sampler is exact.
        let mut s = F0Sketch::with_dimensions(128, 3, seed);
        let mut exact = ExactFrequencies::new();
        for &x in &a { s.insert(x); exact.insert(x); }
        prop_assert_eq!(s.estimate(), exact.frequency_moment(0));
    }

    #[test]
    fn space_saving_exact_under_capacity(a in prop::collection::vec((0u64..30, 1i64..10), 1..60)) {
        let mut ss = SpaceSaving::new(64);
        let mut exact = ExactFrequencies::new();
        for &(x, w) in &a { ss.update(x, w); exact.update(x, w); }
        prop_assert!(ss.is_exact());
        for (x, f) in exact.iter() {
            prop_assert_eq!(ss.frequency_estimate(x), f as f64);
        }
    }

    #[test]
    fn space_saving_counts_never_underestimate(a in small_stream()) {
        let mut ss = SpaceSaving::new(8);
        let mut exact = ExactFrequencies::new();
        for &(x, w) in &a { ss.update(x, w); exact.update(x, w); }
        for e in ss.entries() {
            prop_assert!(e.count as i64 >= exact.frequency(e.item),
                "SpaceSaving undercounted item {}", e.item);
        }
    }

    #[test]
    fn exact_frequencies_merge_is_vector_addition(a in small_stream(), b in small_stream()) {
        let mut ea = ExactFrequencies::new();
        let mut eb = ExactFrequencies::new();
        let mut ec = ExactFrequencies::new();
        for &(x, w) in &a { ea.update(x, w); ec.update(x, w); }
        for &(x, w) in &b { eb.update(x, w); ec.update(x, w); }
        ea.merge_from(&eb).unwrap();
        for x in 0u64..200 {
            prop_assert_eq!(ea.frequency(x), ec.frequency(x));
        }
    }

    #[test]
    fn exact_moments_are_monotone_in_k(a in small_stream()) {
        // For integer frequencies >= 1, F_{k+1} >= F_k.
        let mut e = ExactFrequencies::new();
        for &(x, w) in &a { e.update(x, w); }
        let f1 = e.frequency_moment(1);
        let f2 = e.frequency_moment(2);
        let f3 = e.frequency_moment(3);
        prop_assert!(f2 >= f1 - 1e-9);
        prop_assert!(f3 >= f2 - 1e-9);
    }
}
