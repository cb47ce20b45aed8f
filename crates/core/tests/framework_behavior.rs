//! Behavioral tests of [`cora_core::CorrelatedSketch`] through its public
//! API: accuracy against exact recomputation, eviction/level fallback, the
//! batch-ingest equivalence, and the Property V merge paths. These lived in
//! `framework.rs` before the level engine split; they only exercise public
//! surface, so they run as integration tests against the real crate build.

use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::{
    AlphaPolicy, CoreError, CorrelatedAggregate, CorrelatedConfig, CorrelatedHeavyHitters,
    CorrelatedSketch, F2Aggregate,
};
use cora_core::sum::{CountAggregate, SumAggregate};
use cora_sketch::StreamSketch as _;

fn f2_sketch(epsilon: f64, y_max: u64, alpha: AlphaPolicy) -> CorrelatedSketch<F2Aggregate> {
    let config = CorrelatedConfig::new(epsilon, 0.1, y_max, 40)
        .unwrap()
        .with_alpha_policy(alpha)
        .with_seed(7);
    CorrelatedSketch::new(F2Aggregate::new(epsilon, 0.1, 7), config).unwrap()
}

#[test]
fn small_stream_is_answered_exactly_from_singletons() {
    let mut s = f2_sketch(0.2, 1023, AlphaPolicy::Fixed(128));
    // 50 distinct y values, each with a couple of items: level 0 holds all.
    for y in 0..50u64 {
        s.insert(y % 7, y).unwrap();
        s.insert(y % 5, y).unwrap();
    }
    assert_eq!(s.query_level(20), Some(0));
    // Exact correlated F2 for c = 20: items with y <= 20.
    let mut exact = cora_sketch::ExactFrequencies::new();
    for y in 0..=20u64 {
        exact.insert(y % 7);
        exact.insert(y % 5);
    }
    assert_eq!(s.query(20).unwrap(), exact.frequency_moment(2));
}

#[test]
fn monotone_in_threshold() {
    let mut s = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(128));
    for i in 0..20_000u64 {
        s.insert(i % 500, i % 4096).unwrap();
    }
    let mut prev = 0.0;
    for c in (0..4096u64).step_by(256) {
        let est = s.query(c).unwrap();
        assert!(
            est >= prev * 0.8,
            "estimates should be (roughly) monotone in c: {prev} then {est}"
        );
        prev = est;
    }
}

#[test]
fn accuracy_against_exact_correlated_f2() {
    let epsilon = 0.2;
    let y_max = 8191u64;
    let mut s = f2_sketch(epsilon, y_max, AlphaPolicy::default());
    let mut tuples: Vec<(u64, u64)> = Vec::new();
    // Zipf-ish x over 2000 ids, uniform y.
    let mut state = 12345u64;
    for i in 0..60_000u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = (state >> 33) % 2000;
        let y = (state >> 17) % (y_max + 1);
        let x = x / ((i % 7) + 1); // mild skew
        tuples.push((x, y));
        s.insert(x, y).unwrap();
    }
    for &c in &[y_max / 16, y_max / 4, y_max / 2, y_max] {
        let mut exact = cora_sketch::ExactFrequencies::new();
        for &(x, y) in &tuples {
            if y <= c {
                exact.insert(x);
            }
        }
        let truth = exact.frequency_moment(2);
        let est = s.query(c).unwrap();
        let err = (est - truth).abs() / truth;
        assert!(
            err < epsilon,
            "c = {c}: estimate {est}, truth {truth}, error {err} > {epsilon}"
        );
    }
}

#[test]
fn eviction_moves_queries_to_higher_levels() {
    // Tiny alpha forces evictions; large thresholds must still be answerable.
    let mut s = f2_sketch(0.25, 65535, AlphaPolicy::Fixed(24));
    for i in 0..30_000u64 {
        s.insert(i % 300, (i * 37) % 65536).unwrap();
    }
    let stats = s.stats();
    assert!(stats.levels_with_evictions > 0, "expected evictions with alpha = 24");
    // Large thresholds are answered at some level > 0.
    let lvl = s.query_level(60_000).expect("query must still be answerable");
    assert!(lvl > 0);
    // And the answer is still reasonably accurate.
    let mut exact = cora_sketch::ExactFrequencies::new();
    for i in 0..30_000u64 {
        if (i * 37) % 65536 <= 60_000 {
            exact.insert(i % 300);
        }
    }
    let truth = exact.frequency_moment(2);
    let est = s.query(60_000).unwrap();
    let err = (est - truth).abs() / truth;
    assert!(err < 0.5, "error {err} too large even for a starved sketch");
}

#[test]
fn query_survives_absurdly_small_alpha() {
    // With alpha = 4 and many distinct y values, every level eventually
    // evicts below small thresholds; the structure must fall back to a
    // higher level rather than failing.
    let mut s = f2_sketch(0.25, 1023, AlphaPolicy::Fixed(4));
    for i in 0..5_000u64 {
        s.insert(i % 17, i % 1024).unwrap();
    }
    assert!(s.query(512).is_ok());
}

#[test]
fn sum_aggregate_is_exact_for_counts() {
    // The correlated count through the generic framework, compared against
    // a direct count. Count sketches are scalar counters, so the only
    // error source is boundary-bucket omission.
    let config = CorrelatedConfig::new(0.2, 0.1, 4095, 30)
        .unwrap()
        .with_alpha_policy(AlphaPolicy::default())
        .with_seed(3);
    let mut s = CorrelatedSketch::new(CountAggregate::new(), config).unwrap();
    let mut ys = Vec::new();
    let mut state = 99u64;
    for _ in 0..40_000u64 {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let y = (state >> 20) % 4096;
        ys.push(y);
        s.insert(state % 1000, y).unwrap();
    }
    for &c in &[100u64, 1000, 2000, 4095] {
        let truth = ys.iter().filter(|&&y| y <= c).count() as f64;
        let est = s.query(c).unwrap();
        let err = (est - truth).abs() / truth.max(1.0);
        assert!(err < 0.2, "count at c={c}: est {est}, truth {truth}");
    }
}

#[test]
fn weighted_sum_aggregate_tracks_weights() {
    let config = CorrelatedConfig::new(0.2, 0.1, 1023, 40)
        .unwrap()
        .with_seed(5);
    let mut s = CorrelatedSketch::new(SumAggregate::new(), config).unwrap();
    let mut truth = 0.0;
    for i in 0..5_000u64 {
        let w = (i % 9 + 1) as i64;
        let y = (i * 13) % 1024;
        if y <= 600 {
            truth += w as f64;
        }
        s.update(i % 50, y, w).unwrap();
    }
    let est = s.query(600).unwrap();
    let err = (est - truth).abs() / truth;
    assert!(err < 0.2, "sum estimate {est} vs truth {truth}");
}

#[test]
fn stats_reflect_structure() {
    let mut s = f2_sketch(0.3, 255, AlphaPolicy::Fixed(32));
    for i in 0..2_000u64 {
        s.insert(i % 100, i % 256).unwrap();
    }
    let stats = s.stats();
    assert_eq!(stats.items_processed, 2_000);
    assert!(stats.singleton_buckets <= 32);
    assert!(stats.dyadic_buckets > 0);
    assert!(stats.stored_tuples > 0);
    assert!(stats.space_bytes > 0);
    assert_eq!(s.stored_tuples(), stats.stored_tuples);
}

#[test]
fn query_level_is_monotone_in_c() {
    let mut s = f2_sketch(0.25, 16383, AlphaPolicy::Fixed(16));
    for i in 0..20_000u64 {
        s.insert(i % 200, (i * 101) % 16384).unwrap();
    }
    let mut prev = 0u32;
    for c in (0..16384u64).step_by(1024) {
        let lvl = s.query_level(c).expect("answerable");
        assert!(lvl >= prev, "query level must not decrease with c");
        prev = lvl;
    }
}

#[test]
fn clamps_threshold_to_domain() {
    let mut s = f2_sketch(0.3, 255, AlphaPolicy::Fixed(64));
    for i in 0..500u64 {
        s.insert(i, i % 256).unwrap();
    }
    // c beyond the padded domain behaves like "the whole stream".
    assert_eq!(s.query(u64::MAX).unwrap(), s.query_all().unwrap());
}

#[test]
fn update_batch_matches_scalar_inserts() {
    // The batch path must produce exactly the same structure and answers
    // as per-tuple inserts (level-major, run-chunked traversal through the
    // SoA engine vs tuple-major scalar updates).
    let mut tuples: Vec<(u64, u64)> = Vec::new();
    let mut state = 7u64;
    for _ in 0..8_000u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        tuples.push(((state >> 33) % 400, (state >> 13) % 4096));
    }
    let mut scalar = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(48));
    let mut batched = f2_sketch(0.25, 4095, AlphaPolicy::Fixed(48));
    for &(x, y) in &tuples {
        scalar.insert(x, y).unwrap();
    }
    for chunk in tuples.chunks(512) {
        batched.update_batch(chunk).unwrap();
    }
    assert_eq!(scalar.items_processed(), batched.items_processed());
    assert_eq!(scalar.stats(), batched.stats());
    for c in (0..4096u64).step_by(128) {
        assert_eq!(
            scalar.query(c).unwrap(),
            batched.query(c).unwrap(),
            "batch/scalar mismatch at c={c}"
        );
    }
}

#[test]
fn update_batch_matches_scalar_on_low_entropy_streams() {
    // Long same-y runs exercise the run-chunked batch path (cursor hits,
    // headroom-bounded chunks) far harder than random tuples do.
    let mut tuples: Vec<(u64, u64)> = Vec::new();
    for block in 0..40u64 {
        for i in 0..200u64 {
            tuples.push((i % 13, (block * 17) % 512));
        }
    }
    let mut scalar = f2_sketch(0.3, 511, AlphaPolicy::Fixed(32));
    let mut batched = f2_sketch(0.3, 511, AlphaPolicy::Fixed(32));
    for &(x, y) in &tuples {
        scalar.insert(x, y).unwrap();
    }
    for chunk in tuples.chunks(1024) {
        batched.update_batch(chunk).unwrap();
    }
    assert_eq!(scalar.stats(), batched.stats());
    for c in (0..512u64).step_by(64) {
        assert_eq!(scalar.query(c).unwrap(), batched.query(c).unwrap(), "c={c}");
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 16
}

/// Heavy-hitters scalar ≡ batch: per-tuple `insert`, one whole-stream
/// `update_batch`, uneven sub-batches, and snapshot → restore → continue all
/// build the same structure — equal stats, equal `query`, equal
/// `query_heavy_hitters` on a `(c, φ)` grid, equal snapshot bytes. The y
/// domain is tiny, so every singleton and unit-interval bucket holds far more
/// than the 384 distinct items at which an ε = 0.25 bucket spills from its
/// exact store to its sketch: the comparison runs on sketched buckets.
fn assert_hh_routes_identical(name: &str, y_max: u64, tuples: &[(u64, u64)]) {
    let fresh = || CorrelatedHeavyHitters::with_seed(0.25, 0.1, 0.05, y_max, 1_000_000, 7).unwrap();
    let mut scalar = fresh();
    for &(x, y) in tuples {
        scalar.insert(x, y).unwrap();
    }
    let sketched = scalar.with_composed(y_max, |store| !store.is_exact()).unwrap();
    assert!(sketched, "[{name}] the stream must spill buckets to their sketches");

    let mut whole = fresh();
    whole.update_batch(tuples).unwrap();

    let mut uneven = fresh();
    let mut rest = tuples;
    for len in [1usize, 7, 300, 1024, 2, 4097, 33].iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at((*len).min(rest.len()));
        uneven.update_batch(head).unwrap();
        rest = tail;
    }

    // Interrupted: scalar prefix, snapshot, restore, batched suffix.
    let (prefix, suffix) = tuples.split_at(tuples.len() * 2 / 5);
    let mut interrupted = fresh();
    for &(x, y) in prefix {
        interrupted.insert(x, y).unwrap();
    }
    let mut interrupted =
        CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.25, 0.05, 7), &interrupted.snapshot())
            .unwrap();
    for chunk in suffix.chunks(777) {
        interrupted.update_batch(chunk).unwrap();
    }

    let reference = scalar.snapshot();
    for (route, other) in [("whole batch", &whole), ("uneven batches", &uneven), ("restored", &interrupted)] {
        assert_eq!(scalar.stats(), other.stats(), "[{name}] {route}");
        for c in 0..=y_max {
            assert_eq!(scalar.query(c).unwrap(), other.query(c).unwrap(), "[{name}] {route} c={c}");
            for phi in [0.001, 0.01, 0.05, 0.2] {
                assert_eq!(
                    scalar.query_heavy_hitters(c, phi).unwrap(),
                    other.query_heavy_hitters(c, phi).unwrap(),
                    "[{name}] {route} c={c} phi={phi}"
                );
            }
        }
        assert!(reference == other.snapshot(), "[{name}] {route}: snapshot bytes differ");
    }
}

#[test]
fn heavy_hitters_batch_matches_scalar_on_uniform_streams() {
    let mut state = 11u64;
    let tuples: Vec<(u64, u64)> = (0..32_000)
        .map(|_| (lcg(&mut state) % 50_000, lcg(&mut state) % 32))
        .collect();
    assert_hh_routes_identical("uniform", 31, &tuples);
}

#[test]
fn heavy_hitters_batch_matches_scalar_on_zipf_streams() {
    // Log-uniform x is Zipf(1): P(x = k) ∝ 1/k over 20 000 ids.
    let mut state = 12u64;
    let tuples: Vec<(u64, u64)> = (0..24_000)
        .map(|_| {
            let u = (lcg(&mut state) % (1 << 24)) as f64 / (1u64 << 24) as f64;
            (20_000f64.powf(u) as u64, lcg(&mut state) % 8)
        })
        .collect();
    assert_hh_routes_identical("zipf", 7, &tuples);
}

#[test]
fn heavy_hitters_batch_matches_scalar_on_low_entropy_streams() {
    // Long same-y runs: the batch path applies them as contiguous
    // prepared-batch ranges to one sketched leaf per level.
    let tuples: Vec<(u64, u64)> = (0..60u64)
        .flat_map(|block| (0..400u64).map(move |i| ((block * 400 + i) * 7919 % 5_000, block * 5 % 8)))
        .collect();
    assert_hh_routes_identical("low entropy", 7, &tuples);
}

#[test]
fn merge_matches_sequential_on_singleton_level_streams() {
    // Small streams: everything stays in level 0 with exact stores, so
    // shard-then-merge must answer every threshold identically to the
    // sequential sketch.
    let mut seq = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(256));
    let mut left = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(256));
    let mut right = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(256));
    for i in 0..200u64 {
        let (x, y) = (i % 23, (i * 37) % 180);
        seq.insert(x, y).unwrap();
        if i % 2 == 0 {
            left.insert(x, y).unwrap();
        } else {
            right.insert(x, y).unwrap();
        }
    }
    left.merge_from(&right).unwrap();
    assert_eq!(left.items_processed(), seq.items_processed());
    for c in (0..256u64).step_by(16) {
        assert_eq!(left.query(c).unwrap(), seq.query(c).unwrap(), "c={c}");
    }
}

#[test]
fn merge_is_accurate_across_materialized_levels() {
    // Large enough streams that dyadic levels materialize and buckets
    // close/split; the merged sketch must stay within the accuracy
    // envelope of the exact answer.
    let build = || f2_sketch(0.25, 8191, AlphaPolicy::default());
    let mut shards: Vec<_> = (0..4).map(|_| build()).collect();
    let mut tuples = Vec::new();
    let mut state = 99u64;
    for i in 0..40_000u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = (state >> 33) % 700;
        let y = (state >> 15) % 8192;
        tuples.push((x, y));
        shards[(i % 4) as usize].insert(x, y).unwrap();
    }
    let mut merged = build();
    for shard in &shards {
        merged.merge_from(shard).unwrap();
    }
    assert_eq!(merged.items_processed(), 40_000);
    for &c in &[2048u64, 4096, 8191] {
        let mut exact = cora_sketch::ExactFrequencies::new();
        for &(x, y) in &tuples {
            if y <= c {
                exact.insert(x);
            }
        }
        let truth = exact.frequency_moment(2);
        let est = merged.query(c).unwrap();
        let err = (est - truth).abs() / truth;
        // 4-way composition can inflate the boundary-omission term; stay
        // within a couple of ε.
        assert!(err < 0.5, "c={c}: est {est}, truth {truth}, err {err}");
    }
}

#[test]
fn merge_handles_dormant_vs_materialized_levels() {
    // One shard sees a large stream (levels materialized), the other a
    // tiny one (all levels dormant): the dormant side must fold into the
    // materialized side through the tail path, in both directions.
    let build = || f2_sketch(0.25, 4095, AlphaPolicy::Fixed(64));
    let mut big = build();
    let mut small = build();
    for i in 0..20_000u64 {
        big.insert(i % 300, (i * 13) % 4096).unwrap();
    }
    for i in 0..50u64 {
        small.insert(i % 7, (i * 11) % 4096).unwrap();
    }
    let mut a = big.clone();
    a.merge_from(&small).unwrap();
    let mut b = small.clone();
    b.merge_from(&big).unwrap();
    assert_eq!(a.items_processed(), 20_050);
    assert_eq!(b.items_processed(), 20_050);
    for &c in &[1024u64, 4095] {
        let qa = a.query(c).unwrap();
        let qb = b.query(c).unwrap();
        let base = big.query(c).unwrap();
        // Both merge orders summarise the same union stream; they must
        // agree with each other closely and exceed the big shard alone.
        let rel = (qa - qb).abs() / qa.max(1.0);
        assert!(rel < 0.25, "merge order disagreement at c={c}: {qa} vs {qb}");
        assert!(qa >= base * 0.95, "merged estimate lost mass: {qa} < {base}");
    }
}

#[test]
fn merge_rejects_mismatched_config_and_seed() {
    let a = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
    // Different epsilon.
    let mut b = f2_sketch(0.2, 1023, AlphaPolicy::Fixed(64));
    assert!(matches!(
        b.merge_from(&a),
        Err(CoreError::IncompatibleMerge { .. })
    ));
    // Different seed (same accuracy parameters).
    let config = CorrelatedConfig::new(0.3, 0.1, 1023, 40)
        .unwrap()
        .with_alpha_policy(AlphaPolicy::Fixed(64))
        .with_seed(8);
    let mut c = CorrelatedSketch::new(F2Aggregate::new(0.3, 0.1, 8), config).unwrap();
    assert!(matches!(
        c.merge_from(&a),
        Err(CoreError::IncompatibleMerge { .. })
    ));
    // Different y domain.
    let mut d = f2_sketch(0.3, 2047, AlphaPolicy::Fixed(64));
    assert!(matches!(
        d.merge_from(&a),
        Err(CoreError::IncompatibleMerge { .. })
    ));
}

/// A refused merge leaves `self` as it was: the aggregate fingerprint is
/// checked before any level is touched. The heavy-hitters pair differs only
/// in the φ-derived candidate capacity (80 at φ = 0.05, 14 at φ = 0.3),
/// which `CorrelatedConfig` does not hold; the `F_2` pair only in its
/// bucket-sketch seed. Both pairs share a configuration and are large
/// enough that many buckets are sketched.
#[test]
fn refused_merge_leaves_the_sketch_untouched() {
    let y_max = (1 << 20) - 1;
    let mut state = 5u64;
    let tuples: Vec<(u64, u64)> = (0..25_000)
        .map(|_| (lcg(&mut state) % 5_000, lcg(&mut state) % (y_max + 1)))
        .collect();
    let hh = |phi: f64| {
        let agg = F2HeavyAggregate::new(0.2, phi, 0xC04A_5EED);
        let config = CorrelatedConfig::new(0.2, 0.1, y_max, agg.f_max_log2(10_000_000))
            .unwrap()
            .with_seed(0xC04A_5EED);
        let mut sketch = CorrelatedSketch::new(agg, config).unwrap();
        sketch.update_batch(&tuples).unwrap();
        sketch
    };
    let (mut fine, coarse) = (hh(0.05), hh(0.3));
    let before = fine.snapshot();
    let refused = fine.merge_from(&coarse);
    assert!(fine.snapshot() == before, "a refused heavy-hitters merge changed the sketch");
    assert!(matches!(refused, Err(CoreError::IncompatibleMerge { .. })), "{refused:?}");

    let f2 = |agg_seed: u64| {
        let config = CorrelatedConfig::new(0.25, 0.1, y_max, 40).unwrap().with_seed(7);
        let mut sketch = CorrelatedSketch::new(F2Aggregate::new(0.25, 0.1, agg_seed), config).unwrap();
        sketch.update_batch(&tuples).unwrap();
        sketch
    };
    let (mut own, foreign) = (f2(7), f2(8));
    let before = own.snapshot();
    let refused = own.merge_from(&foreign);
    assert!(own.snapshot() == before, "a refused F_2 merge changed the sketch");
    assert!(matches!(refused, Err(CoreError::IncompatibleMerge { .. })), "{refused:?}");
}

/// Weighted updates share the one update path with batches: a same-slot
/// run, a slot's pending weight and the tail's chunks count weight. A mixed
/// stream — blocks of weights 0–999 through `update` between unit
/// `update_batch` chunks — must build the bytes it built when a single
/// update had a per-level path of its own (digests pinned from that code).
#[test]
fn weighted_streams_keep_their_snapshot_digests() {
    let mut state = 21u64;
    let stream: Vec<(u64, u64, i64)> = (0..40_000)
        .map(|_| {
            let r = lcg(&mut state);
            (r % 3_000, lcg(&mut state) % 4096, (r >> 20) as i64 % 1000)
        })
        .collect();
    let mut sum = cora_core::correlated_sum(0.25, 0.1, 4095, 100_000_000).unwrap();
    let mut f2 = cora_core::correlated_f2_seeded(0.25, 0.1, 4095, 100_000_000, 7).unwrap();
    for (k, block) in stream.chunks(1_000).enumerate() {
        if k % 2 == 0 {
            for &(x, y, w) in block {
                sum.update(x, y, w).unwrap();
                f2.update(x, y, w).unwrap();
            }
        } else {
            let unit: Vec<(u64, u64)> = block.iter().map(|&(x, y, _)| (x, y)).collect();
            for chunk in unit.chunks(250) {
                sum.update_batch(chunk).unwrap();
                f2.update_batch(chunk).unwrap();
            }
        }
    }
    let stats = f2.stats();
    assert!(stats.levels_with_evictions > 0 && stats.dyadic_buckets > 0, "{stats:?}");
    let digest = |bytes: Vec<u8>| cora_sketch::codec::fnv1a64(&bytes);
    assert_eq!(digest(sum.snapshot()), SUM_DIGEST, "correlated sum");
    assert_eq!(digest(f2.snapshot()), F2_DIGEST, "correlated F_2");
}

const SUM_DIGEST: u64 = 0xa306_a2be_5a4a_7c1c;
const F2_DIGEST: u64 = 0x1e43_31fe_38c9_852a;

#[test]
fn merge_with_empty_sketch_is_identity() {
    let mut s = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
    for i in 0..3_000u64 {
        s.insert(i % 90, (i * 11) % 1024).unwrap();
    }
    let empty = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
    let before: Vec<f64> = (0..1024).step_by(64).map(|c| s.query(c).unwrap()).collect();
    s.merge_from(&empty).unwrap();
    let after: Vec<f64> = (0..1024).step_by(64).map(|c| s.query(c).unwrap()).collect();
    assert_eq!(before, after);
    assert_eq!(s.items_processed(), 3_000);
    // Empty absorbs non-empty too.
    let mut e = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
    e.merge_from(&s).unwrap();
    assert_eq!(e.query(512).unwrap(), s.query(512).unwrap());
}

#[test]
fn merged_sketch_keeps_accepting_inserts() {
    // The merged structure must remain a valid ingest target: tiling,
    // cursors and watermarks all need to survive the rebuild.
    let build = || f2_sketch(0.25, 4095, AlphaPolicy::Fixed(48));
    let mut a = build();
    let mut b = build();
    let mut seq = build();
    let mut state = 5u64;
    let mut tuples = Vec::new();
    for _ in 0..12_000u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        tuples.push(((state >> 33) % 250, (state >> 13) % 4096));
    }
    for (i, &(x, y)) in tuples.iter().enumerate() {
        seq.insert(x, y).unwrap();
        if i < 8_000 {
            if i % 2 == 0 {
                a.insert(x, y).unwrap();
            } else {
                b.insert(x, y).unwrap();
            }
        }
    }
    a.merge_from(&b).unwrap();
    for &(x, y) in &tuples[8_000..] {
        a.insert(x, y).unwrap();
    }
    assert_eq!(a.items_processed(), seq.items_processed());
    for &c in &[512u64, 2048, 4095] {
        let qa = a.query(c).unwrap();
        let qs = seq.query(c).unwrap();
        let rel = (qa - qs).abs() / qs.max(1.0);
        assert!(rel < 0.35, "post-merge ingest diverged at c={c}: {qa} vs {qs}");
    }
}

#[test]
fn clone_is_independent_and_equivalent() {
    let mut s = f2_sketch(0.3, 1023, AlphaPolicy::Fixed(64));
    for i in 0..2_000u64 {
        s.insert(i % 70, (i * 19) % 1024).unwrap();
    }
    let snapshot = s.clone();
    assert_eq!(snapshot.query(700).unwrap(), s.query(700).unwrap());
    // Mutating the original must not affect the clone.
    for _ in 0..100 {
        s.insert(999, 10).unwrap();
    }
    assert!(snapshot.query(700).unwrap() < s.query(700).unwrap());
}
