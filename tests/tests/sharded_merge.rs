//! Property tests for sketch-level merging and the worker-sharded ingest
//! front-end: partitioning a stream across shards and merging the per-shard
//! structures must answer queries identically (exact stores, small streams)
//! or within the accuracy envelope (sketched stores, large streams) of
//! sequential ingest.

use cora_core::{
    correlated_count, correlated_f2_seeded, CorrelatedF0, CorrelatedHeavyHitters,
    CorrelatedRarity, ExactCorrelated,
};
use cora_stream::sharded_correlated_f2;
use cora_tests::{relative_error, stream_len};
use proptest::prelude::*;

/// Round-robin partition of a tuple stream into `shards` sub-streams.
fn partition(tuples: &[(u64, u64)], shards: usize) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); shards];
    for (i, &t) in tuples.iter().enumerate() {
        out[i % shards].push(t);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// F2: on small streams every bucket store is exact and level 0 answers,
    /// so shard-then-merge must equal sequential insert bit-for-bit.
    #[test]
    fn f2_shard_then_merge_equals_sequential(
        tuples in prop::collection::vec((0u64..60, 0u64..1024), 1..200),
        shards in 2usize..5,
        c in 0u64..1024,
    ) {
        let build = || correlated_f2_seeded(0.3, 0.1, 1023, 10_000, 7).unwrap();
        let mut seq = build();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut merged = build();
        for part in partition(&tuples, shards) {
            let mut shard = build();
            for (x, y) in part {
                shard.insert(x, y).unwrap();
            }
            merged.merge_from(&shard).unwrap();
            // Structural invariants (SoA leaf tiling, predecessor index,
            // eviction-set consistency) must survive every merge.
            merged.check_invariants();
        }
        prop_assert_eq!(merged.items_processed(), seq.items_processed());
        prop_assert_eq!(merged.query(c).unwrap(), seq.query(c).unwrap());
    }

    /// Count: the scalar-counter aggregate is exact at every level, so
    /// shard-then-merge answers match sequential ingest on small streams.
    #[test]
    fn count_shard_then_merge_equals_sequential(
        tuples in prop::collection::vec((0u64..100, 0u64..512), 1..250),
        shards in 2usize..5,
        c in 0u64..512,
    ) {
        let build = || correlated_count(0.3, 0.1, 511, 10_000).unwrap();
        let mut seq = build();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut merged = build();
        for part in partition(&tuples, shards) {
            let mut shard = build();
            for (x, y) in part {
                shard.insert(x, y).unwrap();
            }
            merged.merge_from(&shard).unwrap();
            merged.check_invariants();
        }
        prop_assert_eq!(merged.query(c).unwrap(), seq.query(c).unwrap());
    }

    /// F0: below the sampler capacities the retained samples are an
    /// order-independent function of the stream, so merge equals sequential.
    #[test]
    fn f0_shard_then_merge_equals_sequential(
        tuples in prop::collection::vec((0u64..80, 0u64..100_000), 1..150),
        shards in 2usize..4,
        c in 0u64..100_000,
    ) {
        let build = || CorrelatedF0::with_seed(0.2, 0.1, 16, 100_000, 3).unwrap();
        let mut seq = build();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut merged = build();
        for part in partition(&tuples, shards) {
            let mut shard = build();
            for (x, y) in part {
                shard.insert(x, y).unwrap();
            }
            merged.merge_from(&shard).unwrap();
        }
        prop_assert_eq!(merged.query(c).unwrap(), seq.query(c).unwrap());
    }

    /// Heavy hitters: small streams stay exact, so the merged structure must
    /// report the same heavy set as sequential ingest.
    #[test]
    fn heavy_hitters_shard_then_merge_equals_sequential(
        tuples in prop::collection::vec((0u64..40, 0u64..1024), 1..160),
        shards in 2usize..4,
        c in 0u64..1024,
        phi_percent in 2u32..40,
    ) {
        let phi = f64::from(phi_percent) / 100.0;
        let build = || CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.02, 1023, 10_000, 5).unwrap();
        let mut seq = build();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut merged = build();
        for part in partition(&tuples, shards) {
            let mut shard = build();
            for (x, y) in part {
                shard.insert(x, y).unwrap();
            }
            merged.merge_from(&shard).unwrap();
        }
        let seq_hh: Vec<u64> = seq
            .query_heavy_hitters(c, phi)
            .unwrap()
            .into_iter()
            .map(|h| h.item)
            .collect();
        let merged_hh: Vec<u64> = merged
            .query_heavy_hitters(c, phi)
            .unwrap()
            .into_iter()
            .map(|h| h.item)
            .collect();
        prop_assert_eq!(merged_hh, seq_hh);
    }

    /// Rarity: pairs of occurrences may be torn across shards; the merged
    /// two-smallest-y records must still equal the sequential ones.
    #[test]
    fn rarity_shard_then_merge_equals_sequential(
        tuples in prop::collection::vec((0u64..50, 0u64..100_000), 1..150),
        shards in 2usize..4,
        c in 0u64..100_000,
    ) {
        let build = || CorrelatedRarity::with_seed(0.2, 16, 100_000, 3).unwrap();
        let mut seq = build();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut merged = build();
        for part in partition(&tuples, shards) {
            let mut shard = build();
            for (x, y) in part {
                shard.insert(x, y).unwrap();
            }
            merged.merge_from(&shard).unwrap();
        }
        prop_assert_eq!(merged.query(c).unwrap(), seq.query(c).unwrap());
    }

    /// The threaded front-end is just "partition + merge" behind FIFO queues:
    /// after a flush it must agree exactly with sequential ingest on small
    /// streams, for any shard count and batch size.
    #[test]
    fn sharded_ingest_equals_sequential_on_small_streams(
        tuples in prop::collection::vec((0u64..60, 0u64..1024), 1..200),
        shards in 1usize..5,
        batch in 1usize..96,
        c in 0u64..1024,
    ) {
        let mut seq = correlated_f2_seeded(0.3, 0.1, 1023, 10_000, 7).unwrap();
        for &(x, y) in &tuples {
            seq.insert(x, y).unwrap();
        }
        let mut sharded = sharded_correlated_f2(0.3, 0.1, 1023, 10_000, 7, shards)
            .unwrap()
            .with_batch_size(batch);
        sharded.ingest(&tuples).unwrap();
        sharded.flush();
        // The composite is itself a merge product: check its structure too.
        sharded
            .with_composite(|composite| composite.check_invariants())
            .unwrap();
        prop_assert_eq!(sharded.query(c).unwrap(), seq.query(c).unwrap());
    }
}

/// Merge must reject structures built with different seeds or configurations
/// — mirroring the store-level `merge_rejects_mismatch` tests in cora-sketch.
#[test]
fn sketch_level_merges_reject_mismatches() {
    let mut f2_a = correlated_f2_seeded(0.25, 0.1, 1023, 10_000, 1).unwrap();
    let f2_seed = correlated_f2_seeded(0.25, 0.1, 1023, 10_000, 2).unwrap();
    let f2_eps = correlated_f2_seeded(0.2, 0.1, 1023, 10_000, 1).unwrap();
    let f2_domain = correlated_f2_seeded(0.25, 0.1, 2047, 10_000, 1).unwrap();
    assert!(f2_a.merge_from(&f2_seed).is_err());
    assert!(f2_a.merge_from(&f2_eps).is_err());
    assert!(f2_a.merge_from(&f2_domain).is_err());

    let mut f0_a = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 1).unwrap();
    let f0_seed = CorrelatedF0::with_seed(0.2, 0.1, 16, 1000, 2).unwrap();
    assert!(f0_a.merge_from(&f0_seed).is_err());

    let mut rarity_a = CorrelatedRarity::with_seed(0.2, 16, 1000, 1).unwrap();
    let rarity_seed = CorrelatedRarity::with_seed(0.2, 16, 1000, 2).unwrap();
    assert!(rarity_a.merge_from(&rarity_seed).is_err());

    let mut hh_a = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.05, 1023, 10_000, 1).unwrap();
    let hh_seed = CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.05, 1023, 10_000, 2).unwrap();
    assert!(hh_a.merge_from(&hh_seed).is_err());
}

/// Merged ≤ direct: a structure folded together from many small parts — the
/// shape of a buddy-merged window pane — must store no more tuples than one
/// built directly from the same stream, because merged buckets spill to their
/// sketch exactly where inserted ones do. (Before that rule merged exact
/// buckets never spilled: 432,906 merged against 217,050 direct here; with
/// it, 74,207.) CI runs this with `--nocapture` so both sizes are in the log.
#[test]
fn merged_sketch_stores_no_more_than_direct() {
    let build = || correlated_f2_seeded(0.25, 0.1, 4095, 1_000_000, 7).unwrap();
    let mut state = 0x5EED_u64;
    let tuples: Vec<(u64, u64)> = (0..128 * 256)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 65_536, (state >> 13) % 4_096)
        })
        .collect();
    let mut direct = build();
    direct.update_batch(&tuples).unwrap();
    let mut merged = build();
    for chunk in tuples.chunks(256) {
        let mut part = build();
        part.update_batch(chunk).unwrap();
        merged.merge_from(&part).unwrap();
    }
    merged.check_invariants();
    let (merged_tuples, direct_tuples) = (merged.stored_tuples(), direct.stored_tuples());
    println!(
        "stored tuples over {} tuples: merged {merged_tuples}, direct {direct_tuples}",
        tuples.len()
    );
    assert!(
        merged_tuples <= direct_tuples,
        "merged {merged_tuples} > direct {direct_tuples}"
    );
}

/// Large-stream accuracy: once buckets sketch and levels materialize, the
/// 4-way sharded front-end must stay within the accuracy envelope of the
/// exact answer — the ε-composition claim behind the scale-out design.
#[test]
fn sharded_ingest_stays_accurate_on_large_streams() {
    let n = stream_len(40_000);
    let y_max = 65_535u64;
    let epsilon = 0.2;
    let mut sharded =
        sharded_correlated_f2(epsilon, 0.05, y_max, n as u64, 11, 4).unwrap();
    let mut exact = ExactCorrelated::new();
    let mut state = 0x5EEDu64;
    for i in 0..n as u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((state >> 33) % 2_000) / ((i % 5) + 1); // mild skew
        let y = (state >> 13) % (y_max + 1);
        sharded.insert(x, y).unwrap();
        exact.insert(x, y);
    }
    sharded.flush();
    assert_eq!(sharded.stats().unwrap().items_processed, n as u64);
    for &c in &[y_max / 8, y_max / 2, y_max] {
        let truth = exact.frequency_moment(2, c);
        let est = sharded.query(c).unwrap();
        let err = relative_error(est, truth);
        // 4-way composition may inflate the boundary-omission term; the
        // merged answer must still land within a small multiple of ε.
        assert!(
            err < 2.0 * epsilon,
            "c={c}: estimate {est}, truth {truth}, err {err}"
        );
    }
}
