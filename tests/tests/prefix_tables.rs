//! `F_2` queries read one prefix table per level. Their answers must equal,
//! bit for bit, the per-threshold composition `with_composed(c, estimate)`
//! that answered every query before the tables existed.
//!
//! Checked at every threshold `0 ..= padded_y_max + 1`, on uniform, Zipf
//! and tiny-`y_max` streams, for correlated `F_2` and the heavy-hitters
//! `F_2`. Each structure is built four ways: scalar inserts, batch inserts,
//! a merged shard composite, and a snapshot restore. Every stream reaches
//! sketched composites, where merge order could matter if anything did.
//!
//! The two aggregates are also one structure: under one configuration and
//! stream, `CorrelatedSketch<F2HeavyAggregate>` holds the buckets
//! `CorrelatedSketch<F2Aggregate>` holds, selects the same level for every
//! threshold, and answers `F_2` with the same bits — which is what lets a
//! server keep one structure for both queries.

use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::{
    AlphaPolicy, CorrelatedAggregate, CorrelatedConfig, CorrelatedF2, CorrelatedHeavyHitters,
    CorrelatedSketch, F2Aggregate,
};
use cora_sketch::codec::StateCodec;
use cora_stream::{DatasetGenerator, UniformGenerator, ZipfGenerator};

const SEED: u64 = 17;
const SHARDS: usize = 3;

/// Check `query(c)` against the composed reference at every threshold,
/// require some composed store to be sketched, and return how many
/// thresholds a dyadic level (or the dormant tail) answered.
fn check_every_threshold<A: CorrelatedAggregate>(
    label: &str,
    sketch: &CorrelatedSketch<A>,
    query: impl Fn(u64) -> f64,
) -> usize {
    let (mut sketched, mut dyadic) = (0, 0);
    for c in 0..=sketch.config().padded_y_max() + 1 {
        let (reference, is_sketched) = sketch
            .with_composed(c, |store| {
                (store.estimate(sketch.aggregate()), !store.is_exact())
            })
            .unwrap();
        assert_eq!(query(c).to_bits(), reference.to_bits(), "{label}: c={c}");
        sketched += usize::from(is_sketched);
        dyadic += usize::from(sketch.query_level(c) != Some(0));
    }
    assert!(sketched > 0, "{label}: no composite was sketched");
    dyadic
}

fn f2_sketch(y_max: u64, alpha: usize) -> CorrelatedF2 {
    let config = CorrelatedConfig::new(0.5, 0.1, y_max, 40)
        .unwrap()
        .with_alpha_policy(AlphaPolicy::Fixed(alpha))
        .with_seed(SEED);
    CorrelatedSketch::new(F2Aggregate::new(0.5, 0.1, SEED), config).unwrap()
}

/// ε = 0.9 keeps the default bucket budget (α = 214 at `y_max` 255) and the
/// spill point (60 items) small, so a 10k-tuple stream is answered from
/// dyadic levels whose buckets are sketched. φ = 0.5 keeps the candidate
/// trackers at their minimum of 8, which every sketched merge re-ranks.
fn hh_sketch(y_max: u64) -> CorrelatedHeavyHitters {
    CorrelatedHeavyHitters::with_seed(0.9, 0.1, 0.5, y_max, 1 << 20, SEED).unwrap()
}

/// The four builds of one structure over `tuples`: scalar, batch, a merged
/// composite of round-robin shards, and a restore of the scalar build.
fn four_ways<S>(
    tuples: &[(u64, u64)],
    fresh: impl Fn() -> S,
    insert: impl Fn(&mut S, u64, u64),
    batch: impl Fn(&mut S, &[(u64, u64)]),
    merge: impl Fn(&mut S, &S),
    restore: impl Fn(&S) -> S,
) -> [(&'static str, S); 4] {
    let mut scalar = fresh();
    for &(x, y) in tuples {
        insert(&mut scalar, x, y);
    }
    let mut batched = fresh();
    for chunk in tuples.chunks(500) {
        batch(&mut batched, chunk);
    }
    let mut shards: Vec<S> = (0..SHARDS).map(|_| fresh()).collect();
    for (i, &(x, y)) in tuples.iter().enumerate() {
        insert(&mut shards[i % SHARDS], x, y);
    }
    let mut composite = fresh();
    for shard in &shards {
        merge(&mut composite, shard);
    }
    let restored = restore(&scalar);
    [
        ("scalar", scalar),
        ("batch", batched),
        ("sharded", composite),
        ("restored", restored),
    ]
}

/// Every build of correlated `F_2` over `tuples`, checked at every threshold;
/// returns the fewest thresholds any build answered from a dyadic level.
fn check_f2(stream: &str, tuples: &[(u64, u64)], y_max: u64, alpha: usize) -> usize {
    let builds = four_ways(
        tuples,
        || f2_sketch(y_max, alpha),
        |s, x, y| s.insert(x, y).unwrap(),
        |s, chunk| s.update_batch(chunk).unwrap(),
        |s, shard| s.merge_from(shard).unwrap(),
        |s| {
            CorrelatedSketch::restore_from(F2Aggregate::new(0.5, 0.1, SEED), &s.snapshot()).unwrap()
        },
    );
    builds
        .iter()
        .map(|(way, sketch)| {
            check_every_threshold(&format!("F2 {stream} {way}"), sketch, |c| {
                sketch.query(c).unwrap()
            })
        })
        .min()
        .unwrap()
}

/// [`check_f2`] for the heavy-hitters structure's `query`.
fn check_hh(stream: &str, tuples: &[(u64, u64)], y_max: u64) -> usize {
    let builds = four_ways(
        tuples,
        || hh_sketch(y_max),
        |s, x, y| s.insert(x, y).unwrap(),
        |s, chunk| s.update_batch(chunk).unwrap(),
        |s, shard| s.merge_from(shard).unwrap(),
        |s| {
            CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.9, 0.5, SEED), &s.snapshot())
                .unwrap()
        },
    );
    builds
        .iter()
        .map(|(way, hh)| {
            check_every_threshold(&format!("HH {stream} {way}"), hh, |c| hh.query(c).unwrap())
        })
        .min()
        .unwrap()
}

/// The four builds of a framework sketch for `agg` under `config`.
fn framework_four_ways<A>(
    tuples: &[(u64, u64)],
    agg: &A,
    config: &CorrelatedConfig,
) -> [(&'static str, CorrelatedSketch<A>); 4]
where
    A: CorrelatedAggregate,
    A::Sketch: StateCodec,
{
    four_ways(
        tuples,
        || CorrelatedSketch::new(agg.clone(), config.clone()).unwrap(),
        |s, x, y| s.insert(x, y).unwrap(),
        |s, chunk| s.update_batch(chunk).unwrap(),
        |s, shard| s.merge_from(shard).unwrap(),
        |s| CorrelatedSketch::restore_from(agg.clone(), &s.snapshot()).unwrap(),
    )
}

/// Both aggregates over `tuples` at the served ε = 0.25 and φ = 0.05, each
/// built four ways: equal singleton and dyadic bucket counts, the same
/// level and the same `F_2` bits at every threshold. Returns how many
/// thresholds a dyadic level answered.
fn check_one_structure(stream: &str, tuples: &[(u64, u64)], y_max: u64) -> usize {
    let config = CorrelatedConfig::new(0.25, 0.1, y_max, 40)
        .unwrap()
        .with_seed(SEED);
    let plain = framework_four_ways(tuples, &F2Aggregate::new(0.25, 0.1, SEED), &config);
    let heavy = framework_four_ways(tuples, &F2HeavyAggregate::new(0.25, 0.05, SEED), &config);
    let mut dyadic = usize::MAX;
    for ((way, f2), (_, hh)) in plain.iter().zip(&heavy) {
        let label = format!("{stream} {way}");
        let (f2_stats, hh_stats) = (f2.stats(), hh.stats());
        let buckets = |s: &cora_core::SketchStats| (s.singleton_buckets, s.dyadic_buckets);
        assert_eq!(buckets(&hh_stats), buckets(&f2_stats), "{label}: buckets");
        let mut answered_by_dyadic = 0;
        for c in 0..=config.padded_y_max() + 1 {
            let level = f2.query_level(c);
            assert_eq!(hh.query_level(c), level, "{label}: level at c={c}");
            assert_eq!(
                hh.query(c).unwrap().to_bits(),
                f2.query(c).unwrap().to_bits(),
                "{label}: F2 at c={c}"
            );
            answered_by_dyadic += usize::from(level != Some(0));
        }
        dyadic = dyadic.min(answered_by_dyadic);
    }
    dyadic
}

fn pairs(generator: &mut impl DatasetGenerator, n: usize) -> Vec<(u64, u64)> {
    generator.generate(n).iter().map(|t| (t.x, t.y)).collect()
}

#[test]
fn f2_prefix_tables_match_composition_on_uniform_streams() {
    let tuples = pairs(&mut UniformGenerator::new(2_000, 1023, 3), 30_000);
    assert!(check_f2("uniform", &tuples, 1023, 48) > 0);
}

#[test]
fn f2_prefix_tables_match_composition_on_zipf_streams() {
    let tuples = pairs(&mut ZipfGenerator::new(1.0, 2_000, 1023, 5), 30_000);
    assert!(check_f2("zipf", &tuples, 1023, 48) > 0);
}

#[test]
fn f2_prefix_tables_match_composition_on_tiny_y_domains() {
    let tuples = pairs(&mut UniformGenerator::new(5_000, 15, 7), 20_000);
    assert!(check_f2("tiny", &tuples, 15, 8) > 0);
}

#[test]
fn hh_f2_prefix_tables_match_composition_on_uniform_streams() {
    let tuples = pairs(&mut UniformGenerator::new(2_000, 255, 11), 10_000);
    assert!(check_hh("uniform", &tuples, 255) > 0);
}

#[test]
fn hh_f2_prefix_tables_match_composition_on_zipf_streams() {
    let tuples = pairs(&mut ZipfGenerator::new(1.0, 2_000, 255, 13), 10_000);
    assert!(check_hh("zipf", &tuples, 255) > 0);
}

/// Sixteen `y` values fit the singleton budget: every answer is level 0's.
#[test]
fn hh_f2_prefix_tables_match_composition_on_tiny_y_domains() {
    let tuples = pairs(&mut UniformGenerator::new(5_000, 15, 19), 20_000);
    assert_eq!(check_hh("tiny", &tuples, 15), 0);
}

#[test]
fn hh_and_f2_aggregates_build_one_structure_on_uniform_streams() {
    let tuples = pairs(&mut UniformGenerator::new(2_000, 1023, 3), 30_000);
    assert!(check_one_structure("uniform", &tuples, 1023) > 0);
}

#[test]
fn hh_and_f2_aggregates_build_one_structure_on_zipf_streams() {
    let tuples = pairs(&mut ZipfGenerator::new(1.0, 2_000, 1023, 5), 30_000);
    assert!(check_one_structure("zipf", &tuples, 1023) > 0);
}

#[test]
fn hh_and_f2_aggregates_build_one_structure_on_tiny_y_domains() {
    let tuples = pairs(&mut UniformGenerator::new(5_000, 15, 7), 20_000);
    assert_eq!(check_one_structure("tiny", &tuples, 15), 0);
}

/// ~500 distinct ids per singleton bucket: past the 384 at which both
/// aggregates spill at ε = 0.25, short of the 768 at which heavy-hitters
/// buckets used to — the stream on which the two structures used to differ.
#[test]
fn hh_and_f2_aggregates_build_one_structure_between_the_old_spill_points() {
    let tuples = pairs(&mut UniformGenerator::new(1 << 20, 15, 23), 8_000);
    assert_eq!(check_one_structure("mid-spill", &tuples, 15), 0);
}
