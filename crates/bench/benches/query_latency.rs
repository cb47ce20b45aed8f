//! Latency of correlated queries (threshold supplied at query time) for F2,
//! F0, heavy hitters and rarity, after ingesting a moderate stream.

use cora_core::{correlated_f2_seeded, CorrelatedF0, CorrelatedHeavyHitters, CorrelatedRarity};
use cora_stream::{DatasetGenerator, ZipfGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: usize = 50_000;
const Y_MAX: u64 = 1_000_000;

fn bench_queries(c: &mut Criterion) {
    let mut generator = ZipfGenerator::new(1.0, 200_000, Y_MAX, 5);
    let tuples = generator.generate(N);

    let mut f2 = correlated_f2_seeded(0.2, 0.05, Y_MAX, N as u64, 3).unwrap();
    let mut f0 = CorrelatedF0::with_seed(0.15, 0.05, 20, Y_MAX, 3).unwrap();
    let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.05, 0.05, Y_MAX, N as u64, 3).unwrap();
    let mut rarity = CorrelatedRarity::with_seed(0.2, 18, Y_MAX, 3).unwrap();
    for t in &tuples {
        f2.insert(t.x, t.y).unwrap();
        f0.insert(t.x, t.y).unwrap();
        hh.insert(t.x, t.y).unwrap();
        rarity.insert(t.x, t.y).unwrap();
    }

    let mut group = c.benchmark_group("query_latency");
    group.sample_size(20);
    let thresholds = [Y_MAX / 10, Y_MAX / 2, Y_MAX];
    group.bench_function("correlated_f2_query", |b| {
        b.iter(|| {
            for &c in &thresholds {
                black_box(f2.query(black_box(c)).unwrap());
            }
        })
    });
    // The row above repeats three thresholds, so it measures memo hits. This
    // one asks 64 distinct thresholds per iteration, more than the 16 the
    // per-threshold compose memo holds: each answer is a cold one unless
    // the sketch answers from a per-level table.
    let distinct: Vec<u64> = (1..=64u64).map(|i| i * (Y_MAX / 64)).collect();
    group.bench_function("correlated_f2_query_distinct", |b| {
        b.iter(|| {
            for &c in &distinct {
                black_box(f2.query(black_box(c)).unwrap());
            }
        })
    });
    group.bench_function("correlated_f0_query", |b| {
        b.iter(|| {
            for &c in &thresholds {
                black_box(f0.query(black_box(c)).unwrap());
            }
        })
    });
    group.bench_function("correlated_heavy_hitters_query", |b| {
        b.iter(|| {
            for &c in &thresholds {
                black_box(hh.query_heavy_hitters(black_box(c), 0.05).unwrap());
            }
        })
    });
    group.bench_function("correlated_rarity_query", |b| {
        b.iter(|| {
            for &c in &thresholds {
                black_box(rarity.query(black_box(c)).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
