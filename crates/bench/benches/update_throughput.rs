//! Per-record update cost of the correlated sketches (experiment E7) and of
//! the exact baseline, on the paper's workloads.

use cora_core::{correlated_f2_seeded, CorrelatedF0, CorrelatedHeavyHitters, ExactCorrelated};
use cora_sketch::{FastAmsBatch, FastAmsSketch, SharedUpdate};
use cora_stream::{DatasetGenerator, UniformGenerator, ZipfGenerator};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

const N: usize = 20_000;

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));

    let mut uniform = UniformGenerator::new(500_000, 1_000_000, 7);
    let uniform_tuples = uniform.generate(N);
    let mut zipf = ZipfGenerator::new(1.0, 500_000, 1_000_000, 7);
    let zipf_tuples = zipf.generate(N);

    for (name, tuples) in [("uniform", &uniform_tuples), ("zipf1", &zipf_tuples)] {
        group.bench_function(format!("correlated_f2/{name}"), |b| {
            b.iter_batched(
                || correlated_f2_seeded(0.2, 0.05, 1_000_000, N as u64, 3).unwrap(),
                |mut sketch| {
                    for t in tuples {
                        sketch.insert(t.x, t.y).unwrap();
                    }
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        // Same workload through the amortized batch API (level-major
        // traversal; produces the identical structure).
        let pairs: Vec<(u64, u64)> = tuples.iter().map(|t| (t.x, t.y)).collect();
        group.bench_function(format!("correlated_f2_batch/{name}"), |b| {
            b.iter_batched(
                || correlated_f2_seeded(0.2, 0.05, 1_000_000, N as u64, 3).unwrap(),
                |mut sketch| {
                    for chunk in pairs.chunks(1024) {
                        sketch.update_batch(chunk).unwrap();
                    }
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("correlated_f0/{name}"), |b| {
            b.iter_batched(
                || CorrelatedF0::with_seed(0.1, 0.05, 20, 1_000_000, 3).unwrap(),
                |mut sketch| {
                    for t in tuples {
                        sketch.insert(t.x, t.y).unwrap();
                    }
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        // Correlated heavy hitters at the serving node's accuracy (ε = 0.25,
        // φ = 0.05): per-tuple inserts, and the batch entry point the server
        // feeds (identical structure).
        let fresh_hh =
            || CorrelatedHeavyHitters::with_seed(0.25, 0.1, 0.05, 1_000_000, 1_000_000, 3).unwrap();
        group.bench_function(format!("correlated_hh/{name}"), |b| {
            b.iter_batched(
                fresh_hh,
                |mut sketch| {
                    for t in tuples {
                        sketch.insert(t.x, t.y).unwrap();
                    }
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("correlated_hh_batch/{name}"), |b| {
            b.iter_batched(
                fresh_hh,
                |mut sketch| {
                    for chunk in pairs.chunks(1024) {
                        sketch.update_batch(chunk).unwrap();
                    }
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        // The fast-AMS apply kernel in isolation: hashing happens once in
        // setup (`prepare_batch_into`), so the measured loop is exactly the
        // unrolled counter-update kernel. Sketch shape matches what
        // `F2Aggregate::new(0.2, ...)` builds (width 200, depth 3).
        let proto = FastAmsSketch::with_dimensions(200, 3, 7);
        let weighted: Vec<(u64, i64)> = tuples.iter().map(|t| (t.x, 1i64)).collect();
        let mut prepared = FastAmsBatch::default();
        proto.prepare_batch_into(&weighted, &mut prepared);
        group.bench_function(format!("fast_ams_batch_apply/{name}"), |b| {
            b.iter_batched(
                || FastAmsSketch::with_dimensions(200, 3, 7),
                |mut sketch| {
                    sketch.apply_prepared_range(&prepared, 0..weighted.len());
                    sketch
                },
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("exact_baseline/{name}"), |b| {
            b.iter_batched(
                ExactCorrelated::new,
                |mut exact| {
                    for t in tuples {
                        exact.insert(t.x, t.y);
                    }
                    exact
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
