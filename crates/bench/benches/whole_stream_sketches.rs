//! Throughput of the whole-stream substrate sketches: the paper's choice of
//! the Thorup–Zhang fast AMS variant, and the distinct-count substrates.

use cora_sketch::{DistinctSampler, FastAmsSketch, FlajoletMartin, KmvSketch, StreamSketch};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

const N: u64 = 50_000;

fn bench_f2_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("whole_stream_f2");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N));
    group.bench_function("fast_ams_thorup_zhang", |b| {
        b.iter_batched(
            || FastAmsSketch::with_dimensions(512, 5, 3),
            |mut s| {
                for x in 0..N {
                    s.update(x % 10_000, 1);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_f0_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("whole_stream_f0");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N));
    group.bench_function("distinct_sampler", |b| {
        b.iter_batched(
            || DistinctSampler::new(1024, 3),
            |mut s| {
                for x in 0..N {
                    s.insert(x);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("kmv_bottom_k", |b| {
        b.iter_batched(
            || KmvSketch::new(1024, 3),
            |mut s| {
                for x in 0..N {
                    s.insert(x);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("flajolet_martin", |b| {
        b.iter_batched(
            || FlajoletMartin::new(256, 3),
            |mut s| {
                for x in 0..N {
                    s.insert(x);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_f2_substrates, bench_f0_substrates);
criterion_main!(benches);
