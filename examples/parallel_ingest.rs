//! Parallel ingest: shard a stream across worker threads with
//! `ShardedIngest`, then answer correlated queries from the merged composite.
//!
//! The per-shard sketches share one seed (the paper's Property V), so the
//! merge behind every query is lossless — the composite answers exactly as
//! if one sketch had seen the whole stream, up to the usual ε envelope.
//!
//! Run with: `cargo run -p cora-examples --release --example parallel_ingest`

use cora_core::ExactCorrelated;
use cora_stream::{sharded_correlated_f2, DatasetGenerator, ZipfGenerator};
use std::time::Instant;

fn main() {
    let epsilon = 0.2;
    let delta = 0.05;
    let y_max = 1_000_000u64;
    let n = 200_000usize;
    let shards = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));

    // The paper's Zipf(1) workload: skewed ids, uniform y.
    let mut generator = ZipfGenerator::new(1.0, 500_000, y_max, 42);
    let tuples = generator.generate(n);
    let pairs: Vec<(u64, u64)> = tuples.iter().map(|t| (t.x, t.y)).collect();
    let mut exact = ExactCorrelated::new();
    for &(x, y) in &pairs {
        exact.insert(x, y);
    }

    // N worker threads, each owning a same-seeded correlated-F2 sketch fed
    // over a bounded FIFO queue; tuples are distributed round-robin in
    // batches (any partition works — the merge is lossless).
    let mut ingest =
        sharded_correlated_f2(epsilon, delta, y_max, n as u64, 42, shards).expect("valid params");
    let start = Instant::now();
    ingest.ingest(&pairs).expect("y within range");
    ingest.flush(); // barrier: all accepted tuples applied
    let elapsed = start.elapsed();

    println!(
        "ingested {n} tuples across {shards} shard workers in {elapsed:.2?} \
         ({:.2e} elem/s)",
        n as f64 / elapsed.as_secs_f64()
    );
    let stats = ingest.stats().expect("composite available");
    println!(
        "composite sketch: {} stored tuples over {} processed elements",
        stats.stored_tuples, stats.items_processed
    );
    println!();
    println!("threshold c      F2 estimate      F2 exact   rel.err");
    for c in [y_max / 10, y_max / 2, y_max] {
        let est = ingest.query(c).expect("answerable");
        let truth = exact.frequency_moment(2, c);
        println!(
            "{c:>11}  {est:>15.0}  {truth:>12.0}  {:>8.4}",
            (est - truth).abs() / truth.max(1.0)
        );
    }
}
