//! Throughput of the replicated ingest path: each iteration ingests one
//! 1k-tuple batch into a node whose replicator ships the acked tuples to a
//! live aggregator, then drives a full replication barrier
//! (`flush` + `replication_sync`) so the measured cost covers the whole
//! fan-in pipeline — shard apply, the cut of the tuple tail, wire framing,
//! the loopback hop, and the aggregator's replay of the tuples.
//!
//! Like the other `serve_*` rows this crosses the OS socket stack, so the
//! CI gate holds it to the looser server-path tolerance (see
//! `.github/workflows/ci.yml`).

use cora_serve::client::ServeClient;
use cora_serve::cluster::start_aggregator;
use cora_serve::server::{start, ReplicateConfig, RunningServer, ServeConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

const Y_MAX: u64 = (1 << 20) - 1;
const INGEST_BATCH: usize = 1_000;

fn bench_config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.2,
        delta: 0.1,
        y_max: Y_MAX,
        max_stream_len: 10_000_000,
        seed: 3,
        shards: 2,
        x_domain_log2: 20,
        ..ServeConfig::default()
    }
}

/// An aggregator plus one node replicating stream `bench` into it, the node
/// pre-loaded to 50k tuples and fully synced so every iteration measures a
/// warm incremental delta, not the initial full snapshot.
fn replicating_pair() -> (RunningServer, RunningServer) {
    let aggregator = start_aggregator(bench_config(), "127.0.0.1:0").expect("bind aggregator");
    let node = start(
        ServeConfig {
            replicate: Some(ReplicateConfig {
                interval_ms: 1_000,
                ..ReplicateConfig::new(aggregator.local_addr().to_string(), "bench")
            }),
            ..bench_config()
        },
        "127.0.0.1:0",
    )
    .expect("bind node");
    let tuples: Vec<(u64, u64)> = (0..50_000u64)
        .map(|i| (i % 5_000, (i * 127) % (Y_MAX + 1)))
        .collect();
    let mut loader = ServeClient::connect_binary(node.local_addr()).expect("preload connect");
    loader
        .ingest_pipelined(&tuples, INGEST_BATCH)
        .expect("preload ingest");
    loader.flush().expect("preload flush");
    node.replication_sync(Duration::from_secs(60))
        .expect("preload sync");
    (aggregator, node)
}

fn bench_replication(c: &mut Criterion) {
    let (aggregator, node) = replicating_pair();
    let mut client = ServeClient::connect_binary(node.local_addr()).expect("connect");
    let batch: Vec<(u64, u64)> = (0..INGEST_BATCH as u64)
        .map(|i| (i % 700, (i * 31) % (Y_MAX + 1)))
        .collect();

    let mut group = c.benchmark_group("replication_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INGEST_BATCH as u64));
    group.bench_function("ingest_1k_replicated", |b| {
        b.iter(|| {
            client.ingest(black_box(&batch)).unwrap();
            client.flush().unwrap();
            node.replication_sync(Duration::from_secs(60)).unwrap()
        })
    });
    group.finish();

    drop(client);
    node.shutdown();
    aggregator.shutdown();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
