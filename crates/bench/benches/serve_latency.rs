//! End-to-end latency of the `cora-serve` protocols over loopback TCP:
//! what one client round-trip costs for each query op (over both the JSON
//! line protocol and the binary frame protocol), and the throughput of
//! batch ingest through the server — acked JSON, acked binary, and
//! pipelined no-ack binary.
//!
//! The `serve_latency` rows include the OS socket stack, so they are
//! noisier than the in-process benches; the CI bench gate deliberately does
//! **not** filter on them (see `.github/workflows/ci.yml`). The
//! `serve_ingest`/`serve_ingest_binary` throughput rows **are** gated —
//! they pin the server-path ingest tax against the in-process baseline.

use cora_serve::client::ServeClient;
use cora_serve::server::{start, DurabilityConfig, RunningServer, ServeConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;

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
        phi: 0.05,
        x_domain_log2: 20,
        pane_ticks: 1_024,
        pane_k: 4,
        pane_retention: None,
        max_connections: 1_024,
        durability: None,
        auth_token: None,
        replicate: None,
    }
}

/// A fresh server pre-loaded to exactly 50k tuples. Every ingest row starts
/// from its own copy of this state: the windowed structures' marginal cost
/// grows with stream length, so rows sharing one server would measure their
/// position in the run order, not their protocol.
fn preloaded_server() -> RunningServer {
    preloaded_with(bench_config())
}

fn preloaded_with(config: ServeConfig) -> RunningServer {
    let server = start(config, "127.0.0.1:0").expect("bind loopback server");
    let tuples: Vec<(u64, u64)> = (0..50_000u64)
        .map(|i| (i % 5_000, (i * 127) % (Y_MAX + 1)))
        .collect();
    let mut loader = ServeClient::connect_binary(server.local_addr()).expect("preload connect");
    loader.ingest_pipelined(&tuples, INGEST_BATCH).expect("preload ingest");
    loader.flush().expect("preload flush");
    server
}

/// A scratch durable directory for the journaled ingest rows.
fn durable_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cora_bench_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_serve(c: &mut Criterion) {
    let server = preloaded_server();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let mut binary = ServeClient::connect_binary(server.local_addr()).expect("binary connect");

    let mut group = c.benchmark_group("serve_latency");
    group.sample_size(30);
    group.bench_function("ping_round_trip", |b| {
        b.iter(|| client.ping().unwrap())
    });
    group.bench_function("f2_query_round_trip", |b| {
        b.iter(|| black_box(client.query_f2(black_box(Y_MAX / 2)).unwrap()))
    });
    group.bench_function("f0_query_round_trip", |b| {
        b.iter(|| black_box(client.query_f0(black_box(Y_MAX / 2)).unwrap()))
    });
    group.bench_function("heavy_hitters_round_trip", |b| {
        b.iter(|| black_box(client.query_heavy_hitters(black_box(Y_MAX), 0.05).unwrap()))
    });
    group.bench_function("ping_round_trip_binary", |b| {
        b.iter(|| binary.ping().unwrap())
    });
    group.bench_function("f2_query_round_trip_binary", |b| {
        b.iter(|| black_box(binary.query_f2(black_box(Y_MAX / 2)).unwrap()))
    });
    group.bench_function("heavy_hitters_round_trip_binary", |b| {
        b.iter(|| black_box(binary.query_heavy_hitters(black_box(Y_MAX), 0.05).unwrap()))
    });
    group.finish();

    drop(client);
    drop(binary);
    server.shutdown();

    let batch: Vec<(u64, u64)> = (0..INGEST_BATCH as u64)
        .map(|i| (i % 700, (i * 31) % (Y_MAX + 1)))
        .collect();

    {
        let server = preloaded_server();
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        let mut group = c.benchmark_group("serve_ingest");
        group.sample_size(10);
        group.throughput(Throughput::Elements(INGEST_BATCH as u64));
        group.bench_function("ingest_1k_batch", |b| {
            b.iter(|| client.ingest(black_box(&batch)).unwrap())
        });
        group.finish();
        drop(client);
        server.shutdown();
    }

    {
        let server = preloaded_server();
        let mut binary = ServeClient::connect_binary(server.local_addr()).expect("connect");
        let mut group = c.benchmark_group("serve_ingest_binary");
        group.sample_size(10);
        group.throughput(Throughput::Elements(INGEST_BATCH as u64));
        group.bench_function("ingest_1k_batch", |b| {
            b.iter(|| binary.ingest(black_box(&batch)).unwrap())
        });
        group.finish();
        drop(binary);
        server.shutdown();
    }

    {
        let server = preloaded_server();
        let mut binary = ServeClient::connect_binary(server.local_addr()).expect("connect");
        // The pipelined hot path: stream no-ack batches, one sync round
        // trip for the whole train instead of one per batch.
        const PIPELINE_DEPTH: usize = 20;
        let mut group = c.benchmark_group("serve_ingest_binary");
        group.sample_size(10);
        group.throughput(Throughput::Elements((INGEST_BATCH * PIPELINE_DEPTH) as u64));
        group.bench_function("ingest_20x1k_pipelined", |b| {
            b.iter(|| {
                for _ in 0..PIPELINE_DEPTH {
                    binary.ingest_noack(black_box(&batch)).unwrap();
                }
                binary.sync().unwrap();
            })
        });
        group.finish();
        drop(binary);
        server.shutdown();
    }

    {
        // The durability tax: same acked binary 1k-batch row, but every
        // batch is journaled and fsync'd before the ack (the crash-safe
        // default). The delta against `serve_ingest_binary/ingest_1k_batch`
        // is the cost of the WAL; ROADMAP.md records the measured overhead.
        let dir = durable_dir();
        let server = preloaded_with(ServeConfig {
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                // No automatic rotation mid-measurement: snapshots are
                // triggered far beyond what this bench ingests.
                snapshot_every_tuples: 0,
                fsync_each_batch: true,
            }),
            ..bench_config()
        });
        let mut binary = ServeClient::connect_binary(server.local_addr()).expect("connect");
        let mut group = c.benchmark_group("serve_ingest_journaled");
        group.sample_size(10);
        group.throughput(Throughput::Elements(INGEST_BATCH as u64));
        group.bench_function("ingest_1k_batch", |b| {
            b.iter(|| binary.ingest(black_box(&batch)).unwrap())
        });
        group.finish();
        drop(binary);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
