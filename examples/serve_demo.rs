//! End-to-end tour of the serving layer — and the CI serve-smoke step.
//!
//! Starts a `cora-serve` instance on a loopback port, drives bulk ingest
//! through the **pipelined binary protocol**, then answers all four query
//! families and windowed (time window × y-threshold) slices over **both
//! transports** — JSON lines and binary frames — asserting they are
//! bit-identical. It then snapshots the server to disk, **restarts** it
//! from the snapshot, re-queries, and asserts the answers survived. Prints
//! `SERVE SMOKE OK` on success (the CI step greps for it).
//!
//! ```text
//! cargo run -p cora-examples --release --example serve_demo
//! ```

use cora_serve::client::{ServeClient, WindowAnswer};
use cora_serve::server::{start, start_restored, ServeConfig};

fn main() {
    let config = ServeConfig {
        epsilon: 0.2,
        delta: 0.1,
        y_max: (1 << 16) - 1,
        max_stream_len: 1_000_000,
        seed: 42,
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
    };

    // --- Phase 1: a fresh server takes ingest and answers queries. -------
    let server = start(config.clone(), "127.0.0.1:0").expect("start server");
    let addr = server.local_addr();
    println!("serving on {addr}");
    let mut client = ServeClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    let mut binary = ServeClient::connect_binary(addr).expect("binary connect");
    binary.ping().expect("binary ping");

    // A synthetic "flow log": x = source id, y = response latency. Source 7
    // dominates the low-latency traffic; a tail of sources appears once.
    let mut tuples: Vec<(u64, u64)> = Vec::new();
    for i in 0..30_000u64 {
        tuples.push((7, i % 2_000));
        tuples.push((100 + (i % 800), (i * 131) % (1 << 16)));
    }
    for i in 0..200u64 {
        tuples.push((1_000_000 + i, (i * 257) % (1 << 16)));
    }
    // Bulk load through the pipelined binary path: every 2 000-tuple batch
    // is framed no-ack, one sync round trip closes the whole train.
    binary.ingest_pipelined(&tuples, 2_000).expect("pipelined ingest");
    client.flush().expect("flush barrier");

    let thresholds: Vec<u64> = (0..17).map(|i| ((1u64 << 16) - 1) * i / 16).collect();
    let f2: Vec<f64> = thresholds.iter().map(|&c| client.query_f2(c).expect("f2")).collect();
    let f0: Vec<f64> = thresholds.iter().map(|&c| client.query_f0(c).expect("f0")).collect();
    let rarity: Vec<f64> = thresholds
        .iter()
        .map(|&c| client.query_rarity(c).expect("rarity"))
        .collect();
    let hitters = client.query_heavy_hitters(2_000, 0.2).expect("heavy hitters");
    println!("      c          F2(c)      F0(c)  rarity(c)");
    for (i, &c) in thresholds.iter().enumerate() {
        println!("{c:>7}  {:>13.0}  {:>9.0}  {:>9.4}", f2[i], f0[i], rarity[i]);
    }
    println!(
        "heavy hitters below latency 2000 (phi=0.2): {:?}",
        hitters.iter().map(|h| h.item).collect::<Vec<_>>()
    );
    assert!(
        hitters.iter().any(|h| h.item == 7),
        "the planted heavy source must be reported"
    );

    // Transport divergence check: the binary protocol must produce the very
    // same answers, bit for bit, as the JSON lines above.
    for (i, &c) in thresholds.iter().enumerate() {
        assert_eq!(binary.query_f2(c).expect("binary f2"), f2[i], "binary f2 diverges at c={c}");
        assert_eq!(binary.query_f0(c).expect("binary f0"), f0[i], "binary f0 diverges at c={c}");
        assert_eq!(
            binary.query_rarity(c).expect("binary rarity"),
            rarity[i],
            "binary rarity diverges at c={c}"
        );
    }
    assert_eq!(
        binary.query_heavy_hitters(2_000, 0.2).expect("binary heavy hitters"),
        hitters,
        "binary heavy hitters diverge"
    );
    println!(
        "binary/JSON divergence: none across {} thresholds + heavy hitters",
        thresholds.len()
    );

    // Two-dimensional slices: recent time window × latency threshold. The
    // server stamps ingest with arrival ticks, so "the last 8192 ticks" is
    // the most recent 8192 accepted tuples.
    let windows: Vec<u64> = vec![8_192, 65_536];
    let window_f2: Vec<WindowAnswer> = windows
        .iter()
        .map(|&w| client.query_window_f2(w, 2_000).expect("window f2"))
        .collect();
    let window_f0: Vec<WindowAnswer> = windows
        .iter()
        .map(|&w| client.query_window_f0(w, 2_000).expect("window f0"))
        .collect();
    println!(" window        F2(y<=2000)      F0(y<=2000)   resolved span");
    for (i, &w) in windows.iter().enumerate() {
        println!(
            "{w:>7}  {:>16.0}  {:>15.0}   [{}, {})",
            window_f2[i].value, window_f0[i].value, window_f2[i].resolved_lo,
            window_f2[i].resolved_hi
        );
        assert_eq!(
            binary.query_window_f2(w, 2_000).expect("binary window f2"),
            window_f2[i],
            "binary windowed f2 diverges at window={w}"
        );
        assert_eq!(
            binary.query_window_f0(w, 2_000).expect("binary window f0"),
            window_f0[i],
            "binary windowed f0 diverges at window={w}"
        );
    }
    assert!(window_f2[1].value > 0.0 && window_f0[1].value > 0.0);

    let stats = client.stats().expect("stats");
    println!(
        "stats: accepted={} composite_items={} epoch={} staleness_batches={}",
        stats.u64_field("items_accepted").unwrap(),
        stats.u64_field("composite_items").unwrap(),
        stats.u64_field("composite_epoch").unwrap(),
        stats.u64_field("staleness_batches").unwrap(),
    );

    // --- Phase 2: snapshot, restart, and verify identical answers. -------
    let dir = std::env::temp_dir().join(format!("cora_serve_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("serve.snap");
    let bytes = client
        .snapshot(snapshot_path.to_str().expect("utf8 path"))
        .expect("snapshot");
    println!("snapshot written: {bytes} bytes at {}", snapshot_path.display());
    drop(client);
    drop(binary);
    server.shutdown();

    let bundle = std::fs::read(&snapshot_path).expect("read snapshot");
    let restored = start_restored(config, "127.0.0.1:0", &bundle).expect("restart from snapshot");
    let mut client = ServeClient::connect(restored.local_addr()).expect("reconnect");
    client.flush().expect("post-restore flush");
    for (i, &c) in thresholds.iter().enumerate() {
        assert_eq!(client.query_f2(c).expect("f2"), f2[i], "f2 differs at c={c}");
        assert_eq!(client.query_f0(c).expect("f0"), f0[i], "f0 differs at c={c}");
        assert_eq!(
            client.query_rarity(c).expect("rarity"),
            rarity[i],
            "rarity differs at c={c}"
        );
    }
    let restored_hitters = client.query_heavy_hitters(2_000, 0.2).expect("heavy hitters");
    assert_eq!(restored_hitters, hitters, "heavy hitters differ after restore");
    for (i, &w) in windows.iter().enumerate() {
        assert_eq!(
            client.query_window_f2(w, 2_000).expect("window f2"),
            window_f2[i],
            "windowed f2 differs at window={w}"
        );
        assert_eq!(
            client.query_window_f0(w, 2_000).expect("window f0"),
            window_f0[i],
            "windowed f0 differs at window={w}"
        );
    }
    // And the binary transport agrees with all of it after the restart too.
    let mut binary = ServeClient::connect_binary(restored.local_addr()).expect("binary reconnect");
    for (i, &c) in thresholds.iter().enumerate() {
        assert_eq!(
            binary.query_f2(c).expect("binary f2"),
            f2[i],
            "binary f2 diverges after restore at c={c}"
        );
    }
    assert_eq!(
        binary.query_heavy_hitters(2_000, 0.2).expect("binary heavy hitters"),
        hitters,
        "binary heavy hitters diverge after restore"
    );
    drop(binary);
    println!(
        "restart verified: {} thresholds bit-identical across f2/f0/rarity + heavy hitters, {} windowed slices, both transports",
        thresholds.len(),
        2 * windows.len()
    );

    // The restored server is live, not a read-only archive.
    client.ingest(&[(7, 0), (7, 1)]).expect("post-restore ingest");
    client.flush().expect("post-restore flush");
    assert!(client.query_f2((1 << 16) - 1).expect("f2") > f2[16]);

    drop(client);
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("SERVE SMOKE OK");
}
