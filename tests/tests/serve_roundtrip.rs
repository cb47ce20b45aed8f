//! End-to-end serving-layer checks against the library structures: the
//! server's synchronously-updated sketches must answer exactly like
//! directly-built ones (same seed, same stream), the published composite
//! must converge to the flushed state, and a snapshot file must survive a
//! full process-style restart through `start_restored`.

use cora_core::{CorrelatedF0, CorrelatedHeavyHitters, CorrelatedRarity};
use cora_serve::client::{ServeClient, WindowAnswer};
use cora_serve::server::{start, start_restored, ServeConfig};
use cora_tests::stream_len;

const Y_MAX: u64 = (1 << 14) - 1;

fn config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: Y_MAX,
        max_stream_len: 1_000_000,
        seed: 23,
        shards: 2,
        phi: 0.05,
        x_domain_log2: 18,
        pane_ticks: 512,
        pane_k: 4,
        pane_retention: None,
        max_connections: 1_024,
        durability: None,
        auth_token: None,
        replicate: None,
    }
}

fn stream(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|i| (i % 3_000, (i * 193) % (Y_MAX + 1)))
        .collect()
}

#[test]
fn served_aux_queries_equal_directly_built_sketches() {
    let n = stream_len(20_000);
    let tuples = stream(n);
    let cfg = config();

    // Direct library twins of the server's auxiliary sketches.
    let mut f0 = CorrelatedF0::with_seed(cfg.epsilon, cfg.delta, cfg.x_domain_log2, Y_MAX, cfg.seed)
        .unwrap();
    let mut rarity =
        CorrelatedRarity::with_seed(cfg.epsilon, cfg.x_domain_log2, Y_MAX, cfg.seed).unwrap();
    let mut hh = CorrelatedHeavyHitters::with_seed(
        cfg.epsilon,
        cfg.delta,
        cfg.phi,
        Y_MAX,
        cfg.max_stream_len,
        cfg.seed,
    )
    .unwrap();
    for &(x, y) in &tuples {
        f0.insert(x, y).unwrap();
        rarity.insert(x, y).unwrap();
        hh.insert(x, y).unwrap();
    }

    let server = start(cfg, "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for chunk in tuples.chunks(1_500) {
        client.ingest(chunk).unwrap();
    }
    client.flush().unwrap();

    for c in (0..=Y_MAX).step_by((Y_MAX as usize / 8).max(1)) {
        assert_eq!(client.query_f0(c).unwrap(), f0.query(c).unwrap(), "f0 at c={c}");
        assert_eq!(
            client.query_rarity(c).unwrap(),
            rarity.query(c).unwrap(),
            "rarity at c={c}"
        );
        let served = client.query_heavy_hitters(c, 0.05).unwrap();
        let direct = hh.query_heavy_hitters(c, 0.05).unwrap();
        assert_eq!(served.len(), direct.len(), "hh count at c={c}");
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!((s.item, s.frequency, s.share), (d.item, d.frequency, d.share));
        }
    }
    // The flushed composite covers the full stream.
    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("composite_items").unwrap(), n as u64);
    assert_eq!(stats.u64_field("staleness_batches").unwrap(), 0);
    drop(client);
    server.shutdown();
}

#[test]
fn snapshot_file_survives_restart_with_identical_answers() {
    let tuples = stream(stream_len(10_000));
    let server = start(config(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for chunk in tuples.chunks(1_000) {
        client.ingest(chunk).unwrap();
    }
    client.flush().unwrap();
    let cs: Vec<u64> = (0..=8).map(|i| Y_MAX * i / 8).collect();
    let f2: Vec<f64> = cs.iter().map(|&c| client.query_f2(c).unwrap()).collect();
    let f0: Vec<f64> = cs.iter().map(|&c| client.query_f0(c).unwrap()).collect();
    // Two-dimensional slices: (tick window, y threshold) across several
    // window widths, captured pre-snapshot for post-restart comparison.
    let windows: Vec<u64> = vec![1_024, 4_096, 1 << 20];
    let wf2: Vec<WindowAnswer> = windows
        .iter()
        .flat_map(|&w| cs.iter().map(move |&c| (w, c)))
        .map(|(w, c)| client.query_window_f2(w, c).unwrap())
        .collect();
    let wf0: Vec<WindowAnswer> = windows
        .iter()
        .flat_map(|&w| cs.iter().map(move |&c| (w, c)))
        .map(|(w, c)| client.query_window_f0(w, c).unwrap())
        .collect();

    let dir = std::env::temp_dir().join(format!("cora_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    client.snapshot(path.to_str().unwrap()).unwrap();
    drop(client);
    server.shutdown();

    let bundle = std::fs::read(&path).unwrap();
    let restored = start_restored(config(), "127.0.0.1:0", &bundle).unwrap();
    let mut client = ServeClient::connect(restored.local_addr()).unwrap();
    client.flush().unwrap();
    for (i, &c) in cs.iter().enumerate() {
        assert_eq!(client.query_f2(c).unwrap(), f2[i], "f2 at c={c}");
        assert_eq!(client.query_f0(c).unwrap(), f0[i], "f0 at c={c}");
    }
    // Windowed answers — estimate and resolved span — survive the restart
    // bit-identically too: the pane rings and the tick clock were bundled.
    for (i, (w, c)) in windows
        .iter()
        .flat_map(|&w| cs.iter().map(move |&c| (w, c)))
        .enumerate()
    {
        assert_eq!(
            client.query_window_f2(w, c).unwrap(),
            wf2[i],
            "windowed f2 at window={w} c={c}"
        );
        assert_eq!(
            client.query_window_f0(w, c).unwrap(),
            wf0[i],
            "windowed f0 at window={w} c={c}"
        );
    }
    drop(client);
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_window_frames_fail_restore_before_decode() {
    // Damage specifically inside the bundle's windowed sections: the restore
    // must fail cleanly (no partial server) for any cut or flip in the last
    // two sections, which hold the pane rings.
    let server = start(config(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client
        .ingest(&(0..3_000u64).map(|i| (i % 100, (i * 7) % (Y_MAX + 1))).collect::<Vec<_>>())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("cora_serve_wf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    client.snapshot(path.to_str().unwrap()).unwrap();
    drop(client);
    server.shutdown();

    let bundle = std::fs::read(&path).unwrap();
    assert!(start_restored(config(), "127.0.0.1:0", &bundle).is_ok());
    // Truncations ending inside the windowed tail of the bundle.
    for frac in [1, 2, 5, 20] {
        let cut = bundle.len() - bundle.len() / (frac * 10) - 1;
        assert!(
            start_restored(config(), "127.0.0.1:0", &bundle[..cut]).is_err(),
            "truncation to {cut}/{} accepted",
            bundle.len()
        );
    }
    // Flipped bytes in the windowed tail trip the nested pane checksums.
    for back in [9usize, bundle.len() / 20, bundle.len() / 10] {
        let mut corrupt = bundle.clone();
        let idx = corrupt.len() - 1 - back;
        corrupt[idx] ^= 0x40;
        assert!(
            start_restored(config(), "127.0.0.1:0", &corrupt).is_err(),
            "flip at {idx}/{} accepted",
            corrupt.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
