//! End-to-end tour of the fan-in subsystem — and the CI replication-smoke
//! step.
//!
//! Starts two ingest nodes replicating their streams (`left` and `right`,
//! shared-secret auth on every hop) into one aggregator, plus
//! a single-server **oracle** that ingests every tuple directly. After a
//! replication barrier it asserts the aggregator's union answers for all
//! four query families agree with the oracle within the configured `ε`
//! (Property V: same-seed sketches merge into a valid sketch of the union —
//! at this scale bucket eviction makes the merged and directly-built
//! sketches `ε`-equivalent rather than bit-identical), then runs the
//! multi-stream set-expression queries — `|left ∪ right|`,
//! `|left ∩ right|`, `|left ∖ right|` under `y ≤ c` — checking the
//! inclusion–exclusion arithmetic exactly and the per-stream estimates
//! against dedicated oracles. Prints `REPLICATION SMOKE OK` on success
//! (the CI step greps for it).
//!
//! ```text
//! cargo run -p cora-examples --release --example replication_demo
//! ```

use cora_serve::client::ServeClient;
use cora_serve::protocol::{Request, SetOp};
use cora_serve::server::{start, ReplicateConfig, RunningServer, ServeConfig};
use cora_serve::start_aggregator;
use std::time::Duration;

const Y_MAX: u64 = 4_095;
const TOKEN: &str = "fan-in-demo-secret";

fn config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.2,
        delta: 0.1,
        y_max: Y_MAX,
        max_stream_len: 1_000_000,
        seed: 42,
        shards: 2,
        x_domain_log2: 18,
        auth_token: Some(TOKEN.to_string()),
        ..ServeConfig::default()
    }
}

fn connect(server: &RunningServer) -> ServeClient {
    let mut client = ServeClient::connect_binary(server.local_addr()).expect("connect");
    client.auth(TOKEN).expect("auth");
    client
}

/// A stream of `n` tuples whose x-range starts at `base`: `left` and
/// `right` overlap on part of the item domain, so the set expressions have
/// real intersections to estimate.
fn tuples(base: u64, n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| (base + i % 2_500, (i * 167 + base) % (Y_MAX + 1)))
        .collect()
}

fn main() {
    // --- Topology: two ingest nodes → one aggregator, all token-gated. ----
    let agg = start_aggregator(config(), "127.0.0.1:0").expect("start aggregator");
    let replicate = |stream: &str| {
        Some(ReplicateConfig {
            interval_ms: 25,
            auth_token: Some(TOKEN.to_string()),
            ..ReplicateConfig::new(agg.local_addr().to_string(), stream)
        })
    };
    let left = start(
        ServeConfig {
            replicate: replicate("left"),
            ..config()
        },
        "127.0.0.1:0",
    )
    .expect("start left node");
    let right = start(
        ServeConfig {
            replicate: replicate("right"),
            ..config()
        },
        "127.0.0.1:0",
    )
    .expect("start right node");
    let oracle = start(config(), "127.0.0.1:0").expect("start oracle");

    let (mut cl, mut cr, mut co) = (connect(&left), connect(&right), connect(&oracle));
    let (a, b) = (tuples(0, 20_000), tuples(1_500, 20_000));
    cl.ingest_pipelined(&a, 2_000).expect("ingest left");
    cr.ingest_pipelined(&b, 2_000).expect("ingest right");
    co.ingest_pipelined(&a, 2_000).expect("oracle ingest");
    co.ingest_pipelined(&b, 2_000).expect("oracle ingest");
    cl.flush().expect("flush left");
    cr.flush().expect("flush right");
    co.flush().expect("flush oracle");

    // Replication barrier: both nodes' deltas acked by the aggregator.
    left.replication_sync(Duration::from_secs(30)).expect("sync left");
    right.replication_sync(Duration::from_secs(30)).expect("sync right");

    // --- Union answers agree with the direct oracle within ε. -------------
    // Both sides are ε-accurate estimators of the same union stream; their
    // disagreement is therefore bounded by roughly 2ε relative (they are
    // usually far closer — the merged and direct sketches only diverge once
    // bucket eviction has kicked in, and then only on evicted levels).
    let close = |label: &str, got: f64, want: f64| {
        let bound = 2.0 * 0.2 * want.abs().max(1.0);
        assert!(
            (got - want).abs() <= bound,
            "{label}: aggregator {got} vs oracle {want} (allowed ±{bound})"
        );
    };
    let mut cagg = connect(&agg);
    let mut streams = cagg.streams().expect("streams");
    streams.sort();
    assert_eq!(streams, vec!["left".to_string(), "right".to_string()]);
    for c in [Y_MAX / 4, Y_MAX / 2, Y_MAX] {
        close(
            "f2",
            cagg.query_f2(c).expect("agg f2"),
            co.query_f2(c).expect("oracle f2"),
        );
        close(
            "f0",
            cagg.query_f0(c).expect("agg f0"),
            co.query_f0(c).expect("oracle f0"),
        );
        close(
            "rarity",
            cagg.query_rarity(c).expect("agg rarity"),
            co.query_rarity(c).expect("oracle rarity"),
        );
    }
    println!("union of 2 replicated streams matches the direct oracle within ε");

    // --- Set expressions over the streams. --------------------------------
    // The inclusion–exclusion arithmetic is checked exactly against the
    // estimates the aggregator itself reports; the per-stream estimates are
    // checked against dedicated single-stream oracles within ε.
    let f0_of = |set: &[(u64, u64)], c: u64| -> f64 {
        let server = start(config(), "127.0.0.1:0").expect("start per-stream oracle");
        let mut client = connect(&server);
        client.ingest_pipelined(set, 2_000).expect("ingest");
        client.flush().expect("flush");
        let f0 = client.query_f0(c).expect("f0");
        server.shutdown();
        f0
    };
    let c = Y_MAX / 2;
    let response = cagg
        .request(&Request::SetF0 {
            a: "left".to_string(),
            b: "right".to_string(),
            op: SetOp::Intersect,
            c,
        })
        .expect("set_f0 intersect");
    let fa = response.f64_field("f_a").expect("f_a");
    let fb = response.f64_field("f_b").expect("f_b");
    let fu = response.f64_field("f_union").expect("f_union");
    let inter = response.f64_field("value").expect("value");
    let union = cagg.set_f0("left", "right", SetOp::Union, c).expect("union");
    let diff = cagg.set_f0("left", "right", SetOp::Diff, c).expect("diff");
    assert_eq!(inter, (fa + fb - fu).max(0.0), "inclusion–exclusion identity");
    assert_eq!(union, fu, "union op returns the merged-union estimate");
    assert_eq!(diff, (fa - inter).max(0.0), "difference identity");
    close("per-stream f_a", fa, f0_of(&a, c));
    close("per-stream f_b", fb, f0_of(&b, c));
    close("union f0", fu, co.query_f0(c).expect("oracle f0"));
    println!("set_f0 at c={c}: |A∪B|≈{union:.1} |A∩B|≈{inter:.1} |A∖B|≈{diff:.1}");

    agg.shutdown();
    left.shutdown();
    right.shutdown();
    oracle.shutdown();
    println!("REPLICATION SMOKE OK");
}
