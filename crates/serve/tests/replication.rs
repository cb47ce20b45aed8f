//! Integration tests for the distributed fan-in subsystem: the delta
//! container, the auth gate, node→aggregator replication against a
//! single-server oracle, set-expression queries, warm standby, and a
//! mid-delta link kill with bit-identical convergence.
//!
//! The oracle discipline throughout: a plain single server ingests the
//! concatenation of every upstream's tuples, and the aggregator's union
//! answers are asserted **exactly equal** to the oracle's. Property V
//! guarantees the merged sketch is a valid `ε`-sketch of the union in
//! general; at the stream sizes used here no bucket eviction occurs, so
//! merge-then-query equals sequential-then-query bit for bit (the same
//! regime `tests/tests/sharded_merge.rs` proves by property testing). The
//! large-scale `ε`-equivalence story is exercised by the
//! `replication_demo` example instead.

use cora_core::snapshot::{open_sections, seal_sections_into};
use cora_core::SectionsHeader;
use cora_serve::client::{ClientError, ServeClient};
use cora_serve::cluster::start_aggregator_seeded;
use cora_serve::protocol::SetOp;
use cora_serve::server::{
    start, DurabilityConfig, ReplicateConfig, RunningServer, ServeConfig,
};
use cora_serve::start_aggregator;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const Y_MAX: u64 = 1023;

/// The same sketch geometry on every node, the aggregator, and the oracle:
/// the replication handshake fingerprints these parameters and refuses a
/// mismatch, and Property V only holds for identical construction.
fn sketch_config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: Y_MAX,
        max_stream_len: 100_000,
        seed: 11,
        shards: 2,
        x_domain_log2: 16,
        pane_ticks: 64,
        ..ServeConfig::default()
    }
}

fn node_config(target: &str, stream: &str) -> ServeConfig {
    ServeConfig {
        replicate: Some(ReplicateConfig {
            interval_ms: 20,
            ..ReplicateConfig::new(target, stream)
        }),
        ..sketch_config()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cora-replication-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Deterministic per-stream tuples: distinct x-ranges per `salt` so set
/// expressions over two streams have known overlap structure.
fn tuples(salt: u64, n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| ((salt * 200 + i) % 3_000, (i * 193 + salt * 7) % (Y_MAX + 1)))
        .collect()
}

/// One probed threshold: `(c, f2, f0, rarity, heavy hitters as
/// `(item, frequency bits)`)`.
type ProbeRow = (u64, f64, f64, f64, Vec<(u64, u64)>);

/// Ask all four aggregate queries at a couple of thresholds; used to
/// compare an aggregator against the oracle field by field.
fn probe(client: &mut ServeClient) -> Vec<ProbeRow> {
    [Y_MAX / 4, Y_MAX / 2, Y_MAX]
        .iter()
        .map(|&c| {
            let hh = client
                .query_heavy_hitters(c, 0.05)
                .expect("heavy hitters")
                .into_iter()
                .map(|h| (h.item, h.frequency.to_bits()))
                .collect();
            (
                c,
                client.query_f2(c).expect("f2"),
                client.query_f0(c).expect("f0"),
                client.query_rarity(c).expect("rarity"),
                hh,
            )
        })
        .collect()
}

/// Block until the node's replicator reports every pre-call ingest acked by
/// the aggregator, retrying across transient link failures.
fn sync_replication(server: &RunningServer) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.replication_sync(Duration::from_secs(2)) {
            Ok(_) => return,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("replication did not converge: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Delta container
// ---------------------------------------------------------------------------

#[test]
fn delta_container_round_trips_and_rejects_damage() {
    let header = SectionsHeader {
        g_from: 3,
        g_to: 9,
        fingerprint: 0xfeed_beef_dead_cafe,
    };
    let sections: Vec<(u8, &[u8])> = vec![
        (1, b"first section payload".as_slice()),
        (2, b"".as_slice()),
        (7, &[0xAB; 300]),
    ];
    let mut frame = Vec::new();
    seal_sections_into(&header, &sections, &mut frame);

    let (opened_header, opened_sections) = open_sections(&frame).expect("round trip");
    assert_eq!(opened_header, header);
    assert_eq!(opened_sections.len(), sections.len());
    for ((tag, bytes), (want_tag, want_bytes)) in opened_sections.iter().zip(&sections) {
        assert_eq!(tag, want_tag);
        assert_eq!(bytes, want_bytes);
    }

    // Torn writes: every proper prefix must be rejected, never misread.
    for cut in 0..frame.len() {
        assert!(
            open_sections(&frame[..cut]).is_err(),
            "torn frame of {cut} bytes was accepted"
        );
    }
    // Single-bit corruption anywhere must be caught by the checksum (or, for
    // header-adjacent bits, by structural validation) — never silently
    // change the payload.
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[byte] ^= 1 << bit;
            if let Ok((h, s)) = open_sections(&bent) {
                assert_eq!(h, header, "corrupt byte {byte} bit {bit} changed header");
                assert_eq!(s.len(), sections.len());
            }
        }
    }

    // A backwards generation span is structurally invalid.
    let backwards = SectionsHeader {
        g_from: 9,
        g_to: 3,
        fingerprint: 1,
    };
    let mut bad = Vec::new();
    seal_sections_into(&backwards, &[], &mut bad);
    assert!(open_sections(&bad).is_err(), "g_from > g_to was accepted");
}

// ---------------------------------------------------------------------------
// Auth gate
// ---------------------------------------------------------------------------

fn expect_request_error<T: std::fmt::Debug>(result: Result<T, ClientError>, what: &str) {
    match result {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, "request", "{what}: wrong error kind: {e}")
        }
        other => panic!("{what}: expected a request error, got {other:?}"),
    }
}

#[test]
fn auth_gates_both_transports() {
    let config = ServeConfig {
        auth_token: Some("sesame".to_string()),
        ..sketch_config()
    };
    let server = start(config, "127.0.0.1:0").expect("start");
    let addr = server.local_addr();

    for binary in [false, true] {
        let mut client = if binary {
            ServeClient::connect_binary(addr).expect("connect")
        } else {
            ServeClient::connect(addr).expect("connect")
        };
        let label = if binary { "binary" } else { "json" };

        // Everything except auth is refused before the handshake.
        expect_request_error(client.ping(), &format!("{label} unauthenticated ping"));
        expect_request_error(
            client.ingest(&[(1, 1)]),
            &format!("{label} unauthenticated ingest"),
        );
        expect_request_error(
            client.query_f2(10),
            &format!("{label} unauthenticated query"),
        );
        // A wrong token is refused and the connection stays gated.
        expect_request_error(client.auth("open"), &format!("{label} wrong token"));
        expect_request_error(client.ping(), &format!("{label} still gated"));
        // The right token opens the connection for every op.
        client.auth("sesame").expect("auth");
        client.ping().expect("authed ping");
        client.ingest(&[(1, 10), (2, 20)]).expect("authed ingest");
        client.flush().expect("authed flush");
        assert!(client.query_f2(Y_MAX).expect("authed query") > 0.0);
    }

    // The binary fast-path (no-ack pipelined ingest) is gated too: the
    // server drops unauthenticated fast-path batches and flags the
    // connection, so the next synchronous op reports the refusal.
    let mut sneaky = ServeClient::connect_binary(addr).expect("connect");
    sneaky.ingest_noack(&[(99, 1)]).expect("write side only");
    assert!(sneaky.sync().is_err(), "unauthenticated no-ack ingest was acked");

    // A server without a token accepts auth as a no-op.
    let open_server = start(sketch_config(), "127.0.0.1:0").expect("start");
    let mut open_client = ServeClient::connect(open_server.local_addr()).expect("connect");
    open_client.auth("anything").expect("no-op auth");
    open_client.ping().expect("ping");
    open_server.shutdown();
    server.shutdown();
}

/// The handshake travels over either transport; the payload op is refused
/// by the aggregator's own JSON parser, with a structured `request` error.
#[test]
fn a_json_repl_delta_is_refused_by_the_aggregator() {
    let agg = start_aggregator(sketch_config(), "127.0.0.1:0").expect("aggregator");
    let mut json = ServeClient::connect(agg.local_addr()).expect("connect");
    let fingerprint = sketch_config().replication_fingerprint();
    assert_eq!(json.repl_hello("a", fingerprint).expect("JSON handshake"), 0);
    match json.repl_delta("a", &[1, 2, 3]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, "request", "{e}");
            assert!(e.message.contains("binary protocol"), "{e}");
        }
        other => panic!("expected the aggregator's refusal, got {other:?}"),
    }
    json.ping().expect("the connection stays usable");
    agg.shutdown();
}

// ---------------------------------------------------------------------------
// Fan-in vs oracle
// ---------------------------------------------------------------------------

#[test]
fn fan_in_matches_single_server_oracle() {
    let agg = start_aggregator(sketch_config(), "127.0.0.1:0").expect("aggregator");
    let agg_addr = agg.local_addr().to_string();

    let node_a = start(node_config(&agg_addr, "a"), "127.0.0.1:0").expect("node a");
    let node_b = start(node_config(&agg_addr, "b"), "127.0.0.1:0").expect("node b");
    let oracle = start(sketch_config(), "127.0.0.1:0").expect("oracle");

    let mut ca = ServeClient::connect(node_a.local_addr()).expect("connect a");
    let mut cb = ServeClient::connect(node_b.local_addr()).expect("connect b");
    let mut co = ServeClient::connect(oracle.local_addr()).expect("connect oracle");

    // Several rounds with a sync barrier between them: the first shipped cut
    // is a full snapshot, later rounds exercise chained incremental deltas.
    for round in 0..3 {
        let a = tuples(round, 400);
        let b = tuples(round + 10, 400);
        ca.ingest(&a).expect("ingest a");
        cb.ingest(&b).expect("ingest b");
        co.ingest(&a).expect("oracle a");
        co.ingest(&b).expect("oracle b");
        ca.flush().expect("flush a");
        cb.flush().expect("flush b");
        sync_replication(&node_a);
        sync_replication(&node_b);
    }
    co.flush().expect("oracle flush");

    let mut cagg = ServeClient::connect(agg.local_addr()).expect("connect agg");
    let mut names = cagg.streams().expect("streams");
    names.sort();
    assert_eq!(names, vec!["a".to_string(), "b".to_string()]);

    // At this (pre-eviction) scale the merged union answers bit-identically
    // to the oracle that saw every tuple directly.
    assert_eq!(probe(&mut cagg), probe(&mut co));

    agg.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    oracle.shutdown();
}

#[test]
fn set_expression_queries_match_inclusion_exclusion() {
    let agg = start_aggregator(sketch_config(), "127.0.0.1:0").expect("aggregator");
    let agg_addr = agg.local_addr().to_string();

    let node_a = start(node_config(&agg_addr, "a"), "127.0.0.1:0").expect("node a");
    let node_b = start(node_config(&agg_addr, "b"), "127.0.0.1:0").expect("node b");

    // Deliberate overlap: A covers x ∈ [0, 600), B covers x ∈ [300, 900).
    let a: Vec<(u64, u64)> = (0..600).map(|x| (x, (x * 31) % (Y_MAX + 1))).collect();
    let b: Vec<(u64, u64)> = (300..900).map(|x| (x, (x * 31) % (Y_MAX + 1))).collect();

    let mut ca = ServeClient::connect(node_a.local_addr()).expect("connect a");
    let mut cb = ServeClient::connect(node_b.local_addr()).expect("connect b");
    ca.ingest(&a).expect("ingest a");
    cb.ingest(&b).expect("ingest b");
    ca.flush().expect("flush a");
    cb.flush().expect("flush b");
    sync_replication(&node_a);
    sync_replication(&node_b);

    // Per-stream F0 oracles: single servers holding exactly A, B, and A∪B.
    let only = |tuples: &[Vec<(u64, u64)>]| -> RunningServer {
        let server = start(sketch_config(), "127.0.0.1:0").expect("oracle");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        for t in tuples {
            client.ingest(t).expect("ingest");
        }
        client.flush().expect("flush");
        server
    };
    let oa = only(std::slice::from_ref(&a));
    let ob = only(std::slice::from_ref(&b));
    let ou = only(&[a, b]);

    let mut cagg = ServeClient::connect(agg.local_addr()).expect("connect agg");
    let f0_of = |server: &RunningServer, c: u64| -> f64 {
        let mut client = ServeClient::connect(server.local_addr()).expect("connect oracle");
        client.query_f0(c).expect("oracle f0")
    };
    for c in [Y_MAX / 3, Y_MAX] {
        let fa = f0_of(&oa, c);
        let fb = f0_of(&ob, c);
        let fu = f0_of(&ou, c);

        let union = cagg.set_f0("a", "b", SetOp::Union, c).expect("union");
        let intersect = cagg.set_f0("a", "b", SetOp::Intersect, c).expect("intersect");
        let diff = cagg.set_f0("a", "b", SetOp::Diff, c).expect("diff");

        // The union estimate IS the merged sketch's estimate — at this
        // pre-eviction scale bit-identical to the oracle; the others follow
        // inclusion–exclusion over the per-stream estimates, clamped at
        // zero.
        assert_eq!(union, fu, "c={c}");
        assert_eq!(intersect, (fa + fb - fu).max(0.0), "c={c}");
        assert_eq!(diff, (fa - (fa + fb - fu).max(0.0)).max(0.0), "c={c}");
        // Sanity on the semantics themselves, not just the arithmetic.
        assert!(intersect >= 0.0 && diff >= 0.0);
        assert!(union <= fa + fb + 1e-9);
    }

    // Unknown streams and bad ops are structured request errors.
    expect_request_error(
        cagg.set_f0("a", "nope", SetOp::Union, Y_MAX),
        "unknown stream",
    );

    agg.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    oa.shutdown();
    ob.shutdown();
    ou.shutdown();
}

// ---------------------------------------------------------------------------
// Link failure mid-delta
// ---------------------------------------------------------------------------

/// A byte-forwarding TCP proxy that deliberately drops its first `kills`
/// upstream connections after forwarding a token amount of traffic — the
/// replica link dies mid-frame, not at a tidy boundary.
fn lossy_proxy(target: String, kills: u32) -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let remaining = Arc::new(AtomicU32::new(kills));
    std::thread::spawn(move || {
        listener
            .set_nonblocking(true)
            .expect("nonblocking accept");
        while !stop_accept.load(Ordering::Relaxed) {
            let (client, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(_) => return,
            };
            let Ok(server) = TcpStream::connect(&target) else {
                continue;
            };
            // Kill this connection after ~256 forwarded upstream bytes —
            // inside the first delta frame, past the handshake.
            let cut_after = if remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                Some(256usize)
            } else {
                None
            };
            let pump = |mut from: TcpStream, mut to: TcpStream, budget: Option<usize>| {
                std::thread::spawn(move || {
                    let mut sent = 0usize;
                    let mut buf = [0u8; 512];
                    loop {
                        let n = match from.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => n,
                        };
                        if let Some(limit) = budget {
                            if sent + n > limit {
                                // Drop both directions: shutdown kills the
                                // paired pump's socket too.
                                let _ = from.shutdown(std::net::Shutdown::Both);
                                let _ = to.shutdown(std::net::Shutdown::Both);
                                break;
                            }
                        }
                        sent += n;
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            };
            let (c2, s2) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            pump(client, server, cut_after);
            pump(s2, c2, None);
        }
    });
    (addr, stop)
}

#[test]
fn link_kill_mid_delta_converges_bit_identically() {
    let agg = start_aggregator(sketch_config(), "127.0.0.1:0").expect("aggregator");
    let (proxy_addr, proxy_stop) = lossy_proxy(agg.local_addr().to_string(), 2);

    let node = start(node_config(&proxy_addr, "a"), "127.0.0.1:0").expect("node");
    let oracle = start(sketch_config(), "127.0.0.1:0").expect("oracle");
    let mut cn = ServeClient::connect(node.local_addr()).expect("connect node");
    let mut co = ServeClient::connect(oracle.local_addr()).expect("connect oracle");

    for round in 0..4 {
        let batch = tuples(round, 500);
        cn.ingest(&batch).expect("ingest");
        co.ingest(&batch).expect("oracle ingest");
    }
    cn.flush().expect("flush");
    co.flush().expect("oracle flush");

    // The first two replica connections die mid-frame; the replicator must
    // reconnect, resync the chain, and land on exactly the oracle's state.
    sync_replication(&node);

    let mut cagg = ServeClient::connect(agg.local_addr()).expect("connect agg");
    assert_eq!(probe(&mut cagg), probe(&mut co));

    // The aggregator survived the broken frames without inventing streams.
    assert_eq!(cagg.streams().expect("streams"), vec!["a".to_string()]);

    proxy_stop.store(true, Ordering::Relaxed);
    agg.shutdown();
    node.shutdown();
    oracle.shutdown();
}

// ---------------------------------------------------------------------------
// Warm standby
// ---------------------------------------------------------------------------

#[test]
fn warm_standby_seeds_from_durable_dir_and_resyncs_without_double_count() {
    let dir = temp_dir("standby");
    let durable = ServeConfig {
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            snapshot_every_tuples: 0,
            fsync_each_batch: true,
        }),
        ..sketch_config()
    };

    let batch = tuples(3, 800);
    let node = start(durable.clone(), "127.0.0.1:0").expect("durable node");
    let mut cn = ServeClient::connect(node.local_addr()).expect("connect");
    cn.ingest(&batch).expect("ingest");
    cn.flush().expect("flush");
    cn.snapshot_rotate().expect("rotate");
    cn.ingest(&tuples(4, 200)).expect("ingest tail");
    cn.flush().expect("flush tail");
    node.shutdown(); // upstream dies; its directory is all that survives

    // The aggregator warm-starts stream "a" from the dead upstream's
    // directory: newest snapshot plus journal tail, same recovery path the
    // node itself would take.
    let agg = start_aggregator_seeded(sketch_config(), "127.0.0.1:0", &[("a", dir.as_path())])
        .expect("seeded aggregator");
    let oracle = start(sketch_config(), "127.0.0.1:0").expect("oracle");
    let mut co = ServeClient::connect(oracle.local_addr()).expect("connect oracle");
    co.ingest(&batch).expect("oracle ingest");
    co.ingest(&tuples(4, 200)).expect("oracle tail");
    co.flush().expect("oracle flush");

    let mut cagg = ServeClient::connect(agg.local_addr()).expect("connect agg");
    assert_eq!(probe(&mut cagg), probe(&mut co));

    // The upstream comes back (restored from the same directory) and
    // reconnects. Its replicator must full-resync over the seeded state —
    // replacing it, not merging into it — so nothing is double counted.
    let revived = start(
        ServeConfig {
            replicate: Some(ReplicateConfig {
                interval_ms: 20,
                ..ReplicateConfig::new(agg.local_addr().to_string(), "a")
            }),
            ..durable
        },
        "127.0.0.1:0",
    )
    .expect("revived node");
    let mut cr = ServeClient::connect(revived.local_addr()).expect("connect revived");
    let extra = tuples(5, 300);
    cr.ingest(&extra).expect("ingest extra");
    cr.flush().expect("flush extra");
    sync_replication(&revived);

    co.ingest(&extra).expect("oracle extra");
    co.flush().expect("oracle flush");
    assert_eq!(probe(&mut cagg), probe(&mut co));

    agg.shutdown();
    revived.shutdown();
    oracle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeding_from_a_missing_directory_is_refused_and_creates_nothing() {
    let parent = temp_dir("missing-seed");
    let missing = parent.join("no-such-node");
    let seeded =
        start_aggregator_seeded(sketch_config(), "127.0.0.1:0", &[("a", missing.as_path())]);
    assert!(seeded.is_err(), "a missing seed directory was accepted");
    assert!(!missing.exists(), "seeding created {missing:?}");
    let _ = std::fs::remove_dir_all(&parent);
}

// ---------------------------------------------------------------------------
// Client connect timeout
// ---------------------------------------------------------------------------

#[test]
fn connect_timeout_fails_fast_on_unroutable_address() {
    // RFC 5737 TEST-NET-1 is unroutable on the open internet; without the
    // timeout the OS-level connect can take minutes to give up. Sandboxed
    // environments may intercept the connect and answer instantly — the
    // invariant under test is the time bound, which must hold either way.
    let started = Instant::now();
    let result = ServeClient::connect_binary_timeout("192.0.2.1:9", Duration::from_millis(250));
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "connect_timeout did not bound the connect: {elapsed:?}"
    );
    if result.is_ok() {
        eprintln!("note: network sandbox answered for TEST-NET-1; only the time bound was checked");
    }
}
