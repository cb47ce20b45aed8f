//! Deterministic fault-injection tests for the durability layer.
//!
//! Every test runs a real server over a [`FaultyStorage`] whose counted
//! triggers fail exact operations — the Nth journal append (optionally
//! tearing the record first), the Nth snapshot publish, every snapshot
//! read — and then asserts *specific* recovery outcomes: structured `io`
//! errors on both transports, a poisoned journal healed by rotation,
//! valid-prefix replay past a torn tail, and fallback to the previous
//! snapshot generation. The oracle throughout is an uninterrupted
//! in-memory server fed the same acked batches: recovery must answer
//! bit-identically to it.

use cora_serve::client::{ClientError, ServeClient};
use cora_serve::protocol::Response;
use cora_serve::server::{start, start_with_storage, DurabilityConfig, ServeConfig};
use cora_serve::{DiskStorage, FaultPlan, FaultyStorage};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn sketch_config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: 1023,
        max_stream_len: 100_000,
        seed: 11,
        shards: 2,
        x_domain_log2: 16,
        pane_ticks: 64,
        ..ServeConfig::default()
    }
}

/// The durable variant: same sketches, journal in `dir`, automatic
/// triggers off so every rotation in a test is an explicit `snapshot` op.
fn durable_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            snapshot_every_tuples: 0,
            fsync_each_batch: true,
        }),
        ..sketch_config()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cora_fault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn faulty() -> Arc<FaultyStorage> {
    Arc::new(FaultyStorage::new(Arc::new(DiskStorage)))
}

fn batch(lo: u64, n: u64) -> Vec<(u64, u64)> {
    (lo..lo + n).map(|i| (i % 97, (i * 7) % 1024)).collect()
}

/// Assert `err` is a structured server-side `io` error.
fn assert_io_error(err: ClientError, context: &str) {
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "io", "{context}: wrong kind in {e}");
            assert!(e.message.contains("injected fault"), "{context}: {e}");
        }
        other => panic!("{context}: expected a server io error, got {other:?}"),
    }
}

/// Every f2/f0/rarity answer of `a` must equal `b`'s bit-for-bit.
fn assert_same_answers(a: &mut ServeClient, b: &mut ServeClient) {
    a.flush().unwrap();
    b.flush().unwrap();
    for c in [0, 1, 100, 500, 1023] {
        assert_eq!(a.query_f2(c).unwrap().to_bits(), b.query_f2(c).unwrap().to_bits(), "f2@{c}");
        assert_eq!(a.query_f0(c).unwrap().to_bits(), b.query_f0(c).unwrap().to_bits(), "f0@{c}");
        assert_eq!(
            a.query_rarity(c).unwrap().to_bits(),
            b.query_rarity(c).unwrap().to_bits(),
            "rarity@{c}"
        );
    }
    let ia = a.stats().unwrap().u64_field("items_accepted").unwrap();
    let ib = b.stats().unwrap().u64_field("items_accepted").unwrap();
    assert_eq!(ia, ib, "accepted item counts diverge");
}

#[test]
fn append_failure_is_a_structured_io_error_and_rotation_heals() {
    let dir = temp_dir("append_fail");
    let storage = faulty();
    let server = start_with_storage(durable_config(&dir), "127.0.0.1:0", storage.clone()).unwrap();
    let mut bin = ServeClient::connect_binary(server.local_addr()).unwrap();
    let mut json = ServeClient::connect(server.local_addr()).unwrap();

    assert_eq!(bin.ingest(&batch(0, 50)).unwrap(), 50);

    // The next journal append fails: the batch must be refused with an `io`
    // error, not applied, and the journal poisoned.
    storage.set_plan(FaultPlan { fail_append_at: Some(1), ..FaultPlan::default() });
    assert_io_error(bin.ingest(&batch(50, 50)).unwrap_err(), "binary ingest");
    storage.clear();

    let stats = bin.stats().unwrap();
    assert_eq!(stats.u64_field("journal_poisoned").unwrap(), 1);
    assert_eq!(stats.u64_field("items_accepted").unwrap(), 50);

    // Poisoned journal: even fault-free appends are refused until a
    // rotation replaces the file (no silent gap in the journal).
    match bin.ingest(&batch(50, 50)).unwrap_err() {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "io");
            assert!(e.message.contains("poisoned"), "{e}");
        }
        other => panic!("expected poisoned-journal error, got {other:?}"),
    }

    let generation = bin.snapshot_rotate().unwrap();
    assert!(generation >= 1);
    let stats = bin.stats().unwrap();
    assert_eq!(stats.u64_field("journal_poisoned").unwrap(), 0);

    // Same failure over the JSON transport: identical structured error.
    storage.set_plan(FaultPlan { fail_append_at: Some(1), ..FaultPlan::default() });
    assert_io_error(json.ingest(&batch(50, 50)).unwrap_err(), "json ingest");
    storage.clear();
    bin.snapshot_rotate().unwrap();

    assert_eq!(bin.ingest(&batch(50, 50)).unwrap(), 50);

    drop(bin);
    drop(json);
    server.shutdown();

    // Restart: exactly the acked batches survive.
    let reference = start(sketch_config(), "127.0.0.1:0").unwrap();
    let mut oracle = ServeClient::connect_binary(reference.local_addr()).unwrap();
    oracle.ingest(&batch(0, 50)).unwrap();
    oracle.ingest(&batch(50, 50)).unwrap();
    let restarted = start(durable_config(&dir), "127.0.0.1:0").unwrap();
    let mut recovered = ServeClient::connect_binary(restarted.local_addr()).unwrap();
    assert_same_answers(&mut recovered, &mut oracle);

    restarted.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_dropped_on_recovery() {
    let dir = temp_dir("torn_tail");
    let storage = faulty();
    let server = start_with_storage(durable_config(&dir), "127.0.0.1:0", storage.clone()).unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    for i in 0..3 {
        client.ingest(&batch(i * 40, 40)).unwrap();
    }

    // The fourth batch tears mid-record — a crash inside `write(2)`. The
    // client sees an error, so the batch was never acked.
    storage.set_plan(FaultPlan {
        fail_append_at: Some(1),
        torn_append: true,
        ..FaultPlan::default()
    });
    assert_io_error(client.ingest(&batch(120, 40)).unwrap_err(), "torn ingest");
    storage.clear();
    drop(client);
    server.shutdown();

    // Recovery replays the valid prefix: three batches, no partial fourth.
    let reference = start(sketch_config(), "127.0.0.1:0").unwrap();
    let mut oracle = ServeClient::connect_binary(reference.local_addr()).unwrap();
    for i in 0..3 {
        oracle.ingest(&batch(i * 40, 40)).unwrap();
    }
    let restarted = start(durable_config(&dir), "127.0.0.1:0").unwrap();
    let mut recovered = ServeClient::connect_binary(restarted.local_addr()).unwrap();
    assert_same_answers(&mut recovered, &mut oracle);

    restarted.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_publish_failure_is_reported_and_server_continues() {
    let dir = temp_dir("snap_fail");
    let storage = faulty();
    let server = start_with_storage(durable_config(&dir), "127.0.0.1:0", storage.clone()).unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    client.ingest(&batch(0, 60)).unwrap();

    storage.set_plan(FaultPlan { fail_write_atomic_at: Some(1), ..FaultPlan::default() });
    assert_io_error(client.snapshot_rotate().unwrap_err(), "snapshot rotation");
    storage.clear();

    // The failed rotation is counted, the journal is intact, and a retry
    // succeeds.
    let stats = client.stats().unwrap();
    assert!(stats.u64_field("snapshot_errors").unwrap() >= 1);
    assert_eq!(stats.u64_field("journal_poisoned").unwrap(), 0);
    client.ingest(&batch(60, 60)).unwrap();
    let generation = client.snapshot_rotate().unwrap();
    assert!(generation >= 1);

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery falls back past an unreadable newest snapshot (modeled by a
/// short read) to the previous generation, and the journal chain replays
/// the difference — answers stay bit-identical.
#[test]
fn short_read_snapshot_falls_back_to_previous_generation() {
    let dir = temp_dir("short_read");
    let reference = start(sketch_config(), "127.0.0.1:0").unwrap();
    let mut oracle = ServeClient::connect_binary(reference.local_addr()).unwrap();
    {
        let server = start(durable_config(&dir), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
        for i in 0..2 {
            client.ingest(&batch(i * 30, 30)).unwrap();
            oracle.ingest(&batch(i * 30, 30)).unwrap();
        }
        let first = client.snapshot_rotate().unwrap();
        client.ingest(&batch(60, 30)).unwrap();
        oracle.ingest(&batch(60, 30)).unwrap();
        let second = client.snapshot_rotate().unwrap();
        assert!(second > first);
        client.ingest(&batch(90, 30)).unwrap();
        oracle.ingest(&batch(90, 30)).unwrap();
        drop(client);
        server.shutdown();
    }

    // Every read of the newest snapshot comes back truncated; older
    // generations read fine. Recovery must not refuse — the previous
    // snapshot plus the journals at and above its generation reconstruct
    // everything.
    let storage = faulty();
    let newest = {
        let mut gens: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("snap-")?.strip_suffix(".csrv")?.parse().ok()
            })
            .collect();
        gens.sort_unstable();
        *gens.last().expect("at least one snapshot on disk")
    };
    storage.set_plan(FaultPlan {
        short_read: Some((format!("snap-{newest}"), 16)),
        ..FaultPlan::default()
    });
    let restarted =
        start_with_storage(durable_config(&dir), "127.0.0.1:0", storage.clone()).unwrap();
    let mut recovered = ServeClient::connect_binary(restarted.local_addr()).unwrap();
    assert_same_answers(&mut recovered, &mut oracle);

    restarted.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole property end to end: kill nothing, inject nothing — just
/// restart — and the recovered server answers every query bit-identically
/// to an uninterrupted reference, including heavy hitters and windowed
/// state carried through snapshot + journal replay.
#[test]
fn recovery_is_bit_identical_to_uninterrupted_reference() {
    let dir = temp_dir("bit_identical");
    let reference = start(sketch_config(), "127.0.0.1:0").unwrap();
    let mut oracle = ServeClient::connect_binary(reference.local_addr()).unwrap();
    {
        let server = start(durable_config(&dir), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
        for i in 0..8 {
            client.ingest(&batch(i * 25, 25)).unwrap();
            oracle.ingest(&batch(i * 25, 25)).unwrap();
            if i == 3 {
                client.snapshot_rotate().unwrap();
            }
        }
        drop(client);
        server.shutdown();
    }

    let restarted = start(durable_config(&dir), "127.0.0.1:0").unwrap();
    let mut recovered = ServeClient::connect_binary(restarted.local_addr()).unwrap();
    assert_same_answers(&mut recovered, &mut oracle);
    let hh_a = recovered.query_heavy_hitters(100, 0.05).unwrap();
    let hh_b = oracle.query_heavy_hitters(100, 0.05).unwrap();
    assert_eq!(hh_a.len(), hh_b.len(), "heavy-hitter reports diverge");

    // The recovered server is fully live: it keeps accepting and stays
    // durable across yet another restart.
    assert_eq!(recovered.ingest(&batch(200, 25)).unwrap(), 25);
    oracle.ingest(&batch(200, 25)).unwrap();
    drop(recovered);
    restarted.shutdown();
    let second = start(durable_config(&dir), "127.0.0.1:0").unwrap();
    let mut recovered = ServeClient::connect_binary(second.local_addr()).unwrap();
    assert_same_answers(&mut recovered, &mut oracle);

    second.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable directory whose newest journal is `newest`: one acked batch in
/// journal 0 (restored through snapshot 0), then `newest` written as
/// `journal-1.cjl` as a crash or a foreign build would leave it. Returns
/// the outcome of starting durably on it.
fn start_over_newest_journal(tag: &str, newest: &[u8]) -> Result<(), String> {
    let dir = temp_dir(tag);
    {
        let server = start(durable_config(&dir), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
        client.ingest(&batch(0, 20)).unwrap();
        drop(client);
        server.shutdown();
    }
    std::fs::write(dir.join("journal-1.cjl"), newest).unwrap();
    let outcome = start(durable_config(&dir), "127.0.0.1:0").map(|s| s.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map_err(|e| e.to_string())
}

/// A journal header (`CJRN`, version, generation) followed by a few bytes
/// of a record.
fn journal_header(version: u16, generation: u64) -> Vec<u8> {
    let mut bytes = cora_serve::journal::JOURNAL_MAGIC.to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes.extend_from_slice(&[21, 0, 0, 0, 0, 1, 0]);
    bytes
}

/// Only a newest journal torn inside its header (a crash inside
/// `JournalWriter::create`) may be skipped: one whose complete header names
/// another format version could hold acked batches this build cannot read,
/// so the start is refused and names the version.
#[test]
fn a_newest_journal_of_another_version_refuses_to_start() {
    assert_eq!(start_over_newest_journal("newest_torn", b"CJRN\x01"), Ok(()));
    assert_eq!(start_over_newest_journal("newest_magic", b"XXXXXXXXXXXXXXXXXX"), Ok(()));
    let refused = start_over_newest_journal("newest_version", &journal_header(2, 1))
        .expect_err("a newest journal of version 2 must refuse the start");
    assert!(refused.contains("journal version 2"), "{refused}");
}

/// The same for a newest journal whose complete header names another
/// generation than its file name: its records are not this generation's.
#[test]
fn a_newest_journal_of_another_generation_refuses_to_start() {
    let refused = start_over_newest_journal("newest_generation", &journal_header(1, 7))
        .expect_err("a mislabeled newest journal must refuse the start");
    assert!(refused.contains("header generation 7"), "{refused}");
}

/// Snapshot and journal generations on disk, both ascending.
fn generations_on_disk(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let (mut snaps, mut journals) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let generation = |prefix: &str, suffix: &str| -> Option<u64> {
            name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
        };
        snaps.extend(generation("snap-", ".csrv"));
        journals.extend(generation("journal-", ".cjl"));
    }
    snaps.sort_unstable();
    journals.sort_unstable();
    (snaps, journals)
}

/// The f2, f0, rarity and window_f2 answers over a spread of thresholds,
/// as bits, after a flush.
fn answer_bits(client: &mut ServeClient) -> Vec<u64> {
    client.flush().unwrap();
    let mut bits = Vec::new();
    for c in [0, 1, 100, 500, 1023] {
        bits.push(client.query_f2(c).unwrap().to_bits());
        bits.push(client.query_f0(c).unwrap().to_bits());
        bits.push(client.query_rarity(c).unwrap().to_bits());
        let window = client.query_window_f2(256, c).unwrap();
        bits.extend([window.value.to_bits(), window.resolved_lo, window.resolved_hi]);
    }
    bits
}

/// The tuple trigger end to end: the ingest that brings the journaled tuples
/// to 2 000 rotates before its ack, every rotation prunes the directory down
/// to the newest generation and one fallback, the ingest whose append
/// poisons the journal rotates it out with no `snapshot` op, and a restart
/// on the directory answers bit-identically.
#[test]
fn tuple_triggered_rotation_prunes_heals_and_recovers() {
    let dir = temp_dir("tuple_trigger");
    let config = ServeConfig {
        durability: Some(DurabilityConfig {
            dir: dir.clone(),
            snapshot_every_tuples: 2_000,
            fsync_each_batch: true,
        }),
        ..sketch_config()
    };
    let storage = faulty();
    let server = start_with_storage(config.clone(), "127.0.0.1:0", storage.clone()).unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    let auto_snapshots = |stats: &Response| stats.u64_field("auto_snapshots").unwrap();
    // 6k tuples in 1k batches; every second ack comes after its rotation.
    for round in 1..=3 {
        for i in 0..2 {
            assert_eq!(client.ingest(&batch((2 * round + i) * 1_000, 1_000)).unwrap(), 1_000);
        }
        assert_eq!(auto_snapshots(&client.stats().unwrap()), round);
    }
    // Generation 0 was published at start; three rotations later only the
    // newest generation and its fallback are left.
    assert_eq!(generations_on_disk(&dir), (vec![2, 3], vec![2, 3]));

    // A failed append poisons the journal, and the same ingest rotates it
    // out before its `io` error.
    storage.set_plan(FaultPlan { fail_append_at: Some(1), ..FaultPlan::default() });
    assert_io_error(client.ingest(&batch(8_000, 1_000)).unwrap_err(), "poisoning ingest");
    storage.clear();
    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("journal_poisoned").unwrap(), 0);
    assert_eq!(auto_snapshots(&stats), 4);
    assert_eq!(client.ingest(&batch(9_000, 1_000)).unwrap(), 1_000);
    let before = answer_bits(&mut client);
    drop(client);
    server.shutdown();

    let restarted = start(config, "127.0.0.1:0").unwrap();
    let mut recovered = ServeClient::connect_binary(restarted.local_addr()).unwrap();
    assert_eq!(answer_bits(&mut recovered), before);
    assert_eq!(recovered.stats().unwrap().u64_field("items_accepted").unwrap(), 7_000);
    drop(recovered);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
