//! Process-level crash recovery: a real `cora_serve_node` child gets
//! `SIGKILL`ed mid-pipelined-train and restarted on the same durable
//! directory. The [`RetryingClient`] must report the broken connection,
//! reconnect, and replay its unsynced sequence-tagged batches — after which
//! the recovered server holds **exactly** the batches the client sent: none
//! lost (the journal keeps everything acked), none duplicated (the server's
//! per-writer sequence map absorbs the blanket resend).
//!
//! The oracle is an in-process server with the node's fixed sketch
//! configuration fed the same batches uninterrupted.

use cora_serve::client::{ClientError, ServeClient};
use cora_serve::retry::{RetryPolicy, RetryingClient};
use cora_serve::server::{start, ServeConfig};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The fixed configuration `cora_serve_node` serves under (both sides of a
/// kill/restart cycle must agree on it; see the binary's docs).
fn node_config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: 4095,
        max_stream_len: 1_000_000,
        seed: 7,
        shards: 2,
        x_domain_log2: 16,
        pane_ticks: 256,
        ..ServeConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cora_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawn the durable node on `dir` and block until it prints its address.
fn spawn_node(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cora_serve_node"))
        .args(["--dir", dir.to_str().unwrap(), "--bind", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn cora_serve_node");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    (child, addr)
}

fn batch(lo: u64, n: u64) -> Vec<(u64, u64)> {
    (lo..lo + n).map(|i| (i % 211, (i * 13) % 4096)).collect()
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
        connect_timeout: Duration::from_secs(5),
    }
}

#[test]
fn sigkill_mid_train_loses_nothing_and_duplicates_nothing() {
    let dir = temp_dir("mid_train");
    let (mut child, addr) = spawn_node(&dir);
    let reference = start(node_config(), "127.0.0.1:0").unwrap();
    let mut oracle = ServeClient::connect_binary(reference.local_addr()).unwrap();

    let mut client = RetryingClient::connect_with(&addr, 1, fast_policy()).unwrap();
    let mut sent = Vec::new();

    // First train: pipelined, then synced — every batch is acked-durable.
    for i in 0..5u64 {
        let b = batch(i * 100, 100);
        client.ingest_noack(&b).unwrap();
        sent.push(b);
    }
    client.sync().unwrap();
    assert_eq!(client.pending_batches(), 0);

    // Second train: pipelined but NOT synced, then SIGKILL mid-flight. The
    // server may have journaled any prefix of it — the client cannot know.
    for i in 5..10u64 {
        let b = batch(i * 100, 100);
        client.ingest_noack(&b).unwrap();
        sent.push(b);
    }
    child.kill().expect("SIGKILL the node");
    child.wait().expect("reap the node");

    // With the server gone, sync must report the broken connection (an
    // Io/Timeout-class error), keeping the unsynced batches buffered.
    let err = client.sync().expect_err("sync against a dead server");
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Timeout(_)),
        "expected a connection error, got {err:?}"
    );
    assert_eq!(client.pending_batches(), 5);

    // Restart on the same directory; the client re-targets, reconnects, and
    // replays the whole unsynced train.
    let (restarted, new_addr) = spawn_node(&dir);
    client.set_target(&new_addr);
    let resent = client.sync().expect("sync after restart");
    assert_eq!(resent, 5, "the whole unsynced train is replayed");
    assert_eq!(client.pending_batches(), 0);

    // Exactly-once: the recovered server answers bit-identically to the
    // uninterrupted oracle over the full send history.
    for b in &sent {
        oracle.ingest(b).unwrap();
    }
    client.flush().unwrap();
    oracle.flush().unwrap();
    let total: u64 = sent.iter().map(|b| b.len() as u64).sum();
    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("items_accepted").unwrap(), total, "lost or duplicated tuples");
    assert_eq!(stats.u64_field("durable").unwrap(), 1);
    for c in [0, 64, 512, 4095] {
        assert_eq!(
            client.query_f2(c).unwrap().to_bits(),
            oracle.query_f2(c).unwrap().to_bits(),
            "f2@{c} diverges after recovery"
        );
    }

    client.shutdown_server().ok();
    let _ = restarted.wait_with_output();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A double-resend cannot double-count: replaying an already-synced train
/// (as a reconnecting client with stale state would) yields duplicate acks,
/// not inflated aggregates.
#[test]
fn replayed_acked_batches_are_deduplicated_across_restart() {
    let dir = temp_dir("dedupe");
    let (mut child, addr) = spawn_node(&dir);

    let mut client = ServeClient::connect_binary(&*addr).unwrap();
    let b = batch(0, 80);
    assert_eq!(client.ingest_seq(&b, Some((9, 1))).unwrap(), 80);
    assert_eq!(client.ingest_seq(&b, Some((9, 1))).unwrap(), 0, "duplicate applied twice");
    let before = {
        client.flush().unwrap();
        client.stats().unwrap().u64_field("items_accepted").unwrap()
    };
    assert_eq!(before, 80);

    child.kill().expect("SIGKILL the node");
    child.wait().expect("reap the node");

    // The sequence map survives the crash (it is journaled with the
    // batches): the same replay after restart is still a duplicate.
    let (restarted, new_addr) = spawn_node(&dir);
    let mut client = ServeClient::connect_binary(&*new_addr).unwrap();
    assert_eq!(client.ingest_seq(&b, Some((9, 1))).unwrap(), 0, "dedupe lost across restart");
    client.flush().unwrap();
    let after = client.stats().unwrap().u64_field("items_accepted").unwrap();
    assert_eq!(after, 80);

    client.shutdown_server().ok();
    let _ = restarted.wait_with_output();
    let _ = std::fs::remove_dir_all(&dir);
}
