//! Standalone durable serve node — the process the crash-recovery tests
//! `SIGKILL` and restart.
//!
//! ```text
//! cora_serve_node --dir /var/lib/cora [--bind 127.0.0.1:0]
//!     [--snap-tuples N] [--snap-ms MS] [--no-fsync]
//!     [--replicate-to ADDR --stream NAME [--repl-interval-ms MS]]
//!     [--auth-token TOKEN]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound (the test
//! harness parses this to learn the OS-chosen port), then parks until the
//! `shutdown` op arrives. The serve configuration is fixed — both sides of
//! a kill/restart cycle must build identical sketches, and a config plus a
//! durable directory fully determines a server.
//!
//! With `--replicate-to`, the node ships its acked batches (after a first
//! full snapshot) to an aggregator (`cora_serve_agg`) under the given
//! stream name.
//! `--auth-token` both requires the token from this node's clients and
//! presents it to the aggregator.

use cora_serve::server::{start, DurabilityConfig, ReplicateConfig, ServeConfig};
use std::io::Write;
use std::process::ExitCode;

fn usage(detail: &str) -> ExitCode {
    eprintln!("error: {detail}");
    eprintln!(
        "usage: cora_serve_node --dir DIR [--bind ADDR] [--snap-tuples N] \
         [--snap-ms MS] [--no-fsync] [--replicate-to ADDR --stream NAME \
         [--repl-interval-ms MS]] [--auth-token TOKEN]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut bind = "127.0.0.1:0".to_string();
    let mut dir: Option<String> = None;
    let mut snap_tuples: u64 = 200_000;
    let mut snap_ms: u64 = 0;
    let mut fsync = true;
    let mut replicate_to: Option<String> = None;
    let mut stream: Option<String> = None;
    let mut repl_interval_ms: u64 = 200;
    let mut auth_token: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--bind" => match value("--bind") {
                Ok(v) => bind = v,
                Err(e) => return usage(&e),
            },
            "--dir" => match value("--dir") {
                Ok(v) => dir = Some(v),
                Err(e) => return usage(&e),
            },
            "--snap-tuples" => match value("--snap-tuples").map(|v| v.parse()) {
                Ok(Ok(v)) => snap_tuples = v,
                _ => return usage("--snap-tuples requires an unsigned integer"),
            },
            "--snap-ms" => match value("--snap-ms").map(|v| v.parse()) {
                Ok(Ok(v)) => snap_ms = v,
                _ => return usage("--snap-ms requires an unsigned integer"),
            },
            "--no-fsync" => fsync = false,
            "--replicate-to" => match value("--replicate-to") {
                Ok(v) => replicate_to = Some(v),
                Err(e) => return usage(&e),
            },
            "--stream" => match value("--stream") {
                Ok(v) => stream = Some(v),
                Err(e) => return usage(&e),
            },
            "--repl-interval-ms" => match value("--repl-interval-ms").map(|v| v.parse()) {
                Ok(Ok(v)) => repl_interval_ms = v,
                _ => return usage("--repl-interval-ms requires an unsigned integer"),
            },
            "--auth-token" => match value("--auth-token") {
                Ok(v) => auth_token = Some(v),
                Err(e) => return usage(&e),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(dir) = dir else {
        return usage("--dir is required");
    };
    let replicate = match (replicate_to, stream) {
        (Some(target), Some(stream)) => Some(ReplicateConfig {
            interval_ms: repl_interval_ms,
            auth_token: auth_token.clone(),
            ..ReplicateConfig::new(target, stream)
        }),
        (None, None) => None,
        _ => return usage("--replicate-to and --stream must be given together"),
    };

    let config = ServeConfig {
        // Fixed small-but-real sketch parameters: restarts must rebuild the
        // exact same structures the journal and snapshots were taken under.
        epsilon: 0.25,
        delta: 0.1,
        y_max: 4095,
        max_stream_len: 1_000_000,
        seed: 7,
        shards: 2,
        x_domain_log2: 16,
        pane_ticks: 256,
        durability: Some(DurabilityConfig {
            dir: dir.into(),
            snapshot_every_tuples: snap_tuples,
            snapshot_interval_ms: snap_ms,
            fsync_each_batch: fsync,
        }),
        auth_token,
        replicate,
        ..ServeConfig::default()
    };

    let server = match start(config, &bind) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.local_addr());
    // The harness reads the line immediately; without the flush it can sit
    // in the stdout buffer forever (and a SIGKILL would discard it).
    let _ = std::io::stdout().flush();
    server.wait();
    server.shutdown();
    ExitCode::SUCCESS
}
