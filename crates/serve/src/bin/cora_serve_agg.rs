//! Standalone aggregator node: merges replicated streams from
//! `cora_serve_node --replicate-to` upstreams and answers queries over
//! their union, plus `set_f0` set-expression queries across streams.
//!
//! ```text
//! cora_serve_agg [--bind 127.0.0.1:0] [--auth-token TOKEN]
//!     [--seed NAME=DIR]...
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound, then
//! parks until the `shutdown` op arrives. The sketch configuration is the
//! same fixed one `cora_serve_node` uses — the replication handshake
//! refuses upstreams built from different parameters, so the two binaries
//! must stay in lockstep.
//!
//! Each `--seed NAME=DIR` pre-loads stream `NAME` from an upstream's
//! durable directory (newest snapshot plus journal replay) before the
//! listener opens — warm standby for a dead upstream.

use cora_serve::cluster::start_aggregator_seeded;
use cora_serve::server::ServeConfig;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(detail: &str) -> ExitCode {
    eprintln!("error: {detail}");
    eprintln!("usage: cora_serve_agg [--bind ADDR] [--auth-token TOKEN] [--seed NAME=DIR]...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut bind = "127.0.0.1:0".to_string();
    let mut auth_token: Option<String> = None;
    let mut seeds: Vec<(String, PathBuf)> = Vec::new();

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
            "--auth-token" => match value("--auth-token") {
                Ok(v) => auth_token = Some(v),
                Err(e) => return usage(&e),
            },
            "--seed" => match value("--seed") {
                Ok(v) => match v.split_once('=') {
                    Some((name, dir)) if !name.is_empty() && !dir.is_empty() => {
                        seeds.push((name.to_string(), PathBuf::from(dir)));
                    }
                    _ => return usage("--seed takes NAME=DIR"),
                },
                Err(e) => return usage(&e),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    // The same fixed parameters as cora_serve_node: the replication
    // fingerprint covers them, so a mismatch here would refuse every
    // upstream at the handshake.
    let config = ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: 4095,
        max_stream_len: 1_000_000,
        seed: 7,
        shards: 2,
        x_domain_log2: 16,
        pane_ticks: 256,
        auth_token,
        ..ServeConfig::default()
    };

    let seed_refs: Vec<(&str, &std::path::Path)> = seeds
        .iter()
        .map(|(name, dir)| (name.as_str(), dir.as_path()))
        .collect();
    let server = match start_aggregator_seeded(config, &bind, &seed_refs) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    server.shutdown();
    ExitCode::SUCCESS
}
