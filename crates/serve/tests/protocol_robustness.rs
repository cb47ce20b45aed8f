//! Fuzz-ish robustness tests for both wire protocols, plus the
//! pipelined-ingest equivalence property.
//!
//! The contract under test: whatever bytes a client sends — random garbage,
//! truncated frames, lying length prefixes, unknown opcodes — the server
//! never panics or wedges, keeps already-open connections working, and
//! keeps accepting new ones. And the binary transport is *semantically
//! invisible*: N pipelined no-ack batches produce bit-identical answers to
//! the same batches ingested sequentially over JSON.

use cora_serve::client::{ClientError, ServeClient};
use cora_serve::protocol::{Request, Response};
use cora_serve::server::{start, RunningServer, ServeConfig};
use cora_serve::wire;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig {
        epsilon: 0.25,
        delta: 0.1,
        y_max: 1023,
        max_stream_len: 100_000,
        seed: 11,
        shards: 2,
        phi: 0.1,
        x_domain_log2: 16,
        pane_ticks: 64,
        pane_k: 4,
        pane_retention: None,
        max_connections: 1_024,
        durability: None,
        auth_token: None,
        replicate: None,
    }
}

/// A raw socket with a read timeout, so a wedged server fails the test
/// instead of hanging it.
fn connect_raw(server: &RunningServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// A `REQUEST` frame carrying `request`'s JSON line.
fn request_frame(request: &Request) -> Vec<u8> {
    wire::frame(wire::REQUEST, 0, request.encode().as_bytes())
}

/// Read one reply frame off a raw socket: its header and its JSON reply.
fn read_reply_frame(stream: &mut TcpStream) -> (wire::Header, Response) {
    let mut header = [0u8; wire::HEADER_BYTES];
    stream.read_exact(&mut header).expect("reply frame header");
    let header = wire::parse_header(&header).expect("valid reply header");
    let mut payload = vec![0u8; header.len];
    stream.read_exact(&mut payload).expect("reply frame payload");
    let line = std::str::from_utf8(&payload).expect("a UTF-8 reply");
    (header, Response::parse(line).expect("a JSON reply"))
}

/// Write `bytes`, half-close, and drain whatever the server answers. The
/// content is irrelevant — the property is that this returns (the server
/// closed the connection or answered) instead of panicking or hanging.
fn poke(server: &RunningServer, bytes: &[u8]) {
    let mut stream = connect_raw(server);
    // The server may close mid-write on garbage; broken pipes are expected.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
}

/// The liveness probe run after every hostile connection: a fresh client
/// must still be able to ingest and query.
fn assert_server_alive(server: &RunningServer) {
    let mut client = ServeClient::connect(server.local_addr()).expect("connect after garbage");
    client.ping().expect("ping after garbage");
    assert_eq!(client.ingest(&[(1, 1)]).expect("ingest after garbage"), 1);
    let mut binary =
        ServeClient::connect_binary(server.local_addr()).expect("binary connect after garbage");
    assert!(binary.query_f2(1023).expect("query after garbage") >= 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn random_garbage_never_kills_the_server(
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 8..13),
    ) {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        for blob in &blobs {
            poke(&server, blob);
        }
        // Garbage that happens to start with the magic byte exercises the
        // binary header validation; force a few of those too.
        for blob in &blobs {
            let mut framed = vec![wire::MAGIC];
            framed.extend_from_slice(blob);
            poke(&server, &framed);
        }
        assert_server_alive(&server);
        server.shutdown();
    }

    #[test]
    fn truncated_frames_never_kill_the_server(
        cuts in prop::collection::vec(any::<u16>(), 6..10),
    ) {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        let tuples: Vec<(u64, u64)> = (0..50).map(|i| (i, i % 1024)).collect();
        let frames = [
            wire::encode_ingest(&tuples, None, None, 0),
            wire::encode_ingest(&tuples, None, Some((1, 1)), wire::FLAG_NO_ACK),
            request_frame(&Request::QueryHeavyHitters { c: 10, phi: 0.5 }),
            request_frame(&Request::Snapshot { path: "/tmp/never-written.snap".to_string() }),
            wire::encode_repl_delta("node-a", &[1, 2, 3]),
        ];
        for (i, &cut) in cuts.iter().enumerate() {
            let frame = &frames[i % frames.len()];
            let cut = cut as usize % frame.len();
            poke(&server, &frame[..cut]);
        }
        assert_server_alive(&server);
        server.shutdown();
    }
}

#[test]
fn oversized_declared_length_is_rejected_before_buffering() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut stream = connect_raw(&server);
    // A well-formed header whose length field exceeds the frame cap. The
    // server must answer with an error frame and close — without ever
    // allocating or waiting for the phantom gigabyte.
    let mut header = vec![wire::MAGIC, wire::VERSION, wire::REQUEST, 0];
    header.extend_from_slice(&(u32::MAX).to_le_bytes());
    stream.write_all(&header).unwrap();
    let (_, reply) = read_reply_frame(&mut stream);
    let message = reply.error_message().expect("an error reply");
    assert!(message.contains("cap"), "unexpected message: {message}");
    assert_eq!(reply.error_kind().as_deref(), Some("request"));
    // The connection is closed after a framing-level failure.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection should be closed after a bad header");
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_opcode_keeps_the_connection_usable() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut stream = connect_raw(&server);
    // Unknown opcode in a well-formed frame: an error reply, and the same
    // connection must keep answering well-formed requests.
    let mut bad = vec![wire::MAGIC, wire::VERSION, 0x7F, 0];
    bad.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&bad).unwrap();
    let (header, reply) = read_reply_frame(&mut stream);
    assert_eq!(header.opcode, 0x7F);
    assert_eq!(reply.error_kind().as_deref(), Some("request"));

    // Now a valid ping on the *same* connection.
    stream.write_all(&request_frame(&Request::Ping)).unwrap();
    let (header, reply) = read_reply_frame(&mut stream);
    assert_eq!(header.opcode, wire::REQUEST);
    assert!(reply.is_ok());
    server.shutdown();
}

/// A `REQUEST` frame whose payload is not UTF-8, not a JSON request, or
/// names `repl_delta` (whose container only its own frame carries) gets a
/// `request` error, and the connection keeps answering.
#[test]
fn an_unreadable_request_frame_keeps_the_connection_usable() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut stream = connect_raw(&server);
    let repl_delta = br#"{"op":"repl_delta","stream":"a"}"#;
    let bodies: [&[u8]; 3] = [&[0xFF, 0xFE, b'{'], b"not json", repl_delta];
    for body in bodies {
        stream.write_all(&wire::frame(wire::REQUEST, 0, body)).unwrap();
        let (header, reply) = read_reply_frame(&mut stream);
        assert_eq!(header.opcode, wire::REQUEST);
        assert_eq!(reply.error_kind().as_deref(), Some("request"), "{body:?}");
        stream.write_all(&request_frame(&Request::QueryF0 { c: 1023 })).unwrap();
        let (_, reply) = read_reply_frame(&mut stream);
        assert_eq!(reply.f64_field("value").unwrap(), 0.0, "{body:?}");
    }
    server.shutdown();
}

#[test]
fn first_byte_sniffing_routes_whitespace_json_and_rejects_junk() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();

    // Leading whitespace before a JSON request is tolerated by the sniffer.
    let mut stream = connect_raw(&server);
    stream.write_all(b"  \t {\"op\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");

    // A first byte that is neither whitespace, '{', nor the magic gets one
    // JSON error line, then the connection closes.
    let mut stream = connect_raw(&server);
    stream.write_all(b"[1,2,3]\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "got: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection stays open");

    // A garbage JSON line gets an error response and the connection lives.
    let mut stream = connect_raw(&server);
    stream.write_all(b"{\"op\":\"nonsense\"}\n{\"op\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "got: {line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");
    server.shutdown();
}

/// The headline equivalence property: N pipelined no-ack binary batches ≡
/// the same N batches ingested sequentially over JSON, down to the last
/// bit, observed through both transports.
#[test]
fn pipelined_binary_ingest_matches_sequential_json() {
    let json_server = start(test_config(), "127.0.0.1:0").unwrap();
    let binary_server = start(test_config(), "127.0.0.1:0").unwrap();

    let tuples: Vec<(u64, u64)> = (0..12_000u64)
        .map(|i| ((i * 7) % 900, (i * 131) % 1024))
        .collect();

    let mut json_client = ServeClient::connect(json_server.local_addr()).unwrap();
    for chunk in tuples.chunks(500) {
        assert_eq!(json_client.ingest(chunk).unwrap(), chunk.len() as u64);
    }
    json_client.flush().unwrap();

    let mut binary_client = ServeClient::connect_binary(binary_server.local_addr()).unwrap();
    assert!(binary_client.is_binary());
    binary_client.ingest_pipelined(&tuples, 500).unwrap();
    binary_client.flush().unwrap();

    let thresholds: Vec<u64> = (0..=1024).step_by(128).collect();
    // A second pair of eyes on the binary-ingested server: the JSON
    // transport must render the very same answers.
    let mut json_on_binary = ServeClient::connect(binary_server.local_addr()).unwrap();
    for &c in &thresholds {
        let f2 = json_client.query_f2(c).unwrap();
        assert_eq!(binary_client.query_f2(c).unwrap(), f2, "f2 at c={c}");
        assert_eq!(json_on_binary.query_f2(c).unwrap(), f2, "f2 via json at c={c}");
        let f0 = json_client.query_f0(c).unwrap();
        assert_eq!(binary_client.query_f0(c).unwrap(), f0, "f0 at c={c}");
        let rarity = json_client.query_rarity(c).unwrap();
        assert_eq!(binary_client.query_rarity(c).unwrap(), rarity, "rarity at c={c}");
    }
    assert_eq!(
        binary_client.query_heavy_hitters(1023, 0.2).unwrap(),
        json_client.query_heavy_hitters(1023, 0.2).unwrap(),
    );
    for window in [64u64, 512, 1 << 20] {
        assert_eq!(
            binary_client.query_window_f2(window, 1024).unwrap(),
            json_client.query_window_f2(window, 1024).unwrap(),
            "window f2 w={window}"
        );
        assert_eq!(
            binary_client.query_window_f0(window, 1024).unwrap(),
            json_client.query_window_f0(window, 1024).unwrap(),
            "window f0 w={window}"
        );
    }
    let stats = binary_client.stats().unwrap();
    assert_eq!(stats.u64_field("items_accepted").unwrap(), tuples.len() as u64);

    // A rejected batch inside the pipe surfaces at the sync point, and the
    // connection keeps working afterwards.
    binary_client.ingest_noack(&[(1, 1)]).unwrap();
    binary_client.ingest_noack(&[(2, 1_000_000)]).unwrap(); // y out of range
    binary_client.ingest_noack(&[(3, 2)]).unwrap();
    let err = binary_client.sync().unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    binary_client.ping().unwrap();
    binary_client.flush().unwrap();
    // The two good batches around the bad one were still accepted.
    let stats = binary_client.stats().unwrap();
    assert_eq!(
        stats.u64_field("items_accepted").unwrap(),
        tuples.len() as u64 + 2
    );

    json_server.shutdown();
    binary_server.shutdown();
}

/// An error frame for an earlier no-ack batch arrives ahead of the next
/// request's reply: that request reports the batch's error, and the calls
/// after it still get their own answers.
#[test]
fn a_pipelined_error_frame_leaves_later_replies_in_step() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    let tuples: Vec<(u64, u64)> = (0..400).map(|i| (i % 37, (i * 7) % 1024)).collect();
    client.ingest(&tuples).unwrap();
    client.flush().unwrap();
    let (low, high) = (client.query_f2(100).unwrap(), client.query_f2(1023).unwrap());
    assert_ne!(low, high);

    client.ingest_noack(&[(2, 1_000_000)]).unwrap(); // y out of range
    let err = client.query_f2(100).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.u64_field("items_accepted").unwrap(), tuples.len() as u64);
    assert_eq!(client.query_f2(1023).unwrap(), high);
    server.shutdown();
}

/// A blocking `ingest` after a rejected no-ack batch reports that batch's
/// error without sending its own, so retrying it applies it once, and the
/// retry's ack is its own reply.
#[test]
fn a_blocking_ingest_after_a_rejected_noack_batch_is_applied_once() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    let accepted = |client: &mut ServeClient| {
        client.stats().unwrap().u64_field("items_accepted").unwrap()
    };
    let before = accepted(&mut client);
    let good: Vec<(u64, u64)> = (0..50).map(|i| (i, (i * 7) % 1024)).collect();

    client.ingest_noack(&[(2, 1_000_000)]).unwrap(); // y out of range
    let err = client.ingest(&good).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert_eq!(client.ingest(&good).unwrap(), good.len() as u64);
    assert_eq!(accepted(&mut client), before + good.len() as u64);
    server.shutdown();
}

#[test]
fn connection_limit_refuses_with_an_error_line() {
    let mut config = test_config();
    config.max_connections = 2;
    let server = start(config, "127.0.0.1:0").unwrap();

    let mut a = ServeClient::connect(server.local_addr()).unwrap();
    let mut b = ServeClient::connect_binary(server.local_addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // The third connection is answered with one error line and closed.
    let stream = connect_raw(&server);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    assert!(line.contains("connection limit"), "got: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "refused conn stays open");

    // Freeing a slot lets new connections in (the worker notices the close
    // on its next sweep, so poll briefly).
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let admitted = loop {
        let mut c = ServeClient::connect(server.local_addr()).unwrap();
        if c.ping().is_ok() {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(admitted, "slot was never reclaimed after dropping a client");
    b.ping().unwrap();
    server.shutdown();
}

/// A stalled server (accepts, never answers) must fail the request with
/// the structured [`ClientError::Timeout`] once a read timeout is set —
/// not hang, and not collapse into a generic `Io` error.
#[test]
fn read_timeout_surfaces_as_structured_timeout_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let hold = std::thread::spawn(move || {
        // Hold the accepted socket open, silent, until the test finishes.
        let (_sock, _) = listener.accept().unwrap();
        let _ = done_rx.recv();
    });

    let mut client = ServeClient::connect_binary(addr).unwrap();
    client
        .set_timeouts(Some(Duration::from_millis(50)), Some(Duration::from_millis(50)))
        .unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClientError::Timeout(_)), "expected Timeout, got {err:?}");

    drop(done_tx);
    hold.join().unwrap();
}

/// Ingest and every non-`f2` read share the node's one state lock. One
/// writer streams acked batches while three analyst connections loop the
/// reads that take it — `f0`; `window_f2` + `stats`; `heavy_hitters` — over
/// both transports. Nobody may wedge (every socket carries a timeout, so a
/// deadlock fails the test instead of hanging it), every reader must get
/// answers *while* the writer is streaming, and the reads must not perturb
/// the state: the final answers equal a reader-free run's bit for bit.
#[test]
fn concurrent_mixed_readers_neither_wedge_nor_change_answers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let batches: Vec<Vec<(u64, u64)>> = (0..40u64)
        .map(|b| {
            (0..500u64)
                .map(|i| {
                    let k = b * 500 + i;
                    (k.wrapping_mul(2_654_435_761) % 5_000, (k * 7_919) % 1_024)
                })
                .collect()
        })
        .collect();
    let connect = |server: &RunningServer, binary: bool| {
        let mut client = if binary {
            ServeClient::connect_binary(server.local_addr())
        } else {
            ServeClient::connect(server.local_addr())
        }
        .unwrap();
        let timeout = Some(Duration::from_secs(30));
        client.set_timeouts(timeout, timeout).unwrap();
        client
    };
    let final_answers = |client: &mut ServeClient| {
        client.flush().unwrap();
        (
            client.query_f2(700).unwrap().to_bits(),
            client.query_f0(700).unwrap().to_bits(),
            client.query_rarity(700).unwrap().to_bits(),
            client.query_window_f2(4_096, 700).unwrap(),
            client.query_window_f0(4_096, 700).unwrap(),
            client.query_heavy_hitters(1_023, 0.1).unwrap(),
            client.stats().unwrap().u64_field("items_accepted").unwrap(),
        )
    };

    let serial = start(test_config(), "127.0.0.1:0").unwrap();
    let mut writer = connect(&serial, true);
    for batch in &batches {
        assert_eq!(writer.ingest(batch).unwrap(), batch.len() as u64);
    }
    let expected = final_answers(&mut writer);
    serial.shutdown();

    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let writing = AtomicBool::new(true);
    let mut writer = connect(&server, true);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|kind| {
                let (server, writing) = (&server, &writing);
                scope.spawn(move || {
                    let mut client = connect(server, kind != 1);
                    let mut rounds_while_writing = 0u32;
                    loop {
                        match kind {
                            0 => drop(client.query_f0(700).unwrap()),
                            1 => {
                                client.query_window_f2(4_096, 700).unwrap();
                                client.stats().unwrap();
                            }
                            _ => drop(client.query_heavy_hitters(1_023, 0.1).unwrap()),
                        }
                        if !writing.load(Ordering::Acquire) {
                            return rounds_while_writing;
                        }
                        rounds_while_writing += 1;
                    }
                })
            })
            .collect();
        for batch in &batches {
            assert_eq!(writer.ingest(batch).unwrap(), batch.len() as u64);
        }
        writing.store(false, Ordering::Release);
        for (kind, reader) in readers.into_iter().enumerate() {
            let rounds = reader.join().expect("reader panicked");
            assert!(rounds >= 1, "reader {kind} was starved while the writer streamed");
        }
    });
    assert_eq!(final_answers(&mut writer), expected);
    server.shutdown();
}

// ---- The transport's shape: one blocking thread per connection ----------
//
// These fail if the transport drifts back towards polling (a wake-up tax
// after an idle gap), stops reclaiming slots and threads, loses replies
// around a half-close, or issues a blocking read while a complete request
// sits unparsed. All bounds are loose enough for a debug build.

#[test]
fn a_ping_after_an_idle_gap_pays_one_wake_up_not_a_sleep_tier() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    client.ping().unwrap();
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(100));
            let sent = std::time::Instant::now();
            client.ping().unwrap();
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median ping after 100 ms idle took {median:?}: its thread was not parked in read"
    );
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_clients_parked_in_read() {
    let idle_clients = |server: &RunningServer| -> Vec<TcpStream> {
        let idle: Vec<TcpStream> = (0..32).map(|_| connect_raw(server)).collect();
        // A served ping proves all 32 were accepted (accepts are in order).
        ServeClient::connect(server.local_addr()).unwrap().ping().unwrap();
        idle
    };
    let assert_closed = |idle: &mut [TcpStream]| {
        for stream in idle {
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "parked client left open");
        }
    };

    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut idle = idle_clients(&server);
    let asked = std::time::Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown() with 32 parked clients took {took:?}");
    assert_closed(&mut idle);

    // The `shutdown` op over the wire: its ack arrives, then the listener
    // stops and every parked client is closed.
    let mut server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut idle = idle_clients(&server);
    let mut client = ServeClient::connect_binary(server.local_addr()).unwrap();
    client.shutdown_server().expect("the shutdown op's ack");
    server.wait();
    assert_closed(&mut idle);
    let asked = std::time::Instant::now();
    server.shutdown();
    assert!(asked.elapsed() < Duration::from_secs(1));
}

#[test]
fn three_hundred_connections_are_served_at_once_and_their_slots_reclaimed() {
    const WIDTH: usize = 300;
    let mut config = test_config();
    config.max_connections = WIDTH; // the second wave fits only in reclaimed slots
    let server = start(config, "127.0.0.1:0").unwrap();
    ServeClient::connect(server.local_addr()).unwrap().ingest(&[(1, 1), (2, 2)]).unwrap();

    for wave in 0..2 {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut clients: Vec<ServeClient> = Vec::with_capacity(WIDTH);
        while clients.len() < WIDTH {
            let mut client = if clients.len() % 2 == 0 {
                ServeClient::connect_binary(server.local_addr())
            } else {
                ServeClient::connect(server.local_addr())
            }
            .unwrap();
            // A slot frees when the server notices the close, a moment after
            // the client's drop returns; until then the newcomer is refused.
            match client.ping() {
                Ok(()) => clients.push(client),
                Err(e) => assert!(
                    std::time::Instant::now() < deadline,
                    "wave {wave}: only {} of {WIDTH} admitted: {e}",
                    clients.len()
                ),
            }
        }
        // All of them are open together, and every one is answered.
        for client in &mut clients {
            assert_eq!(client.query_f0(1023).unwrap(), 2.0);
        }
        // Full means full: one more is turned away.
        let mut extra = BufReader::new(connect_raw(&server));
        let mut line = String::new();
        extra.read_line(&mut line).expect("refusal line");
        assert!(line.contains("connection limit"), "wave {wave}: got {line:?}");
    }
    server.shutdown();
}

#[test]
fn half_closed_client_still_reads_every_reply_in_order() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut stream = connect_raw(&server);
    stream
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"nonsense\"}\n{\"op\":\"f0\",\"c\":5}\n")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("replies, then the server's close");
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 3, "got: {answer}");
    assert!(lines[0].contains("\"ok\":true") && !lines[0].contains("value"), "got: {answer}");
    assert!(lines[1].contains("\"ok\":false"), "got: {answer}");
    assert!(lines[2].contains("\"ok\":true") && lines[2].contains("value"), "got: {answer}");
    server.shutdown();
}

#[test]
fn a_request_split_across_two_writes_is_answered_once() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let gap = Duration::from_millis(30);

    // Binary: the header in one segment, the payload in the next.
    let mut stream = connect_raw(&server);
    let frame = wire::encode_ingest(&[(7, 1), (8, 2), (9, 3)], None, None, 0);
    stream.write_all(&frame[..wire::HEADER_BYTES]).unwrap();
    std::thread::sleep(gap);
    stream.write_all(&frame[wire::HEADER_BYTES..]).unwrap();
    let (_, reply) = read_reply_frame(&mut stream);
    assert_eq!(reply.u64_field("accepted").unwrap(), 3);

    // JSON: the line first, its newline later.
    let mut stream = connect_raw(&server);
    stream.write_all(b"{\"op\":\"ingest\",\"xs\":[10,11],\"ys\":[4,5]}").unwrap();
    std::thread::sleep(gap);
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");

    // Each batch was applied exactly once, and neither connection has a
    // second reply queued behind the first.
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().u64_field("items_accepted").unwrap(), 5);
    reader.get_ref().set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    line.clear();
    assert!(reader.read_line(&mut line).is_err(), "a second reply arrived: {line}");
    server.shutdown();
}

/// The JSON line scan resumes where the last read left it. A long line
/// delivered in small segments used to be rescanned from its start on every
/// pass (quadratic); here 8 MiB of padding in 1 KiB writes must be absorbed
/// at wire speed. (The deterministic form of this check, one pass per
/// segment, is `transport::tests::a_long_json_line_is_scanned_once`.)
#[test]
fn a_long_json_line_in_small_segments_is_answered_promptly_and_the_cap_holds() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let mut stream = connect_raw(&server);
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    // Fix the protocol first: the sniffer would swallow leading padding.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");

    let started = std::time::Instant::now();
    let segment = [b' '; 1024];
    for _ in 0..8 * 1024 {
        stream.write_all(&segment).unwrap();
    }
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got: {line}");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "an 8 MiB padded line took {took:?}");

    // Past the cap with no newline in sight: one error line, then closed.
    let segment = vec![b' '; 1 << 20];
    for _ in 0..=wire::MAX_FRAME_BYTES / segment.len() {
        if stream.write_all(&segment).is_err() {
            break; // the server may refuse before the last segment lands
        }
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(&format!("request line exceeds the {}-byte cap", wire::MAX_FRAME_BYTES)),
        "got: {line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "connection stayed open");
    assert_server_alive(&server);
    server.shutdown();
}

/// A client that pipelines requests and never reads its replies is stopped
/// by back-pressure — the server stops reading it once its replies no
/// longer fit in the socket, so its own writes stall — instead of growing a
/// reply queue in server memory; it starves nobody and cannot hold up
/// shutdown.
#[test]
fn a_client_that_never_reads_is_stalled_not_buffered_without_limit() {
    let server = start(test_config(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let hoarder = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_write_timeout(Some(Duration::from_millis(500))).unwrap();
        let chunk = b"{\"op\":\"ping\"}\n".repeat(4096);
        // Far more than any kernel buffering between the two ends: only a
        // server that keeps reading (and queueing replies) takes it all.
        for sent in 0..2048 {
            if stream.write_all(&chunk).is_err() {
                return (stream, sent * 4096);
            }
        }
        panic!("the server swallowed 8M pipelined pings from a client that never reads");
    });
    let mut client = ServeClient::connect_binary(addr).unwrap();
    client.set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10))).unwrap();
    let mut answered = 0u32;
    while !hoarder.is_finished() {
        client.ping().expect("a well-behaved client is served beside the hoarder");
        answered += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    let (stream, lines) = hoarder.join().unwrap();
    assert!(lines >= 200_000, "stalled after only {lines} lines");
    assert!(answered > 0);
    client.ping().unwrap();
    // The hoarder's thread is blocked in a write; shutdown closes the socket
    // under it instead of waiting out the write timeout.
    let asked = std::time::Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown() behind a stalled write took {took:?}");
    drop(stream);
}
