//! A small blocking client for the [`server`](crate::server), speaking
//! either wire protocol.
//!
//! [`ServeClient::connect`] opens a newline-JSON connection;
//! [`ServeClient::connect_binary`] opens a [binary-framed](crate::wire)
//! one. Every typed method works identically on both — same answers,
//! byte-identical field text — so transports are interchangeable. Binary
//! connections additionally support **pipelined ingest**: stream batches
//! with [`ServeClient::ingest_noack`] (no per-batch round trip), then call
//! [`ServeClient::sync`] to flush the pipe and surface any errors:
//!
//! ```no_run
//! # use cora_serve::client::ServeClient;
//! # let addr = "127.0.0.1:9999";
//! let mut client = ServeClient::connect_binary(addr).unwrap();
//! for chunk in (0..100_000u64).collect::<Vec<_>>().chunks(1_000) {
//!     let batch: Vec<(u64, u64)> = chunk.iter().map(|&i| (i % 700, i % 4096)).collect();
//!     client.ingest_noack(&batch).unwrap(); // queued, not awaited
//! }
//! client.sync().unwrap(); // one round trip for the whole load
//! ```
//!
//! One request, one response, in order, over a single TCP connection —
//! exactly what the example binary, the `serve_latency` bench, and the CI
//! serve-smoke step need. Concurrency comes from opening more clients (the
//! server gives each connection a blocking thread of its own). Read your
//! replies: the server stops reading a connection whose replies are not
//! being drained, and closes it after a few seconds of that.

use crate::protocol::{Request, Response, SetOp};
use crate::wire::{self, DecodedReply};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A structured server-side failure: the protocol's error `kind`
/// (`"request"`, `"sketch"`, `"io"`, or `"server"`) plus its message. Both
/// transports carry the same pair, so retry policy can branch on `kind`
/// without parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The error kind tag.
    pub kind: String,
    /// The human-readable detail.
    pub message: String,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind, self.message)
    }
}

/// Errors talking to a serve instance.
#[derive(Debug)]
pub enum ClientError {
    /// Socket I/O failed (including the server closing the connection).
    Io(std::io::Error),
    /// A configured socket timeout elapsed before the server answered.
    Timeout(std::io::Error),
    /// The response line was not valid protocol JSON.
    Protocol(String),
    /// The server answered `{"ok":false,...}`.
    Server(ServerError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout(e) => write!(f, "timed out: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Server(e) => write!(f, "server {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // Read/write timeouts surface as TimedOut or WouldBlock depending
        // on the platform; both mean "the configured timeout elapsed".
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ClientError::Timeout(e)
            }
            _ => ClientError::Io(e),
        }
    }
}

impl ClientError {
    /// Build the structured server error from a parsed error response.
    fn from_response(response: &Response, message: String) -> Self {
        ClientError::Server(ServerError {
            kind: response
                .error_kind()
                .unwrap_or_else(|| "server".to_string()),
            message,
        })
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A reported heavy hitter (client-side mirror of
/// [`cora_core::HeavyHitter`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedHitter {
    /// The item identifier.
    pub item: u64,
    /// Estimated frequency among tuples with `y ≤ c`.
    pub frequency: f64,
    /// Estimated squared-frequency share of `F_2(c)`.
    pub share: f64,
}

/// A window query's answer: the estimate plus the pane-aligned span
/// `[resolved_lo, resolved_hi)` it actually covers (see
/// `cora_stream::windowed` for the resolution semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAnswer {
    /// The windowed correlated estimate.
    pub value: f64,
    /// Inclusive start tick of the resolved span.
    pub resolved_lo: u64,
    /// Exclusive end tick of the resolved span.
    pub resolved_hi: u64,
}

/// Which wire protocol a connection speaks (fixed at connect time; the
/// server sniffs the first byte and never switches mid-stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Json,
    Binary,
}

/// A blocking connection to a running serve instance.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    mode: Mode,
}

impl ServeClient {
    /// Connect to a server (e.g. the address from
    /// [`RunningServer::local_addr`](crate::server::RunningServer::local_addr))
    /// speaking the newline-JSON line protocol.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_mode(addr, Mode::Json, None)
    }

    /// Connect speaking the [binary frame protocol](crate::wire) — same
    /// request surface and byte-identical answers, plus pipelined ingest
    /// ([`Self::ingest_noack`] / [`Self::sync`]).
    pub fn connect_binary<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_mode(addr, Mode::Binary, None)
    }

    /// [`Self::connect`] with a bound on the TCP connect itself. The plain
    /// constructors inherit the OS connect timeout (which can be minutes);
    /// this one fails fast when the server is unreachable, which is what
    /// retry loops and replication links need.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> std::io::Result<Self> {
        Self::connect_mode(addr, Mode::Json, Some(timeout))
    }

    /// [`Self::connect_binary`] with a bound on the TCP connect itself.
    pub fn connect_binary_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        Self::connect_mode(addr, Mode::Binary, Some(timeout))
    }

    fn connect_mode<A: ToSocketAddrs>(
        addr: A,
        mode: Mode,
        timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            // `TcpStream::connect_timeout` takes one resolved address, so
            // walk the candidates (v4/v6) like `connect` does and keep the
            // last failure for the error message.
            Some(timeout) => {
                let mut last_err = None;
                let mut connected = None;
                for candidate in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(writer),
            mode,
        })
    }

    /// Whether this connection speaks the binary frame protocol.
    pub fn is_binary(&self) -> bool {
        self.mode == Mode::Binary
    }

    /// Configure socket read/write timeouts (`None` = block forever, the
    /// default). A request outlasting a timeout fails with
    /// [`ClientError::Timeout`]; the connection should then be considered
    /// broken (a late response would desynchronize the stream) — reconnect,
    /// or let [`RetryingClient`](crate::retry::RetryingClient) do it.
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.get_ref().set_write_timeout(write)
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> ClientResult<Response> {
        match self.mode {
            Mode::Json => self.request_json(request),
            Mode::Binary => {
                let frame = wire::encode_request(request, 0);
                let expect = frame[2];
                self.writer.write_all(&frame)?;
                self.writer.flush()?;
                self.read_reply(expect)
            }
        }
    }

    fn request_json(&mut self, request: &Request) -> ClientResult<Response> {
        let line = request.encode();
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut response_line = String::new();
        let n = self.reader.read_line(&mut response_line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response = Response::parse(response_line.trim()).map_err(ClientError::Protocol)?;
        if let Some(message) = response.error_message() {
            return Err(ClientError::from_response(&response, message));
        }
        Ok(response)
    }

    /// Read one binary frame: `(opcode, flags, payload)`.
    fn read_frame(&mut self) -> ClientResult<(u8, u8, Vec<u8>)> {
        let mut header = [0u8; wire::HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        let header =
            wire::parse_header(&header).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let mut payload = vec![0u8; header.len];
        self.reader.read_exact(&mut payload)?;
        Ok((header.opcode, header.flags, payload))
    }

    /// Read the response to a just-sent binary request. An error frame for
    /// an earlier pipelined (`NO_ACK`) ingest may arrive first; it is
    /// surfaced as the failure it is rather than silently dropped.
    fn read_reply(&mut self, expect: u8) -> ClientResult<Response> {
        let (opcode, flags, payload) = self.read_frame()?;
        let reply = wire::decode_reply(flags, &payload).map_err(ClientError::Protocol)?;
        match reply {
            DecodedReply::Error { kind, message } => {
                Err(ClientError::Server(ServerError { kind, message }))
            }
            DecodedReply::Ok(_) if opcode != expect => Err(ClientError::Protocol(format!(
                "response opcode 0x{opcode:02X} does not match request 0x{expect:02X}"
            ))),
            DecodedReply::Ok(fields) => Ok(Response::from_fields(
                fields
                    .into_iter()
                    .map(|(key, value)| (key, value.render_json()))
                    .collect(),
            )),
        }
    }

    /// Queue one ingest batch **without waiting for its response** (binary
    /// connections only). The batch is framed with `NO_ACK`: the server
    /// suppresses the success response and answers only on error. Call
    /// [`Self::sync`] to flush the pipe and learn whether every queued
    /// batch was accepted.
    pub fn ingest_noack(&mut self, tuples: &[(u64, u64)]) -> ClientResult<()> {
        self.ingest_noack_seq(tuples, None)
    }

    /// [`Self::ingest_noack`] with an optional `(writer, seq)` idempotency
    /// pair. A sequence-tagged batch can be blindly resent after a
    /// reconnect: the server acks already-applied sequence numbers as
    /// duplicates instead of double-counting them.
    pub fn ingest_noack_seq(
        &mut self,
        tuples: &[(u64, u64)],
        seq: Option<(u64, u64)>,
    ) -> ClientResult<()> {
        if self.mode != Mode::Binary {
            return Err(ClientError::Protocol(
                "pipelined no-ack ingest requires a binary connection".into(),
            ));
        }
        let frame = wire::encode_ingest(tuples, None, seq, wire::FLAG_NO_ACK);
        self.writer.write_all(&frame)?;
        Ok(())
    }

    /// Pipelining sync point: flush queued frames, then round-trip a ping
    /// and drain everything ahead of its reply. Returns the first pipelined
    /// ingest error, if any batch since the last sync was rejected. On JSON
    /// connections (where every request is answered synchronously) this is
    /// just a ping.
    pub fn sync(&mut self) -> ClientResult<()> {
        if self.mode == Mode::Json {
            return self.ping();
        }
        self.writer.write_all(&wire::encode_request(&Request::Ping, 0))?;
        self.writer.flush()?;
        let mut first_error: Option<ServerError> = None;
        loop {
            let (opcode, flags, payload) = self.read_frame()?;
            let reply = wire::decode_reply(flags, &payload).map_err(ClientError::Protocol)?;
            if opcode == wire::Opcode::Ping as u8 {
                return match (first_error, reply) {
                    (Some(error), _) => Err(ClientError::Server(error)),
                    (None, DecodedReply::Error { kind, message }) => {
                        Err(ClientError::Server(ServerError { kind, message }))
                    }
                    (None, DecodedReply::Ok(_)) => Ok(()),
                };
            }
            match reply {
                DecodedReply::Error { kind, message } => {
                    first_error.get_or_insert(ServerError { kind, message });
                }
                DecodedReply::Ok(_) => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected success frame 0x{opcode:02X} while draining the pipe"
                    )))
                }
            }
        }
    }

    /// Stream `tuples` as pipelined no-ack batches of `batch` tuples, then
    /// [`Self::sync`] once — a bulk load with a single round trip (binary
    /// connections only).
    pub fn ingest_pipelined(&mut self, tuples: &[(u64, u64)], batch: usize) -> ClientResult<()> {
        for chunk in tuples.chunks(batch.max(1)) {
            self.ingest_noack(chunk)?;
        }
        self.sync()
    }

    /// Liveness check.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// The server's construction parameters as raw `(key, value)` pairs.
    pub fn config(&mut self) -> ClientResult<Response> {
        self.request(&Request::Config)
    }

    /// Batch-ingest `(x, y)` tuples; returns the accepted count. The server
    /// stamps each tuple with its arrival tick (see [`Self::ingest_at`] for
    /// explicit timestamps).
    pub fn ingest(&mut self, tuples: &[(u64, u64)]) -> ClientResult<u64> {
        self.ingest_seq(tuples, None)
    }

    /// [`Self::ingest`] with an optional `(writer, seq)` idempotency pair;
    /// a batch at or below the writer's high-water mark on the server is
    /// acked with `accepted = 0` instead of being applied twice.
    pub fn ingest_seq(
        &mut self,
        tuples: &[(u64, u64)],
        seq: Option<(u64, u64)>,
    ) -> ClientResult<u64> {
        let response = match self.mode {
            Mode::Binary => {
                // Frame straight from the tuple slice — no xs/ys splits.
                let frame = wire::encode_ingest(tuples, None, seq, 0);
                self.writer.write_all(&frame)?;
                self.writer.flush()?;
                self.read_reply(wire::Opcode::Ingest as u8)?
            }
            Mode::Json => {
                let xs: Vec<u64> = tuples.iter().map(|&(x, _)| x).collect();
                let ys: Vec<u64> = tuples.iter().map(|&(_, y)| y).collect();
                self.request(&Request::Ingest { xs, ys, ts: None, seq })?
            }
        };
        response.u64_field("accepted").map_err(ClientError::Protocol)
    }

    /// Batch-ingest `(x, y, t)` tuples with explicit timestamps (ticks) for
    /// the windowed structures; timestamps may be out of order.
    pub fn ingest_at(&mut self, tuples: &[(u64, u64, u64)]) -> ClientResult<u64> {
        let xs: Vec<u64> = tuples.iter().map(|&(x, _, _)| x).collect();
        let ys: Vec<u64> = tuples.iter().map(|&(_, y, _)| y).collect();
        let ts: Vec<u64> = tuples.iter().map(|&(_, _, t)| t).collect();
        let response = self.request(&Request::Ingest { xs, ys, ts: Some(ts), seq: None })?;
        response.u64_field("accepted").map_err(ClientError::Protocol)
    }

    /// Read-your-writes barrier: drains the ingest workers and waits for the
    /// published composite to cover everything accepted so far.
    pub fn flush(&mut self) -> ClientResult<()> {
        self.request(&Request::Flush).map(|_| ())
    }

    /// Correlated `F_2` at threshold `c` (served from the epoch-published
    /// composite; see the staleness bound in the crate docs).
    pub fn query_f2(&mut self, c: u64) -> ClientResult<f64> {
        let response = self.request(&Request::QueryF2 { c })?;
        response.f64_field("value").map_err(ClientError::Protocol)
    }

    /// Correlated distinct count at threshold `c`.
    pub fn query_f0(&mut self, c: u64) -> ClientResult<f64> {
        let response = self.request(&Request::QueryF0 { c })?;
        response.f64_field("value").map_err(ClientError::Protocol)
    }

    /// Correlated rarity at threshold `c`.
    pub fn query_rarity(&mut self, c: u64) -> ClientResult<f64> {
        let response = self.request(&Request::QueryRarity { c })?;
        response.f64_field("value").map_err(ClientError::Protocol)
    }

    /// Correlated `F_2`-heavy hitters at threshold `c` with share `phi`,
    /// sorted by decreasing share.
    pub fn query_heavy_hitters(&mut self, c: u64, phi: f64) -> ClientResult<Vec<ReportedHitter>> {
        let response = self.request(&Request::QueryHeavyHitters { c, phi })?;
        let items = response.u64_array_field("items").map_err(ClientError::Protocol)?;
        let frequencies = response
            .f64_array_field("frequencies")
            .map_err(ClientError::Protocol)?;
        let shares = response
            .f64_array_field("shares")
            .map_err(ClientError::Protocol)?;
        if items.len() != frequencies.len() || items.len() != shares.len() {
            return Err(ClientError::Protocol(
                "heavy-hitter arrays have mismatched lengths".into(),
            ));
        }
        Ok(items
            .into_iter()
            .zip(frequencies)
            .zip(shares)
            .map(|((item, frequency), share)| ReportedHitter {
                item,
                frequency,
                share,
            })
            .collect())
    }

    /// Windowed correlated `F_2` over the last `window` ticks at threshold
    /// `c`: the estimate plus the pane-aligned resolved span it covers.
    pub fn query_window_f2(&mut self, window: u64, c: u64) -> ClientResult<WindowAnswer> {
        self.window_request(&Request::WindowF2 { window, c })
    }

    /// Windowed correlated `F_0` over the last `window` ticks at threshold
    /// `c`: the estimate plus the pane-aligned resolved span it covers.
    pub fn query_window_f0(&mut self, window: u64, c: u64) -> ClientResult<WindowAnswer> {
        self.window_request(&Request::WindowF0 { window, c })
    }

    fn window_request(&mut self, request: &Request) -> ClientResult<WindowAnswer> {
        let response = self.request(request)?;
        Ok(WindowAnswer {
            value: response.f64_field("value").map_err(ClientError::Protocol)?,
            resolved_lo: response.u64_field("resolved_lo").map_err(ClientError::Protocol)?,
            resolved_hi: response.u64_field("resolved_hi").map_err(ClientError::Protocol)?,
        })
    }

    /// Service and structure statistics as a parsed response (field access
    /// via [`Response::u64_field`] etc.).
    pub fn stats(&mut self) -> ClientResult<Response> {
        self.request(&Request::Stats)
    }

    /// Ask the server to write a snapshot bundle to a server-side path;
    /// returns the bundle size in bytes.
    pub fn snapshot(&mut self, path: &str) -> ClientResult<u64> {
        let response = self.request(&Request::Snapshot {
            path: path.to_string(),
        })?;
        response.u64_field("bytes").map_err(ClientError::Protocol)
    }

    /// Force a durable snapshot rotation on a durability-enabled server
    /// (the `snapshot` op with an empty path); returns the new generation
    /// number.
    pub fn snapshot_rotate(&mut self) -> ClientResult<u64> {
        let response = self.request(&Request::Snapshot { path: String::new() })?;
        response.u64_field("generation").map_err(ClientError::Protocol)
    }

    /// Ask the server to stop accepting connections.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// Present the shared-secret token. On a server started with
    /// [`ServeConfig::auth_token`](crate::server::ServeConfig::auth_token)
    /// set, every other op on this connection fails with a `request` error
    /// until this succeeds; on an open server it is a no-op.
    pub fn auth(&mut self, token: &str) -> ClientResult<()> {
        self.request(&Request::Auth { token: token.to_string() }).map(|_| ())
    }

    /// Set-expression distinct count over two named streams on an
    /// **aggregator** node: the estimate of `|A op B|` restricted to tuples
    /// with `y ≤ c`.
    pub fn set_f0(&mut self, a: &str, b: &str, op: SetOp, c: u64) -> ClientResult<f64> {
        let response = self.request(&Request::SetF0 {
            a: a.to_string(),
            b: b.to_string(),
            op,
            c,
        })?;
        response.f64_field("value").map_err(ClientError::Protocol)
    }

    /// The stream names registered on an aggregator node, sorted.
    pub fn streams(&mut self) -> ClientResult<Vec<String>> {
        let response = self.request(&Request::Streams)?;
        let joined = response.str_field("streams").map_err(ClientError::Protocol)?;
        Ok(if joined.is_empty() {
            Vec::new()
        } else {
            joined.split(',').map(str::to_string).collect()
        })
    }

    /// Replication handshake with an aggregator: registers `stream`,
    /// verifies `fingerprint` compatibility, announces the replica's
    /// current generation, and returns the aggregator's high-water
    /// generation for that stream (0 = expects a full snapshot).
    pub fn repl_hello(&mut self, stream: &str, fingerprint: u64, g_to: u64) -> ClientResult<u64> {
        let response = self.repl_request(&Request::ReplHello {
            stream: stream.to_string(),
            fingerprint,
            g_to,
        })?;
        response.u64_field("high_water").map_err(ClientError::Protocol)
    }

    /// Ship one sealed delta container (binary connections only); returns
    /// the aggregator's new high-water generation.
    pub fn repl_delta(&mut self, stream: &str, frame: Vec<u8>) -> ClientResult<u64> {
        let response = self.repl_request(&Request::ReplDelta {
            stream: stream.to_string(),
            frame,
        })?;
        response.u64_field("high_water").map_err(ClientError::Protocol)
    }

    /// Ship one full replacement snapshot container (`g_from = 0`, binary
    /// connections only); returns the aggregator's new high-water
    /// generation.
    pub fn repl_snapshot(&mut self, stream: &str, frame: Vec<u8>) -> ClientResult<u64> {
        let response = self.repl_request(&Request::ReplSnapshot {
            stream: stream.to_string(),
            frame,
        })?;
        response.u64_field("high_water").map_err(ClientError::Protocol)
    }

    /// Send a replication request. On the binary protocol the server
    /// answers every `Repl*` request with a `ReplAck` frame (not an echo of
    /// the request opcode), so this bypasses [`Self::request`]'s
    /// echo-opcode check.
    fn repl_request(&mut self, request: &Request) -> ClientResult<Response> {
        match self.mode {
            Mode::Json => match request {
                // The payload-carrying ops cannot travel as JSON; refuse
                // client-side instead of sending a frame-less stub.
                Request::ReplDelta { .. } | Request::ReplSnapshot { .. } => {
                    Err(ClientError::Protocol(
                        "replication payloads require a binary connection".into(),
                    ))
                }
                _ => self.request_json(request),
            },
            Mode::Binary => {
                let frame = wire::encode_request(request, 0);
                self.writer.write_all(&frame)?;
                self.writer.flush()?;
                self.read_reply(wire::Opcode::ReplAck as u8)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, start_restored, ServeConfig};

    fn test_config() -> ServeConfig {
        ServeConfig {
            epsilon: 0.25,
            delta: 0.1,
            y_max: 4095,
            max_stream_len: 100_000,
            seed: 7,
            shards: 2,
            phi: 0.05,
            x_domain_log2: 16,
            pane_ticks: 256,
            pane_k: 4,
            pane_retention: None,
            max_connections: 1_024,
            durability: None,
            auth_token: None,
            replicate: None,
        }
    }

    #[test]
    fn end_to_end_ingest_query_snapshot_restart() {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        assert_eq!(
            client.config().unwrap().u64_field("y_max").unwrap(),
            4095
        );

        // Ingest a stream with a planted heavy hitter.
        let mut tuples: Vec<(u64, u64)> = Vec::new();
        for i in 0..4_000u64 {
            tuples.push((7, i % 1000));
            tuples.push((1000 + (i % 300), (i * 13) % 4096));
        }
        // Singleton items so rarity is non-zero.
        for i in 0..100u64 {
            tuples.push((50_000 + i, (i * 41) % 4096));
        }
        for chunk in tuples.chunks(500) {
            assert_eq!(client.ingest(chunk).unwrap(), chunk.len() as u64);
        }
        client.flush().unwrap();

        let thresholds: Vec<u64> = (0..=4096).step_by(512).collect();
        let f2: Vec<f64> = thresholds.iter().map(|&c| client.query_f2(c).unwrap()).collect();
        let f0: Vec<f64> = thresholds.iter().map(|&c| client.query_f0(c).unwrap()).collect();
        let rarity: Vec<f64> =
            thresholds.iter().map(|&c| client.query_rarity(c).unwrap()).collect();
        let hitters = client.query_heavy_hitters(999, 0.2).unwrap();
        assert!(f2.iter().all(|&v| v >= 0.0) && f2[8] > 0.0);
        assert!(f0[8] > 0.0 && rarity[8] > 0.0);
        assert!(hitters.iter().any(|h| h.item == 7), "hitters: {hitters:?}");

        // Windowed queries over the server's arrival-tick clock: the full
        // stream fits in one suffix window, and a shorter window resolves a
        // pane-aligned strict suffix.
        let windows: Vec<u64> = vec![512, 2_048, 16_384];
        let wf2: Vec<WindowAnswer> =
            windows.iter().map(|&w| client.query_window_f2(w, 4096).unwrap()).collect();
        let wf0: Vec<WindowAnswer> =
            windows.iter().map(|&w| client.query_window_f0(w, 4096).unwrap()).collect();
        assert_eq!(wf2[2].resolved_lo, 0);
        // 8_100 arrival ticks land in panes tiling [0, 8_192) at 256/pane.
        assert_eq!(wf2[2].resolved_hi, 8_192);
        assert!(wf2[0].resolved_lo > 0 && wf2[0].value > 0.0);
        assert!(wf0[2].value > 0.0);

        let stats = client.stats().unwrap();
        assert_eq!(stats.u64_field("items_accepted").unwrap(), 8_100);
        assert_eq!(stats.u64_field("composite_items").unwrap(), 8_100);
        assert_eq!(stats.u64_field("staleness_batches").unwrap(), 0);

        // Snapshot, restart, and require bit-identical answers.
        let dir = std::env::temp_dir().join(format!("cora_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.snap");
        let bytes = client.snapshot(path.to_str().unwrap()).unwrap();
        assert!(bytes > 0);
        client.shutdown_server().unwrap();
        drop(client);
        server.shutdown();

        let bundle = std::fs::read(&path).unwrap();
        let restored = start_restored(test_config(), "127.0.0.1:0", &bundle).unwrap();
        let mut client = ServeClient::connect(restored.local_addr()).unwrap();
        client.flush().unwrap();
        for (i, &c) in thresholds.iter().enumerate() {
            assert_eq!(client.query_f2(c).unwrap(), f2[i], "f2 at c={c}");
            assert_eq!(client.query_f0(c).unwrap(), f0[i], "f0 at c={c}");
            assert_eq!(client.query_rarity(c).unwrap(), rarity[i], "rarity at c={c}");
        }
        assert_eq!(client.query_heavy_hitters(999, 0.2).unwrap(), hitters);
        for (i, &w) in windows.iter().enumerate() {
            assert_eq!(client.query_window_f2(w, 4096).unwrap(), wf2[i], "window f2 w={w}");
            assert_eq!(client.query_window_f0(w, 4096).unwrap(), wf0[i], "window f0 w={w}");
        }

        // The restored server keeps serving ingest, resuming the tick clock
        // where the snapshot left off; explicit timestamps also work.
        client.ingest(&[(42, 1), (42, 2)]).unwrap();
        client.ingest_at(&[(43, 3, 9_000)]).unwrap();
        let after = client.query_window_f2(16_384, 4096).unwrap();
        // t = 9_000 lands in the base pane [8_960, 9_216).
        assert_eq!(after.resolved_hi, 9_216);
        assert!(after.value > wf2[2].value);
        client.flush().unwrap();
        client.flush().unwrap();
        assert!(client.query_f2(4095).unwrap() > f2[8]);
        drop(client);
        restored.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_mismatched_config_and_garbage() {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.ingest(&[(1, 1), (2, 2)]).unwrap();
        let dir = std::env::temp_dir().join(format!("cora_serve_rej_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.snap");
        client.snapshot(path.to_str().unwrap()).unwrap();
        drop(client);
        server.shutdown();

        let bundle = std::fs::read(&path).unwrap();
        let mut other = test_config();
        other.seed = 99;
        assert!(start_restored(other, "127.0.0.1:0", &bundle).is_err());
        // Fields invisible to the F2 config check must still be validated.
        let mut other = test_config();
        other.x_domain_log2 = 20;
        assert!(start_restored(other, "127.0.0.1:0", &bundle).is_err());
        let mut other = test_config();
        other.phi = 0.2;
        assert!(start_restored(other, "127.0.0.1:0", &bundle).is_err());
        assert!(start_restored(test_config(), "127.0.0.1:0", b"garbage").is_err());
        let mut corrupt = bundle;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 8;
        assert!(start_restored(test_config(), "127.0.0.1:0", &corrupt).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_op_alone_stops_the_listener() {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut client = ServeClient::connect(addr).unwrap();
        client.shutdown_server().unwrap();
        drop(client);
        // The op must wake the blocked acceptor by itself: once it exits,
        // the listener is closed and a fresh request gets no response
        // (connection refused, reset, or EOF) within the read window.
        let died = (0..100).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            match ServeClient::connect(addr) {
                Err(_) => true, // refused: listener gone
                Ok(mut c) => c.ping().is_err(),
            }
        });
        assert!(died, "listener still serving after the shutdown op");
        server.shutdown(); // idempotent
    }

    #[test]
    fn bad_requests_get_error_responses_not_disconnects() {
        let server = start(test_config(), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        // Out-of-range y.
        let err = client.ingest(&[(1, 999_999)]).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        // The connection survives and keeps working.
        client.ping().unwrap();
        assert_eq!(client.ingest(&[(1, 5)]).unwrap(), 1);
        drop(client);
        server.shutdown();
    }
}
