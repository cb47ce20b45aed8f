//! The transport stack shared by both node kinds: one accept thread that
//! gives every admitted connection a thread of its own. The thread parks in
//! a blocking `read` until its client sends something, so a request's
//! latency is its service time plus one scheduler wake-up and an idle
//! connection costs no CPU at all. A connection picks its wire protocol by
//! its first byte (newline-JSON or [binary frames](crate::wire)), passes the
//! shared-secret auth gate, and dispatches every request into a
//! [`ServiceCore`] — an ingest node ([`crate::server`]) or an aggregator
//! ([`crate::cluster`]).
//!
//! Three rules keep the blocking design honest. Every complete request
//! already buffered is answered before the next `read` is issued (a
//! pipelining client never waits on bytes it has already sent). Replies go
//! out with blocking writes, so a client that stops reading stops being
//! read — back-pressure instead of an unbounded reply queue — and is closed
//! after [`WRITE_TIMEOUT`] without progress. And the acceptor keeps a handle
//! on every open socket, so shutdown closes them under their parked readers
//! instead of waiting for the clients to go away.

use crate::protocol::{self, Reply, Request};
use crate::server::ServeError;
use crate::wire::{self, Opcode};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::Duration;

/// The protocol-agnostic service surface a connection dispatches into —
/// implemented by [`ServerCore`] (an ingest node) and by the aggregator
/// core in [`crate::cluster`]. The connection state machine and the
/// acceptor are generic over this trait, so both node kinds share one
/// transport stack (first-byte protocol sniffing, auth gating, pipelining,
/// connection limits).
pub(crate) trait ServiceCore: Send + Sync + 'static {
    /// The configured shared-secret token, when authentication is required.
    fn auth_token(&self) -> Option<&str>;
    /// Count one request (called by the transport for requests it answers
    /// itself: `auth` handling and unauthenticated rejections).
    fn note_request(&self);
    /// Handle one request; the bool asks the listener to shut down.
    fn handle(&self, request: Request) -> (Reply, bool);
    /// The binary ingest fast path (tuples decoded into connection scratch).
    fn ingest_binary(&self, tuples: &[(u64, u64)], ts: &[u64], seq: Option<(u64, u64)>) -> Reply;
}

/// Compare a presented auth token against the configured one without an
/// early exit on the first differing byte — neither the token length nor
/// its content leaks through response timing.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// How long one reply write may wait for a client to make room before the
/// connection is closed: a client that pipelines requests and never reads
/// must not pin a connection slot (and its thread) for ever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The structured refusal an unauthenticated request is answered with while
/// an auth token is configured.
const UNAUTHENTICATED: &str =
    "authentication required: send the auth op with the shared token first";

/// Which protocol a connection speaks, decided once by its first byte.
enum ConnMode {
    /// Nothing received yet.
    Sniffing,
    /// Newline-delimited JSON (first byte `{` or leading whitespace).
    Json,
    /// Length-prefixed binary frames (first byte [`wire::MAGIC`]).
    Binary,
}

/// What a connection does once its buffered requests are answered and the
/// replies written.
enum Next {
    /// Park in `read` until the client sends more.
    Read,
    /// Close (protocol abuse: framing can no longer be trusted).
    Close,
    /// The `shutdown` op: its ack is on the wire, now stop the listener.
    Stop,
}

/// Per-connection protocol state, owned by the connection's thread: the
/// inbound byte buffer, the replies queued by the current pass, and the
/// binary ingest scratch that makes frame decoding allocation-free per tuple.
struct Conn {
    mode: ConnMode,
    /// Inbound bytes. The vector is zero-filled to its whole length once, so
    /// the socket is read straight into `inbuf[filled..]`; `inbuf[..filled]`
    /// is what has arrived and not been parsed yet.
    inbuf: Vec<u8>,
    filled: usize,
    /// JSON only: how many bytes at the front of `inbuf` (the unfinished
    /// line) are already known to hold no newline, so each pass searches
    /// only what the last read added.
    scanned: usize,
    outbuf: Vec<u8>,
    /// Whether this connection has passed the auth gate. Starts `true`
    /// when the core has no token configured; otherwise flips on a
    /// successful `auth` op.
    authed: bool,
    /// Reused binary-ingest decode targets.
    tuples: Vec<(u64, u64)>,
    ts: Vec<u64>,
}

impl Conn {
    fn new(authed: bool) -> Self {
        Self {
            mode: ConnMode::Sniffing,
            inbuf: Vec::new(),
            filled: 0,
            scanned: 0,
            outbuf: Vec::new(),
            authed,
            tuples: Vec::new(),
            ts: Vec::new(),
        }
    }

    /// Dispatch one parsed request through the per-connection auth gate:
    /// `auth` is consumed here (constant-time token compare), and while a
    /// token is configured every other op on an unauthenticated connection
    /// is refused with a structured `request` error — the connection stays
    /// open so the client can authenticate and retry.
    fn dispatch<C: ServiceCore>(&mut self, core: &C, request: Request) -> (Reply, bool) {
        if let Request::Auth { token } = &request {
            core.note_request();
            let reply = match core.auth_token() {
                // No token configured: accept the op as a no-op so clients
                // can send auth unconditionally.
                None => Reply::ok(),
                Some(expected) if constant_time_eq(expected.as_bytes(), token.as_bytes()) => {
                    self.authed = true;
                    Reply::ok()
                }
                Some(_) => Reply::request_error("authentication failed: token mismatch"),
            };
            return (reply, false);
        }
        if !self.authed {
            core.note_request();
            return (Reply::request_error(UNAUTHENTICATED), false);
        }
        core.handle(request)
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    fn queue_json_line(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    /// The unused end of `inbuf`, for the next read to land in.
    fn spare(&mut self) -> &mut [u8] {
        if self.filled == self.inbuf.len() {
            // Full, with an unfinished request at the front. Both protocols
            // cap a request at `MAX_FRAME_BYTES`, so the doubling stops.
            self.inbuf.resize((2 * self.filled).max(16 * 1024), 0);
        }
        &mut self.inbuf[self.filled..]
    }

    /// Serve the connection until the client goes away, abuses the protocol,
    /// stops draining its replies, or the socket is shut down under us.
    fn serve<C: ServiceCore>(
        mut self,
        mut stream: &TcpStream,
        core: &C,
        shutdown: &AtomicBool,
        listener_addr: SocketAddr,
    ) {
        loop {
            match stream.read(self.spare()) {
                // Every complete request that arrived before the EOF was
                // answered before this read was issued.
                Ok(0) => return,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            let next = self.answer_buffered(core);
            // One write per pass: a pipelined train's replies leave
            // together, and at most one read's worth of them is ever held.
            if stream.write_all(&self.outbuf).is_err() {
                return;
            }
            self.outbuf.clear();
            match next {
                Next::Read => {}
                Next::Close => return,
                Next::Stop => {
                    shutdown.store(true, Ordering::Release);
                    // The acceptor is blocked in accept(); wake it with a
                    // throwaway connection so the op alone stops the
                    // listener.
                    let _ = TcpStream::connect(listener_addr);
                    return;
                }
            }
        }
    }

    /// Answer every complete request in `inbuf[..filled]`, queueing the
    /// replies in `outbuf`, and move the unfinished tail to the front. This
    /// never touches the socket, so the caller's blocking read is only ever
    /// issued with no whole request left unparsed.
    fn answer_buffered<C: ServiceCore>(&mut self, core: &C) -> Next {
        let mut pos = 0usize;
        let next = loop {
            match self.mode {
                ConnMode::Sniffing => {
                    // Skip leading whitespace (blank lines between JSON
                    // requests would land here on a reconnect-free client).
                    while pos < self.filled
                        && matches!(self.inbuf[pos], b' ' | b'\t' | b'\r' | b'\n')
                    {
                        pos += 1;
                    }
                    if pos == self.filled {
                        break Next::Read;
                    }
                    match self.inbuf[pos] {
                        wire::MAGIC => self.mode = ConnMode::Binary,
                        b'{' => self.mode = ConnMode::Json,
                        other => {
                            self.queue_json_line(&protocol::error(&format!(
                                "unrecognized protocol: first byte 0x{other:02X} is neither \
                                 JSON ('{{') nor a binary frame (0x{:02X})",
                                wire::MAGIC
                            )));
                            break Next::Close;
                        }
                    }
                }
                ConnMode::Json => {
                    let from = pos + self.scanned;
                    let Some(nl) =
                        self.inbuf[from..self.filled].iter().position(|&b| b == b'\n')
                    else {
                        self.scanned = self.filled - pos;
                        if self.scanned > wire::MAX_FRAME_BYTES {
                            self.queue_json_line(&protocol::error(&format!(
                                "request line exceeds the {}-byte cap",
                                wire::MAX_FRAME_BYTES
                            )));
                            break Next::Close;
                        }
                        break Next::Read;
                    };
                    let line = &self.inbuf[pos..from + nl];
                    pos = from + nl + 1;
                    self.scanned = 0;
                    let text = String::from_utf8_lossy(line);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let (reply, stop) = match Request::parse(trimmed) {
                        Ok(request) => self.dispatch(core, request),
                        Err(e) => (Reply::request_error(format!("bad request: {e}")), false),
                    };
                    let line = reply.render_json();
                    self.queue_json_line(&line);
                    if stop {
                        break Next::Stop;
                    }
                }
                ConnMode::Binary => {
                    let avail = &self.inbuf[pos..self.filled];
                    if avail.len() < wire::HEADER_BYTES {
                        break Next::Read;
                    }
                    let header_bytes: &[u8; wire::HEADER_BYTES] =
                        avail[..wire::HEADER_BYTES].try_into().expect("header size");
                    let header = match wire::parse_header(header_bytes) {
                        Ok(header) => header,
                        Err(e) => {
                            // Framing can't be trusted past a bad header
                            // (magic, version, or a hostile length — which
                            // is rejected before any payload is buffered).
                            let reply = Reply::request_error(e.to_string());
                            let opcode = header_bytes[2];
                            self.queue(&wire::encode_reply(opcode, &reply));
                            break Next::Close;
                        }
                    };
                    if avail.len() < wire::HEADER_BYTES + header.len {
                        break Next::Read; // incomplete frame; wait for more bytes
                    }
                    let payload_start = pos + wire::HEADER_BYTES;
                    pos = payload_start + header.len;
                    let no_ack = header.flags & wire::FLAG_NO_ACK != 0;
                    match Opcode::from_byte(header.opcode) {
                        Some(Opcode::Ingest) if self.authed => {
                            // The hot path: decode straight into this
                            // connection's scratch, no per-tuple allocation,
                            // and skip the ack entirely when pipelined.
                            let payload = &self.inbuf[payload_start..pos];
                            let reply = match wire::decode_ingest_into(
                                payload,
                                &mut self.tuples,
                                &mut self.ts,
                            ) {
                                Ok(meta) => {
                                    core.note_request();
                                    core.ingest_binary(&self.tuples, &self.ts, meta.seq)
                                }
                                Err(e) => Reply::request_error(format!("bad ingest frame: {e}")),
                            };
                            let suppress = no_ack && matches!(reply, Reply::Ok(_));
                            if !suppress {
                                self.queue(&wire::encode_reply(header.opcode, &reply));
                            }
                        }
                        Some(Opcode::Ingest) => {
                            // Unauthenticated fast-path ingest is refused
                            // without decoding; errors are never suppressed,
                            // so even a NO_ACK pipeline hears about it.
                            core.note_request();
                            self.queue(&wire::encode_reply(
                                header.opcode,
                                &Reply::request_error(UNAUTHENTICATED),
                            ));
                        }
                        Some(opcode) => {
                            let payload = &self.inbuf[payload_start..pos];
                            let (reply, stop) = match wire::decode_request(opcode, payload) {
                                Ok(request) => self.dispatch(core, request),
                                Err(e) => {
                                    (Reply::request_error(format!("bad request frame: {e}")), false)
                                }
                            };
                            // Replication requests are acknowledged with the
                            // dedicated REPL_ACK opcode instead of an echo.
                            let reply_opcode = match opcode {
                                Opcode::ReplHello | Opcode::ReplDelta | Opcode::ReplSnapshot => {
                                    Opcode::ReplAck as u8
                                }
                                _ => header.opcode,
                            };
                            let suppress = no_ack && matches!(reply, Reply::Ok(_)) && !stop;
                            if !suppress {
                                self.queue(&wire::encode_reply(reply_opcode, &reply));
                            }
                            if stop {
                                break Next::Stop;
                            }
                        }
                        None => {
                            // A well-formed frame with an unknown opcode:
                            // answer and keep serving, like the JSON
                            // protocol's unknown-op error.
                            self.queue(&wire::encode_reply(
                                header.opcode,
                                &Reply::request_error(format!(
                                    "unknown opcode 0x{:02X}",
                                    header.opcode
                                )),
                            ));
                        }
                    }
                }
            }
        };
        if pos > 0 {
            self.inbuf.copy_within(pos..self.filled, 0);
            self.filled -= pos;
        }
        next
    }
}

/// Bind the shared transport stack — one accept thread that spawns a
/// blocking thread per admitted connection — over any [`ServiceCore`]. Used
/// by [`crate::server::start`] (ingest nodes) and by
/// [`crate::cluster::start_aggregator`].
pub(crate) fn spawn_acceptor<C: ServiceCore>(
    core: Arc<C>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
) -> Result<thread::JoinHandle<()>, ServeError> {
    let addr = listener.local_addr()?;
    thread::Builder::new()
        .name("cora-serve-accept".into())
        .spawn(move || {
            // With no token configured every connection starts authenticated.
            let open = core.auth_token().is_none();
            // One entry per connection being served. The thread owns the
            // socket, so it closes on every exit path (a panic included);
            // the weak handle is for shutdown, which must close sockets
            // whose threads are parked in `read`.
            let mut conns: Vec<(Weak<TcpStream>, thread::JoinHandle<()>)> = Vec::new();
            loop {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok((mut stream, _)) = listener.accept() else {
                    continue;
                };
                if shutdown.load(Ordering::Acquire) {
                    break; // the shutdown wake-up connection
                }
                // Reap finished threads here, as connections churn: their
                // slots are reusable from the moment they exit.
                conns.retain(|(_, thread)| !thread.is_finished());
                if conns.len() >= max_connections {
                    // Over the configured limit: answer with one error line
                    // and close, instead of silently queueing in the accept
                    // backlog. (Binary clients see a failed handshake — the
                    // reply is not a frame — and close too.)
                    let refusal = protocol::error_with_kind(
                        protocol::ErrorKind::Server,
                        &format!(
                            "connection limit reached \
                             (max_connections = {max_connections})"
                        ),
                    );
                    let _ = stream.write_all(refusal.as_bytes());
                    let _ = stream.write_all(b"\n");
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                let stream = Arc::new(stream);
                let handle = Arc::downgrade(&stream);
                let (core, shutdown) = (Arc::clone(&core), Arc::clone(&shutdown));
                if let Ok(thread) = thread::Builder::new()
                    .name("cora-serve-conn".into())
                    .spawn(move || Conn::new(open).serve(&stream, core.as_ref(), &shutdown, addr))
                {
                    conns.push((handle, thread));
                }
            }
            for (handle, thread) in conns {
                if let Some(stream) = handle.upgrade() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                let _ = thread.join();
            }
        })
        .map_err(|e| ServeError::Invalid(format!("could not spawn the accept loop: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers everything with a bare `ok`.
    struct Yes;

    impl ServiceCore for Yes {
        fn auth_token(&self) -> Option<&str> {
            None
        }
        fn note_request(&self) {}
        fn handle(&self, _request: Request) -> (Reply, bool) {
            (Reply::ok(), false)
        }
        fn ingest_binary(&self, _: &[(u64, u64)], _: &[u64], _: Option<(u64, u64)>) -> Reply {
            Reply::ok()
        }
    }

    /// Deliver `bytes` the way one `read` would, then run the parse pass.
    fn deliver(conn: &mut Conn, bytes: &[u8]) -> Next {
        conn.spare()[..bytes.len()].copy_from_slice(bytes);
        conn.filled += bytes.len();
        conn.answer_buffered(&Yes)
    }

    /// One parse pass per 1 KiB segment of an 8 MiB line — the interleaving
    /// a slow sender produces, forced here instead of hoped for. Searching
    /// the line from its start on every pass reads 32 GiB (minutes in a
    /// debug build); resuming where the last pass stopped reads 8 MiB.
    #[test]
    fn a_long_json_line_is_scanned_once() {
        let mut conn = Conn::new(true);
        assert!(matches!(deliver(&mut conn, b"{\"op\":\"ping\"}\n"), Next::Read));
        conn.outbuf.clear();
        let started = std::time::Instant::now();
        let segment = [b' '; 1024];
        for _ in 0..8 * 1024 {
            assert!(matches!(deliver(&mut conn, &segment), Next::Read));
        }
        assert_eq!(conn.scanned, 8 << 20);
        // The newline arrives in a segment of its own, after the request.
        assert!(matches!(deliver(&mut conn, b"{\"op\":\"ping\"}"), Next::Read));
        assert!(conn.outbuf.is_empty());
        assert!(matches!(deliver(&mut conn, b"\n{\"op\":"), Next::Read));
        assert_eq!(conn.outbuf, b"{\"ok\":true}\n");
        assert_eq!((conn.filled, conn.scanned), (6, 6), "the next line's start is kept");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(3), "took {took:?}");
    }
}
