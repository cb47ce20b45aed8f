//! The transport stack shared by both node kinds: one accept thread feeding
//! a fixed pool of polling workers, each sweeping its connections with
//! non-blocking reads. A connection picks its wire protocol by its first
//! byte (newline-JSON or [binary frames](crate::wire)), passes the
//! shared-secret auth gate, and dispatches every request into a
//! [`ServiceCore`] — an ingest node ([`crate::server`]) or an aggregator
//! ([`crate::cluster`]).

use crate::protocol::{self, Reply, Request};
use crate::server::ServeError;
use crate::wire::{self, Opcode};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The protocol-agnostic service surface a connection dispatches into —
/// implemented by [`ServerCore`] (an ingest node) and by the aggregator
/// core in [`crate::cluster`]. The connection state machine, the worker
/// pool, and the acceptor are generic over this trait, so both node kinds
/// share one transport stack (first-byte protocol sniffing, auth gating,
/// pipelining, connection limits).
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

/// Poll interval for the accept loop's shutdown checks and the deepest
/// idle-sleep tier of the connection workers.
pub(crate) const NET_TICK: Duration = Duration::from_millis(50);

/// How many scheduler-yield spins an active worker burns before it starts
/// sleeping — long enough to cover a client's turnaround on loopback, so
/// request/response ping-pong never eats a sleep latency.
const IDLE_SPINS: u32 = 256;

/// First sleep tier after the spin budget; doubles up to [`NET_TICK`].
const IDLE_SLEEP_FLOOR: Duration = Duration::from_micros(200);

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

/// What one service pass over a connection produced.
enum ConnStep {
    /// Bytes moved or requests were handled — keep spinning.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// Connection finished (client closed, fatal error, or protocol abuse).
    Close,
}

/// Per-connection state owned by a worker: the socket (non-blocking), the
/// inbound byte buffer, pending outbound bytes, and the binary ingest
/// scratch that makes frame decoding allocation-free per tuple.
struct Conn {
    stream: TcpStream,
    mode: ConnMode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Close once `outbuf` has drained (protocol abuse or shutdown ack).
    close_after_flush: bool,
    /// Whether this connection has passed the auth gate. Starts `true`
    /// when the core has no token configured; otherwise flips on a
    /// successful `auth` op.
    authed: bool,
    /// Reused binary-ingest decode targets.
    tuples: Vec<(u64, u64)>,
    ts: Vec<u64>,
}

impl Conn {
    fn new(stream: TcpStream, authed: bool) -> Self {
        Self {
            stream,
            mode: ConnMode::Sniffing,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
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

    /// Push pending output to the socket without blocking. Returns false on
    /// a fatal socket error.
    fn flush_out(&mut self, progress: &mut bool) -> bool {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outpos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.outpos == self.outbuf.len() && self.outpos > 0 {
            self.outbuf.clear();
            self.outpos = 0;
        }
        true
    }

    /// Read whatever the socket has ready (bounded per pass so one firehose
    /// client cannot starve its worker's other connections). Returns false
    /// when the connection is done (EOF or fatal error).
    fn fill_in(&mut self, chunk: &mut [u8], progress: &mut bool) -> bool {
        for _ in 0..16 {
            match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    *progress = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// One service pass: flush, read, then handle every complete message
    /// sitting in the inbound buffer.
    fn step<C: ServiceCore>(
        &mut self,
        core: &C,
        shutdown: &Arc<AtomicBool>,
        listener_addr: SocketAddr,
        chunk: &mut [u8],
    ) -> ConnStep {
        let mut progress = false;
        if !self.flush_out(&mut progress) {
            return ConnStep::Close;
        }
        if self.close_after_flush {
            return if self.outpos < self.outbuf.len() {
                ConnStep::Idle
            } else {
                ConnStep::Close
            };
        }
        if !self.fill_in(chunk, &mut progress) {
            // Serve whatever complete requests arrived before EOF, then
            // close once the answers are flushed.
            self.close_after_flush = true;
        }
        let mut pos = 0usize;
        loop {
            match self.mode {
                ConnMode::Sniffing => {
                    // Skip leading whitespace (blank lines between JSON
                    // requests would land here on a reconnect-free client).
                    while pos < self.inbuf.len()
                        && matches!(self.inbuf[pos], b' ' | b'\t' | b'\r' | b'\n')
                    {
                        pos += 1;
                    }
                    match self.inbuf.get(pos) {
                        None => break,
                        Some(&wire::MAGIC) => self.mode = ConnMode::Binary,
                        Some(&b'{') => self.mode = ConnMode::Json,
                        Some(&other) => {
                            self.queue_json_line(&protocol::error(&format!(
                                "unrecognized protocol: first byte 0x{other:02X} is neither \
                                 JSON ('{{') nor a binary frame (0x{:02X})",
                                wire::MAGIC
                            )));
                            self.close_after_flush = true;
                            break;
                        }
                    }
                }
                ConnMode::Json => {
                    let Some(nl) = self.inbuf[pos..].iter().position(|&b| b == b'\n') else {
                        if self.inbuf.len() - pos > wire::MAX_FRAME_BYTES {
                            self.queue_json_line(&protocol::error(&format!(
                                "request line exceeds the {}-byte cap",
                                wire::MAX_FRAME_BYTES
                            )));
                            self.close_after_flush = true;
                        }
                        break;
                    };
                    let line = &self.inbuf[pos..pos + nl];
                    pos += nl + 1;
                    let text = String::from_utf8_lossy(line);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    progress = true;
                    let (reply, stop) = match Request::parse(trimmed) {
                        Ok(request) => self.dispatch(core, request),
                        Err(e) => (Reply::request_error(format!("bad request: {e}")), false),
                    };
                    let line = reply.render_json();
                    self.queue_json_line(&line);
                    if stop {
                        self.begin_shutdown(shutdown, listener_addr);
                        break;
                    }
                }
                ConnMode::Binary => {
                    let avail = &self.inbuf[pos..];
                    if avail.len() < wire::HEADER_BYTES {
                        break;
                    }
                    let header_bytes: &[u8; wire::HEADER_BYTES] =
                        avail[..wire::HEADER_BYTES].try_into().expect("header size");
                    let header = match wire::parse_header(header_bytes) {
                        Ok(header) => header,
                        Err(e) => {
                            // Framing can't be trusted past a bad header
                            // (magic, version, or a hostile length — which
                            // is rejected before any payload is buffered).
                            self.queue(&wire::encode_reply(
                                header_bytes[2],
                                &Reply::request_error(e.to_string()),
                            ));
                            self.close_after_flush = true;
                            progress = true;
                            break;
                        }
                    };
                    if avail.len() < wire::HEADER_BYTES + header.len {
                        break; // incomplete frame; wait for more bytes
                    }
                    let payload_start = pos + wire::HEADER_BYTES;
                    pos = payload_start + header.len;
                    progress = true;
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
                                self.begin_shutdown(shutdown, listener_addr);
                                break;
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
        }
        if pos > 0 {
            self.inbuf.drain(..pos);
        }
        if !self.flush_out(&mut progress) {
            return ConnStep::Close;
        }
        if self.close_after_flush && self.outpos >= self.outbuf.len() {
            return ConnStep::Close;
        }
        if progress {
            ConnStep::Progress
        } else {
            ConnStep::Idle
        }
    }

    /// The shutdown op: deliver the ack, then stop the listener. The ack is
    /// flushed with a short blocking retry so the flag flip can't race the
    /// worker teardown and eat the response.
    fn begin_shutdown(&mut self, shutdown: &Arc<AtomicBool>, listener_addr: SocketAddr) {
        let deadline = std::time::Instant::now() + NET_TICK;
        let mut progress = false;
        while self.outpos < self.outbuf.len() && std::time::Instant::now() < deadline {
            if !self.flush_out(&mut progress) {
                break;
            }
            if self.outpos < self.outbuf.len() {
                thread::sleep(Duration::from_micros(100));
            }
        }
        shutdown.store(true, Ordering::Release);
        // The acceptor may be blocked in accept(); wake it with a throwaway
        // connection so the shutdown op alone stops the listener.
        let _ = TcpStream::connect(listener_addr);
        self.close_after_flush = true;
    }
}

/// A connection worker: owns a set of sockets, polls them with non-blocking
/// reads, and escalates from spinning to sleeping as they go idle. A fixed
/// pool of these replaces one-thread-per-connection — thousands of idle
/// clients cost failed `read` syscalls on a few threads, not thousands of
/// parked stacks.
#[allow(clippy::needless_pass_by_value)]
fn worker_loop<C: ServiceCore>(
    core: Arc<C>,
    shutdown: Arc<AtomicBool>,
    rx: std::sync::mpsc::Receiver<TcpStream>,
    live: Arc<AtomicU64>,
    listener_addr: SocketAddr,
) {
    // With no token configured every connection starts authenticated.
    let open = core.auth_token().is_none();
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut spins = 0u32;
    let mut sleep = IDLE_SLEEP_FLOOR;
    loop {
        if shutdown.load(Ordering::Acquire) {
            live.fetch_sub(conns.len() as u64, Ordering::AcqRel);
            return;
        }
        while let Ok(stream) = rx.try_recv() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            conns.push(Conn::new(stream, open));
        }
        let mut progress = false;
        let mut index = 0;
        while index < conns.len() {
            match conns[index].step(core.as_ref(), &shutdown, listener_addr, &mut chunk) {
                ConnStep::Progress => {
                    progress = true;
                    index += 1;
                }
                ConnStep::Idle => index += 1,
                ConnStep::Close => {
                    conns.swap_remove(index);
                    live.fetch_sub(1, Ordering::AcqRel);
                    progress = true;
                }
            }
        }
        if progress {
            spins = 0;
            sleep = IDLE_SLEEP_FLOOR;
            continue;
        }
        if conns.is_empty() {
            // Nothing to poll: block on the hand-off channel (bounded so the
            // shutdown flag is still noticed).
            if let Ok(stream) = rx.recv_timeout(NET_TICK) {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream, open));
            }
            continue;
        }
        spins += 1;
        if spins <= IDLE_SPINS {
            thread::yield_now();
        } else {
            thread::sleep(sleep);
            sleep = (sleep * 2).min(NET_TICK);
        }
    }
}

/// Bind the shared transport stack — a fixed worker pool of non-blocking
/// connection pollers fed by one accept thread — over any [`ServiceCore`].
/// Used by [`start`] (ingest nodes) and by
/// [`crate::cluster::start_aggregator`].
pub(crate) fn spawn_acceptor<C: ServiceCore>(
    core: Arc<C>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
) -> Result<thread::JoinHandle<()>, ServeError> {
    let addr = listener.local_addr()?;
    // A small fixed worker pool services every connection with non-blocking
    // reads; the acceptor only hands sockets over. Thousands of idle clients
    // therefore cost a few polling threads, not thousands of parked stacks.
    let workers = thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    let live = Arc::new(AtomicU64::new(0));
    let acceptor_shutdown = shutdown;
    thread::Builder::new()
        .name("cora-serve-accept".into())
        .spawn(move || {
            let mut txs = Vec::with_capacity(workers);
            let mut pool = Vec::with_capacity(workers);
            for i in 0..workers {
                let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
                let core = Arc::clone(&core);
                let shutdown = Arc::clone(&acceptor_shutdown);
                let live = Arc::clone(&live);
                if let Ok(handle) = thread::Builder::new()
                    .name(format!("cora-serve-worker-{i}"))
                    .spawn(move || worker_loop(core, shutdown, rx, live, addr))
                {
                    txs.push(tx);
                    pool.push(handle);
                }
            }
            let mut next = 0usize;
            loop {
                if acceptor_shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        if acceptor_shutdown.load(Ordering::Acquire) {
                            break; // the shutdown wake-up connection
                        }
                        if live.load(Ordering::Acquire) >= max_connections as u64 {
                            // Over the configured limit: answer with one
                            // error line and close, instead of silently
                            // queueing in the accept backlog. (Binary
                            // clients see a failed handshake — the reply is
                            // not a frame — and close too.)
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
                        if txs.is_empty() {
                            continue;
                        }
                        live.fetch_add(1, Ordering::AcqRel);
                        if txs[next % txs.len()].send(stream).is_err() {
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                        next = next.wrapping_add(1);
                    }
                    Err(_) => {
                        if acceptor_shutdown.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
            }
            drop(txs);
            for handle in pool {
                let _ = handle.join();
            }
        })
        .map_err(|e| ServeError::Invalid(format!("could not spawn the accept loop: {e}")))
}
