//! The length-prefixed binary wire protocol.
//!
//! Newline-JSON (see [`crate::protocol`]) is friendly to `netcat` and
//! debuggers, but it taxes the hot path: every ingest batch is rendered to
//! decimal text, reparsed, and reassembled into vectors. This module frames
//! the same request/response surface in binary, built on the snapshot codec
//! primitives ([`ByteWriter`]/[`ByteReader`], little-endian throughout), so
//! a 1 000-tuple ingest is one `memcpy`-shaped decode instead of ~2 000
//! integer parses.
//!
//! ## Frame layout
//!
//! ```text
//!  offset  size  field
//!  ------  ----  ---------------------------------------------------------
//!       0     1  magic     0xCB
//!       1     1  version   1
//!       2     1  opcode    (request: the op; response: echo of the request)
//!       3     1  flags     request:  bit 0 = NO_ACK (suppress the success
//!                                    response — errors are always answered)
//!                          response: bit 0 = ERROR
//!       4     4  length    payload byte count, u32 little-endian
//!       8   len  payload   opcode-specific (below)
//! ```
//!
//! ## Negotiation
//!
//! The server sniffs the **first byte** of each connection: `{` (or leading
//! whitespace) selects the JSON line protocol, [`MAGIC`] selects binary, and
//! anything else is answered with one JSON error line before the connection
//! closes. A connection never switches protocols mid-stream. Unknown
//! versions and oversized declared lengths (> [`MAX_FRAME_BYTES`]) are
//! rejected **before** any payload is buffered, with an ERROR response
//! frame, and the connection closes (framing can no longer be trusted).
//! Unknown opcodes in a well-formed frame get an ERROR response and the
//! connection stays usable, mirroring the JSON protocol's unknown-op error.
//!
//! ## Opcodes and payloads
//!
//! | opcode | op              | request payload                                  |
//! |--------|-----------------|--------------------------------------------------|
//! | 0x01   | `ping`          | —                                                |
//! | 0x02   | `config`        | —                                                |
//! | 0x03   | `ingest`        | `u32 n`, `u8 meta`, `[u64 writer, u64 seq]`, `n×u64 xs`, `n×u64 ys`, `[n×u64 ts]` |
//! | 0x04   | `flush`         | —                                                |
//! | 0x05   | `f2`            | `u64 c`                                          |
//! | 0x06   | `f0`            | `u64 c`                                          |
//! | 0x07   | `rarity`        | `u64 c`                                          |
//! | 0x08   | `heavy_hitters` | `u64 c`, `f64 phi`                               |
//! | 0x09   | `window_f2`     | `u64 window`, `u64 c`                            |
//! | 0x0A   | `window_f0`     | `u64 window`, `u64 c`                            |
//! | 0x0B   | `stats`         | —                                                |
//! | 0x0C   | `snapshot`      | `str path` (u64 length + UTF-8 bytes)            |
//! | 0x0D   | `shutdown`      | —                                                |
//! | 0x0E   | `auth`          | `str token`                                      |
//! | 0x0F   | `set_f0`        | `str a`, `str b`, `u8 op` (0 ∪, 1 ∩, 2 ∖), `u64 c` |
//! | 0x10   | `streams`       | —                                                |
//! | 0x11   | `repl_hello`    | `str stream`, `u64 fingerprint`                  |
//! | 0x12   | `repl_delta`    | `str stream`, then a sealed container, full when `g_from = 0` |
//!
//! Both `repl_*` replies echo the request opcode like every other op and
//! carry the aggregator's `high_water` generation. A full container is
//! still one frame, so replicated state is capped at [`MAX_FRAME_BYTES`]
//! (16 MiB) — far above any sketch-only bundle, but a hard error (not
//! silent truncation) if exceeded.
//!
//! The ingest `meta` byte carries bit 0 = explicit timestamps follow the y
//! lane, bit 1 = a `(writer, seq)` idempotency pair precedes the x lane
//! (see [`crate::protocol::Request::Ingest`]); other bits are rejected.
//!
//! A response payload is either `str message`, `str kind` (ERROR flag set;
//! `kind` is an [`crate::protocol::ErrorKind`] wire name, mirroring the
//! JSON `kind` field) or a field list: `u8 nfields`, then per field
//! `str key`, `u8 tag`, value — tags 0 `u64`, 1 `f64` (IEEE bits),
//! 2 `u64` array (`u32 n` + values), 3 `f64` array, 4 null, 5 `str`. Field
//! lists mirror the JSON object fields one-for-one, so both transports
//! answer identically.
//!
//! ## Pipelining
//!
//! A client may stream any number of request frames without reading
//! responses in between; the server answers in order. `NO_ACK` on `ingest`
//! suppresses the success response entirely — the client fires N batches,
//! then sends a `ping` as a sync point and drains whatever is in the pipe
//! (error frames from failed batches, then the ping's reply). This is what
//! closes the per-batch round-trip tax on bulk loads.

use crate::protocol::{Reply, Request, Value};
use cora_sketch::codec::{ByteReader, ByteWriter};

/// Ingest `meta` bit: explicit per-tuple timestamps follow the y lane.
const INGEST_HAS_TS: u8 = 1;
/// Ingest `meta` bit: a `(writer, seq)` pair precedes the x lane.
const INGEST_HAS_SEQ: u8 = 2;

/// First byte of every binary frame — also the negotiation byte (JSON lines
/// start with `{`).
pub const MAGIC: u8 = 0xCB;

/// Protocol version carried in every frame.
pub const VERSION: u8 = 1;

/// Fixed frame header size in bytes.
pub const HEADER_BYTES: usize = 8;

/// Hard cap on a frame payload; declared lengths above this are rejected
/// before any allocation. Also used as the JSON line-length cap.
pub const MAX_FRAME_BYTES: usize = 1 << 24; // 16 MiB

/// Request flag: suppress the success response (errors are still answered).
pub const FLAG_NO_ACK: u8 = 1;

/// Response flag: the payload is an error message, not a field list.
pub const FLAG_ERROR: u8 = 1;

/// Binary opcodes, one per protocol op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness check (also the pipelining sync point).
    Ping = 0x01,
    /// Report the server's construction parameters.
    Config = 0x02,
    /// Batch-ingest tuples.
    Ingest = 0x03,
    /// Read-your-writes barrier.
    Flush = 0x04,
    /// Correlated `F_2` query.
    F2 = 0x05,
    /// Correlated distinct-count query.
    F0 = 0x06,
    /// Correlated rarity query.
    Rarity = 0x07,
    /// Correlated heavy-hitters query.
    HeavyHitters = 0x08,
    /// Windowed correlated `F_2` query.
    WindowF2 = 0x09,
    /// Windowed correlated `F_0` query.
    WindowF0 = 0x0A,
    /// Service statistics.
    Stats = 0x0B,
    /// Write a snapshot bundle server-side.
    Snapshot = 0x0C,
    /// Stop the listener after acknowledging.
    Shutdown = 0x0D,
    /// Present the shared-secret auth token.
    Auth = 0x0E,
    /// Multi-stream set-expression distinct-count query (aggregator only).
    SetF0 = 0x0F,
    /// List the registered upstream streams (aggregator only).
    Streams = 0x10,
    /// Replication handshake: name the stream, prove config compatibility.
    ReplHello = 0x11,
    /// Ship one replication container for a stream (a full replacement
    /// when its `g_from` is 0).
    ReplDelta = 0x12,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => Opcode::Ping,
            0x02 => Opcode::Config,
            0x03 => Opcode::Ingest,
            0x04 => Opcode::Flush,
            0x05 => Opcode::F2,
            0x06 => Opcode::F0,
            0x07 => Opcode::Rarity,
            0x08 => Opcode::HeavyHitters,
            0x09 => Opcode::WindowF2,
            0x0A => Opcode::WindowF0,
            0x0B => Opcode::Stats,
            0x0C => Opcode::Snapshot,
            0x0D => Opcode::Shutdown,
            0x0E => Opcode::Auth,
            0x0F => Opcode::SetF0,
            0x10 => Opcode::Streams,
            0x11 => Opcode::ReplHello,
            0x12 => Opcode::ReplDelta,
            _ => return None,
        })
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Raw opcode byte (may not map to a known [`Opcode`]).
    pub opcode: u8,
    /// Request or response flags.
    pub flags: u8,
    /// Payload length in bytes.
    pub len: usize,
}

/// Why a frame header was rejected. [`HeaderError::BadLength`] and
/// [`HeaderError::BadMagic`]/[`HeaderError::BadVersion`] mean framing can no
/// longer be trusted and the connection should close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_FRAME_BYTES`].
    BadLength(usize),
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::BadMagic(b) => write!(f, "bad frame magic byte 0x{b:02X}"),
            HeaderError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {VERSION})")
            }
            HeaderError::BadLength(len) => write!(
                f,
                "declared frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
        }
    }
}

/// Parse and validate the fixed 8-byte header. The length cap is enforced
/// here, before any payload is read or allocated.
pub fn parse_header(bytes: &[u8; HEADER_BYTES]) -> Result<Header, HeaderError> {
    if bytes[0] != MAGIC {
        return Err(HeaderError::BadMagic(bytes[0]));
    }
    if bytes[1] != VERSION {
        return Err(HeaderError::BadVersion(bytes[1]));
    }
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(HeaderError::BadLength(len));
    }
    Ok(Header {
        opcode: bytes[2],
        flags: bytes[3],
        len,
    })
}

fn frame(opcode: u8, flags: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(opcode);
    out.push(flags);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode one request as a complete frame. `flags` is normally 0;
/// [`FLAG_NO_ACK`] is meaningful on ingest.
pub fn encode_request(request: &Request, flags: u8) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let opcode = match request {
        Request::Ping => Opcode::Ping,
        Request::Config => Opcode::Config,
        Request::Ingest { xs, ys, ts, seq } => {
            w.put_u32(xs.len() as u32);
            let mut meta = 0u8;
            if ts.is_some() {
                meta |= INGEST_HAS_TS;
            }
            if seq.is_some() {
                meta |= INGEST_HAS_SEQ;
            }
            w.put_u8(meta);
            if let Some((writer, seq)) = seq {
                w.put_u64(*writer);
                w.put_u64(*seq);
            }
            for &x in xs {
                w.put_u64(x);
            }
            for &y in ys {
                w.put_u64(y);
            }
            if let Some(ts) = ts {
                for &t in ts {
                    w.put_u64(t);
                }
            }
            Opcode::Ingest
        }
        Request::Flush => Opcode::Flush,
        Request::QueryF2 { c } => {
            w.put_u64(*c);
            Opcode::F2
        }
        Request::QueryF0 { c } => {
            w.put_u64(*c);
            Opcode::F0
        }
        Request::QueryRarity { c } => {
            w.put_u64(*c);
            Opcode::Rarity
        }
        Request::QueryHeavyHitters { c, phi } => {
            w.put_u64(*c);
            w.put_f64(*phi);
            Opcode::HeavyHitters
        }
        Request::WindowF2 { window, c } => {
            w.put_u64(*window);
            w.put_u64(*c);
            Opcode::WindowF2
        }
        Request::WindowF0 { window, c } => {
            w.put_u64(*window);
            w.put_u64(*c);
            Opcode::WindowF0
        }
        Request::Stats => Opcode::Stats,
        Request::Snapshot { path } => {
            w.put_str(path);
            Opcode::Snapshot
        }
        Request::Shutdown => Opcode::Shutdown,
        Request::Auth { token } => {
            w.put_str(token);
            Opcode::Auth
        }
        Request::SetF0 { a, b, op, c } => {
            w.put_str(a);
            w.put_str(b);
            w.put_u8(*op as u8);
            w.put_u64(*c);
            Opcode::SetF0
        }
        Request::Streams => Opcode::Streams,
        Request::ReplHello { stream, fingerprint } => {
            w.put_str(stream);
            w.put_u64(*fingerprint);
            Opcode::ReplHello
        }
        Request::ReplDelta { stream, frame: bytes } => {
            w.put_str(stream);
            w.put_bytes(bytes);
            Opcode::ReplDelta
        }
    };
    frame(opcode as u8, flags, w.as_bytes())
}

/// Encode an ingest request frame directly from tuple slices (no
/// intermediate `xs`/`ys` vectors — the client's pipelined hot path).
/// `seq` is the optional `(writer, seq)` idempotency pair.
pub fn encode_ingest(
    tuples: &[(u64, u64)],
    ts: Option<&[u64]>,
    seq: Option<(u64, u64)>,
    flags: u8,
) -> Vec<u8> {
    debug_assert!(ts.map_or(true, |ts| ts.len() == tuples.len()));
    let mut w = ByteWriter::new();
    w.put_u32(tuples.len() as u32);
    let mut meta = 0u8;
    if ts.is_some() {
        meta |= INGEST_HAS_TS;
    }
    if seq.is_some() {
        meta |= INGEST_HAS_SEQ;
    }
    w.put_u8(meta);
    if let Some((writer, seq)) = seq {
        w.put_u64(writer);
        w.put_u64(seq);
    }
    for &(x, _) in tuples {
        w.put_u64(x);
    }
    for &(_, y) in tuples {
        w.put_u64(y);
    }
    if let Some(ts) = ts {
        for &t in ts {
            w.put_u64(t);
        }
    }
    frame(Opcode::Ingest as u8, flags, w.as_bytes())
}

/// What an ingest payload carried besides the tuples themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestMeta {
    /// Explicit per-tuple timestamps were present.
    pub has_ts: bool,
    /// The `(writer, seq)` idempotency pair, when sent.
    pub seq: Option<(u64, u64)>,
}

/// Decode an ingest payload into reusable scratch buffers — the server's
/// zero-per-tuple-allocation path (`tuples`/`ts` are cleared, then filled).
pub fn decode_ingest_into(
    payload: &[u8],
    tuples: &mut Vec<(u64, u64)>,
    ts: &mut Vec<u64>,
) -> Result<IngestMeta, String> {
    tuples.clear();
    ts.clear();
    let mut r = ByteReader::new(payload);
    let n = r.get_u32().map_err(|e| e.to_string())? as usize;
    let meta = r.get_u8().map_err(|e| e.to_string())?;
    if meta & !(INGEST_HAS_TS | INGEST_HAS_SEQ) != 0 {
        return Err(format!("invalid ingest meta byte 0x{meta:02X}"));
    }
    let has_ts = meta & INGEST_HAS_TS != 0;
    let seq = if meta & INGEST_HAS_SEQ != 0 {
        Some((
            r.get_u64().map_err(|e| e.to_string())?,
            r.get_u64().map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    let lanes = if has_ts { 3 } else { 2 };
    if r.remaining() != n * 8 * lanes {
        return Err(format!(
            "ingest payload declares {n} tuples ({} value bytes) but carries {}",
            n * 8 * lanes,
            r.remaining()
        ));
    }
    tuples.reserve(n);
    let xs = r.take(n * 8).map_err(|e| e.to_string())?;
    let ys = r.take(n * 8).map_err(|e| e.to_string())?;
    for (xc, yc) in xs.chunks_exact(8).zip(ys.chunks_exact(8)) {
        tuples.push((
            u64::from_le_bytes(xc.try_into().expect("8-byte chunk")),
            u64::from_le_bytes(yc.try_into().expect("8-byte chunk")),
        ));
    }
    if has_ts {
        ts.reserve(n);
        let tsb = r.take(n * 8).map_err(|e| e.to_string())?;
        for tc in tsb.chunks_exact(8) {
            ts.push(u64::from_le_bytes(tc.try_into().expect("8-byte chunk")));
        }
    }
    Ok(IngestMeta { has_ts, seq })
}

/// Decode a non-ingest request payload (ingest goes through
/// [`decode_ingest_into`] so the server can reuse scratch buffers).
pub fn decode_request(opcode: Opcode, payload: &[u8]) -> Result<Request, String> {
    let mut r = ByteReader::new(payload);
    let e = |err: cora_sketch::codec::CodecError| err.to_string();
    let request = match opcode {
        Opcode::Ping => Request::Ping,
        Opcode::Config => Request::Config,
        Opcode::Ingest => {
            let mut tuples = Vec::new();
            let mut ts = Vec::new();
            let meta = decode_ingest_into(payload, &mut tuples, &mut ts)?;
            return Ok(Request::Ingest {
                xs: tuples.iter().map(|&(x, _)| x).collect(),
                ys: tuples.iter().map(|&(_, y)| y).collect(),
                ts: meta.has_ts.then_some(ts),
                seq: meta.seq,
            });
        }
        Opcode::Flush => Request::Flush,
        Opcode::F2 => Request::QueryF2 { c: r.get_u64().map_err(e)? },
        Opcode::F0 => Request::QueryF0 { c: r.get_u64().map_err(e)? },
        Opcode::Rarity => Request::QueryRarity { c: r.get_u64().map_err(e)? },
        Opcode::HeavyHitters => Request::QueryHeavyHitters {
            c: r.get_u64().map_err(e)?,
            phi: r.get_f64().map_err(e)?,
        },
        Opcode::WindowF2 => Request::WindowF2 {
            window: r.get_u64().map_err(e)?,
            c: r.get_u64().map_err(e)?,
        },
        Opcode::WindowF0 => Request::WindowF0 {
            window: r.get_u64().map_err(e)?,
            c: r.get_u64().map_err(e)?,
        },
        Opcode::Stats => Request::Stats,
        Opcode::Snapshot => Request::Snapshot { path: r.get_str().map_err(e)? },
        Opcode::Shutdown => Request::Shutdown,
        Opcode::Auth => Request::Auth { token: r.get_str().map_err(e)? },
        Opcode::SetF0 => {
            let a = r.get_str().map_err(e)?;
            let b = r.get_str().map_err(e)?;
            let tag = r.get_u8().map_err(e)?;
            let op = crate::protocol::SetOp::from_tag(tag)
                .ok_or_else(|| format!("unknown set_f0 op tag {tag}"))?;
            Request::SetF0 { a, b, op, c: r.get_u64().map_err(e)? }
        }
        Opcode::Streams => Request::Streams,
        Opcode::ReplHello => Request::ReplHello {
            stream: r.get_str().map_err(e)?,
            fingerprint: r.get_u64().map_err(e)?,
        },
        Opcode::ReplDelta => {
            let stream = r.get_str().map_err(e)?;
            let bytes = r.take(r.remaining()).map_err(e)?.to_vec();
            Request::ReplDelta { stream, frame: bytes }
        }
    };
    r.expect_end().map_err(e)?;
    Ok(request)
}

/// Field type tags in an OK response payload.
const TAG_U64: u8 = 0;
const TAG_F64: u8 = 1;
const TAG_U64_ARRAY: u8 = 2;
const TAG_F64_ARRAY: u8 = 3;
const TAG_NULL: u8 = 4;
const TAG_STR: u8 = 5;

/// Encode one reply as a complete response frame echoing `opcode`.
pub fn encode_reply(opcode: u8, reply: &Reply) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let flags = match reply {
        Reply::Error(body) => {
            w.put_str(&body.message);
            w.put_str(body.kind.as_str());
            FLAG_ERROR
        }
        Reply::Ok(fields) => {
            w.put_u8(fields.len() as u8);
            for (key, value) in fields {
                w.put_str(key);
                match value {
                    Value::U64(v) => {
                        w.put_u8(TAG_U64);
                        w.put_u64(*v);
                    }
                    Value::F64(v) => {
                        w.put_u8(TAG_F64);
                        w.put_f64(*v);
                    }
                    Value::U64Array(vs) => {
                        w.put_u8(TAG_U64_ARRAY);
                        w.put_u32(vs.len() as u32);
                        for &v in vs {
                            w.put_u64(v);
                        }
                    }
                    Value::F64Array(vs) => {
                        w.put_u8(TAG_F64_ARRAY);
                        w.put_u32(vs.len() as u32);
                        for &v in vs {
                            w.put_f64(v);
                        }
                    }
                    Value::Null => {
                        w.put_u8(TAG_NULL);
                    }
                    Value::Str(s) => {
                        w.put_u8(TAG_STR);
                        w.put_str(s);
                    }
                }
            }
            0
        }
    };
    frame(opcode, flags, w.as_bytes())
}

/// A decoded response payload: the error, or named field values.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedReply {
    /// The ERROR flag was set.
    Error {
        /// The structured error kind's wire name (see
        /// [`crate::protocol::ErrorKind`]).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// Success, with `(key, value)` fields.
    Ok(Vec<(String, Value)>),
}

/// Decode a response payload according to its header flags.
pub fn decode_reply(flags: u8, payload: &[u8]) -> Result<DecodedReply, String> {
    let mut r = ByteReader::new(payload);
    let e = |err: cora_sketch::codec::CodecError| err.to_string();
    if flags & FLAG_ERROR != 0 {
        let message = r.get_str().map_err(e)?;
        let kind = r.get_str().map_err(e)?;
        r.expect_end().map_err(e)?;
        return Ok(DecodedReply::Error { kind, message });
    }
    let nfields = r.get_u8().map_err(e)?;
    let mut fields = Vec::with_capacity(nfields as usize);
    for _ in 0..nfields {
        let key = r.get_str().map_err(e)?;
        let value = match r.get_u8().map_err(e)? {
            TAG_U64 => Value::U64(r.get_u64().map_err(e)?),
            TAG_F64 => Value::F64(r.get_f64().map_err(e)?),
            TAG_U64_ARRAY => {
                let n = r.get_u32().map_err(e)? as usize;
                let bytes = r.take(n * 8).map_err(e)?;
                Value::U64Array(
                    bytes
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                )
            }
            TAG_F64_ARRAY => {
                let n = r.get_u32().map_err(e)? as usize;
                let bytes = r.take(n * 8).map_err(e)?;
                Value::F64Array(
                    bytes
                        .chunks_exact(8)
                        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                        .collect(),
                )
            }
            TAG_NULL => Value::Null,
            TAG_STR => Value::Str(r.get_str().map_err(e)?),
            other => return Err(format!("unknown response field tag {other}")),
        };
        fields.push((key, value));
    }
    r.expect_end().map_err(e)?;
    Ok(DecodedReply::Ok(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip_every_op() {
        let requests = [
            Request::Ping,
            Request::Config,
            Request::Ingest {
                xs: vec![1, u64::MAX, 3],
                ys: vec![10, 20, 30],
                ts: None,
                seq: None,
            },
            Request::Ingest {
                xs: vec![4, 5],
                ys: vec![6, 7],
                ts: Some(vec![100, 99]),
                seq: None,
            },
            Request::Ingest {
                xs: vec![4, 5],
                ys: vec![6, 7],
                ts: Some(vec![100, 99]),
                seq: Some((11, u64::MAX)),
            },
            Request::Ingest { xs: vec![], ys: vec![], ts: None, seq: None },
            Request::Flush,
            Request::QueryF2 { c: 100 },
            Request::QueryF0 { c: 0 },
            Request::QueryRarity { c: u64::MAX },
            Request::QueryHeavyHitters { c: 7, phi: 0.125 },
            Request::WindowF2 { window: 3_600, c: 42 },
            Request::WindowF0 { window: 60, c: u64::MAX },
            Request::Stats,
            Request::Snapshot { path: "/tmp/bundle \"x\".snap".to_string() },
            Request::Shutdown,
            Request::Auth { token: "s3cret \"quoted\"".to_string() },
            Request::SetF0 {
                a: "left".to_string(),
                b: "right".to_string(),
                op: crate::protocol::SetOp::Diff,
                c: 512,
            },
            Request::Streams,
            Request::ReplHello {
                stream: "node-a".to_string(),
                fingerprint: 0xFEED_F00D_DEAD_BEEF,
            },
            Request::ReplDelta {
                stream: "node-a".to_string(),
                frame: vec![0xCA, 0xFE, 0x00, 0x42],
            },
            Request::ReplDelta { stream: "node-b".to_string(), frame: vec![] },
        ];
        for request in requests {
            let bytes = encode_request(&request, 0);
            let header: &[u8; HEADER_BYTES] =
                bytes[..HEADER_BYTES].try_into().expect("header slice");
            let header = parse_header(header).expect("valid header");
            assert_eq!(header.len, bytes.len() - HEADER_BYTES);
            let opcode = Opcode::from_byte(header.opcode).expect("known opcode");
            let decoded = decode_request(opcode, &bytes[HEADER_BYTES..]).expect("decode");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn ingest_fast_path_matches_the_generic_decoder() {
        let tuples = vec![(1u64, 10u64), (2, 20), (u64::MAX, 0)];
        let ts = vec![5u64, 4, 3];
        let bytes = encode_ingest(&tuples, Some(&ts), Some((42, 7)), FLAG_NO_ACK);
        let header: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().unwrap();
        let header = parse_header(header).unwrap();
        assert_eq!(header.flags, FLAG_NO_ACK);
        let mut got_tuples = vec![(9, 9)]; // stale scratch must be cleared
        let mut got_ts = vec![7];
        let meta =
            decode_ingest_into(&bytes[HEADER_BYTES..], &mut got_tuples, &mut got_ts).unwrap();
        assert!(meta.has_ts);
        assert_eq!(meta.seq, Some((42, 7)));
        assert_eq!(got_tuples, tuples);
        assert_eq!(got_ts, ts);
        // Without the pair the meta byte degrades to the original has_ts
        // values 0/1, so pre-seq frames decode unchanged.
        let bytes = encode_ingest(&tuples, None, None, 0);
        assert_eq!(bytes[HEADER_BYTES + 4], 0);
        let meta =
            decode_ingest_into(&bytes[HEADER_BYTES..], &mut got_tuples, &mut got_ts).unwrap();
        assert_eq!(meta, IngestMeta { has_ts: false, seq: None });
    }

    #[test]
    fn reply_frames_round_trip_and_match_json_rendering() {
        let replies = [
            Reply::ok(),
            Reply::Ok(vec![
                ("value", Value::F64(1.5)),
                ("count", Value::U64(u64::MAX)),
                ("items", Value::U64Array(vec![7, 9])),
                ("freqs", Value::F64Array(vec![0.25, 0.75])),
                ("retention", Value::Null),
                ("streams", Value::Str("node-a,node-b".to_string())),
            ]),
            Reply::sketch_error("y 5000 out of range"),
            Reply::io_error("journal append failed: disk full"),
        ];
        for reply in replies {
            let bytes = encode_reply(Opcode::Stats as u8, &reply);
            let header: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().unwrap();
            let header = parse_header(header).unwrap();
            let decoded = decode_reply(header.flags, &bytes[HEADER_BYTES..]).unwrap();
            match (&reply, &decoded) {
                (Reply::Error(want), DecodedReply::Error { kind, message }) => {
                    assert_eq!(message, &want.message);
                    assert_eq!(kind, want.kind.as_str());
                }
                (Reply::Ok(want), DecodedReply::Ok(got)) => {
                    assert_eq!(got.len(), want.len());
                    for ((wk, wv), (gk, gv)) in want.iter().zip(got) {
                        assert_eq!(gk, wk);
                        assert_eq!(gv, wv);
                        // The binary client re-renders through the same JSON
                        // formatter the line protocol uses, so field text is
                        // identical across transports.
                        assert_eq!(gv.render_json(), wv.render_json());
                    }
                }
                other => panic!("shape changed through the wire: {other:?}"),
            }
        }
    }

    #[test]
    fn headers_reject_bad_magic_version_and_oversized_lengths() {
        let good = encode_request(&Request::Ping, 0);
        let mut h: [u8; HEADER_BYTES] = good[..HEADER_BYTES].try_into().unwrap();
        assert!(parse_header(&h).is_ok());
        h[0] = b'{';
        assert_eq!(parse_header(&h), Err(HeaderError::BadMagic(b'{')));
        h[0] = MAGIC;
        h[1] = 9;
        assert_eq!(parse_header(&h), Err(HeaderError::BadVersion(9)));
        h[1] = VERSION;
        h[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_header(&h),
            Err(HeaderError::BadLength(u32::MAX as usize))
        );
    }

    #[test]
    fn truncated_and_inconsistent_payloads_error_cleanly() {
        let frame = encode_request(
            &Request::Ingest { xs: vec![1, 2], ys: vec![3, 4], ts: None, seq: None },
            0,
        );
        let payload = &frame[HEADER_BYTES..];
        let mut tuples = Vec::new();
        let mut ts = Vec::new();
        // Whole payload works; every strict prefix errors, never panics.
        assert!(decode_ingest_into(payload, &mut tuples, &mut ts).is_ok());
        for cut in 0..payload.len() {
            assert!(
                decode_ingest_into(&payload[..cut], &mut tuples, &mut ts).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A declared count that disagrees with the byte count is rejected
        // without allocating for the phantom tuples.
        let mut lying = payload.to_vec();
        lying[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_ingest_into(&lying, &mut tuples, &mut ts).is_err());
        // Truncated query payloads error too.
        let q = encode_request(&Request::QueryHeavyHitters { c: 9, phi: 0.5 }, 0);
        for cut in 0..q.len() - HEADER_BYTES {
            assert!(decode_request(Opcode::HeavyHitters, &q[HEADER_BYTES..HEADER_BYTES + cut])
                .is_err());
        }
        // Trailing garbage after a well-formed payload is rejected.
        let mut padded = q[HEADER_BYTES..].to_vec();
        padded.push(0);
        assert!(decode_request(Opcode::HeavyHitters, &padded).is_err());
        // Only `repl_delta` ships containers: a peer's 0x13 or 0x14 frame
        // gets the unknown-opcode error.
        assert_eq!(Opcode::from_byte(0x13), None);
        assert_eq!(Opcode::from_byte(0x14), None);
        // An unknown set-op tag is rejected.
        let mut w = ByteWriter::new();
        w.put_str("a");
        w.put_str("b");
        w.put_u8(9);
        w.put_u64(1);
        assert!(decode_request(Opcode::SetF0, w.as_bytes()).is_err());
    }
}
