//! The length-prefixed binary wire protocol, and the one batch codec.
//!
//! Newline-JSON (see [`crate::protocol`]) is friendly to `netcat` and
//! debuggers, but it taxes the bulk paths: an ingest batch rendered to
//! decimal text is reparsed and reassembled into vectors. Binary frames
//! carry the two bulk payloads — the `(x, y)` tuples of `ingest` and the
//! sealed container of `repl_delta` — as little-endian bytes, so a 1 000-tuple
//! ingest is one `memcpy`-shaped decode instead of ~2 000 integer parses.
//! Every other op is small: its frame carries the op's JSON line, encoded
//! and parsed by the one codec in [`crate::protocol`]. Every reply frame
//! carries the reply's JSON line too, so both transports answer with the
//! same bytes.
//!
//! ## Frame layout
//!
//! ```text
//!  offset  size  field
//!  ------  ----  ---------------------------------------------------------
//!       0     1  magic     0xCB
//!       1     1  version   3
//!       2     1  opcode    how to read the payload (below); a reply echoes
//!                          its request's opcode
//!       3     1  flags     request: bit 0 = NO_ACK (suppress the success
//!                                   reply — errors are always answered)
//!                          reply:   0
//!       4     4  length    payload byte count, u32 little-endian
//!       8   len  payload
//! ```
//!
//! ## Opcodes
//!
//! | opcode | name         | request payload                                  |
//! |--------|--------------|--------------------------------------------------|
//! | 0x01   | [`REQUEST`]    | the op's JSON request line (UTF-8, no newline), read by [`Request::parse`] |
//! | 0x02   | [`INGEST`]     | one batch payload (below) |
//! | 0x03   | [`REPL_DELTA`] | `str stream` (u64 length + UTF-8), then a sealed container, full when `g_from = 0` |
//!
//! The payload of every reply frame is the reply's JSON line: what the line
//! protocol answers to the same request, `{"ok":false,"error":…,"kind":…}`
//! for a failure. A `REQUEST` frame may carry any op's JSON line but
//! `repl_delta`'s, whose container JSON cannot hold.
//!
//! ## The batch payload
//!
//! A batch has one encoding, [`encode_ingest_into`] / [`decode_ingest_into`]:
//! the `INGEST` payload, a journal record's payload ([`crate::journal`]) and
//! an incremental replication cut's batches section (`crate::sketches`).
//!
//! ```text
//! u8 meta | [u64 writer, u64 seq] | u32 n | n×u64 xs | n×u64 ys | [n×u64 ts]
//! ```
//!
//! Meta bit 0 marks the timestamp lane (without it the batch takes arrival
//! ticks), bit 1 the `(writer, seq)` idempotency pair of
//! [`crate::protocol::Request::Ingest`]; other bits are refused. A full
//! replication container is one frame, so replicated state is capped at
//! [`MAX_FRAME_BYTES`] (16 MiB): a hard error, not silent truncation.
//!
//! ## Negotiation
//!
//! The server sniffs the **first byte** of each connection: `{` (or leading
//! whitespace) selects the JSON line protocol, [`MAGIC`] selects binary, and
//! anything else is answered with one JSON error line before the connection
//! closes. A connection never switches protocols mid-stream. Unknown
//! versions and oversized declared lengths (> [`MAX_FRAME_BYTES`]) are
//! rejected **before** any payload is buffered, with an error reply frame,
//! and the connection closes (framing can no longer be trusted). An unknown
//! opcode or an unreadable payload in a well-formed frame gets an error
//! reply and the connection stays usable, mirroring the JSON protocol's
//! answer to a bad line.
//!
//! ## Pipelining
//!
//! A client may stream any number of request frames without reading
//! replies in between; the server answers in order. `NO_ACK` on `ingest`
//! suppresses the success reply entirely — the client fires N batches,
//! then sends one `REQUEST` frame as a sync point and drains whatever is in
//! the pipe (`INGEST` error frames from failed batches, then that request's
//! reply). This is what closes the per-batch round-trip tax on bulk loads.

use crate::protocol::{Reply, Request};
use cora_sketch::codec::{ByteReader, CodecError};

/// Batch `meta` bit: explicit per-tuple timestamps follow the y lane.
const BATCH_HAS_TS: u8 = 1;
/// Batch `meta` bit: a `(writer, seq)` pair follows the meta byte.
const BATCH_HAS_SEQ: u8 = 2;

/// First byte of every binary frame — also the negotiation byte (JSON lines
/// start with `{`).
pub const MAGIC: u8 = 0xCB;

/// Protocol version carried in every frame.
pub const VERSION: u8 = 3;

/// Fixed frame header size in bytes.
pub const HEADER_BYTES: usize = 8;

/// Hard cap on a frame payload; declared lengths above this are rejected
/// before any allocation. Also used as the JSON line-length cap.
pub const MAX_FRAME_BYTES: usize = 1 << 24; // 16 MiB

/// Request flag: suppress the success reply (errors are still answered).
pub const FLAG_NO_ACK: u8 = 1;

/// Opcode: the payload is one op's JSON request line.
pub const REQUEST: u8 = 0x01;
/// Opcode: the payload is an ingest batch in lanes.
pub const INGEST: u8 = 0x02;
/// Opcode: the payload is a stream name and a sealed replication container.
pub const REPL_DELTA: u8 = 0x03;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Raw opcode byte (may be none of [`REQUEST`], [`INGEST`],
    /// [`REPL_DELTA`]).
    pub opcode: u8,
    /// Request or reply flags.
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

/// Append a frame header announcing a `len`-byte payload to `out`.
fn push_header(out: &mut Vec<u8>, opcode: u8, flags: u8, len: usize) {
    debug_assert!(len <= MAX_FRAME_BYTES);
    out.extend_from_slice(&[MAGIC, VERSION, opcode, flags]);
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// One complete frame: the header, then `payload`.
pub fn frame(opcode: u8, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    push_header(&mut out, opcode, flags, payload.len());
    out.extend_from_slice(payload);
    out
}

/// Byte length of a batch payload of `n` tuples.
fn ingest_len(n: usize, has_ts: bool, has_seq: bool) -> usize {
    let lanes = if has_ts { 3 } else { 2 };
    1 + if has_seq { 16 } else { 0 } + 4 + n * 8 * lanes
}

/// Append one batch payload to `out`: the [`INGEST`] payload, a journal
/// record's payload and an incremental replication section are all this
/// layout (see the module docs). An empty `ts` writes no timestamp lane:
/// the batch takes arrival ticks.
pub fn encode_ingest_into(
    tuples: &[(u64, u64)],
    ts: &[u64],
    seq: Option<(u64, u64)>,
    out: &mut Vec<u8>,
) {
    debug_assert!(ts.is_empty() || ts.len() == tuples.len());
    let (has_ts, has_seq) = (!ts.is_empty(), seq.is_some());
    out.reserve(ingest_len(tuples.len(), has_ts, has_seq));
    out.push(if has_ts { BATCH_HAS_TS } else { 0 } | if has_seq { BATCH_HAS_SEQ } else { 0 });
    if let Some((writer, seq)) = seq {
        out.extend_from_slice(&writer.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
    }
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for &(x, _) in tuples {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for &(_, y) in tuples {
        out.extend_from_slice(&y.to_le_bytes());
    }
    for &t in ts {
        out.extend_from_slice(&t.to_le_bytes());
    }
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
    let ts = ts.unwrap_or_default();
    let len = ingest_len(tuples.len(), !ts.is_empty(), seq.is_some());
    let mut out = Vec::with_capacity(HEADER_BYTES + len);
    push_header(&mut out, INGEST, flags, len);
    encode_ingest_into(tuples, ts, seq, &mut out);
    out
}

/// What a batch payload carried besides the tuples themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestMeta {
    /// Explicit per-tuple timestamps were present.
    pub has_ts: bool,
    /// The `(writer, seq)` idempotency pair, when sent.
    pub seq: Option<(u64, u64)>,
}

/// Decode a batch payload into reusable scratch buffers (`tuples`/`ts` are
/// cleared, then filled), refusing an unknown meta bit and a count that
/// disagrees with the byte count.
pub fn decode_ingest_into(
    payload: &[u8],
    tuples: &mut Vec<(u64, u64)>,
    ts: &mut Vec<u64>,
) -> Result<IngestMeta, String> {
    tuples.clear();
    ts.clear();
    let mut r = ByteReader::new(payload);
    let e = |err: CodecError| err.to_string();
    let meta = r.get_u8().map_err(e)?;
    if meta & !(BATCH_HAS_TS | BATCH_HAS_SEQ) != 0 {
        return Err(format!("invalid batch meta byte 0x{meta:02X}"));
    }
    let has_ts = meta & BATCH_HAS_TS != 0;
    let seq = if meta & BATCH_HAS_SEQ != 0 {
        Some((r.get_u64().map_err(e)?, r.get_u64().map_err(e)?))
    } else {
        None
    };
    let n = r.get_u32().map_err(e)? as usize;
    let lanes = if has_ts { 3 } else { 2 };
    if r.remaining() != n * 8 * lanes {
        return Err(format!(
            "batch declares {n} tuples ({} value bytes) but carries {}",
            n * 8 * lanes,
            r.remaining()
        ));
    }
    tuples.reserve(n);
    let xs = r.take(n * 8).map_err(e)?;
    let ys = r.take(n * 8).map_err(e)?;
    for (xc, yc) in xs.chunks_exact(8).zip(ys.chunks_exact(8)) {
        tuples.push((
            u64::from_le_bytes(xc.try_into().expect("8-byte chunk")),
            u64::from_le_bytes(yc.try_into().expect("8-byte chunk")),
        ));
    }
    if has_ts {
        ts.reserve(n);
        for tc in r.take(n * 8).map_err(e)?.chunks_exact(8) {
            ts.push(u64::from_le_bytes(tc.try_into().expect("8-byte chunk")));
        }
    }
    Ok(IngestMeta { has_ts, seq })
}

/// Encode a `repl_delta` request frame: the stream name, then the sealed
/// container as is, copied once into a buffer of the frame's final size.
pub fn encode_repl_delta(stream: &str, container: &[u8]) -> Vec<u8> {
    let len = 8 + stream.len() + container.len();
    let mut out = Vec::with_capacity(HEADER_BYTES + len);
    push_header(&mut out, REPL_DELTA, 0, len);
    out.extend_from_slice(&(stream.len() as u64).to_le_bytes());
    out.extend_from_slice(stream.as_bytes());
    out.extend_from_slice(container);
    out
}

/// Decode a `repl_delta` payload into its request.
pub fn decode_repl_delta(payload: &[u8]) -> Result<Request, String> {
    let mut r = ByteReader::new(payload);
    let stream = r.get_str().map_err(|e| e.to_string())?;
    let container = r.take(r.remaining()).map_err(|e| e.to_string())?;
    Ok(Request::ReplDelta { stream, frame: container.to_vec() })
}

/// One complete reply frame echoing `opcode`: the reply's JSON line.
pub fn reply_frame(opcode: u8, reply: &Reply) -> Vec<u8> {
    frame(opcode, 0, reply.render_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Response, SetOp, Value};

    /// Split a frame into its checked header and its payload.
    fn open(bytes: &[u8]) -> (Header, &[u8]) {
        let header = parse_header(bytes[..HEADER_BYTES].try_into().expect("header slice"))
            .expect("valid header");
        assert_eq!(header.len, bytes.len() - HEADER_BYTES);
        (header, &bytes[HEADER_BYTES..])
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn request_frames_round_trip_every_op() {
        let json_ops = [
            Request::Ping,
            Request::Config,
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
            Request::SetF0 { a: "left".to_string(), b: "right".to_string(), op: SetOp::Diff, c: 512 },
            Request::Streams,
            Request::ReplHello { stream: "node-a".to_string(), fingerprint: 0xFEED_F00D_DEAD_BEEF },
        ];
        for request in json_ops {
            let bytes = frame(REQUEST, 0, request.encode().as_bytes());
            let (header, payload) = open(&bytes);
            assert_eq!((header.opcode, header.flags), (REQUEST, 0));
            let line = std::str::from_utf8(payload).expect("a JSON line");
            assert_eq!(Request::parse(line).expect("parse"), request);
        }

        let batches = [
            (vec![(1, 10), (u64::MAX, 20), (3, 30)], None, None),
            (vec![(4, 6), (5, 7)], Some(vec![100, 99]), None),
            (vec![(4, 6), (5, 7)], Some(vec![100, 99]), Some((11, u64::MAX))),
            (vec![], None, None),
        ];
        let (mut tuples, mut ts) = (Vec::new(), Vec::new());
        for (want, want_ts, seq) in batches {
            let bytes = encode_ingest(&want, want_ts.as_deref(), seq, 0);
            let (header, payload) = open(&bytes);
            assert_eq!(header.opcode, INGEST);
            let meta = decode_ingest_into(payload, &mut tuples, &mut ts).expect("decode");
            assert_eq!(meta, IngestMeta { has_ts: want_ts.is_some(), seq });
            assert_eq!(tuples, want);
            assert_eq!(ts, want_ts.unwrap_or_default());
        }

        for container in [vec![0xCA, 0xFE, 0x00, 0x42], vec![]] {
            let bytes = encode_repl_delta("node-a", &container);
            let (header, payload) = open(&bytes);
            assert_eq!(header.opcode, REPL_DELTA);
            assert_eq!(
                decode_repl_delta(payload).expect("decode"),
                Request::ReplDelta { stream: "node-a".to_string(), frame: container }
            );
        }
    }

    /// The exact bytes of one frame of each kind a peer sees: a change to
    /// the header, an opcode, the lane layout or the reply rendering fails
    /// here first.
    #[test]
    fn produced_frames_are_pinned() {
        let f2 = frame(REQUEST, 0, Request::QueryF2 { c: 100 }.encode().as_bytes());
        assert_eq!(
            hex(&f2),
            format!("cb03010013000000{}", hex(br#"{"op":"f2","c":100}"#))
        );
        let ingest = encode_ingest(&[(1, 2)], Some(&[3]), Some((4, 5)), FLAG_NO_ACK);
        assert_eq!(
            hex(&ingest),
            "cb0302012d000000\
             03\
             0400000000000000\
             0500000000000000\
             01000000\
             0100000000000000\
             0200000000000000\
             0300000000000000"
        );
        let delta = encode_repl_delta("a", &[0xDE, 0xAD]);
        assert_eq!(hex(&delta), "cb0303000b000000010000000000000061dead");
        let error = reply_frame(INGEST, &Reply::request_error("bad"));
        assert_eq!(
            hex(&error),
            format!(
                "cb0302002b000000{}",
                hex(br#"{"ok":false,"error":"bad","kind":"request"}"#)
            )
        );
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
        // Without timestamps or the pair the meta byte, first in the
        // payload, is 0.
        let bytes = encode_ingest(&tuples, None, None, 0);
        assert_eq!(bytes[HEADER_BYTES], 0);
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
            let bytes = reply_frame(REQUEST, &reply);
            let (header, payload) = open(&bytes);
            assert_eq!((header.opcode, header.flags), (REQUEST, 0));
            // The frame carries the line protocol's reply byte for byte.
            assert_eq!(payload, reply.render_json().as_bytes());
            let response = Response::parse(std::str::from_utf8(payload).unwrap()).unwrap();
            match &reply {
                Reply::Error(want) => {
                    assert_eq!(response.error_message().as_deref(), Some(&*want.message));
                    assert_eq!(response.error_kind().as_deref(), Some(want.kind.as_str()));
                }
                Reply::Ok(want) => {
                    assert!(response.is_ok());
                    for (key, value) in want {
                        assert_eq!(response.raw(key).unwrap(), value.render_json());
                    }
                }
            }
        }
    }

    #[test]
    fn headers_reject_bad_magic_version_and_oversized_lengths() {
        let good = frame(REQUEST, 0, br#"{"op":"ping"}"#);
        let mut h: [u8; HEADER_BYTES] = good[..HEADER_BYTES].try_into().unwrap();
        assert!(parse_header(&h).is_ok());
        h[0] = b'{';
        assert_eq!(parse_header(&h), Err(HeaderError::BadMagic(b'{')));
        h[0] = MAGIC;
        h[1] = 9;
        assert_eq!(parse_header(&h), Err(HeaderError::BadVersion(9)));
        // A version-1 frame is refused at the header.
        h[1] = 1;
        assert_eq!(parse_header(&h), Err(HeaderError::BadVersion(1)));
        h[1] = VERSION;
        h[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_header(&h),
            Err(HeaderError::BadLength(u32::MAX as usize))
        );
    }

    #[test]
    fn truncated_and_inconsistent_payloads_error_cleanly() {
        let frame = encode_ingest(&[(1, 3), (2, 4)], None, None, 0);
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
        lying[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_ingest_into(&lying, &mut tuples, &mut ts).is_err());
        // A meta byte with an unknown bit is rejected.
        let mut odd = payload.to_vec();
        odd[0] = 4;
        assert!(decode_ingest_into(&odd, &mut tuples, &mut ts).is_err());
        // A repl_delta payload cut inside its stream name errors; past the
        // name every cut is a (shorter) container, which the aggregator's
        // container checks refuse.
        let delta = encode_repl_delta("node-a", &[1, 2, 3]);
        for cut in 0..8 + "node-a".len() {
            assert!(decode_repl_delta(&delta[HEADER_BYTES..HEADER_BYTES + cut]).is_err());
        }
        // A REQUEST line cut anywhere does not parse.
        let line = Request::QueryHeavyHitters { c: 9, phi: 0.5 }.encode();
        for cut in 0..line.len() {
            assert!(Request::parse(&line[..cut]).is_err(), "prefix {:?} parsed", &line[..cut]);
        }
    }
}
