//! The wire protocol of the query service: newline-delimited JSON.
//!
//! Every request and every response is one flat JSON object on one line,
//! encoded and parsed with the hand-rolled helpers in [`cora_stream::json`]
//! (the workspace builds offline; there is no serde). Identifier and y
//! arrays are emitted as JSON integer arrays and parsed losslessly as `u64`
//! — `f64` round-tripping would corrupt identifiers above 2⁵³.
//!
//! This is the one codec of every op but the two bulk payloads. The binary
//! transport ([`crate::wire`]) carries a request's line in a `REQUEST` frame
//! and every reply's line in the reply frame, so both transports answer
//! with the same bytes; only `ingest` (lanes in an `INGEST` frame) and
//! `repl_delta` (a `REPL_DELTA` frame) have a binary payload of their own.
//!
//! ## Requests
//!
//! | op              | fields                  | reply                                   |
//! |-----------------|-------------------------|-----------------------------------------|
//! | `ping`          | —                       | `{"ok":true}`                           |
//! | `config`        | —                       | server parameters                       |
//! | `ingest`        | `xs`, `ys` (u64 arrays), optional `ts`, optional `writer`+`seq` | `{"ok":true,"accepted":n}` |
//! | `flush`         | —                       | read-your-writes barrier                |
//! | `f2`            | `c`                     | `{"ok":true,"value":…}`                 |
//! | `f0`            | `c`                     | `{"ok":true,"value":…}`                 |
//! | `rarity`        | `c`                     | `{"ok":true,"value":…}`                 |
//! | `heavy_hitters` | `c`, `phi`              | `items`/`frequencies`/`shares` arrays   |
//! | `window_f2`     | `window`, `c`           | `value` + `resolved_lo`/`resolved_hi`   |
//! | `window_f0`     | `window`, `c`           | `value` + `resolved_lo`/`resolved_hi`   |
//! | `stats`         | —                       | counters + composite epoch/staleness    |
//! | `snapshot`      | `path`                  | writes a snapshot bundle server-side    |
//! | `shutdown`      | —                       | acknowledges, then stops the listener   |
//! | `auth`          | `token`                 | unlocks a connection when the server has an `auth_token` |
//! | `set_f0`        | `a`, `b`, `set_op`, `c` | distinct-count estimate of `A∪B` / `A∩B` / `A∖B` under `y ≤ c` (aggregator) |
//! | `streams`       | —                       | the registered upstream stream names (aggregator) |
//! | `repl_hello`    | `stream`, `fingerprint` | replication handshake; replies with the aggregator's `high_water` |
//! | `repl_delta`    | binary `REPL_DELTA` frame only | applies a sealed container; replies with the new `high_water` |
//!
//! Over the binary transport every line in this table travels as the
//! payload of a `REQUEST` frame, except that `ingest` batches go in
//! `INGEST` lanes (a JSON `ingest` line in a `REQUEST` frame is answered
//! too) and `repl_delta` goes as its own frame.
//!
//! The replication payload op `repl_delta` exists only as the binary
//! protocol's `REPL_DELTA` frame — its payload is a sealed binary container
//! (full when `g_from = 0`) that JSON lines cannot carry; its op name in a
//! JSON line (on either transport) answers a structured `request` error
//! naming the binary protocol.
//!
//! The optional `ts` array on `ingest` carries per-tuple timestamps (ticks)
//! for the windowed structures; without it the server assigns each tuple the
//! next value of its monotonic arrival counter. Window queries are answered
//! over the pane-aligned *resolved* span `[resolved_lo, resolved_hi)` (see
//! `cora_stream::windowed`), which the response reports alongside the value.
//!
//! Errors come back as `{"ok":false,"error":"…","kind":"…"}` where `kind`
//! is one of [`ErrorKind`]'s wire names — `"io"` marks a server-side
//! journal/snapshot failure with the underlying `io::Error` detail in the
//! message. A malformed line never kills the connection, it answers with an
//! error object. The optional `writer`+`seq` pair on `ingest` (sent
//! together or not at all) makes the batch idempotent: replaying it after a
//! reconnect answers `duplicate:1` instead of double-counting.

use cora_stream::json;

/// A set expression over two named streams, evaluated by the aggregator's
/// `set_f0` op via inclusion–exclusion over per-stream distinct-count
/// sketches (see `cora_serve::cluster`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `|A ∪ B|`, estimated from the merged samplers (Property V).
    Union,
    /// `|A ∩ B| = |A| + |B| − |A ∪ B|` (inclusion–exclusion).
    Intersect,
    /// `|A ∖ B| = |A| − |A ∩ B|`.
    Diff,
}

impl SetOp {
    /// The wire name of this operator.
    pub fn as_str(self) -> &'static str {
        match self {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Diff => "diff",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "union" => Ok(SetOp::Union),
            "intersect" => Ok(SetOp::Intersect),
            "diff" => Ok(SetOp::Diff),
            other => Err(format!(
                "unknown set_op {other:?} (expected union, intersect, or diff)"
            )),
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Report the server's construction parameters.
    Config,
    /// Batch-ingest `(x, y)` tuples (parallel arrays, same length).
    Ingest {
        /// Item identifiers.
        xs: Vec<u64>,
        /// y values (must be ≤ the server's configured `y_max`).
        ys: Vec<u64>,
        /// Optional per-tuple timestamps in ticks (same length as `xs`);
        /// omitted tuples are stamped by the server's arrival counter.
        ts: Option<Vec<u64>>,
        /// Optional `(writer, seq)` idempotency pair: the server keeps a
        /// per-writer high-water mark and answers a batch at or below it
        /// with `accepted: 0, duplicate: 1` instead of applying it twice —
        /// what makes client-side replay after a reconnect safe.
        seq: Option<(u64, u64)>,
    },
    /// Read-your-writes barrier: drain the workers and republish the
    /// composite.
    Flush,
    /// Correlated `F_2` at threshold `c`.
    QueryF2 {
        /// Query threshold.
        c: u64,
    },
    /// Correlated distinct count at threshold `c`.
    QueryF0 {
        /// Query threshold.
        c: u64,
    },
    /// Correlated rarity at threshold `c`.
    QueryRarity {
        /// Query threshold.
        c: u64,
    },
    /// Correlated `F_2`-heavy hitters at threshold `c` with share `phi`.
    QueryHeavyHitters {
        /// Query threshold.
        c: u64,
        /// Minimum squared-frequency share of `F_2(c)`.
        phi: f64,
    },
    /// Windowed correlated `F_2` over the last `window` ticks at threshold `c`.
    WindowF2 {
        /// Window width in ticks (ending at the newest observed timestamp).
        window: u64,
        /// Query threshold.
        c: u64,
    },
    /// Windowed correlated `F_0` over the last `window` ticks at threshold `c`.
    WindowF0 {
        /// Window width in ticks (ending at the newest observed timestamp).
        window: u64,
        /// Query threshold.
        c: u64,
    },
    /// Service and structure statistics.
    Stats,
    /// Write a snapshot bundle to a server-side path.
    Snapshot {
        /// Server-side file path to write.
        path: String,
    },
    /// Stop accepting connections after acknowledging.
    Shutdown,
    /// Present the shared-secret token. When the server is configured with
    /// an `auth_token`, every other op on an unauthenticated connection is
    /// refused with a structured `request` error.
    Auth {
        /// The shared secret (compared constant-time server-side).
        token: String,
    },
    /// Set-expression distinct count over two named streams (aggregator
    /// only): `|A op B|` restricted to tuples with `y ≤ c`.
    SetF0 {
        /// Left stream name.
        a: String,
        /// Right stream name.
        b: String,
        /// The set operator.
        op: SetOp,
        /// Query threshold.
        c: u64,
    },
    /// List the registered upstream stream names (aggregator only).
    Streams,
    /// Replication handshake: registers `stream` and verifies the replica
    /// and aggregator were built from compatible configurations.
    ReplHello {
        /// Upstream stream name (`[A-Za-z0-9_.-]`, at most 64 bytes).
        stream: String,
        /// The replica's configuration fingerprint; must match the
        /// aggregator's or the handshake is refused (non-mergeable state).
        fingerprint: u64,
    },
    /// Ship one replication container (binary protocol only).
    ReplDelta {
        /// Upstream stream name.
        stream: String,
        /// The sealed `SnapshotKind::Sections` container: a full replacement
        /// when its `g_from` is 0, an incremental cut otherwise.
        frame: Vec<u8>,
    },
}

/// Emit a JSON array of unsigned integers (lossless, unlike float arrays).
pub fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Parse a JSON array of unsigned integers.
pub fn parse_u64_array(raw: &str) -> Result<Vec<u64>, String> {
    let inner = raw
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("not a JSON array: {raw:?}"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(json::parse_u64).collect()
}

impl Request {
    /// Encode the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => r#"{"op":"ping"}"#.to_string(),
            Request::Config => r#"{"op":"config"}"#.to_string(),
            Request::Ingest { xs, ys, ts, seq } => {
                let mut line = format!(
                    r#"{{"op":"ingest","xs":{},"ys":{}"#,
                    u64_array(xs),
                    u64_array(ys)
                );
                if let Some(ts) = ts {
                    line.push_str(&format!(r#","ts":{}"#, u64_array(ts)));
                }
                if let Some((writer, seq)) = seq {
                    line.push_str(&format!(r#","writer":{writer},"seq":{seq}"#));
                }
                line.push('}');
                line
            }
            Request::Flush => r#"{"op":"flush"}"#.to_string(),
            Request::QueryF2 { c } => format!(r#"{{"op":"f2","c":{c}}}"#),
            Request::QueryF0 { c } => format!(r#"{{"op":"f0","c":{c}}}"#),
            Request::QueryRarity { c } => format!(r#"{{"op":"rarity","c":{c}}}"#),
            Request::QueryHeavyHitters { c, phi } => format!(
                r#"{{"op":"heavy_hitters","c":{c},"phi":{}}}"#,
                json::float(*phi)
            ),
            Request::WindowF2 { window, c } => {
                format!(r#"{{"op":"window_f2","window":{window},"c":{c}}}"#)
            }
            Request::WindowF0 { window, c } => {
                format!(r#"{{"op":"window_f0","window":{window},"c":{c}}}"#)
            }
            Request::Stats => r#"{"op":"stats"}"#.to_string(),
            Request::Snapshot { path } => {
                format!(r#"{{"op":"snapshot","path":{}}}"#, json::escape(path))
            }
            Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
            Request::Auth { token } => {
                format!(r#"{{"op":"auth","token":{}}}"#, json::escape(token))
            }
            Request::SetF0 { a, b, op, c } => format!(
                r#"{{"op":"set_f0","a":{},"b":{},"set_op":{},"c":{c}}}"#,
                json::escape(a),
                json::escape(b),
                json::escape(op.as_str())
            ),
            Request::Streams => r#"{"op":"streams"}"#.to_string(),
            Request::ReplHello { stream, fingerprint } => format!(
                r#"{{"op":"repl_hello","stream":{},"fingerprint":{fingerprint}}}"#,
                json::escape(stream)
            ),
            // The payload op cannot travel as JSON (its container is raw
            // binary); rendering just the op name lets the server answer
            // with its structured binary-only refusal.
            Request::ReplDelta { stream, .. } => format!(
                r#"{{"op":"repl_delta","stream":{}}}"#,
                json::escape(stream)
            ),
        }
    }

    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let fields = json::parse_object(line)?;
        let get = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("missing field {name:?}"))
        };
        let op = json::parse_string(get("op")?)?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "config" => Ok(Request::Config),
            "ingest" => {
                let xs = parse_u64_array(get("xs")?)?;
                let ys = parse_u64_array(get("ys")?)?;
                if xs.len() != ys.len() {
                    return Err(format!(
                        "xs and ys must have equal length ({} vs {})",
                        xs.len(),
                        ys.len()
                    ));
                }
                let ts = fields
                    .iter()
                    .find(|(k, _)| k == "ts")
                    .map(|(_, v)| parse_u64_array(v))
                    .transpose()?;
                if let Some(ts) = &ts {
                    if ts.len() != xs.len() {
                        return Err(format!(
                            "ts must match xs length ({} vs {})",
                            ts.len(),
                            xs.len()
                        ));
                    }
                }
                let opt_u64 = |name: &str| -> Result<Option<u64>, String> {
                    fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .map(|(_, v)| json::parse_u64(v))
                        .transpose()
                };
                let seq = match (opt_u64("writer")?, opt_u64("seq")?) {
                    (Some(writer), Some(seq)) => Some((writer, seq)),
                    (None, None) => None,
                    _ => {
                        return Err(
                            "writer and seq must be sent together (or both omitted)".into()
                        )
                    }
                };
                Ok(Request::Ingest { xs, ys, ts, seq })
            }
            "flush" => Ok(Request::Flush),
            "f2" => Ok(Request::QueryF2 { c: json::parse_u64(get("c")?)? }),
            "f0" => Ok(Request::QueryF0 { c: json::parse_u64(get("c")?)? }),
            "rarity" => Ok(Request::QueryRarity { c: json::parse_u64(get("c")?)? }),
            "heavy_hitters" => Ok(Request::QueryHeavyHitters {
                c: json::parse_u64(get("c")?)?,
                phi: json::parse_f64(get("phi")?)?,
            }),
            "window_f2" => Ok(Request::WindowF2 {
                window: json::parse_u64(get("window")?)?,
                c: json::parse_u64(get("c")?)?,
            }),
            "window_f0" => Ok(Request::WindowF0 {
                window: json::parse_u64(get("window")?)?,
                c: json::parse_u64(get("c")?)?,
            }),
            "stats" => Ok(Request::Stats),
            "snapshot" => Ok(Request::Snapshot {
                path: json::parse_string(get("path")?)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            "auth" => Ok(Request::Auth {
                token: json::parse_string(get("token")?)?,
            }),
            "set_f0" => Ok(Request::SetF0 {
                a: json::parse_string(get("a")?)?,
                b: json::parse_string(get("b")?)?,
                op: SetOp::parse(&json::parse_string(get("set_op")?)?)?,
                c: json::parse_u64(get("c")?)?,
            }),
            "streams" => Ok(Request::Streams),
            "repl_hello" => Ok(Request::ReplHello {
                stream: json::parse_string(get("stream")?)?,
                fingerprint: json::parse_u64(get("fingerprint")?)?,
            }),
            "repl_delta" => Err(format!(
                "{op} is only available as a REPL_DELTA frame of the binary protocol \
                 (its payload is a sealed binary delta container)"
            )),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One typed response field value, as [`crate::server`] builds it; both
/// transports send its JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (lossless above 2⁵³, unlike `f64`).
    U64(u64),
    /// A floating-point estimate.
    F64(f64),
    /// An array of unsigned integers.
    U64Array(Vec<u64>),
    /// An array of floating-point values.
    F64Array(Vec<f64>),
    /// An absent/optional value (`null` in JSON).
    Null,
    /// A string value.
    Str(String),
}

impl Value {
    /// Render as raw JSON text — exactly what the line protocol has always
    /// emitted for this kind of field, so the JSON rendering of a [`Reply`]
    /// is byte-identical to the pre-`Reply` server.
    pub fn render_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => json::float(*v),
            Value::U64Array(vs) => u64_array(vs),
            Value::F64Array(vs) => json::float_array(vs),
            Value::Null => "null".to_string(),
            Value::Str(s) => json::escape(s),
        }
    }
}

/// What failed, at the granularity a client can act on: retry the request
/// (`Request`), surface a data problem (`Sketch`), treat the server's
/// storage as degraded (`Io`), or back off entirely (`Server`). Carried as
/// the error reply's `kind` field on both transports, so snapshot/journal
/// I/O failures are distinguishable from a bad request without parsing
/// prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself was malformed or out of range.
    Request,
    /// A hosted sketch rejected the operation.
    Sketch,
    /// Server-side storage (journal append or snapshot write) failed; the
    /// message carries the underlying `io::Error` detail.
    Io,
    /// A server-side resource limit or internal failure.
    Server,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Request => "request",
            ErrorKind::Sketch => "sketch",
            ErrorKind::Io => "io",
            ErrorKind::Server => "server",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured server-side failure: the kind plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// What failed.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

/// A server response: the server core produces these and both transports
/// send their [`Reply::render_json`] line (a binary reply frame wraps it).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success, with named result fields.
    Ok(Vec<(&'static str, Value)>),
    /// Failure, with a structured kind and message.
    Error(ErrorBody),
}

impl Reply {
    /// The bare success reply.
    pub fn ok() -> Self {
        Reply::Ok(Vec::new())
    }

    /// A malformed-request failure.
    pub fn request_error(message: impl Into<String>) -> Self {
        Reply::Error(ErrorBody { kind: ErrorKind::Request, message: message.into() })
    }

    /// A sketch-rejected-the-operation failure.
    pub fn sketch_error(message: impl Into<String>) -> Self {
        Reply::Error(ErrorBody { kind: ErrorKind::Sketch, message: message.into() })
    }

    /// A storage (journal/snapshot) I/O failure.
    pub fn io_error(message: impl Into<String>) -> Self {
        Reply::Error(ErrorBody { kind: ErrorKind::Io, message: message.into() })
    }

    /// A server-side limit or internal failure.
    pub fn server_error(message: impl Into<String>) -> Self {
        Reply::Error(ErrorBody { kind: ErrorKind::Server, message: message.into() })
    }

    /// Render as one JSON response line (no trailing newline), byte-identical
    /// to [`ok_with`]/[`error_with_kind`] output.
    pub fn render_json(&self) -> String {
        match self {
            Reply::Ok(fields) => {
                let rendered: Vec<(&str, String)> = fields
                    .iter()
                    .map(|(key, value)| (*key, value.render_json()))
                    .collect();
                ok_with(&rendered)
            }
            Reply::Error(body) => error_with_kind(body.kind, &body.message),
        }
    }
}

/// Build a success response from `(key, raw JSON value)` pairs.
pub fn ok_with(fields: &[(&str, String)]) -> String {
    let mut out = String::from(r#"{"ok":true"#);
    for (key, value) in fields {
        out.push(',');
        out.push_str(&json::escape(key));
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

/// The bare success response.
pub fn ok() -> String {
    ok_with(&[])
}

/// Build an error response of kind [`ErrorKind::Request`] (the default for
/// protocol-level refusals: unparseable lines, unknown first bytes).
pub fn error(message: &str) -> String {
    error_with_kind(ErrorKind::Request, message)
}

/// Build an error response carrying an explicit kind.
pub fn error_with_kind(kind: ErrorKind, message: &str) -> String {
    format!(
        r#"{{"ok":false,"error":{},"kind":{}}}"#,
        json::escape(message),
        json::escape(kind.as_str())
    )
}

/// A parsed response line (client side).
#[derive(Debug, Clone)]
pub struct Response {
    fields: Vec<(String, String)>,
}

impl Response {
    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Self, String> {
        Ok(Self {
            fields: json::parse_object(line)?,
        })
    }

    /// The raw JSON text of a field.
    pub fn raw(&self, name: &str) -> Result<&str, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("response missing field {name:?}"))
    }

    /// True when the server reported success.
    pub fn is_ok(&self) -> bool {
        self.raw("ok").map(str::trim) == Ok("true")
    }

    /// The server's error message, if any.
    pub fn error_message(&self) -> Option<String> {
        if self.is_ok() {
            return None;
        }
        Some(
            self.raw("error")
                .ok()
                .and_then(|raw| json::parse_string(raw).ok())
                .unwrap_or_else(|| "malformed error response".to_string()),
        )
    }

    /// The server's error kind (`"request"`, `"sketch"`, `"io"`,
    /// `"server"`), if this is an error response. Responses from servers
    /// predating structured kinds report `"server"`.
    pub fn error_kind(&self) -> Option<String> {
        if self.is_ok() {
            return None;
        }
        Some(
            self.raw("kind")
                .ok()
                .and_then(|raw| json::parse_string(raw).ok())
                .unwrap_or_else(|| ErrorKind::Server.as_str().to_string()),
        )
    }

    /// Decode a numeric field as `f64`.
    pub fn f64_field(&self, name: &str) -> Result<f64, String> {
        json::parse_f64(self.raw(name)?)
    }

    /// Decode a numeric field as `u64`.
    pub fn u64_field(&self, name: &str) -> Result<u64, String> {
        json::parse_u64(self.raw(name)?)
    }

    /// Decode a string field.
    pub fn str_field(&self, name: &str) -> Result<String, String> {
        json::parse_string(self.raw(name)?)
    }

    /// Decode a u64-array field.
    pub fn u64_array_field(&self, name: &str) -> Result<Vec<u64>, String> {
        parse_u64_array(self.raw(name)?)
    }

    /// Decode an f64-array field.
    pub fn f64_array_field(&self, name: &str) -> Result<Vec<f64>, String> {
        json::parse_f64_array(self.raw(name)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_encode_parse() {
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
                xs: vec![8],
                ys: vec![9],
                ts: None,
                seq: Some((3, u64::MAX)),
            },
            Request::Flush,
            Request::QueryF2 { c: 100 },
            Request::QueryF0 { c: 0 },
            Request::QueryRarity { c: u64::MAX },
            Request::QueryHeavyHitters { c: 7, phi: 0.125 },
            Request::WindowF2 { window: 3_600, c: 42 },
            Request::WindowF0 { window: 60, c: u64::MAX },
            Request::Stats,
            Request::Snapshot {
                path: "/tmp/with \"quotes\".snap".to_string(),
            },
            Request::Shutdown,
            Request::Auth { token: "hunter\"2\"".to_string() },
            Request::SetF0 {
                a: "node-a".to_string(),
                b: "node-b".to_string(),
                op: SetOp::Intersect,
                c: 100,
            },
            Request::Streams,
            Request::ReplHello {
                stream: "node-a".to_string(),
                fingerprint: u64::MAX,
            },
        ];
        for request in requests {
            let line = request.encode();
            assert_eq!(Request::parse(&line).unwrap(), request, "line: {line}");
        }
    }

    #[test]
    fn repl_payload_ops_are_binary_only_over_json() {
        let request = Request::ReplDelta { stream: "a".into(), frame: vec![1, 2, 3] };
        let e = Request::parse(&request.encode()).unwrap_err();
        assert!(e.contains("binary protocol"), "{e}");
        for op in ["union", "intersect", "diff"] {
            assert_eq!(SetOp::parse(op).unwrap().as_str(), op);
        }
        assert!(SetOp::parse("xor").is_err());
    }

    #[test]
    fn u64_arrays_are_lossless_above_2_pow_53() {
        let values = vec![0, 1 << 60, u64::MAX, (1 << 53) + 1];
        let encoded = u64_array(&values);
        assert_eq!(parse_u64_array(&encoded).unwrap(), values);
        assert_eq!(parse_u64_array("[]").unwrap(), Vec::<u64>::new());
        assert!(parse_u64_array("{}").is_err());
        assert!(parse_u64_array("[1,-2]").is_err());
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"f2"}"#).is_err(), "missing c");
        assert!(
            Request::parse(r#"{"op":"ingest","xs":[1],"ys":[1,2]}"#).is_err(),
            "length mismatch"
        );
        assert!(
            Request::parse(r#"{"op":"ingest","xs":[1],"ys":[1],"ts":[1,2]}"#).is_err(),
            "ts length mismatch"
        );
        assert!(
            Request::parse(r#"{"op":"ingest","xs":[1],"ys":[1],"writer":4}"#).is_err(),
            "writer without seq"
        );
        assert!(
            Request::parse(r#"{"op":"ingest","xs":[1],"ys":[1],"seq":4}"#).is_err(),
            "seq without writer"
        );
        assert!(Request::parse(r#"{"op":"window_f2","c":9}"#).is_err(), "missing window");
    }

    #[test]
    fn responses_parse_ok_error_and_fields() {
        let ok_line = ok_with(&[
            ("value", "1.5".to_string()),
            ("items", u64_array(&[7, 9])),
        ]);
        let response = Response::parse(&ok_line).unwrap();
        assert!(response.is_ok());
        assert_eq!(response.f64_field("value").unwrap(), 1.5);
        assert_eq!(response.u64_array_field("items").unwrap(), vec![7, 9]);
        assert!(response.error_message().is_none());

        let err_line = error("y 5000 out of range");
        let response = Response::parse(&err_line).unwrap();
        assert!(!response.is_ok());
        assert_eq!(response.error_message().unwrap(), "y 5000 out of range");
        assert_eq!(response.error_kind().unwrap(), "request");

        let io_line = error_with_kind(ErrorKind::Io, "journal append failed");
        let response = Response::parse(&io_line).unwrap();
        assert_eq!(response.error_kind().unwrap(), "io");
        // Errors from pre-kind servers degrade to the generic kind.
        let legacy = Response::parse(r#"{"ok":false,"error":"old"}"#).unwrap();
        assert_eq!(legacy.error_kind().unwrap(), "server");
        assert_eq!(legacy.error_message().unwrap(), "old");
    }
}
