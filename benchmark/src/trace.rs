//! Client-side spans for the traced run: name, start, end, the span that
//! caused it, and a request id shared by the spans of one request. Spans
//! are kept in memory — one [`Tracer`] per load-generator thread, so
//! recording takes no lock — and written out as JSON when the run ends.
//!
//! With tracing off, `begin`/`end` cost one branch; end-to-end metrics are
//! always measured that way.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (0 = tracing is off / no parent).
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one thread ("lane").
pub struct Tracer {
    epoch: Instant,
    on: bool,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// `lane` (1-based, < 256) keeps span ids unique across threads.
    pub fn new(epoch: Instant, on: bool, lane: u32) -> Self {
        Self {
            epoch,
            on,
            lane,
            spans: Vec::new(),
        }
    }

    /// Open a span caused by `parent`, belonging to request `request`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = (self.lane << 24) | (self.spans.len() as u32 + 1);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close a span opened by [`Self::begin`] on this tracer.
    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let index = (id & 0x00FF_FFFF) as usize - 1;
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover. Returns `(name, count, total_ns, self_ns)` sorted by
/// name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    use std::collections::BTreeMap;
    let mut children: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        let entry = by_name.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

/// Write the spans as one JSON array.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), true, 2);
        let batch = t.begin("batch", 0, 7);
        let call = t.begin("call", batch, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(call);
        t.end(batch);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].request, spans[1].request);
        assert_eq!(spans[0].id >> 24, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(&spans);
        let batch_row = st.iter().find(|r| r.0 == "batch").unwrap();
        let call_row = st.iter().find(|r| r.0 == "call").unwrap();
        assert_eq!(
            batch_row.2 - batch_row.3,
            call_row.2,
            "self = total − children"
        );
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 1);
        let id = t.begin("x", 0, 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.into_spans().is_empty());
    }
}
