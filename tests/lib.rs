//! Shared helpers for the cross-crate integration tests in `tests/tests/`.

#![warn(missing_docs)]

use cora_core::ExactCorrelated;
use cora_stream::StreamTuple;

/// Stream length for an integration test: `default`, scaled by the
/// `CORA_TEST_STREAM_SCALE` environment variable when set (a positive float
/// multiplier — e.g. `0.25` for a quick smoke pass on a slow machine, `4` for
/// a heavier accuracy soak). The result is clamped to at least 1000 tuples so
/// accuracy assertions keep enough signal.
///
/// The default sizes run the whole `cargo test -q` suite in well under a
/// minute in the dev profile since the insert hot path was optimized; this
/// knob exists so the big configurations stay one env var away in both
/// directions rather than needing code edits.
pub fn stream_len(default: usize) -> usize {
    match std::env::var("CORA_TEST_STREAM_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        Some(scale) if scale > 0.0 && scale.is_finite() => {
            ((default as f64 * scale) as usize).max(1000)
        }
        _ => default,
    }
}

/// Relative error of `estimate` against a non-zero `truth`.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(truth != 0.0, "relative error undefined for zero truth");
    (estimate - truth).abs() / truth
}

/// Exact ground truth for windowed correlated queries: replays the raw
/// `(x, y, t)` tuple stream and computes the true F2 / F0 of any
/// two-dimensional slice — ticks in `[lo, hi)` and `y ≤ c` — by brute force.
///
/// Estimators are compared against the slice the ring *resolved* (its
/// pane-aligned `(resolved_lo, resolved_hi)` span), so pane quantization
/// never shows up as estimation error in the assertions.
#[derive(Debug, Default, Clone)]
pub struct WindowOracle {
    tuples: Vec<(u64, u64, u64)>,
}

impl WindowOracle {
    /// An oracle with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `(x, y, t)` tuple (any arrival order).
    pub fn observe(&mut self, x: u64, y: u64, t: u64) {
        self.tuples.push((x, y, t));
    }

    /// Tuples inside the slice: ticks in `[lo, hi)`, `y ≤ c`.
    fn slice(&self, lo: u64, hi: u64, c: u64) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.tuples
            .iter()
            .copied()
            .filter(move |&(_, y, t)| t >= lo && t < hi && y <= c)
    }

    /// Exact second frequency moment of the `x` values in the slice.
    pub fn f2(&self, lo: u64, hi: u64, c: u64) -> f64 {
        self.frequencies(lo, hi, c).values().map(|&n| (n as f64) * (n as f64)).sum()
    }

    /// Exact number of distinct `x` values in the slice.
    pub fn f0(&self, lo: u64, hi: u64, c: u64) -> f64 {
        self.frequencies(lo, hi, c).len() as f64
    }

    /// Exact per-`x` frequencies of the slice.
    pub fn frequencies(&self, lo: u64, hi: u64, c: u64) -> std::collections::HashMap<u64, u64> {
        let mut freq = std::collections::HashMap::new();
        for (x, _, _) in self.slice(lo, hi, c) {
            *freq.entry(x).or_insert(0u64) += 1;
        }
        freq
    }
}

/// Feed a tuple slice into both a sketch (through `insert`) and a fresh exact
/// baseline, returning the baseline.
pub fn ingest_with_baseline<F>(tuples: &[StreamTuple], mut insert: F) -> ExactCorrelated
where
    F: FnMut(&StreamTuple),
{
    let mut exact = ExactCorrelated::new();
    for t in tuples {
        insert(t);
        exact.update(t.x, t.y, t.weight);
    }
    exact
}
