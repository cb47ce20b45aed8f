//! Correlated sum and count.
//!
//! The correlated sum is the aggregate studied by the earlier work the paper
//! builds on (Gehrke–Korn–Srivastava, Ananthakrishna et al., Xu–Tirthapura–
//! Busch); it satisfies the framework's conditions trivially (`c1(j) = j`,
//! `c2(ε) = ε`) and its "sketch" is a single exact counter, so running it
//! through the generic framework both exercises the reduction with the
//! simplest possible aggregate and provides a baseline correlated aggregate
//! with provable guarantees and negligible per-bucket space.

use crate::aggregate::CorrelatedAggregate;
use crate::config::{CorrelatedConfig, DEFAULT_SEED};
use crate::error::Result;
use crate::framework::CorrelatedSketch;
use cora_sketch::codec::{ByteReader, ByteWriter, CodecResult, StateCodec};
use cora_sketch::error::Result as SketchResult;
use cora_sketch::{
    Estimate, ExactFrequencies, MergeableSketch, SharedUpdate, SpaceUsage, StreamSketch,
};

/// A "sketch" that is just an exact running sum of weights. It is trivially
/// composable, so it satisfies Property V with zero error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarSumSketch {
    total: i64,
}

impl ScalarSumSketch {
    /// A new, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact running total.
    pub fn total(&self) -> i64 {
        self.total
    }
}

impl StreamSketch for ScalarSumSketch {
    fn update(&mut self, _item: u64, weight: i64) {
        self.total += weight;
    }
}

impl Estimate for ScalarSumSketch {
    fn estimate(&self) -> f64 {
        self.total as f64
    }
}

impl SharedUpdate for ScalarSumSketch {
    type PreparedBatch = Vec<i64>;

    fn prepare_batch_into(&self, items: &[(u64, i64)], out: &mut Self::PreparedBatch) {
        out.clear();
        out.extend(items.iter().map(|&(_, weight)| weight));
    }

    fn apply_prepared_range(&mut self, batch: &Self::PreparedBatch, range: std::ops::Range<usize>) {
        // A contiguous weight slice sums in one autovectorized pass.
        self.total += batch[range].iter().sum::<i64>();
    }
}

impl MergeableSketch for ScalarSumSketch {
    fn merge_from(&mut self, other: &Self) -> SketchResult<()> {
        self.total += other.total;
        Ok(())
    }
}

impl SpaceUsage for ScalarSumSketch {
    fn stored_tuples(&self) -> usize {
        1
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<i64>()
    }
}

impl StateCodec for ScalarSumSketch {
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_i64(self.total);
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.total = r.get_i64()?;
        Ok(())
    }
}

/// Correlated sum of weights: `Σ {w : (x, y, w) ∈ S, y ≤ c}`.
#[derive(Debug, Clone, Default)]
pub struct SumAggregate;

impl SumAggregate {
    /// Create the sum aggregate descriptor.
    pub fn new() -> Self {
        Self
    }
}

impl CorrelatedAggregate for SumAggregate {
    type Sketch = ScalarSumSketch;

    fn name(&self) -> String {
        "sum".to_string()
    }

    fn c1(&self, j: f64) -> f64 {
        // Additivity: f(∪ R_i) = Σ f(R_i) <= j · max.
        j
    }

    fn c2(&self, eps: f64) -> f64 {
        // f(A − B) = f(A) − f(B) >= (1 − ε) f(A) whenever f(B) <= ε f(A).
        eps
    }

    fn f_max_log2(&self, max_stream_len: u64) -> u32 {
        // Sum of weights <= n · w_max; allow weights up to ~2^20 by default.
        ((64 - max_stream_len.leading_zeros()) + 20).clamp(4, 126)
    }

    fn new_sketch(&self) -> ScalarSumSketch {
        ScalarSumSketch::new()
    }

    fn sketch_size_hint(&self) -> usize {
        1
    }

    fn exact_value(&self, freqs: &ExactFrequencies) -> f64 {
        freqs.frequency_moment(1)
    }

    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        // The sum grows by exactly the added weight.
        (threshold - value).max(0.0)
    }
}

/// Correlated count of tuples: `|{(x, y) ∈ S : y ≤ c}|` (insert with unit
/// weights). Identical machinery to [`SumAggregate`]; kept as a distinct type
/// so reports and examples read naturally.
#[derive(Debug, Clone, Default)]
pub struct CountAggregate;

impl CountAggregate {
    /// Create the count aggregate descriptor.
    pub fn new() -> Self {
        Self
    }
}

impl CorrelatedAggregate for CountAggregate {
    type Sketch = ScalarSumSketch;

    fn name(&self) -> String {
        "count".to_string()
    }

    fn c1(&self, j: f64) -> f64 {
        j
    }

    fn c2(&self, eps: f64) -> f64 {
        eps
    }

    fn f_max_log2(&self, max_stream_len: u64) -> u32 {
        (64 - max_stream_len.leading_zeros()).clamp(4, 126)
    }

    fn new_sketch(&self) -> ScalarSumSketch {
        ScalarSumSketch::new()
    }

    fn sketch_size_hint(&self) -> usize {
        1
    }

    fn exact_value(&self, freqs: &ExactFrequencies) -> f64 {
        freqs.frequency_moment(1)
    }

    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        (threshold - value).max(0.0)
    }
}

/// A correlated sum sketch.
pub type CorrelatedSum = CorrelatedSketch<SumAggregate>;
/// A correlated count sketch.
pub type CorrelatedCount = CorrelatedSketch<CountAggregate>;

/// Build a correlated sum sketch.
pub fn correlated_sum(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
) -> Result<CorrelatedSum> {
    let agg = SumAggregate::new();
    let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
        .with_seed(DEFAULT_SEED);
    CorrelatedSketch::new(agg, config)
}

/// Build a correlated count sketch.
pub fn correlated_count(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
) -> Result<CorrelatedCount> {
    let agg = CountAggregate::new();
    let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
        .with_seed(DEFAULT_SEED);
    CorrelatedSketch::new(agg, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sketch_is_exact_and_mergeable() {
        let mut a = ScalarSumSketch::new();
        let mut b = ScalarSumSketch::new();
        a.update(1, 5);
        a.update(2, -2);
        b.update(3, 10);
        assert_eq!(a.estimate(), 3.0);
        a.merge_from(&b).unwrap();
        assert_eq!(a.total(), 13);
        assert_eq!(a.stored_tuples(), 1);
        assert_eq!(a.space_bytes(), 8);
    }

    #[test]
    fn aggregate_constants() {
        let s = SumAggregate::new();
        assert_eq!(s.c1(7.0), 7.0);
        assert_eq!(s.c2(0.3), 0.3);
        assert_eq!(s.name(), "sum");
        assert_eq!(CountAggregate::new().name(), "count");
        assert_eq!(s.sketch_size_hint(), 1);
    }

    #[test]
    fn correlated_count_matches_truth() {
        let mut s = correlated_count(0.2, 0.1, 1023, 100_000).unwrap();
        let mut ys = Vec::new();
        for i in 0..10_000u64 {
            let y = (i * 797) % 1024;
            ys.push(y);
            s.insert(i % 64, y).unwrap();
        }
        for &c in &[50u64, 200, 700, 1023] {
            let truth = ys.iter().filter(|&&y| y <= c).count() as f64;
            let est = s.query(c).unwrap();
            let err = (est - truth).abs() / truth.max(1.0);
            assert!(err < 0.2, "count at c={c}: {est} vs {truth}");
        }
    }

    #[test]
    fn correlated_sum_handles_weights() {
        let mut s = correlated_sum(0.2, 0.1, 255, 10_000).unwrap();
        let mut truth_600 = 0i64;
        for i in 0..4_000u64 {
            let y = (i * 31) % 256;
            let w = (i % 5 + 1) as i64;
            if y <= 200 {
                truth_600 += w;
            }
            s.update(i, y, w).unwrap();
        }
        let est = s.query(200).unwrap();
        let err = (est - truth_600 as f64).abs() / truth_600 as f64;
        assert!(err < 0.2, "sum estimate {est} vs truth {truth_600}");
    }

    #[test]
    fn exact_value_is_total_weight() {
        let agg = SumAggregate::new();
        let mut f = ExactFrequencies::new();
        f.update(1, 4);
        f.update(9, 6);
        assert_eq!(agg.exact_value(&f), 10.0);
    }
}
