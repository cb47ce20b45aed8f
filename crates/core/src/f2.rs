//! Correlated second frequency moment `F_2` (Section 3.1, Lemma 9 of the
//! paper) — the aggregate the paper's experiments focus on.
//!
//! The constants come from Lemmas 6–8: `c1(j) = j²` (Hölder) and
//! `c2(ε) = (ε/18)²` (from Lemma 8 with `k = 2` and the ε/2 halving in
//! Theorem 1's parameter choice). The per-bucket whole-stream sketch is the
//! fast AMS estimator of Thorup & Zhang, exactly as in the paper's Section 5.1
//! ("we used a variant of the algorithm due to Alon et al., based on the idea
//! of Thorup and Zhang").

use crate::aggregate::CorrelatedAggregate;
use crate::config::{CorrelatedConfig, DEFAULT_SEED};
use crate::error::Result;
use crate::framework::CorrelatedSketch;
use cora_sketch::{ExactFrequencies, FastAmsSketch};

/// Descriptor for the correlated `F_2` aggregate.
#[derive(Debug, Clone)]
pub struct F2Aggregate {
    /// Per-bucket sketch relative error (`υ`).
    upsilon: f64,
    /// Per-bucket sketch failure probability.
    gamma: f64,
    /// Shared seed so every per-bucket sketch is mergeable.
    seed: u64,
    /// Cached dimensions of the per-bucket sketch.
    width: usize,
    depth: usize,
}

impl F2Aggregate {
    /// Create an `F_2` aggregate whose per-bucket sketches target relative
    /// error `epsilon/2` with failure probability `delta` (the framework's
    /// `υ` and a practical stand-in for its `γ`).
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        let upsilon = (epsilon / 2.0).clamp(1e-6, 0.999);
        let gamma = delta.clamp(1e-12, 0.999);
        // Width ~ 8/ε² gives merged-estimate error comfortably below ε/2;
        // depth 3 provides median robustness without tripling the space the
        // way the theoretical log(1/γ) would.
        let width = ((2.0 / (upsilon * upsilon)).ceil() as usize).clamp(8, 1 << 16);
        let depth = 3;
        Self {
            upsilon,
            gamma,
            seed,
            width,
            depth,
        }
    }

    /// The per-bucket sketch accuracy `υ`.
    pub fn upsilon(&self) -> f64 {
        self.upsilon
    }

    /// The per-bucket sketch failure probability `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl CorrelatedAggregate for F2Aggregate {
    type Sketch = FastAmsSketch;

    fn name(&self) -> String {
        "F2".to_string()
    }

    fn c1(&self, j: f64) -> f64 {
        // Lemma 6 with k = 2: F2(∪ S_i) <= j² max F2(S_i).
        j * j
    }

    fn c2(&self, eps: f64) -> f64 {
        // Lemma 8 with k = 2: c2(ε) = (ε/(9k))² = (ε/18)².
        let v = eps / 18.0;
        v * v
    }

    fn f_max_log2(&self, max_stream_len: u64) -> u32 {
        // F2 <= n² for a stream of n unit-weight items.
        (2 * (64 - max_stream_len.leading_zeros())).clamp(4, 126)
    }

    fn new_sketch(&self) -> FastAmsSketch {
        let mut sketch = FastAmsSketch::with_dimensions(self.width, self.depth, self.seed);
        // Adaptive depth trimming: when the configured γ needs fewer than
        // `depth` rows, restrict the hot loops to that prefix. Every sketch
        // this aggregate builds gets the same trim (so merges agree), the
        // sketch is freshly built and empty (so the trim cannot fail), and
        // snapshot restore decodes into aggregate-built sketches (so the
        // trim survives round trips).
        let _ = sketch.trim_to_delta(self.gamma);
        sketch
    }

    fn sketch_size_hint(&self) -> usize {
        self.width * self.depth
    }

    fn exact_value(&self, freqs: &ExactFrequencies) -> f64 {
        freqs.frequency_moment(2)
    }

    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        // ‖f + g‖₂ ≤ ‖f‖₂ + ‖g‖₂ ≤ √F2 + ‖g‖₁, so F2 stays below the
        // threshold while the added weight is below √threshold − √F2. The
        // same bound holds for the fast-AMS estimate (see the trait docs).
        (threshold.max(0.0).sqrt() - value.max(0.0).sqrt()).max(0.0)
    }

    fn incremental_estimates(&self) -> bool {
        // Exact stores keep Σf² in i128, fast-AMS sketches an exact per-row
        // Σc²: both estimates are O(1) and integer-valued.
        true
    }
}

/// A correlated `F_2` sketch with the framework plumbing pre-wired: answers
/// `F_2({x : y ≤ c})` for query-time `c`.
pub type CorrelatedF2 = CorrelatedSketch<F2Aggregate>;

/// Build a correlated `F_2` sketch.
///
/// * `epsilon`, `delta` — target accuracy of correlated queries;
/// * `y_max` — largest y value that will be inserted;
/// * `max_stream_len` — upper bound on the stream length (sizes the level
///   count via Condition I).
pub fn correlated_f2(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
) -> Result<CorrelatedF2> {
    correlated_f2_seeded(epsilon, delta, y_max, max_stream_len, DEFAULT_SEED)
}

/// [`correlated_f2`] with an explicit seed (reproducible experiments).
pub fn correlated_f2_seeded(
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
    seed: u64,
) -> Result<CorrelatedF2> {
    let agg = F2Aggregate::new(epsilon, delta, seed);
    let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
        .with_seed(seed);
    CorrelatedSketch::new(agg, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_sketch::StreamSketch;

    #[test]
    fn constants_match_the_paper() {
        let agg = F2Aggregate::new(0.2, 0.1, 1);
        assert_eq!(agg.c1(4.0), 16.0);
        assert!((agg.c2(0.18) - 0.0001).abs() < 1e-12);
        assert_eq!(agg.name(), "F2");
        assert_eq!(agg.upsilon(), 0.1);
        assert_eq!(agg.gamma(), 0.1);
    }

    #[test]
    fn f_max_bound_is_twice_log_n() {
        let agg = F2Aggregate::new(0.2, 0.1, 1);
        assert_eq!(agg.f_max_log2(1 << 20), 42);
        assert!(agg.f_max_log2(u64::MAX) <= 126);
        assert!(agg.f_max_log2(1) >= 4);
    }

    #[test]
    fn sketches_from_one_aggregate_are_mergeable() {
        let agg = F2Aggregate::new(0.2, 0.1, 9);
        let mut a = agg.new_sketch();
        let b = agg.new_sketch();
        a.insert(1);
        assert!(cora_sketch::MergeableSketch::merge_from(&mut a, &b).is_ok());
        assert_eq!(agg.sketch_size_hint(), cora_sketch::SpaceUsage::stored_tuples(&a));
    }

    #[test]
    fn constructor_produces_working_sketch() {
        let mut s = correlated_f2_seeded(0.25, 0.1, 1023, 100_000, 5).unwrap();
        for i in 0..2_000u64 {
            s.insert(i % 40, i % 1024).unwrap();
        }
        let full = s.query_all().unwrap();
        let half = s.query(511).unwrap();
        assert!(full > 0.0 && half > 0.0 && half <= full * 1.05);
    }

    #[test]
    fn loose_gamma_trims_sketch_depth() {
        // A failure budget loose enough to need fewer than `depth` rows must
        // trim the hot loops; the default budgets must not.
        let tight = F2Aggregate::new(0.2, 0.05, 1);
        assert_eq!(tight.new_sketch().active_rows(), 3);
        let loose = F2Aggregate::new(0.2, 0.9, 1);
        let s = loose.new_sketch();
        assert!(s.active_rows() < 3, "γ=0.9 should need fewer than 3 rows");
        // Sketches of one aggregate share the trim, so they merge.
        let mut a = loose.new_sketch();
        assert!(cora_sketch::MergeableSketch::merge_from(&mut a, &s).is_ok());
    }

    #[test]
    fn exact_value_matches_direct_f2() {
        let agg = F2Aggregate::new(0.2, 0.1, 1);
        let mut f = ExactFrequencies::new();
        f.update(1, 3);
        f.update(2, 4);
        assert_eq!(agg.exact_value(&f), 25.0);
    }
}
