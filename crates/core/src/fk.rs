//! Correlated higher frequency moments `F_k`, `k ≥ 2` (Section 3.1,
//! Theorem 3 of the paper).
//!
//! Constants from Lemmas 6 and 8: `c1(j) = j^k` and `c2(ε) = (ε/(9k))^k`.
//! The per-bucket whole-stream sketch is the subsampling `F_k` estimator from
//! `cora-sketch` (the Indyk–Woodruff stand-in documented in DESIGN.md).

use crate::aggregate::CorrelatedAggregate;
use crate::config::{CorrelatedConfig, DEFAULT_SEED};
use crate::error::{check_unit_interval, CoreError, Result};
use crate::framework::CorrelatedSketch;
use cora_sketch::{ExactFrequencies, FkSketch};

/// Descriptor for the correlated `F_k` aggregate.
#[derive(Debug, Clone)]
pub struct FkAggregate {
    k: u32,
    /// Per-bucket SpaceSaving capacity.
    capacity: usize,
    /// Number of subsampling levels inside each per-bucket sketch.
    levels: usize,
    seed: u64,
}

impl FkAggregate {
    /// Create an `F_k` aggregate (`k ≥ 2`) with per-bucket sketches targeting
    /// relative error `epsilon/2`.
    pub fn new(k: u32, epsilon: f64, seed: u64) -> Result<Self> {
        if k < 2 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                detail: format!("correlated F_k requires k >= 2, got {k}"),
            });
        }
        check_unit_interval("epsilon", epsilon)?;
        let upsilon = epsilon / 2.0;
        let capacity = ((8.0 / (upsilon * upsilon)).ceil() as usize).clamp(32, 1 << 14);
        Ok(Self {
            k,
            capacity,
            levels: 24,
            seed,
        })
    }

    /// The moment order `k`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl CorrelatedAggregate for FkAggregate {
    type Sketch = FkSketch;

    fn name(&self) -> String {
        format!("F{}", self.k)
    }

    fn c1(&self, j: f64) -> f64 {
        // Lemma 6: F_k(∪ S_i) <= j^k max F_k(S_i).
        j.powi(self.k as i32)
    }

    fn c2(&self, eps: f64) -> f64 {
        // Lemma 8: c2(ε) = (ε/(9k))^k.
        (eps / (9.0 * f64::from(self.k))).powi(self.k as i32)
    }

    fn f_max_log2(&self, max_stream_len: u64) -> u32 {
        // F_k <= n^k for unit weights.
        (self.k * (64 - max_stream_len.leading_zeros())).clamp(4, 126)
    }

    fn new_sketch(&self) -> FkSketch {
        FkSketch::with_dimensions(self.k, self.capacity, self.levels, self.seed)
    }

    fn sketch_size_hint(&self) -> usize {
        // The per-bucket sketch's dominant cost is its level-0 summary; deeper
        // levels hold geometrically fewer items in expectation.
        self.capacity * 2
    }

    fn exact_value(&self, freqs: &ExactFrequencies) -> f64 {
        freqs.frequency_moment(self.k)
    }

    fn weight_headroom(&self, value: f64, threshold: f64) -> f64 {
        // ‖f + g‖_k ≤ ‖f‖_k + ‖g‖_k ≤ F_k^{1/k} + ‖g‖₁: the true moment
        // stays below the threshold while the added weight is below
        // threshold^{1/k} − F_k^{1/k}. The per-bucket subsampling sketch's
        // estimate tracks the true value only up to its own relative error,
        // so for sketched F_k buckets this is an amortization heuristic: a
        // close can be delayed by at most one headroom window, which the
        // aggregate's loose error budget absorbs.
        let k = f64::from(self.k);
        (threshold.max(0.0).powf(1.0 / k) - value.max(0.0).powf(1.0 / k)).max(0.0)
    }
}

/// A correlated `F_k` sketch: answers `F_k({x : y ≤ c})` for query-time `c`.
pub type CorrelatedFk = CorrelatedSketch<FkAggregate>;

/// Build a correlated `F_k` sketch (`k ≥ 2`).
pub fn correlated_fk(
    k: u32,
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
) -> Result<CorrelatedFk> {
    correlated_fk_seeded(k, epsilon, delta, y_max, max_stream_len, DEFAULT_SEED)
}

/// [`correlated_fk`] with an explicit seed.
pub fn correlated_fk_seeded(
    k: u32,
    epsilon: f64,
    delta: f64,
    y_max: u64,
    max_stream_len: u64,
    seed: u64,
) -> Result<CorrelatedFk> {
    let agg = FkAggregate::new(k, epsilon, seed)?;
    let config = CorrelatedConfig::new(epsilon, delta, y_max, agg.f_max_log2(max_stream_len))?
        .with_seed(seed);
    CorrelatedSketch::new(agg, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_sketch::StreamSketch as _;

    #[test]
    fn parameter_validation() {
        assert!(FkAggregate::new(1, 0.2, 1).is_err());
        assert!(FkAggregate::new(3, 0.0, 1).is_err());
        assert!(FkAggregate::new(3, 0.2, 1).is_ok());
        assert!(correlated_fk(1, 0.2, 0.1, 100, 1000).is_err());
    }

    #[test]
    fn constants_follow_lemmas() {
        let agg = FkAggregate::new(3, 0.2, 1).unwrap();
        assert_eq!(agg.c1(2.0), 8.0);
        let c2 = agg.c2(0.27);
        assert!((c2 - (0.01f64).powi(3)).abs() < 1e-12);
        assert_eq!(agg.name(), "F3");
        assert_eq!(agg.k(), 3);
    }

    #[test]
    fn f_max_scales_with_k() {
        let f3 = FkAggregate::new(3, 0.2, 1).unwrap();
        let f4 = FkAggregate::new(4, 0.2, 1).unwrap();
        assert!(f4.f_max_log2(1 << 20) > f3.f_max_log2(1 << 20));
    }

    #[test]
    fn correlated_f3_tracks_exact_on_skewed_stream() {
        let y_max = 2047u64;
        let mut s = correlated_fk_seeded(3, 0.25, 0.1, y_max, 100_000, 11).unwrap();
        let mut tuples = Vec::new();
        let mut state = 5u64;
        for i in 0..30_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Zipf-ish identifiers: small ids occur much more often.
            let r = (state >> 33) % 1000;
            let x = (1000.0 / ((r + 1) as f64)).floor() as u64;
            let y = (state >> 13) % (y_max + 1);
            tuples.push((x, y));
            s.insert(x, y).unwrap();
            let _ = i;
        }
        for &c in &[y_max / 4, y_max / 2, y_max] {
            let mut exact = ExactFrequencies::new();
            for &(x, y) in &tuples {
                if y <= c {
                    exact.insert(x);
                }
            }
            let truth = exact.frequency_moment(3);
            let est = s.query(c).unwrap();
            let err = (est - truth).abs() / truth;
            assert!(
                err < 0.4,
                "correlated F3 at c={c}: est {est}, truth {truth}, err {err}"
            );
        }
    }

    #[test]
    fn exact_value_matches_direct_moment() {
        let agg = FkAggregate::new(4, 0.3, 1).unwrap();
        let mut f = ExactFrequencies::new();
        f.update(1, 2);
        f.update(2, 3);
        assert_eq!(agg.exact_value(&f), 16.0 + 81.0);
    }
}
