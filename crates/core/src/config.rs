//! Configuration and parameter derivation for the correlated-aggregation
//! framework (Section 2.1 of the paper).
//!
//! The paper fixes its parameters as
//!
//! ```text
//! α = 64 · c1(log y_max) / c2(ε/2)        (buckets kept per level)
//! υ = ε/2                                 (per-bucket sketch accuracy)
//! γ = δ / (4 · y_max · (ℓ_max + 1))       (per-bucket sketch failure prob.)
//! ℓ_max : 2^{ℓ_max} > f_max               (number of levels)
//! ```
//!
//! Those constants are what the correctness proof needs; they are far larger
//! than anything a practical implementation would use (for `F_2` at ε = 0.15
//! the theoretical α alone exceeds 10⁸ buckets per level). The paper's own
//! experiments (Section 5) use practical constants; since the exact values are
//! not reported, this module exposes both:
//!
//! * [`AlphaPolicy::Theoretical`] — the proof constants, usable for tiny
//!   domains and in tests that exercise the formulas;
//! * [`AlphaPolicy::Practical`] — `α = ⌈scale · log2(y_max+1) / ε⌉`, the
//!   default, with `scale = 24`. The empirical accuracy of the resulting
//!   sketch is validated against the exact baseline in the integration tests
//!   and the `accuracy_report` experiment binary (E8 in DESIGN.md).

use crate::dyadic::{pad_y_max, tree_height};
use crate::error::{check_unit_interval, CoreError, Result};

/// How to size the per-level bucket budget `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaPolicy {
    /// The constants from the paper's proof: `α = 64 · c1(log2 y_max) / c2(ε/2)`.
    Theoretical,
    /// Practical sizing: `α = ⌈scale · log2(y_max+1) / ε⌉` (clamped to ≥ 16).
    Practical {
        /// Multiplicative constant, default 24.
        scale: f64,
    },
    /// A fixed bucket budget per level (used by ablation benchmarks).
    Fixed(usize),
}

impl Default for AlphaPolicy {
    fn default() -> Self {
        AlphaPolicy::Practical { scale: 24.0 }
    }
}

/// User-facing configuration for a correlated sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedConfig {
    /// Target relative error ε ∈ (0, 1).
    pub epsilon: f64,
    /// Target failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// Largest y value that will ever be inserted (padded internally to 2^β − 1).
    pub y_max: u64,
    /// Upper bound on log2 of the aggregate value over any stream this sketch
    /// will see (`2^{f_max_log2} > f_max`, Condition I). Determines `ℓ_max`.
    pub f_max_log2: u32,
    /// Bucket budget policy.
    pub alpha_policy: AlphaPolicy,
    /// Master seed for all hash functions in the structure.
    pub seed: u64,
}

impl CorrelatedConfig {
    /// Create a configuration with default alpha policy and seed.
    pub fn new(epsilon: f64, delta: f64, y_max: u64, f_max_log2: u32) -> Result<Self> {
        let cfg = Self {
            epsilon,
            delta,
            y_max,
            f_max_log2,
            alpha_policy: AlphaPolicy::default(),
            seed: DEFAULT_SEED,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the alpha policy (builder style).
    pub fn with_alpha_policy(mut self, policy: AlphaPolicy) -> Self {
        self.alpha_policy = policy;
        self
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<()> {
        check_unit_interval("epsilon", self.epsilon)?;
        check_unit_interval("delta", self.delta)?;
        if self.y_max == 0 {
            return Err(CoreError::InvalidParameter {
                name: "y_max",
                detail: "must be at least 1".into(),
            });
        }
        if self.f_max_log2 == 0 || self.f_max_log2 > 126 {
            return Err(CoreError::InvalidParameter {
                name: "f_max_log2",
                detail: format!("must be in [1, 126], got {}", self.f_max_log2),
            });
        }
        Ok(())
    }

    /// The padded y domain upper bound (`2^β − 1`).
    pub fn padded_y_max(&self) -> u64 {
        pad_y_max(self.y_max)
    }

    /// Height of the dyadic tree, `log2(y_max + 1)` after padding.
    pub fn log2_y(&self) -> u32 {
        tree_height(self.y_max)
    }

    /// Number of levels `ℓ_max + 1` (levels are `0 ..= ℓ_max`); `ℓ_max` is the
    /// smallest value with `2^{ℓ_max} > f_max`, i.e. `f_max_log2 + 1`.
    pub fn num_levels(&self) -> usize {
        self.f_max_log2 as usize + 2
    }

    /// Per-bucket sketch accuracy `υ = ε/2`.
    pub fn upsilon(&self) -> f64 {
        self.epsilon / 2.0
    }

    /// Per-bucket sketch failure probability
    /// `γ = δ / (4 · y_max · (ℓ_max + 1))`.
    pub fn gamma(&self) -> f64 {
        let denom = 4.0 * (self.padded_y_max() as f64) * (self.num_levels() as f64);
        (self.delta / denom).max(f64::MIN_POSITIVE)
    }

    /// Resolve the per-level bucket budget `α` for an aggregate with the given
    /// `c1(log2 y_max)` and `c2(ε/2)` values.
    pub fn alpha(&self, c1_logy: f64, c2_half_eps: f64) -> usize {
        match self.alpha_policy {
            AlphaPolicy::Theoretical => {
                let a = 64.0 * c1_logy / c2_half_eps;
                a.ceil().clamp(16.0, 1e9) as usize
            }
            AlphaPolicy::Practical { scale } => {
                let a = scale * f64::from(self.log2_y()) / self.epsilon;
                a.ceil().clamp(16.0, 1e9) as usize
            }
            AlphaPolicy::Fixed(a) => a.max(4),
        }
    }
}

/// Default master seed (arbitrary constant).
pub const DEFAULT_SEED: u64 = 0xC04A_5EED;

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CorrelatedConfig {
        CorrelatedConfig::new(0.2, 0.1, 1_000_000, 60).unwrap()
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(CorrelatedConfig::new(0.0, 0.1, 100, 40).is_err());
        assert!(CorrelatedConfig::new(0.2, 1.0, 100, 40).is_err());
        assert!(CorrelatedConfig::new(0.2, 0.1, 0, 40).is_err());
        assert!(CorrelatedConfig::new(0.2, 0.1, 100, 0).is_err());
        assert!(CorrelatedConfig::new(0.2, 0.1, 100, 200).is_err());
        assert!(CorrelatedConfig::new(0.2, 0.1, 100, 40).is_ok());
    }

    #[test]
    fn padded_domain_and_height() {
        let cfg = base();
        assert_eq!(cfg.padded_y_max(), (1 << 20) - 1);
        assert_eq!(cfg.log2_y(), 20);
    }

    #[test]
    fn level_count_covers_f_max() {
        let cfg = base();
        assert_eq!(cfg.num_levels(), 62);
    }

    #[test]
    fn upsilon_and_gamma_follow_the_paper() {
        let cfg = base();
        assert_eq!(cfg.upsilon(), 0.1);
        let gamma = cfg.gamma();
        assert!(gamma > 0.0 && gamma < cfg.delta);
        // γ = δ / (4 · y_max · levels)
        let expected = 0.1 / (4.0 * ((1u64 << 20) - 1) as f64 * 62.0);
        assert!((gamma - expected).abs() < 1e-15);
    }

    #[test]
    fn alpha_policies() {
        let cfg = base();
        // Practical default: 24 * 20 / 0.2 = 2400.
        assert_eq!(cfg.alpha(0.0, 1.0), 2400);
        let theo = cfg
            .clone()
            .with_alpha_policy(AlphaPolicy::Theoretical)
            .alpha(400.0, (0.1f64 / 18.0).powi(2));
        // 64 * 400 / (0.1/18)^2 ≈ 8.3e8 — clamped below 1e9 but enormous.
        assert!(theo > 100_000_000);
        let fixed = cfg.with_alpha_policy(AlphaPolicy::Fixed(7)).alpha(1.0, 1.0);
        assert_eq!(fixed, 7);
    }

    #[test]
    fn builder_methods() {
        let cfg = base().with_seed(99).with_alpha_policy(AlphaPolicy::Fixed(32));
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.alpha_policy, AlphaPolicy::Fixed(32));
    }

    #[test]
    fn alpha_never_degenerate() {
        let cfg = CorrelatedConfig::new(0.9, 0.5, 2, 4).unwrap();
        assert!(cfg.alpha(1.0, 0.5) >= 16);
        let tiny = cfg.with_alpha_policy(AlphaPolicy::Fixed(1));
        assert!(tiny.alpha(1.0, 0.5) >= 4);
    }
}
