//! The exact oracle the served answers are checked against: correlated
//! `F_2` and `F_0` of a tuple list at **every** threshold, from one sweep in
//! y order (a counting sort over the 4 096 y values, then an incremental
//! frequency array over the 65 536 x values).
//!
//! Tolerance is the node's configured (ε, δ), not bit-equality: recovered
//! and merged state is only ε-equivalent past the eviction threshold, and
//! the paper promises ε for each answer only with probability 1 − δ. So an
//! answer beyond **2ε** is a failed operation (no correct sketch lands
//! there: the worst seen over thousands of thresholds is 0.33), and a run
//! in which more than a δ share of the checked answers is beyond ε breaks
//! the contract as a whole. A hard per-answer ε would fail about one answer
//! in a hundred on correct code.

use crate::gen::{X_MAX, Y_MAX};

/// Relative error and failure probability the node is configured for
/// (`epsilon` and `delta` in its fixed config).
pub const EPSILON: f64 = 0.25;
pub const DELTA: f64 = 0.1;

/// The 16 fixed thresholds of the per-run correctness gate.
pub const GRID: [u64; 16] = [
    255, 511, 767, 1023, 1279, 1535, 1791, 2047, 2303, 2559, 2815, 3071, 3327, 3583, 3839, 4095,
];

/// Exact `F_2(c)` and `F_0(c)` for every `c` in `0..=Y_MAX`.
pub struct Oracle {
    f2: Vec<f64>,
    f0: Vec<f64>,
}

impl Oracle {
    pub fn new(tuples: &[(u64, u64)]) -> Self {
        let ys = Y_MAX as usize + 1;
        let mut start = vec![0usize; ys + 1];
        for &(_, y) in tuples {
            start[y as usize + 1] += 1;
        }
        for y in 0..ys {
            start[y + 1] += start[y];
        }
        let mut by_y = vec![0u32; tuples.len()];
        let mut next = start.clone();
        for &(x, y) in tuples {
            by_y[next[y as usize]] = x as u32;
            next[y as usize] += 1;
        }
        let mut freq = vec![0u64; X_MAX as usize + 1];
        let (mut f2, mut f0) = (0u128, 0u64);
        let mut out = Self {
            f2: Vec::with_capacity(ys),
            f0: Vec::with_capacity(ys),
        };
        for y in 0..ys {
            for &x in &by_y[start[y]..start[y + 1]] {
                let f = &mut freq[x as usize];
                // (f+1)² − f² = 2f + 1
                f2 += u128::from(2 * *f + 1);
                f0 += u64::from(*f == 0);
                *f += 1;
            }
            out.f2.push(f2 as f64);
            out.f0.push(f0 as f64);
        }
        out
    }

    pub fn f2(&self, c: u64) -> f64 {
        self.f2[c.min(Y_MAX) as usize]
    }

    pub fn f0(&self, c: u64) -> f64 {
        self.f0[c.min(Y_MAX) as usize]
    }
}

/// `|estimate − exact| / exact` (an empty selection compares absolutely).
pub fn rel_err(estimate: f64, exact: f64) -> f64 {
    (estimate - exact).abs() / exact.max(1.0)
}

/// The answers of one aggregate family checked so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdicts {
    pub checked: u64,
    pub beyond_epsilon: u64,
    pub worst: f64,
}

impl Verdicts {
    /// Record one served answer; `false` when it is beyond 2ε — broken, not
    /// unlucky.
    pub fn record(&mut self, estimate: f64, exact: f64) -> bool {
        let err = rel_err(estimate, exact);
        self.checked += 1;
        self.beyond_epsilon += u64::from(err > EPSILON);
        self.worst = self.worst.max(err);
        err <= 2.0 * EPSILON
    }

    pub fn add(&mut self, other: Verdicts) {
        self.checked += other.checked;
        self.beyond_epsilon += other.beyond_epsilon;
        self.worst = self.worst.max(other.worst);
    }

    /// At most a δ share of the answers may be beyond ε.
    pub fn contract_holds(&self) -> bool {
        self.beyond_epsilon as f64 <= (DELTA * self.checked as f64).ceil()
    }
}

/// Accuracy of the two families every endpoint is checked on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    pub f2: Verdicts,
    pub f0: Verdicts,
}

impl Accuracy {
    pub fn add(&mut self, other: Accuracy) {
        self.f2.add(other.f2);
        self.f0.add(other.f0);
    }

    pub fn contract_holds(&self) -> bool {
        self.f2.contract_holds() && self.f0.contract_holds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{tuples, Keys};
    use cora_core::ExactCorrelated;

    #[test]
    fn oracle_matches_cora_core_exact_on_a_small_stream() {
        for keys in [Keys::Uniform, Keys::Zipf] {
            let stream = tuples(keys, 3_000, 9);
            let mut exact = ExactCorrelated::new();
            for &(x, y) in &stream {
                exact.insert(x, y);
            }
            let oracle = Oracle::new(&stream);
            for c in GRID.into_iter().chain([0, 1, 17, 4_000]) {
                assert_eq!(oracle.f2(c), exact.frequency_moment(2, c), "F2 at {c}");
                assert_eq!(oracle.f0(c), exact.distinct_count(c), "F0 at {c}");
            }
        }
    }

    #[test]
    fn rel_err_is_relative_and_safe_at_zero() {
        assert_eq!(rel_err(110.0, 100.0), 0.1);
        assert_eq!(rel_err(0.0, 0.0), 0.0);
    }

    #[test]
    fn verdicts_separate_unlucky_from_broken() {
        let mut v = Verdicts::default();
        assert!(v.record(100.0, 100.0));
        assert!(
            v.record(130.0, 100.0),
            "beyond ε but within 2ε: unlucky, not failed"
        );
        assert!(!v.record(151.0, 100.0), "beyond 2ε: failed");
        assert_eq!((v.checked, v.beyond_epsilon), (3, 2));
        assert!(!v.contract_holds(), "two of three beyond ε is more than δ");
        let mut many = Verdicts::default();
        for i in 0..100 {
            many.record(if i < 10 { 130.0 } else { 101.0 }, 100.0);
        }
        assert!(
            many.contract_holds(),
            "a δ share beyond ε is what the paper allows"
        );
        many.record(130.0, 100.0);
        many.record(130.0, 100.0);
        assert!(!many.contract_holds());
    }
}
