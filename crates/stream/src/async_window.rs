//! Sliding-window aggregation over asynchronous (out-of-order) streams via the
//! reduction to correlated aggregates (Section 1.1 of the paper).
//!
//! In an asynchronous stream, elements carry generation timestamps but may be
//! observed out of order. A sliding-window query at wall-clock time `T` with
//! window width `W` aggregates the elements whose timestamp is in
//! `[T − W, T]`. The paper observes that this is a correlated aggregate in
//! disguise: mapping each timestamp `t` to `y = t_max − t` turns "timestamp at
//! least `T − W`" into "y at most `t_max − (T − W)`" — a threshold known only
//! at query time, exactly what the correlated sketch supports.
//!
//! [`AsyncWindowF2`] and [`AsyncWindowCount`] wrap the corresponding
//! correlated sketches behind a window-oriented API.
//!
//! This reduction answers any suffix window exactly at base-tick resolution,
//! but the single sketch's y-domain spans all of `[0, t_max]` and nothing is
//! ever forgotten. The pane ring in [`crate::windowed`] makes the opposite
//! trade: pane-quantized window edges in exchange for bounded pane counts,
//! retention/expiry, and a second (y-threshold) dimension.

use cora_core::error::Result;
use cora_core::f2::{correlated_f2_seeded, CorrelatedF2};
use cora_core::sum::CorrelatedCount;
use cora_core::{AlphaPolicy, CorrelatedConfig, CorrelatedSketch};

/// Sliding-window `F_2` over an asynchronous stream.
#[derive(Debug, Clone)]
pub struct AsyncWindowF2 {
    inner: CorrelatedF2,
    t_max: u64,
}

impl AsyncWindowF2 {
    /// Build a window sketch for timestamps in `[0, t_max]`.
    pub fn new(
        epsilon: f64,
        delta: f64,
        t_max: u64,
        max_stream_len: u64,
        seed: u64,
    ) -> Result<Self> {
        Ok(Self {
            inner: correlated_f2_seeded(epsilon, delta, t_max, max_stream_len, seed)?,
            t_max,
        })
    }

    /// Observe an element with identifier `x` generated at timestamp `t`
    /// (elements may arrive in any order).
    pub fn observe(&mut self, x: u64, t: u64) -> Result<()> {
        let y = self.t_max.saturating_sub(t);
        self.inner.insert(x, y)
    }

    /// Estimate `F_2` of the identifiers whose timestamp lies in
    /// `[now − window, now]` (timestamps newer than `now` are excluded by
    /// construction only if they have not been observed; callers should pass
    /// `now` no smaller than the largest observed timestamp).
    pub fn query_window(&self, now: u64, window: u64) -> Result<f64> {
        let oldest = now.saturating_sub(window);
        let c = self.t_max.saturating_sub(oldest);
        self.inner.query(c)
    }

    /// Total stored tuples (space accounting).
    pub fn stored_tuples(&self) -> usize {
        self.inner.stored_tuples()
    }
}

/// Sliding-window count of elements over an asynchronous stream.
#[derive(Debug, Clone)]
pub struct AsyncWindowCount {
    inner: CorrelatedCount,
    t_max: u64,
}

impl AsyncWindowCount {
    /// Build a window counter for timestamps in `[0, t_max]`.
    pub fn new(epsilon: f64, delta: f64, t_max: u64, max_stream_len: u64, seed: u64) -> Result<Self> {
        let agg = cora_core::sum::CountAggregate::new();
        let config = CorrelatedConfig::new(
            epsilon,
            delta,
            t_max,
            cora_core::CorrelatedAggregate::f_max_log2(&agg, max_stream_len),
        )?
        .with_seed(seed)
        .with_alpha_policy(AlphaPolicy::default());
        Ok(Self {
            inner: CorrelatedSketch::new(agg, config)?,
            t_max,
        })
    }

    /// Observe an element generated at timestamp `t`.
    pub fn observe(&mut self, x: u64, t: u64) -> Result<()> {
        let y = self.t_max.saturating_sub(t);
        self.inner.insert(x, y)
    }

    /// Estimate the number of elements with timestamp in `[now − window, now]`.
    pub fn query_window(&self, now: u64, window: u64) -> Result<f64> {
        let oldest = now.saturating_sub(window);
        let c = self.t_max.saturating_sub(oldest);
        self.inner.query(c)
    }

    /// Total stored tuples (space accounting).
    pub fn stored_tuples(&self) -> usize {
        self.inner.stored_tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn window_count_matches_truth_on_out_of_order_arrivals() {
        let t_max = 100_000u64;
        let mut w = AsyncWindowCount::new(0.2, 0.1, t_max, 100_000, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Timestamps uniform over [0, t_max], observed in shuffled order.
        let mut events: Vec<(u64, u64)> = (0..30_000u64)
            .map(|i| (i % 500, rng.gen_range(0..=t_max)))
            .collect();
        events.shuffle(&mut rng);
        for &(x, t) in &events {
            w.observe(x, t).unwrap();
        }
        let now = t_max;
        for &window in &[10_000u64, 40_000, 100_000] {
            let truth = events.iter().filter(|&&(_, t)| t >= now - window).count() as f64;
            let est = w.query_window(now, window).unwrap();
            let err = (est - truth).abs() / truth;
            assert!(err < 0.25, "window {window}: est {est}, truth {truth}");
        }
    }

    #[test]
    fn window_f2_is_insensitive_to_arrival_order() {
        let t_max = 10_000u64;
        let mut in_order = AsyncWindowF2::new(0.25, 0.1, t_max, 50_000, 5).unwrap();
        let mut shuffled = AsyncWindowF2::new(0.25, 0.1, t_max, 50_000, 5).unwrap();
        let mut events: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i % 100, (i * 2) % t_max)).collect();
        for &(x, t) in &events {
            in_order.observe(x, t).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(11);
        events.shuffle(&mut rng);
        for &(x, t) in &events {
            shuffled.observe(x, t).unwrap();
        }
        let a = in_order.query_window(t_max, 5_000).unwrap();
        let b = shuffled.query_window(t_max, 5_000).unwrap();
        let rel = (a - b).abs() / a.max(1.0);
        assert!(rel < 0.15, "order sensitivity: {a} vs {b}");
    }

    #[test]
    fn space_stays_sublinear() {
        let t_max = 1 << 20;
        let mut w = AsyncWindowCount::new(0.3, 0.2, t_max, 1 << 20, 9).unwrap();
        let n = 100_000u64;
        for i in 0..n {
            w.observe(i % 1000, (i * 17) % t_max).unwrap();
        }
        assert!(
            (w.stored_tuples() as u64) < n / 2,
            "window sketch stores {} tuples for {n} events",
            w.stored_tuples()
        );
    }
}
