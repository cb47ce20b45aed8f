//! Cross-crate integration tests for the turnstile-model machinery (multipass,
//! lower-bound instances), the asynchronous sliding-window reduction, and the
//! pane-ring windowed structures checked against an exact replay oracle.

use cora_core::{CoreError, ExactCorrelated};
use cora_stream::{
    greater_than_instance, multipass_f2, solve_exactly, windowed_f0, windowed_f2, AsyncWindowCount,
    PaneConfig, StoredStream, StreamTuple,
};
use cora_tests::{stream_len, WindowOracle};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

#[test]
fn multipass_agrees_with_exact_correlated_f2_under_deletions() {
    let mut rng = StdRng::seed_from_u64(17);
    let y_max = 8_191u64;
    let mut tuples = Vec::new();
    for _ in 0..30_000 {
        let x = rng.gen_range(0..300u64);
        let y = rng.gen_range(0..=y_max);
        tuples.push(StreamTuple::weighted(x, y, 1));
    }
    // Delete a third of the insertions again.
    for i in (0..tuples.len()).step_by(3) {
        let t = tuples[i];
        tuples.push(StreamTuple::weighted(t.x, t.y, -1));
    }
    let stream = StoredStream::new(tuples);
    let eps = 0.2;
    let estimator = multipass_f2(&stream, eps, 0.05, y_max, 23);
    assert!(estimator.passes_used() <= 16, "too many passes: {}", estimator.passes_used());

    let mut exact = ExactCorrelated::new();
    for t in stream.tuples() {
        exact.update(t.x, t.y, t.weight);
    }
    for &tau in &[y_max / 4, y_max / 2, y_max] {
        let truth = exact.frequency_moment(2, tau);
        let est = estimator.query(tau);
        let err = (est - truth).abs() / truth.max(1.0);
        assert!(
            err < 3.0 * eps,
            "tau={tau}: multipass {est} vs exact {truth} (err {err})"
        );
    }
}

#[test]
fn greater_than_instances_are_decided_by_correlated_queries() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let bits = rng.gen_range(2..20u32);
        let a = rng.gen_range(0..(1u64 << bits));
        let b = rng.gen_range(0..(1u64 << bits));
        let stream = greater_than_instance(a, b, bits);
        assert_eq!(solve_exactly(&stream, bits), a.cmp(&b), "a={a} b={b} bits={bits}");
    }
}

#[test]
fn async_window_count_matches_brute_force_across_windows() {
    let t_max = 500_000u64;
    let n = 50_000u64;
    let mut window = AsyncWindowCount::new(0.2, 0.05, t_max, n, 13).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut events = Vec::new();
    for i in 0..n {
        let t = rng.gen_range(0..=t_max);
        events.push(t);
        window.observe(i % 1_000, t).unwrap();
    }
    for &w in &[50_000u64, 200_000, 500_000] {
        let truth = events.iter().filter(|&&t| t >= t_max - w).count() as f64;
        let est = window.query_window(t_max, w).unwrap();
        let err = (est - truth).abs() / truth;
        assert!(err < 0.25, "window {w}: est {est}, truth {truth}");
    }
}

/// One random `(x, y, t)` stream shared by the windowed property tests:
/// timestamps uniform over `[0, t_span)`, observed in shuffled order.
fn windowed_stream(n: usize, t_span: u64, y_max: u64, seed: u64) -> Vec<(u64, u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<(u64, u64, u64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..400u64),
                rng.gen_range(0..=y_max),
                rng.gen_range(0..t_span),
            )
        })
        .collect();
    events.shuffle(&mut rng);
    events
}

#[test]
fn windowed_sliding_queries_match_the_oracle_at_the_configured_rate() {
    let (eps, delta) = (0.25, 0.2);
    let y_max = 1_023u64;
    let t_span = 8_192u64;
    let n = stream_len(20_000);
    let panes = PaneConfig::new(128);
    let mut f2 = windowed_f2(eps, delta, y_max, n as u64, 11, panes.clone()).unwrap();
    let mut f0 = windowed_f0(eps, delta, 16, y_max, 11, panes).unwrap();
    let mut oracle = WindowOracle::new();
    for &(x, y, t) in &windowed_stream(n, t_span, y_max, 29) {
        f2.observe(x, y, t).unwrap();
        f0.observe(x, y, t).unwrap();
        oracle.observe(x, y, t);
    }

    // Random window widths, query times, and thresholds; each estimate is
    // judged against the exact aggregate of the pane-aligned span the ring
    // resolved, so only sketch error (never pane quantization) counts.
    let mut rng = StdRng::seed_from_u64(31);
    let t_latest = f2.t_latest().unwrap();
    let mut checks = 0usize;
    let mut misses = 0usize;
    for trial in 0..40 {
        let window = rng.gen_range(256..=t_span);
        let now = if trial % 2 == 0 {
            t_latest
        } else {
            rng.gen_range(t_span / 2..t_span)
        };
        let c = rng.gen_range(y_max / 8..=y_max);
        let Some((lo, hi)) = f2.resolved_window(now, window).unwrap() else {
            continue;
        };
        // Both rings saw the same observe sequence with the same pane
        // geometry, so they resolve identical spans.
        assert_eq!(f0.resolved_window(now, window).unwrap(), Some((lo, hi)));
        for (est, truth) in [
            (f2.query_at(now, window, c).unwrap(), oracle.f2(lo, hi, c)),
            (f0.query_at(now, window, c).unwrap(), oracle.f0(lo, hi, c)),
        ] {
            if truth < 20.0 {
                continue;
            }
            checks += 1;
            if (est - truth).abs() / truth > eps {
                misses += 1;
            }
        }
    }
    assert!(checks >= 60, "degenerate trial set: only {checks} checks");
    let allowed = ((checks as f64) * delta).ceil() as usize;
    assert!(
        misses <= allowed,
        "windowed queries out of eps={eps} band {misses}/{checks} times (allowed {allowed})"
    );
}

#[test]
fn pane_seal_and_retention_boundaries_are_pinned() {
    // Query exactly at a pane seal: ticks 0..48 fill three 16-tick panes, and
    // windows that are pane multiples resolve to exactly the requested span.
    let mut ring = windowed_f2(0.2, 0.1, 255, 10_000, 5, PaneConfig::new(16)).unwrap();
    let mut oracle = WindowOracle::new();
    for t in 0..48u64 {
        ring.observe(t % 10, t % 256, t).unwrap();
        oracle.observe(t % 10, t % 256, t);
    }
    assert_eq!(ring.resolved_window(47, 16).unwrap(), Some((32, 48)));
    assert_eq!(ring.resolved_window(47, 48).unwrap(), Some((0, 48)));
    // A zero-width window resolves nothing and answers zero.
    assert_eq!(ring.resolved_window(47, 0).unwrap(), None);
    assert_eq!(ring.query_at(47, 0, 255).unwrap(), 0.0);
    let est = ring.query_at(47, 16, 255).unwrap();
    let truth = oracle.f2(32, 48, 255);
    assert!((est - truth).abs() / truth <= 0.2, "pane-seal query: {est} vs {truth}");

    // Retention: with a 64-tick horizon, a 200-tick stream expires its old
    // panes. Windows reaching past the horizon fail loudly; a window starting
    // exactly at the expiry boundary still answers.
    let panes = PaneConfig::new(16).with_retention(64);
    let mut ring = windowed_f2(0.2, 0.1, 255, 10_000, 5, panes).unwrap();
    for t in 0..200u64 {
        ring.observe(t % 10, t % 256, t).unwrap();
    }
    let horizon = ring.expired_through().expect("old panes must have expired");
    assert!(horizon > 0 && horizon <= 136, "horizon {horizon} out of range");
    let too_wide = 200 - (horizon - 1);
    assert!(matches!(
        ring.query_sliding(too_wide, 255),
        Err(CoreError::WindowExpired { .. })
    ));
    assert!(ring.query_sliding(200 - horizon, 255).is_ok());
    // A tuple older than the horizon is counted as dropped, not inserted.
    let before = ring.stored_tuples();
    ring.observe(1, 1, 0).unwrap();
    assert_eq!(ring.late_dropped(), 1);
    assert_eq!(ring.stored_tuples(), before);
}

#[test]
fn repeated_window_queries_reuse_cached_composites() {
    let mut ring = windowed_f2(0.25, 0.1, 255, 10_000, 3, PaneConfig::new(32)).unwrap();
    for t in 0..2_000u64 {
        ring.observe(t % 50, t % 256, t).unwrap();
    }
    let base = ring.composites_built();
    ring.query_sliding(256, 128).unwrap();
    assert_eq!(ring.composites_built(), base + 1, "first query merges panes");
    for _ in 0..5 {
        ring.query_sliding(256, 128).unwrap();
        ring.query_sliding(256, 64).unwrap(); // same span, different threshold
    }
    assert_eq!(
        ring.composites_built(),
        base + 1,
        "repeats at an unchanged ring must hit the composite cache"
    );
    ring.query_sliding(1_024, 128).unwrap();
    assert_eq!(ring.composites_built(), base + 2, "a new span merges once");
    ring.observe(1, 1, 2_000).unwrap();
    ring.query_sliding(256, 128).unwrap();
    assert_eq!(ring.composites_built(), base + 3, "mutation invalidates the cache");
}

#[test]
fn single_pass_correlated_sketch_rejects_turnstile_updates() {
    // The API-level guard matching the Section 4.1 impossibility: the
    // single-pass structure refuses deletions instead of silently answering
    // wrong.
    let mut sketch = cora_core::correlated_f2(0.2, 0.1, 1023, 1000).unwrap();
    assert!(sketch.update(1, 10, 1).is_ok());
    assert!(sketch.update(1, 10, -1).is_err());
}
