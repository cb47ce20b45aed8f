//! Order statistics: exact nearest-rank percentiles over the latency samples
//! of one run, and the median / quartile spread over runs that `--selfcheck`
//! (and the driver) judge repeatability by.

/// Exact nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p · n` samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sort in place and return `(p50, p90, p99)`.
pub fn p50_p90_p99(samples: &mut [u64]) -> (u64, u64, u64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.50),
        percentile(samples, 0.90),
        percentile(samples, 0.99),
    )
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cora_sketch::quantiles::GkQuantiles;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[], 0.9), 0);
    }

    #[test]
    fn percentile_agrees_with_gk_within_its_rank_bound() {
        // A skewed latency-like sample: the GK summary promises a value whose
        // rank is within ε·n of the target; the exact routine is the target.
        let eps = 0.01;
        let mut gk = GkQuantiles::new(eps).unwrap();
        let mut samples: Vec<u64> = (0..5_000u64)
            .map(|i| 1_000 + (i * 2_654_435_761 % 9_973) + if i % 50 == 0 { 40_000 } else { 0 })
            .collect();
        for &s in &samples {
            gk.insert(s);
        }
        samples.sort_unstable();
        let n = samples.len() as f64;
        for p in [0.5, 0.9, 0.99] {
            let exact = percentile(&samples, p);
            let approx = gk.quantile(p).unwrap();
            let rank_of = |v: u64| samples.partition_point(|&s| s <= v) as f64;
            let gap = (rank_of(approx) - rank_of(exact)).abs();
            assert!(
                gap <= 2.0 * eps * n + 1.0,
                "p={p}: exact {exact}, gk {approx}, rank gap {gap}"
            );
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
