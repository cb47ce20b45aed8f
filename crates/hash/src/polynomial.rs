//! Exact k-wise independent hashing via random polynomials over GF(p),
//! p = 2^61 − 1 (a Mersenne prime, so reduction is two adds and a shift).
//!
//! A degree-(k−1) polynomial with uniformly random coefficients evaluated at
//! the key is a classic k-wise independent family (Wegman–Carter). We use it
//! where the *proof* of a sketch requires a specific independence level:
//!
//! * k = 2: bucket hashes for distinct sampling and CountSketch columns,
//! * k = 4: sign hashes for AMS `F_2` (the fast-AMS row kernel in
//!   `cora-sketch` evaluates these coefficients inline).
//!
//! A function is `k` coefficients and no tables, which matters here: the
//! correlated framework instantiates many small per-bucket sketches, where a
//! table-driven family's 16 KiB per hash function would dominate the very
//! space the paper is trying to save.

use crate::mix::derive_seed;
use crate::traits::HashFunction64;
use crate::MERSENNE_61;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multiply two values modulo 2^61 − 1 without overflow.
///
/// Public because hot-path specialisations (the fast-AMS hash kernel in
/// `cora-sketch`) inline fixed-arity polynomial evaluation against these
/// exact primitives; any drift between the two would silently change every
/// hash value, so there is one implementation.
#[inline]
pub fn mul_mod_m61(a: u64, b: u64) -> u64 {
    let prod = u128::from(a) * u128::from(b);
    // Split into low 61 bits and the rest, then fold (since 2^61 ≡ 1 mod p).
    let lo = (prod & u128::from(MERSENNE_61)) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// Add two values modulo 2^61 − 1. Public for the same reason as
/// [`mul_mod_m61`].
#[inline]
pub fn add_mod_m61(a: u64, b: u64) -> u64 {
    let mut s = a + b; // both < 2^61, so no overflow in u64
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// A k-wise independent hash function realised as a random degree-(k−1)
/// polynomial over GF(2^61 − 1).
///
/// The output is a value in `[0, 2^61 − 1)`; [`HashFunction64::hash64`]
/// additionally spreads it over the full 64-bit range by multiplying with a
/// fixed odd constant so that downstream range reductions that look at high
/// bits remain unbiased.
#[derive(Debug, Clone)]
pub struct PolynomialHash {
    /// Coefficients a_0 .. a_{k-1}; a_{k-1} is guaranteed non-zero so the
    /// polynomial has true degree k−1.
    coefficients: Vec<u64>,
}

impl PolynomialHash {
    /// Create a new k-wise independent hash function.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "independence level k must be at least 1");
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        let mut coefficients: Vec<u64> = (0..k).map(|_| rng.gen_range(0..MERSENNE_61)).collect();
        // Force the leading coefficient non-zero so degree is exactly k−1.
        if k > 1 && coefficients[k - 1] == 0 {
            coefficients[k - 1] = 1 + rng.gen_range(0..MERSENNE_61 - 1);
        }
        Self { coefficients }
    }

    /// The independence level (number of coefficients) of this function.
    pub fn independence(&self) -> usize {
        self.coefficients.len()
    }

    /// The polynomial's coefficients `a_0 .. a_{k-1}` (all in `[0, 2^61−1)`).
    ///
    /// Exposed so callers that evaluate many same-shaped polynomials per key
    /// (e.g. the fast-AMS row kernel) can copy the coefficients into flat
    /// fixed-arity storage and share the single `key mod 2^61−1` reduction
    /// across all of them, while still deriving every coefficient through
    /// this constructor so the values stay bit-identical.
    pub fn coefficients(&self) -> &[u64] {
        &self.coefficients
    }

    /// Evaluate the polynomial at `key` (reduced into the field first),
    /// returning a value in `[0, 2^61 − 1)`.
    #[inline]
    pub fn eval_mod(&self, key: u64) -> u64 {
        let x = key % MERSENNE_61;
        // Horner's rule, highest coefficient first.
        let mut acc = 0u64;
        for &c in self.coefficients.iter().rev() {
            acc = add_mod_m61(mul_mod_m61(acc, x), c);
        }
        acc
    }
}

impl HashFunction64 for PolynomialHash {
    #[inline]
    fn hash64(&self, key: u64) -> u64 {
        // Spread the 61-bit field element over 64 bits. Multiplying by a fixed
        // odd constant is a bijection on u64 and moves entropy into the high
        // bits used by hash_range / hash_unit.
        self.eval_mod(key).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn field_arithmetic_basics() {
        assert_eq!(add_mod_m61(MERSENNE_61 - 1, 1), 0);
        assert_eq!(add_mod_m61(0, 0), 0);
        assert_eq!(mul_mod_m61(0, 12345), 0);
        assert_eq!(mul_mod_m61(1, 12345), 12345);
        // (p-1)^2 mod p == 1  (since -1 * -1 = 1)
        assert_eq!(mul_mod_m61(MERSENNE_61 - 1, MERSENNE_61 - 1), 1);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let pairs = [
            (123_456_789u64, 987_654_321u64),
            (MERSENNE_61 - 1, 2),
            (1u64 << 60, 1u64 << 60),
            (0xDEAD_BEEF, 0xFEED_FACE),
        ];
        for (a, b) in pairs {
            let expected = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE_61)) as u64;
            assert_eq!(mul_mod_m61(a, b), expected, "a={a} b={b}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h1 = PolynomialHash::new(4, 99);
        let h2 = PolynomialHash::new(4, 99);
        for k in 0..1000u64 {
            assert_eq!(h1.hash64(k), h2.hash64(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let h1 = PolynomialHash::new(4, 1);
        let h2 = PolynomialHash::new(4, 2);
        let same = (0..1000u64).filter(|&k| h1.hash64(k) == h2.hash64(k)).count();
        assert!(same < 5, "two random degree-3 polynomials agreed on {same}/1000 points");
    }

    #[test]
    fn independence_reports_k() {
        for k in 1..=8 {
            assert_eq!(PolynomialHash::new(k, 7).independence(), k);
        }
    }

    #[test]
    fn output_stays_in_field_before_spreading() {
        let h = PolynomialHash::new(3, 21);
        for k in 0..10_000u64 {
            assert!(h.eval_mod(k) < MERSENNE_61);
        }
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        // Chi-squared style sanity check: hash 40k keys into 16 buckets.
        let h = PolynomialHash::new(2, 7);
        let buckets = 16u64;
        let n = 40_000u64;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for k in 0..n {
            *counts.entry(h.hash_range(k, buckets)).or_default() += 1;
        }
        let expected = (n / buckets) as f64;
        for b in 0..buckets {
            let c = *counts.get(&b).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() < expected * 0.15,
                "bucket {b} has {c} items, expected ~{expected}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate_is_near_uniform() {
        // For a 2-universal family into r buckets, Pr[collision] <= 1/r.
        let h = PolynomialHash::new(2, 3);
        let r = 1024u64;
        let n = 2000u64;
        let mut collisions = 0u64;
        let hashes: Vec<u64> = (0..n).map(|k| h.hash_range(k, r)).collect();
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                if hashes[i] == hashes[j] {
                    collisions += 1;
                }
            }
        }
        let pairs = n * (n - 1) / 2;
        let rate = collisions as f64 / pairs as f64;
        // Allow 2x slack over the 1/r bound for statistical noise.
        assert!(rate < 2.0 / r as f64, "collision rate {rate} too high");
    }
}
