//! Property-based tests for the hash families.

use cora_hash::traits::HashFunction64;
use cora_hash::PolynomialHash;
use proptest::prelude::*;

proptest! {
    #[test]
    fn polynomial_hash_is_deterministic(seed in any::<u64>(), key in any::<u64>()) {
        let a = PolynomialHash::new(3, seed);
        let b = PolynomialHash::new(3, seed);
        prop_assert_eq!(a.hash64(key), b.hash64(key));
    }

    #[test]
    fn polynomial_eval_stays_in_field(seed in any::<u64>(), key in any::<u64>(), k in 1usize..6) {
        let h = PolynomialHash::new(k, seed);
        prop_assert!(h.eval_mod(key) < cora_hash::MERSENNE_61);
    }

    #[test]
    fn hash_range_respects_bound(seed in any::<u64>(), key in any::<u64>(), range in 1u64..1_000_000) {
        let h = PolynomialHash::new(2, seed);
        prop_assert!(h.hash_range(key, range) < range);
    }

    #[test]
    fn hash_unit_in_interval(seed in any::<u64>(), key in any::<u64>()) {
        let h = PolynomialHash::new(2, seed);
        let u = h.hash_unit(key);
        prop_assert!((0.0..1.0).contains(&u));
    }
}
