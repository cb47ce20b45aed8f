//! Traits that sketches program against.
//!
//! Every sketch in `cora-sketch` is generic-free at its public surface but
//! internally uses these traits so that the hash family backing a sketch can be
//! swapped (e.g. polynomial families of different degree) without touching estimator logic.
//! This is also the seam used by the ablation benchmarks.

/// A hash function from 64-bit keys to 64-bit values.
///
/// Implementations must be deterministic: the same key always hashes to the
/// same value for the lifetime of the object. Two instances constructed from
/// the same seed must agree on every key (this is what makes sketch merging
/// sound).
pub trait HashFunction64 {
    /// Hash a 64-bit key to a 64-bit value.
    fn hash64(&self, key: u64) -> u64;

    /// Hash a key into the unit interval `[0, 1)`.
    ///
    /// Used by distinct sampling: an item is kept at level `i` iff
    /// `hash_unit(x) < 2^{-i}`. The default implementation divides the 64-bit
    /// hash by `2^64`, giving 53 bits of usable precision, far more than the
    /// `log2(m)` levels any sampler in this workspace uses.
    fn hash_unit(&self, key: u64) -> f64 {
        // Keep the top 53 bits so the value is exactly representable and the
        // result stays strictly below 1.0 even for an all-ones hash.
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        ((self.hash64(key) >> 11) as f64) * SCALE
    }

    /// Hash a key to a bucket in `[0, range)`.
    ///
    /// `range` does not need to be a power of two; the default implementation
    /// uses the high-quality multiply-shift reduction (Lemire's fast range
    /// reduction) which preserves uniformity better than a modulo.
    fn hash_range(&self, key: u64, range: u64) -> u64 {
        debug_assert!(range > 0, "hash_range requires a non-empty range");
        let h = self.hash64(key);
        ((u128::from(h) * u128::from(range)) >> 64) as u64
    }

    /// The number of leading-zero style "geometric level" of the key's hash:
    /// the number of trailing one-bits is geometric with p = 1/2, used by
    /// Flajolet–Martin style counters and by level-sampling structures.
    fn geometric_level(&self, key: u64) -> u32 {
        self.hash64(key).trailing_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl HashFunction64 for Identity {
        fn hash64(&self, key: u64) -> u64 {
            key
        }
    }

    #[test]
    fn hash_unit_is_in_unit_interval() {
        let h = Identity;
        for k in [0u64, 1, u64::MAX, u64::MAX / 2, 12345] {
            let u = h.hash_unit(k);
            assert!((0.0..1.0).contains(&u), "hash_unit({k}) = {u}");
        }
    }

    #[test]
    fn hash_unit_of_max_is_close_to_one() {
        let h = Identity;
        assert!(h.hash_unit(u64::MAX) > 0.999_999);
        assert_eq!(h.hash_unit(0), 0.0);
    }

    #[test]
    fn hash_range_is_in_range() {
        let h = Identity;
        for range in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for k in [0u64, 1, 17, u64::MAX] {
                assert!(h.hash_range(k, range) < range);
            }
        }
    }

    #[test]
    fn hash_range_distributes_identity_proportionally() {
        // With the identity hash, Lemire reduction maps key k to
        // floor(k * range / 2^64), so small keys land in bucket 0 and the
        // largest keys in bucket range-1.
        let h = Identity;
        assert_eq!(h.hash_range(0, 16), 0);
        assert_eq!(h.hash_range(u64::MAX, 16), 15);
    }

    #[test]
    fn geometric_level_counts_trailing_ones() {
        let h = Identity;
        assert_eq!(h.geometric_level(0b0), 0);
        assert_eq!(h.geometric_level(0b1), 1);
        assert_eq!(h.geometric_level(0b0111), 3);
        assert_eq!(h.geometric_level(u64::MAX), 64);
    }
}
