//! Scalar bit-mixing finalizers.
//!
//! These are *not* limited-independence families; they are deterministic
//! bijections on `u64` used to (a) derive well-spread per-row seeds from a
//! single user seed and (b) break the structure of a hash value before it
//! indexes a table or picks a level. Both uses only need good avalanche
//! behaviour, not independence, so a strong finalizer (SplitMix64 / Murmur3's
//! `fmix64`) is the right tool.

/// The SplitMix64 output function. A bijection on `u64` with full avalanche.
///
/// Used to derive sub-seeds: `splitmix64(seed + GOLDEN * i)` yields a stream of
/// well-decorrelated 64-bit values from one master seed.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Murmur3's 64-bit finalizer (`fmix64`). A bijection on `u64`.
#[inline]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k
}

/// Derive the `i`-th sub-seed from a master seed.
///
/// All structures in the workspace that need several independent hash
/// functions (rows of a CountSketch, levels of a sampler, ...) derive their
/// per-row seeds through this function so that a single `u64` seed pins down
/// the entire experiment.
#[inline]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // The golden-ratio increment guarantees distinct inputs for distinct
    // indices; splitmix64 then decorrelates them.
    splitmix64(master ^ splitmix64(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A [`std::hash::Hasher`] backed by [`fmix64`], for hash maps keyed by
/// integer item identifiers.
///
/// The std `HashMap` default (SipHash 1-3) is keyed and DoS-resistant but
/// costs tens of nanoseconds per `u64`; the sketches in this workspace hash
/// item identifiers millions of times on their insert hot paths and hold no
/// attacker-controlled keys worth protecting, so a strong single-round mixer
/// is the right trade. Construct maps with [`Fmix64Build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Fmix64Hasher {
    state: u64,
}

impl std::hash::Hasher for Fmix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (composite keys): fold 8-byte chunks through fmix64.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = fmix64(self.state ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fmix64(self.state ^ i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`Fmix64Hasher`]; use as the `S` parameter of
/// `HashMap`/`HashSet` (e.g. `HashMap::with_hasher(Fmix64Build)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fmix64Build;

impl std::hash::BuildHasher for Fmix64Build {
    type Hasher = Fmix64Hasher;

    #[inline]
    fn build_hasher(&self) -> Fmix64Hasher {
        Fmix64Hasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_eq!(splitmix64(12345), splitmix64(12345));
    }

    #[test]
    fn splitmix_known_vector() {
        // First output of the reference SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fmix_known_behaviour() {
        // fmix64 is a bijection with fmix64(0) == 0; nearby inputs must
        // diverge completely.
        assert_eq!(fmix64(0), 0);
        assert_ne!(fmix64(1), 1);
        let a = fmix64(1);
        let b = fmix64(2);
        assert!((a ^ b).count_ones() > 16, "poor avalanche: {a:x} vs {b:x}");
    }

    #[test]
    fn derive_seed_produces_distinct_streams() {
        let mut seen = HashSet::new();
        for master in 0..8u64 {
            for i in 0..64u64 {
                seen.insert(derive_seed(master, i));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "derived seeds must not collide");
    }

    #[test]
    fn derive_seed_differs_from_master() {
        for master in [0u64, 1, 42, u64::MAX] {
            assert_ne!(derive_seed(master, 0), master);
        }
    }

    #[test]
    fn fmix_hasher_map_round_trip() {
        use std::collections::HashMap;
        let mut map: HashMap<u64, u64, Fmix64Build> = HashMap::with_hasher(Fmix64Build);
        for k in 0..1_000u64 {
            map.insert(k, k * 3);
        }
        for k in 0..1_000u64 {
            assert_eq!(map.get(&k), Some(&(k * 3)));
        }
        // The generic `write` path folds arbitrary byte strings consistently.
        use std::hash::{BuildHasher, Hasher};
        let mut a = Fmix64Build.build_hasher();
        let mut b = Fmix64Build.build_hasher();
        a.write(b"correlated");
        b.write(b"correlated");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fmix64Build.build_hasher();
        c.write(b"correlatee");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn splitmix_avalanche_single_bit_flip() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let trials = 64;
        for bit in 0..trials {
            let a = splitmix64(0xDEAD_BEEF);
            let b = splitmix64(0xDEAD_BEEF ^ (1u64 << bit));
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / f64::from(trials);
        assert!(
            (20.0..44.0).contains(&avg),
            "expected ~32 flipped bits on average, got {avg}"
        );
    }
}
