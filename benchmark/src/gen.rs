//! Input generation: every tuple a run sends is drawn up front from
//! `cora_stream::generators`, seeded by `--seed`, inside the node's fixed
//! domains. The server only ever sees the generated tuples, never the seed.

use cora_stream::generators::{DatasetGenerator, UniformGenerator, ZipfGenerator};

/// Largest item identifier (`x_domain_log2 = 16` in the node's fixed config).
pub const X_MAX: u64 = 65_535;
/// Largest y value (`y_max` in the node's fixed config).
pub const Y_MAX: u64 = 4_095;
/// Zipf exponent of the skewed workloads.
pub const ZIPF_ALPHA: f64 = 1.1;

/// Key distribution of a workload's x values; y is always uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    Uniform,
    Zipf,
}

/// `n` tuples for `seed`: the same `(keys, n, seed)` gives the same bytes.
pub fn tuples(keys: Keys, n: usize, seed: u64) -> Vec<(u64, u64)> {
    let stream = match keys {
        Keys::Uniform => UniformGenerator::new(X_MAX, Y_MAX, seed).generate(n),
        Keys::Zipf => ZipfGenerator::new(ZIPF_ALPHA, X_MAX, Y_MAX, seed).generate(n),
    };
    stream.iter().map(|t| (t.x, t.y)).collect()
}

/// FNV-1a over the little-endian bytes of every tuple — printed per run and
/// pinned by the unit tests, so a generator change cannot pass unnoticed.
pub fn fingerprint(tuples: &[(u64, u64)]) -> u64 {
    let mut bytes = Vec::with_capacity(tuples.len() * 16);
    for &(x, y) in tuples {
        bytes.extend_from_slice(&x.to_le_bytes());
        bytes.extend_from_slice(&y.to_le_bytes());
    }
    cora_sketch::codec::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for keys in [Keys::Uniform, Keys::Zipf] {
            let a = tuples(keys, 5_000, 42);
            assert_eq!(a, tuples(keys, 5_000, 42));
            assert_ne!(a, tuples(keys, 5_000, 43));
            assert!(a.iter().all(|&(x, y)| x <= X_MAX && y <= Y_MAX));
        }
    }

    #[test]
    fn generated_bytes_are_pinned() {
        assert_eq!(fingerprint(&tuples(Keys::Uniform, 10_000, 1)), PIN_UNIFORM);
        assert_eq!(fingerprint(&tuples(Keys::Zipf, 10_000, 1)), PIN_ZIPF);
    }

    const PIN_UNIFORM: u64 = 8_148_210_571_728_588_692;
    const PIN_ZIPF: u64 = 10_106_460_073_176_973_188;
}
