//! # cora-hash
//!
//! Hash families with provable independence guarantees, used as the randomness
//! substrate for every sketch in the `cora` workspace.
//!
//! The correlated-aggregation paper (Tirthapura & Woodruff, ICDE 2012) relies on
//! whole-stream sketches whose guarantees in turn rest on limited-independence
//! hashing:
//!
//! * the AMS `F_2` estimator needs **4-wise independent** sign hashes (the fast
//!   variant of Thorup–Zhang, SODA 2004, adds a pairwise bucket hash per row),
//! * distinct sampling (`F_0`) needs **pairwise independent** bucket hashes.
//!
//! This crate provides:
//!
//! * [`polynomial::PolynomialHash`] — degree-(k−1) polynomial hashing over the
//!   Mersenne prime `2^61 − 1`, giving exact k-wise independence,
//! * [`traits`] — the [`traits::HashFunction64`] trait that sketches program
//!   against, so hash families can be swapped in benchmarks.
//!
//! All families are constructed from a seed (`u64`) through [`rand`]'s
//! `StdRng`, so every sketch in the workspace is fully deterministic given its
//! seed — a requirement for reproducible experiments and for merging sketches
//! built on different nodes (merge requires identical hash functions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod mix;
pub mod polynomial;
pub mod traits;

pub use polynomial::PolynomialHash;
pub use traits::HashFunction64;

/// The Mersenne prime `2^61 - 1`, the modulus used by [`polynomial::PolynomialHash`].
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

#[cfg(test)]
mod lib_tests {
    use super::*;
    use crate::traits::HashFunction64;

    #[test]
    fn mersenne_constant_is_prime_sized() {
        assert_eq!(MERSENNE_61, 2_305_843_009_213_693_951);
    }

    #[test]
    fn exported_types_are_constructible() {
        let p = PolynomialHash::new(4, 7);
        // Smoke: produces values without panicking.
        let _ = p.hash64(42);
    }
}
