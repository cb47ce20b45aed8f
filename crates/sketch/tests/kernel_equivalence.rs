//! Bit-identity pins for the fast-AMS kernel paths.
//!
//! The flat-lane sketch ([`FastAmsSketch`]) has several routes to the same
//! counters: per-tuple [`StreamSketch::update`] calls (bulk loads and
//! exact→sketched conversion), prepared batches of one (a single framework
//! insert), the unrolled prepared-batch kernel (whole batches and arbitrary
//! sub-ranges), merges, and snapshot round trips. Every route must produce
//! **bit-identical** state — not approximately equal estimates — because the
//! correlated framework mixes the routes freely (inserts, batches,
//! query-time merges, crash recovery) and any divergence would make the
//! structure depend on which code path happened to run.
//!
//! The reference model is built directly on [`PolynomialHash`] — the
//! mathematical definition of the estimator — so these tests also pin the
//! inline fixed-arity hash evaluators against the hash functions they were
//! copied from. State is compared through the snapshot codec's byte
//! encoding, which captures every counter exactly.

use cora_sketch::{
    ByteReader, ByteWriter, Estimate, FastAmsBatch, FastAmsSketch, MergeableSketch, SharedUpdate,
    StateCodec, StreamSketch,
};

use cora_hash::mix::derive_seed;
use cora_hash::polynomial::PolynomialHash;
use cora_hash::traits::HashFunction64;

use proptest::prelude::*;

/// Independent scalar reference: rows of plain `Vec<i64>` counters driven by
/// [`PolynomialHash`] lookups per update — no flat lane, no sideband, no
/// prepared coordinates, no unrolling.
struct ReferenceModel {
    rows: Vec<Vec<i64>>,
    bucket_hashes: Vec<PolynomialHash>,
    sign_hashes: Vec<PolynomialHash>,
}

impl ReferenceModel {
    fn new(width: usize, depth: usize, seed: u64) -> Self {
        let row_seed = |r: u64| derive_seed(seed, r);
        Self {
            rows: vec![vec![0i64; width]; depth],
            bucket_hashes: (0..depth as u64)
                .map(|r| PolynomialHash::new(2, derive_seed(row_seed(r), 0xB)))
                .collect(),
            sign_hashes: (0..depth as u64)
                .map(|r| PolynomialHash::new(4, derive_seed(row_seed(r), 0x5)))
                .collect(),
        }
    }

    fn update(&mut self, item: u64, weight: i64) {
        let width = self.rows[0].len() as u64;
        for (row, (bh, sh)) in self
            .rows
            .iter_mut()
            .zip(self.bucket_hashes.iter().zip(&self.sign_hashes))
        {
            let b = bh.hash_range(item, width) as usize;
            let sign = if (sh.hash64(item) >> 62) & 1 == 1 { 1 } else { -1 };
            row[b] += sign * weight;
        }
    }

    fn estimate(&self) -> f64 {
        median(
            self.rows
                .iter()
                .map(|row| row.iter().map(|&c| (c as i128) * (c as i128)).sum::<i128>() as f64)
                .collect(),
        )
    }

    fn frequency_estimate(&self, item: u64) -> f64 {
        let width = self.rows[0].len() as u64;
        median(
            self.rows
                .iter()
                .zip(self.bucket_hashes.iter().zip(&self.sign_hashes))
                .map(|(row, (bh, sh))| {
                    let b = bh.hash_range(item, width) as usize;
                    let sign = if (sh.hash64(item) >> 62) & 1 == 1 { 1 } else { -1 };
                    (sign * row[b]) as f64
                })
                .collect(),
        )
    }
}

/// Median with the estimator's convention: mean of the two middle samples
/// for an even row count.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// The sketch's exact counter state as snapshot bytes (width, depth, seed,
/// and every counter) — byte equality here is bit equality of the lanes.
fn state_bytes(s: &FastAmsSketch) -> Vec<u8> {
    let mut w = ByteWriter::new();
    s.encode_state(&mut w);
    w.into_bytes()
}

/// Drive `items` through every update route and assert all routes land on
/// identical bytes; returns the scalar-path sketch for further checks.
fn assert_routes_identical(width: usize, depth: usize, seed: u64, items: &[(u64, i64)]) -> FastAmsSketch {
    // Route 1: per-tuple scalar updates.
    let mut scalar = FastAmsSketch::with_dimensions(width, depth, seed);
    for &(x, w) in items {
        scalar.update(x, w);
    }

    // Route 2: prepared batches of one (a single framework insert).
    let mut prepared_path = FastAmsSketch::with_dimensions(width, depth, seed);
    let mut single = FastAmsBatch::default();
    for item in items {
        prepared_path.prepare_batch_into(std::slice::from_ref(item), &mut single);
        prepared_path.apply_prepared_range(&single, 0..1);
    }

    // Route 3: one prepared batch applied whole through the unrolled kernel.
    let mut batch = FastAmsBatch::default();
    scalar.prepare_batch_into(items, &mut batch);
    let mut batched = FastAmsSketch::with_dimensions(width, depth, seed);
    batched.apply_prepared_range(&batch, 0..items.len());

    // Route 4: the same batch applied in uneven sub-ranges (exercises the
    // kernel's unrolled quads *and* its scalar remainder at every cut).
    let mut ranged = FastAmsSketch::with_dimensions(width, depth, seed);
    let n = items.len();
    let cuts = [0, n / 7, n / 3, n / 3 + 1, (2 * n) / 3, n];
    let mut sorted_cuts: Vec<usize> = cuts.to_vec();
    sorted_cuts.sort_unstable();
    for pair in sorted_cuts.windows(2) {
        ranged.apply_prepared_range(&batch, pair[0]..pair[1]);
    }

    // Route 5: split the stream in two, sketch the halves, merge.
    let mut left = FastAmsSketch::with_dimensions(width, depth, seed);
    let mut right = FastAmsSketch::with_dimensions(width, depth, seed);
    for (i, &(x, w)) in items.iter().enumerate() {
        if i % 2 == 0 {
            left.update(x, w);
        } else {
            right.update(x, w);
        }
    }
    left.merge_from(&right).expect("same-shape merge");

    // Route 6: snapshot round trip of the scalar sketch.
    let bytes = state_bytes(&scalar);
    let mut restored = FastAmsSketch::with_dimensions(width, depth, seed);
    let mut reader = ByteReader::new(&bytes);
    restored.decode_state(&mut reader).expect("decode own snapshot");

    let expected = state_bytes(&scalar);
    assert_eq!(state_bytes(&prepared_path), expected, "prepared batches of one diverged");
    assert_eq!(state_bytes(&batched), expected, "batch kernel diverged");
    assert_eq!(state_bytes(&ranged), expected, "ranged batch kernel diverged");
    assert_eq!(state_bytes(&left), expected, "merge path diverged");
    assert_eq!(state_bytes(&restored), expected, "snapshot round trip diverged");

    // And all of it must equal the PolynomialHash-driven reference model —
    // compared through both estimators (for depth 1 the frequency estimate
    // *is* the raw signed counter, so this pins individual counters too).
    let mut reference = ReferenceModel::new(width, depth, seed);
    for &(x, w) in items {
        reference.update(x, w);
    }
    assert_eq!(
        scalar.estimate(),
        reference.estimate(),
        "estimate diverges from the reference model"
    );
    let mut probes: Vec<u64> = items.iter().map(|&(x, _)| x).collect();
    probes.sort_unstable();
    probes.dedup();
    probes.truncate(64);
    probes.extend([0, 1, u64::MAX, 0xDEAD_BEEF]); // absent keys probe zero counters
    for item in probes {
        assert_eq!(
            scalar.frequency_estimate(item),
            reference.frequency_estimate(item),
            "frequency estimate for {item} diverges from the reference model"
        );
    }
    scalar
}

/// Deterministic xorshift so the named stream shapes are reproducible.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn uniform_stream(n: usize, seed: u64) -> Vec<(u64, i64)> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let x = xorshift(&mut s);
            (x % 1_000_000, ((x >> 32) % 9) as i64 - 4)
        })
        .map(|(x, w)| (x, if w == 0 { 1 } else { w }))
        .collect()
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, i64)> {
    // Approximate zipf(1.0) over 10k items via inverse-rank sampling.
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let u = (xorshift(&mut s) % 10_000) + 1;
            let rank = 10_000 / u; // heavy head, long tail
            (rank, ((u % 7) as i64) - 3)
        })
        .map(|(x, w)| (x, if w == 0 { 2 } else { w }))
        .collect()
}

fn low_entropy_stream(n: usize) -> Vec<(u64, i64)> {
    // Three distinct keys, long same-key runs: duplicate buckets inside the
    // kernel's unrolled quads on every row.
    (0..n).map(|i| ((i / 64 % 3) as u64, 1)).collect()
}

#[test]
fn named_stream_shapes_are_bit_identical_across_routes() {
    for (name, items) in [
        ("uniform", uniform_stream(3_000, 0xA11CE)),
        ("zipf", zipf_stream(3_000, 0xB0B)),
        ("low_entropy", low_entropy_stream(3_000)),
    ] {
        let sketch = assert_routes_identical(200, 3, 7, &items);
        assert!(sketch.estimate() > 0.0, "{name}: estimate collapsed to zero");
    }
}

#[test]
fn trimmed_routes_match_native_shallow_sketch() {
    // A trimmed sketch must behave exactly like a natively-shallow sketch on
    // every route (rows derive per-row seeds, so prefixes agree).
    let items = uniform_stream(2_000, 0x7E57);
    let mut deep = FastAmsSketch::with_dimensions(128, 9, 11);
    let active = deep.trim_to_delta(0.3).expect("trim empty sketch");
    assert!(active < 9);
    let mut batch = FastAmsBatch::default();
    deep.prepare_batch_into(&items, &mut batch);
    deep.apply_prepared_range(&batch, 0..items.len());

    let mut shallow = FastAmsSketch::with_dimensions(128, active, 11);
    for &(x, w) in &items {
        shallow.update(x, w);
    }
    assert_eq!(deep.estimate(), shallow.estimate());
    assert_eq!(deep.frequency_estimate(42), shallow.frequency_estimate(42));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary turnstile streams over arbitrary (small) geometries: all
    /// update routes land on identical bytes and match the reference model.
    #[test]
    fn arbitrary_streams_are_bit_identical_across_routes(
        width in 2usize..64,
        depth in 1usize..6,
        seed in 0u64..1024,
        items in proptest::collection::vec((0u64..100_000, -50i64..50), 1..400),
    ) {
        let items: Vec<(u64, i64)> = items
            .into_iter()
            .map(|(x, w)| (x, if w == 0 { 1 } else { w }))
            .collect();
        assert_routes_identical(width, depth, seed, &items);
    }
}
