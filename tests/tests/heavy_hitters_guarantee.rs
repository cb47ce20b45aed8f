//! The §3.3 correlated `F_2`-heavy-hitters guarantee, seed-swept, on
//! sketched buckets.
//!
//! "Return all `x` with `f_x(c)² ≥ φ·F2(c)` and no `x` with
//! `f_x(c)² ≤ (φ − ε)·F2(c)`", with probability `1 − δ`. Every `(seed, c, φ)`
//! cell is checked against [`ExactCorrelated`]; a construction path passes
//! when at most a `δ` share of its cells miss a mandatory item or report a
//! forbidden one. Per seed, one shard is built by `insert`, a second by
//! `update_batch`, and the two are `merge_from`d — so the direct, batch, and
//! shard-merged paths are each judged against the exact answer for exactly
//! the tuples they summarise.
//!
//! Each bucket answers its `F_2` estimate and its per-item point estimates
//! from one counter array, so this sweep is also the evidence that sharing
//! the counters costs no accuracy.

use cora_core::{CorrelatedHeavyHitters, ExactCorrelated};
use cora_stream::{DatasetGenerator, ZipfGenerator};

const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.1;
const SEEDS: u64 = 20;
/// Two y values: each shard's singleton buckets receive ~10k Zipf(1) draws
/// over a million ids — past the 2 400 distinct items at which an ε = 0.1
/// bucket spills from its exact store to its sketch.
const Y_MAX: u64 = 1;
const SHARD_TUPLES: usize = 20_000;
const PHIS: [f64; 4] = [0.05, 0.12, 0.3, 0.5];

fn fresh(seed: u64) -> CorrelatedHeavyHitters {
    CorrelatedHeavyHitters::with_seed(EPSILON, DELTA, 0.05, Y_MAX, 1_000_000, seed).unwrap()
}

/// Number of `(c, φ)` cells on which `sketch` breaks the guarantee.
fn failed_cells(label: &str, sketch: &CorrelatedHeavyHitters, exact: &ExactCorrelated) -> usize {
    let mut failed = 0;
    for c in 0..=Y_MAX {
        let sketched = sketch.with_composed(c, |store| !store.is_exact()).unwrap();
        assert!(sketched, "[{label}] c={c} must be answered from sketched buckets");
        let freqs = exact.frequencies_upto(c);
        let f2 = freqs.frequency_moment(2);
        for phi in PHIS {
            let reported: Vec<u64> = sketch
                .query_heavy_hitters(c, phi)
                .unwrap()
                .iter()
                .map(|h| h.item)
                .collect();
            let kept = freqs.iter().all(|(item, f)| {
                let square = (f as f64) * (f as f64);
                if square >= phi * f2 {
                    reported.contains(&item)
                } else {
                    square > (phi - EPSILON) * f2 || !reported.contains(&item)
                }
            });
            failed += usize::from(!kept);
        }
    }
    failed
}

#[test]
fn heavy_hitter_guarantee_holds_on_every_construction_path() {
    // One generator (its million-entry CDF is built once); every seed takes
    // the next stretch of its stream and re-seeds the sketches' hashes.
    let mut generator = ZipfGenerator::new(1.0, 1_000_000, Y_MAX, 1_000);
    let labels = ["direct", "batch", "merged"];
    let mut failed = [0usize; 3];
    for seed in 0..SEEDS {
        let mut shard = || -> Vec<(u64, u64)> {
            generator
                .generate(SHARD_TUPLES)
                .iter()
                .map(|t| (t.x, t.y))
                .collect()
        };
        let (first, second) = (shard(), shard());
        let mut exact = [ExactCorrelated::new(), ExactCorrelated::new(), ExactCorrelated::new()];
        let (mut direct, mut batch) = (fresh(seed), fresh(seed));
        for &(x, y) in &first {
            direct.insert(x, y).unwrap();
            exact[0].insert(x, y);
            exact[2].insert(x, y);
        }
        for chunk in second.chunks(1_000) {
            batch.update_batch(chunk).unwrap();
        }
        for &(x, y) in &second {
            exact[1].insert(x, y);
            exact[2].insert(x, y);
        }
        let mut merged = direct.clone();
        merged.merge_from(&batch).unwrap();
        for (slot, sketch) in [&direct, &batch, &merged].into_iter().enumerate() {
            let label = format!("{} seed {seed}", labels[slot]);
            failed[slot] += failed_cells(&label, sketch, &exact[slot]);
        }
    }
    let cells = SEEDS as usize * (Y_MAX as usize + 1) * PHIS.len();
    let allowed = (DELTA * cells as f64) as usize;
    println!("failed cells {failed:?} for {labels:?}, of {cells} each; {allowed} allowed");
    for (label, n) in labels.iter().zip(failed) {
        assert!(n <= allowed, "[{label}] {n} of {cells} cells break the guarantee, {allowed} allowed");
    }
}
