//! The point of the paper's general method: one framework, many aggregates.
//!
//! This example runs the *same* stream through the generic correlated sketch
//! instantiated with four different aggregation functions — count, sum, F2 and
//! F3 — plus the heavy-hitters and rarity extensions, and compares every
//! answer against the exact linear-storage baseline.
//!
//! Run with: `cargo run -p cora-examples --release --example generality`

use cora_core::{
    correlated_count, correlated_f2, correlated_fk, correlated_sum, CorrelatedHeavyHitters,
    CorrelatedRarity, ExactCorrelated, DEFAULT_SEED,
};
use cora_stream::{DatasetGenerator, ZipfGenerator};

fn main() {
    let n = 100_000usize;
    let y_max = 1_000_000u64;
    let mut generator = ZipfGenerator::new(1.0, 100_000, y_max, 3);
    let tuples = generator.generate(n);

    let mut count = correlated_count(0.2, 0.05, y_max, n as u64).unwrap();
    let mut sum = correlated_sum(0.2, 0.05, y_max, n as u64).unwrap();
    let mut f2 = correlated_f2(0.2, 0.05, y_max, n as u64).unwrap();
    let mut f3 = correlated_fk(3, 0.25, 0.05, y_max, n as u64).unwrap();
    let mut hh = CorrelatedHeavyHitters::with_seed(0.2, 0.05, 0.05, y_max, n as u64, DEFAULT_SEED).unwrap();
    let mut rarity = CorrelatedRarity::new(0.2, 17, y_max).unwrap();
    let mut exact = ExactCorrelated::new();

    for t in &tuples {
        count.insert(t.x, t.y).unwrap();
        sum.update(t.x, t.y, 3).unwrap(); // weighted sum: every tuple carries weight 3
        f2.insert(t.x, t.y).unwrap();
        f3.insert(t.x, t.y).unwrap();
        hh.insert(t.x, t.y).unwrap();
        rarity.insert(t.x, t.y).unwrap();
        exact.insert(t.x, t.y);
    }

    let c = y_max / 3; // threshold chosen at query time
    println!("Zipf(1.0) stream of {n} tuples; query threshold c = {c}");
    println!();
    println!("aggregate        estimate          exact             rel.err   sketch tuples");

    let rows: Vec<(&str, f64, f64, usize)> = vec![
        (
            "count",
            count.query(c).unwrap(),
            exact.count(c) as f64,
            count.stored_tuples(),
        ),
        (
            "sum (w=3)",
            sum.query(c).unwrap(),
            3.0 * exact.count(c) as f64,
            sum.stored_tuples(),
        ),
        (
            "F2",
            f2.query(c).unwrap(),
            exact.frequency_moment(2, c),
            f2.stored_tuples(),
        ),
        (
            "F3",
            f3.query(c).unwrap(),
            exact.frequency_moment(3, c),
            f3.stored_tuples(),
        ),
        (
            "rarity",
            rarity.query(c).unwrap(),
            exact.rarity(c),
            rarity.stored_tuples(),
        ),
    ];
    for (name, est, truth, tuples_stored) in rows {
        println!(
            "{name:<14} {est:>15.3}  {truth:>15.3}  {:>10.4}  {tuples_stored:>12}",
            (est - truth).abs() / truth.max(1e-9)
        );
    }

    println!();
    println!("correlated F2-heavy hitters at c = {c} (phi = 0.05):");
    let exact_hh = exact.f2_heavy_hitters(c, 0.05);
    let approx_hh = hh.query_heavy_hitters(c, 0.05).unwrap();
    println!("  exact : {:?}", exact_hh.iter().map(|&(x, _)| x).collect::<Vec<_>>());
    println!(
        "  sketch: {:?}",
        approx_hh.iter().map(|h| h.item).collect::<Vec<_>>()
    );
    println!();
    println!("exact baseline stores {} tuples", exact.stored_tuples());
}
