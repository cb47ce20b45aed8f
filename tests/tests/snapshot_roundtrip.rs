//! Snapshot → restore → query equivalence on the paper's integration
//! streams, for all four aggregates, plus restore → `merge_from`
//! compatibility and rejection of damaged snapshots.
//!
//! "Equivalence" here is **bit identity**: every counter in the snapshot
//! format is an integer (exact stores keep Σf² in `i128`, fast-AMS rows keep
//! Σc² in `i128`, sampler entries are `(u64, u64)` pairs), so a restored
//! structure must reproduce each query's `f64` down to the last bit — not
//! merely within ε.

use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::{
    correlated_f2_seeded, CorrelatedF0, CorrelatedHeavyHitters, CorrelatedRarity,
    CorrelatedSketch, F2Aggregate,
};
use cora_stream::{
    windowed_f0, windowed_f2, DatasetGenerator, PaneConfig, UniformGenerator, WindowedF0,
    WindowedF2, ZipfGenerator,
};
use cora_tests::stream_len;

const Y_MAX: u64 = (1 << 18) - 1;
const SEED: u64 = 17;

/// The integration workloads: uniform and Zipf(1.1), as in the paper's
/// experiments.
fn workloads(n: usize) -> Vec<(&'static str, Vec<(u64, u64)>)> {
    let uniform = UniformGenerator::new(50_000, Y_MAX, SEED)
        .generate(n)
        .into_iter()
        .map(|t| (t.x, t.y))
        .collect();
    let zipf = ZipfGenerator::new(1.1, 50_000, Y_MAX, SEED)
        .generate(n)
        .into_iter()
        .map(|t| (t.x, t.y))
        .collect();
    vec![("uniform", uniform), ("zipf1.1", zipf)]
}

fn thresholds() -> Vec<u64> {
    (0..=16).map(|i| Y_MAX * i / 16).collect()
}

#[test]
fn f2_snapshot_restore_answers_bit_identically_and_merges() {
    for (name, tuples) in workloads(stream_len(30_000)) {
        let mut sketch = correlated_f2_seeded(0.2, 0.1, Y_MAX, 1_000_000, SEED).unwrap();
        for &(x, y) in &tuples {
            sketch.insert(x, y).unwrap();
        }
        let bytes = sketch.snapshot();
        let restored =
            CorrelatedSketch::restore_from(F2Aggregate::new(0.2, 0.1, SEED), &bytes).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                restored.query(c).unwrap(),
                sketch.query(c).unwrap(),
                "{name}: f2 differs at c={c}"
            );
        }
        assert_eq!(restored.stats(), sketch.stats(), "{name}: stats differ");

        // restore → merge_from compatibility: merging a live shard into the
        // restored sketch equals merging it into the original.
        let mut shard = correlated_f2_seeded(0.2, 0.1, Y_MAX, 1_000_000, SEED).unwrap();
        for &(x, y) in tuples.iter().take(tuples.len() / 4) {
            shard.insert(x.wrapping_add(1_000_000), y).unwrap();
        }
        let mut via_original = sketch;
        let mut via_restored = restored;
        via_original.merge_from(&shard).unwrap();
        via_restored.merge_from(&shard).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                via_restored.query(c).unwrap(),
                via_original.query(c).unwrap(),
                "{name}: merged f2 differs at c={c}"
            );
        }
    }
}

#[test]
fn f0_snapshot_restore_answers_bit_identically_and_merges() {
    for (name, tuples) in workloads(stream_len(30_000)) {
        let mut sketch = CorrelatedF0::with_seed(0.2, 0.05, 20, Y_MAX, SEED).unwrap();
        for &(x, y) in &tuples {
            sketch.insert(x, y).unwrap();
        }
        let restored = CorrelatedF0::restore_from(&sketch.snapshot()).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                restored.query(c).unwrap(),
                sketch.query(c).unwrap(),
                "{name}: f0 differs at c={c}"
            );
        }
        let mut shard = CorrelatedF0::with_seed(0.2, 0.05, 20, Y_MAX, SEED).unwrap();
        for &(x, y) in tuples.iter().take(tuples.len() / 4) {
            shard.insert(x.wrapping_add(1_000_000), y).unwrap();
        }
        let mut via_original = sketch;
        let mut via_restored = restored;
        via_original.merge_from(&shard).unwrap();
        via_restored.merge_from(&shard).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                via_restored.query(c).unwrap(),
                via_original.query(c).unwrap(),
                "{name}: merged f0 differs at c={c}"
            );
        }
    }
}

#[test]
fn rarity_snapshot_restore_answers_bit_identically_and_merges() {
    for (name, tuples) in workloads(stream_len(30_000)) {
        let mut sketch = CorrelatedRarity::with_seed(0.2, 20, Y_MAX, SEED).unwrap();
        for &(x, y) in &tuples {
            sketch.insert(x, y).unwrap();
        }
        let restored = CorrelatedRarity::restore_from(&sketch.snapshot()).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                restored.query(c).unwrap(),
                sketch.query(c).unwrap(),
                "{name}: rarity differs at c={c}"
            );
        }
        let mut shard = CorrelatedRarity::with_seed(0.2, 20, Y_MAX, SEED).unwrap();
        for &(x, y) in tuples.iter().take(tuples.len() / 4) {
            shard.insert(x.wrapping_add(1_000_000), y).unwrap();
        }
        let mut via_original = sketch;
        let mut via_restored = restored;
        via_original.merge_from(&shard).unwrap();
        via_restored.merge_from(&shard).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                via_restored.query(c).unwrap(),
                via_original.query(c).unwrap(),
                "{name}: merged rarity differs at c={c}"
            );
        }
    }
}

#[test]
fn heavy_hitters_snapshot_restore_answers_bit_identically_and_merges() {
    for (name, tuples) in workloads(stream_len(20_000)) {
        let mut sketch =
            CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.05, Y_MAX, 1_000_000, SEED).unwrap();
        for &(x, y) in &tuples {
            sketch.insert(x, y).unwrap();
        }
        // Plant an unambiguous heavy hitter.
        for i in 0..(tuples.len() as u64) {
            sketch.insert(99, i % 1_000).unwrap();
        }
        let restored =
            CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.2, 0.05, SEED), &sketch.snapshot())
                .unwrap();
        for &c in &thresholds() {
            assert_eq!(
                restored.query(c).unwrap(),
                sketch.query(c).unwrap(),
                "{name}: hh f2 differs at c={c}"
            );
            assert_eq!(
                restored.query_heavy_hitters(c, 0.05).unwrap(),
                sketch.query_heavy_hitters(c, 0.05).unwrap(),
                "{name}: hh candidates differ at c={c}"
            );
        }
        let mut shard =
            CorrelatedHeavyHitters::with_seed(0.2, 0.1, 0.05, Y_MAX, 1_000_000, SEED).unwrap();
        for i in 0..2_000u64 {
            shard.insert(77, i % 4_096).unwrap();
        }
        let mut via_original = sketch;
        let mut via_restored = restored;
        via_original.merge_from(&shard).unwrap();
        via_restored.merge_from(&shard).unwrap();
        for &c in &thresholds() {
            assert_eq!(
                via_restored.query_heavy_hitters(c, 0.05).unwrap(),
                via_original.query_heavy_hitters(c, 0.05).unwrap(),
                "{name}: merged hh differ at c={c}"
            );
        }
    }
}

/// A windowed ring pair (F2 + F0) fed the same timestamped workload, for the
/// windowed roundtrip tests. Timestamps stride so panes of several classes
/// exist and rebalancing has happened.
fn windowed_pair(n: usize) -> (WindowedF2, WindowedF0) {
    let panes = PaneConfig::new(512);
    let mut wf2 = windowed_f2(0.25, 0.1, Y_MAX, 1_000_000, SEED, panes.clone()).unwrap();
    let mut wf0 = windowed_f0(0.25, 0.1, 20, Y_MAX, SEED, panes).unwrap();
    for t in UniformGenerator::new(50_000, Y_MAX, SEED)
        .generate(n)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t.x, t.y, (i as u64) * 3))
    {
        wf2.observe(t.0, t.1, t.2).unwrap();
        wf0.observe(t.0, t.1, t.2).unwrap();
    }
    (wf2, wf0)
}

#[test]
fn windowed_snapshot_restore_answers_bit_identically() {
    let (wf2, wf0) = windowed_pair(stream_len(20_000));
    let rf2 = WindowedF2::restore_from(F2Aggregate::new(0.25, 0.1, SEED), &wf2.snapshot()).unwrap();
    let rf0 = WindowedF0::restore_from(&wf0.snapshot()).unwrap();

    // Ring geometry and clocks restore exactly.
    assert_eq!(rf2.pane_spans(), wf2.pane_spans());
    assert_eq!(rf0.pane_spans(), wf0.pane_spans());
    assert_eq!(rf2.t_latest(), wf2.t_latest());
    assert_eq!(rf2.stored_tuples(), wf2.stored_tuples());

    // Sliding answers are bit-identical, window by window and threshold by
    // threshold.
    let span = wf2.coverage().unwrap().1;
    for &window in &[span / 8, span / 3, span] {
        for &c in &thresholds() {
            assert_eq!(
                rf2.query_sliding(window, c).unwrap(),
                wf2.query_sliding(window, c).unwrap(),
                "windowed f2 differs at window={window} c={c}"
            );
            assert_eq!(
                rf0.query_sliding(window, c).unwrap(),
                wf0.query_sliding(window, c).unwrap(),
                "windowed f0 differs at window={window} c={c}"
            );
        }
    }
    // The restored ring keeps ingesting: both sides observe one more pane's
    // worth of tuples and still agree.
    let (mut live, mut back) = (wf2, rf2);
    let t_next = live.t_latest().unwrap() + 1;
    for i in 0..600u64 {
        live.observe(i % 40, i % Y_MAX, t_next + i).unwrap();
        back.observe(i % 40, i % Y_MAX, t_next + i).unwrap();
    }
    assert_eq!(
        back.query_sliding(span, Y_MAX).unwrap(),
        live.query_sliding(span, Y_MAX).unwrap(),
        "windowed f2 diverges after post-restore ingest"
    );
}

#[test]
fn damaged_windowed_snapshots_are_rejected_before_decode() {
    let (wf2, wf0) = windowed_pair(stream_len(6_000));
    let restore_f2 = |bytes: &[u8]| -> bool {
        WindowedF2::restore_from(F2Aggregate::new(0.25, 0.1, SEED), bytes).is_ok()
    };
    let restore_f0 = |bytes: &[u8]| -> bool { WindowedF0::restore_from(bytes).is_ok() };
    type Case<'a> = (&'a str, Vec<u8>, &'a dyn Fn(&[u8]) -> bool);
    let cases: Vec<Case> = vec![
        ("windowed-f2", wf2.snapshot(), &restore_f2),
        ("windowed-f0", wf0.snapshot(), &restore_f0),
    ];
    for (name, bytes, restore) in &cases {
        assert!(restore(bytes), "{name}: pristine snapshot must restore");
        for cut in [1, 10, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(!restore(&bytes[..cut]), "{name}: truncation at {cut} accepted");
        }
        // A flipped byte anywhere — outer frame header, ring geometry, or
        // deep inside a nested pane frame — trips a checksum before any pane
        // is decoded into a live structure.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        assert!(!restore(&corrupt), "{name}: mid-payload corruption accepted");
        let mut tail = bytes.clone();
        let last = tail.len() - 9;
        tail[last] ^= 0x01;
        assert!(!restore(&tail), "{name}: tail corruption accepted");
        let mut future = bytes.clone();
        future[4] = 0xEE;
        assert!(!restore(&future), "{name}: future version accepted");
        // Cross-kind confusion: the other windowed snapshot and a plain
        // (un-windowed) snapshot are both refused by kind.
        for (other, other_bytes, _) in &cases {
            if other != name {
                assert!(!restore(other_bytes), "{name}: accepted a {other} snapshot");
            }
        }
    }
    let mut plain = correlated_f2_seeded(0.25, 0.1, Y_MAX, 1_000_000, SEED).unwrap();
    plain.insert(1, 1).unwrap();
    assert!(
        !restore_f2(&plain.snapshot()),
        "windowed-f2 accepted a plain f2 snapshot"
    );
}

#[test]
fn damaged_snapshots_are_rejected_for_every_aggregate() {
    let tuples: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 100, (i * 37) % Y_MAX)).collect();

    let mut f2 = correlated_f2_seeded(0.3, 0.1, Y_MAX, 100_000, SEED).unwrap();
    let mut f0 = CorrelatedF0::with_seed(0.3, 0.1, 16, Y_MAX, SEED).unwrap();
    let mut rarity = CorrelatedRarity::with_seed(0.3, 16, Y_MAX, SEED).unwrap();
    let mut hh = CorrelatedHeavyHitters::with_seed(0.3, 0.1, 0.1, Y_MAX, 100_000, SEED).unwrap();
    for &(x, y) in &tuples {
        f2.insert(x, y).unwrap();
        f0.insert(x, y).unwrap();
        rarity.insert(x, y).unwrap();
        hh.insert(x, y).unwrap();
    }

    let snapshots: Vec<(&str, Vec<u8>)> = vec![
        ("f2", f2.snapshot()),
        ("f0", f0.snapshot()),
        ("rarity", rarity.snapshot()),
        ("hh", hh.snapshot()),
    ];
    let restore = |name: &str, bytes: &[u8]| -> bool {
        match name {
            "f2" => CorrelatedSketch::restore_from(F2Aggregate::new(0.3, 0.1, SEED), bytes).is_ok(),
            "f0" => CorrelatedF0::restore_from(bytes).is_ok(),
            "rarity" => CorrelatedRarity::restore_from(bytes).is_ok(),
            "hh" => {
                CorrelatedSketch::restore_from(F2HeavyAggregate::new(0.3, 0.1, SEED), bytes).is_ok()
            }
            _ => unreachable!(),
        }
    };
    for (name, bytes) in &snapshots {
        assert!(restore(name, bytes), "{name}: pristine snapshot must restore");
        // Truncated at several points.
        for cut in [1, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(!restore(name, &bytes[..cut]), "{name}: truncation at {cut} accepted");
        }
        // A flipped payload byte (checksum catches it).
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        assert!(!restore(name, &corrupt), "{name}: corruption accepted");
        // Wrong format version.
        let mut future = bytes.clone();
        future[4] = 0xEE;
        assert!(!restore(name, &future), "{name}: future version accepted");
        // Wrong kind: every snapshot must reject every other aggregate's.
        for (other, other_bytes) in &snapshots {
            if other != name {
                assert!(
                    !restore(name, other_bytes),
                    "{name}: accepted a {other} snapshot"
                );
            }
        }
    }
}
