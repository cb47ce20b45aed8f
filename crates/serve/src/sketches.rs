//! The sketch state both node kinds host, as one value: [`AuxSet`] is the
//! `F_0` and rarity sketches a node updates inline; [`SketchSet`] adds the
//! correlated-`F_2` structure, whose buckets carry the heavy-hitter
//! candidates ([`f2_answer`]), and is an aggregator's per-stream state, its
//! union, and what a full replication container restores to. The delta is
//! *not* a sketch set but the acked tuples ([`seal_batches`]), which the
//! aggregator replays. The pane rings and the sequence map do not replicate.

use crate::protocol::{Reply, Request, Value};
use crate::server::{config_mismatch, ServeConfig, ServeError};
use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::snapshot::{seal_delta_into, DeltaHeader};
use cora_core::{CoreError, CorrelatedF0, CorrelatedRarity, CorrelatedSketch};

/// Section tags inside a replication container
/// ([`SnapshotKind::Delta`](cora_core::SnapshotKind)). A full container
/// (`g_from = 0`) holds one snapshot frame per replicated structure; an
/// incremental one holds only the batches section. Tag 4 stays unassigned.
const REPL_SECTION_F2: u8 = 1;
const REPL_SECTION_F0: u8 = 2;
const REPL_SECTION_RARITY: u8 = 3;
const REPL_SECTION_BATCHES: u8 = 5;

/// The `F_0` and rarity snapshot frames of one [`AuxSet`], in that order.
pub(crate) type AuxFrames = [Vec<u8>; 2];

/// The refusal of a frame that does not restore, naming its structure.
fn in_section(name: &'static str) -> impl Fn(CoreError) -> ServeError {
    move |e| ServeError::Invalid(format!("{name} section: {e}"))
}

/// The reply to a query whose answer is one estimate.
fn value_reply(estimate: Result<f64, CoreError>) -> Reply {
    match estimate {
        Ok(value) => Reply::Ok(vec![("value", Value::F64(value))]),
        Err(e) => Reply::sketch_error(e.to_string()),
    }
}

/// Answer an `f2` or `heavy_hitters` request from a correlated-`F_2`
/// structure: a node's published shard composite or a [`SketchSet`]'s own.
pub(crate) fn f2_answer(f2: &CorrelatedSketch<F2HeavyAggregate>, request: &Request) -> Reply {
    match *request {
        Request::QueryF2 { c } => value_reply(f2.query(c)),
        Request::QueryHeavyHitters { c, phi } => match f2.query_heavy_hitters(c, phi) {
            Ok(hitters) => Reply::Ok(vec![
                ("items", Value::U64Array(hitters.iter().map(|h| h.item).collect())),
                ("frequencies", Value::F64Array(hitters.iter().map(|h| h.frequency).collect())),
                ("shares", Value::F64Array(hitters.iter().map(|h| h.share).collect())),
            ]),
            Err(e) => Reply::sketch_error(e.to_string()),
        },
        _ => Reply::request_error("not an F2 query"),
    }
}

/// Whether `f0` has the parameters `config` gives every `F_0` sampler (the
/// whole-stream one and the windowed ring's template).
pub(crate) fn f0_matches(f0: &CorrelatedF0, config: &ServeConfig) -> bool {
    f0.epsilon() == config.epsilon
        && f0.delta() == config.delta
        && f0.y_max() == config.y_max
        && f0.seed() == config.seed
        && f0.x_domain_log2() == config.x_domain_log2
}

/// The families updated synchronously, tuple by tuple, on the ingest path.
pub(crate) struct AuxSet {
    f0: CorrelatedF0,
    rarity: CorrelatedRarity,
}

impl AuxSet {
    /// Empty sketches with this config's parameters.
    pub(crate) fn fresh(config: &ServeConfig) -> Result<Self, CoreError> {
        let ServeConfig { epsilon, delta, x_domain_log2, y_max, seed, .. } = *config;
        Ok(Self {
            f0: CorrelatedF0::with_seed(epsilon, delta, x_domain_log2, y_max, seed)?,
            rarity: CorrelatedRarity::with_seed(epsilon, x_domain_log2, y_max, seed)?,
        })
    }

    /// Rebuild both sketches from their snapshot frames, refused unless each
    /// is what `config` would build fresh — including `x_domain_log2`, which
    /// sizes the samplers and which the `F_2` check cannot see.
    pub(crate) fn restore(config: &ServeConfig, f0: &[u8], rarity: &[u8]) -> Result<Self, ServeError> {
        let set = Self {
            f0: CorrelatedF0::restore_from(f0).map_err(in_section("F0"))?,
            rarity: CorrelatedRarity::restore_from(rarity).map_err(in_section("rarity"))?,
        };
        if !f0_matches(&set.f0, config) {
            return Err(config_mismatch("F0 parameters"));
        }
        let rarity = &set.rarity;
        if rarity.epsilon() != config.epsilon
            || rarity.y_max() != config.y_max
            || rarity.seed() != config.seed
            || rarity.x_domain_log2() != config.x_domain_log2
        {
            return Err(config_mismatch("rarity parameters"));
        }
        Ok(set)
    }

    /// Feed one validated batch to every family.
    pub(crate) fn insert_batch(&mut self, tuples: &[(u64, u64)]) -> Result<(), CoreError> {
        for &(x, y) in tuples {
            self.f0.insert(x, y)?;
            self.rarity.insert(x, y)?;
        }
        Ok(())
    }

    /// Family-wise Property-V merge.
    pub(crate) fn merge_from(&mut self, other: &Self) -> Result<(), CoreError> {
        self.f0.merge_from(&other.f0)?;
        self.rarity.merge_from(&other.rarity)
    }

    /// One snapshot frame per family.
    pub(crate) fn frames(&self) -> AuxFrames {
        [self.f0.snapshot(), self.rarity.snapshot()]
    }

    /// Answer an `f0` or `rarity` request (thresholds are clamped to
    /// `y_max`, the largest y any sketch has seen).
    pub(crate) fn answer(&self, request: &Request, y_max: u64) -> Reply {
        match *request {
            Request::QueryF0 { c } => value_reply(self.f0.query(c.min(y_max))),
            Request::QueryRarity { c } => value_reply(self.rarity.query(c.min(y_max))),
            _ => Reply::request_error("not a sketch query"),
        }
    }
}

/// Seal a full replication container: the `F_2` frame plus the two
/// auxiliary frames under `header`, each in its tagged section.
pub(crate) fn seal_full(header: &DeltaHeader, f2: &[u8], aux: &AuxFrames) -> Vec<u8> {
    let [f0, rarity] = aux;
    let mut frame = Vec::new();
    seal_delta_into(
        header,
        &[
            (REPL_SECTION_F2, f2),
            (REPL_SECTION_F0, f0),
            (REPL_SECTION_RARITY, rarity),
        ],
        &mut frame,
    );
    frame
}

/// Seal an incremental replication container: one batches section holding
/// `u64 count`, then `count × (u64 x, u64 y)`, little-endian, in ack order.
pub(crate) fn seal_batches(header: &DeltaHeader, tuples: &[(u64, u64)]) -> Vec<u8> {
    let words = tuples.iter().flat_map(|&(x, y)| [x, y]);
    let section: Vec<u8> =
        std::iter::once(tuples.len() as u64).chain(words).flat_map(u64::to_le_bytes).collect();
    let mut frame = Vec::new();
    seal_delta_into(header, &[(REPL_SECTION_BATCHES, &section)], &mut frame);
    frame
}

/// What one opened replication container carries, checked in full against
/// the aggregator's parameters before any stream is touched.
pub(crate) enum Shipped {
    /// A full container: the stream's replacement state.
    Full(Box<SketchSet>),
    /// An incremental container: the tuples to replay, every `y ≤ y_max`.
    Batches(Vec<(u64, u64)>),
}

impl Shipped {
    /// Decode an opened container's sections. A full container needs the
    /// three sketch sections and an incremental one the batches section;
    /// neither may carry the other kind (an incremental container with
    /// sketch sections comes from a peer on the sketch-delta format).
    pub(crate) fn open(
        config: &ServeConfig,
        full: bool,
        sections: &[(u8, &[u8])],
    ) -> Result<Self, String> {
        if sections.iter().any(|&(tag, _)| (tag == REPL_SECTION_BATCHES) == full) {
            return Err("container mixes full and incremental sections (another format?)".into());
        }
        let section = |tag: u8, name: &str| {
            let found = sections.iter().find(|&&(t, _)| t == tag).map(|&(_, bytes)| bytes);
            found.ok_or_else(|| format!("replication container is missing its {name} section"))
        };
        if !full {
            let batches = section(REPL_SECTION_BATCHES, "batches")?;
            return decode_batches(batches, config.y_max).map(Self::Batches);
        }
        let frames = [
            section(REPL_SECTION_F2, "F2")?,
            section(REPL_SECTION_F0, "F0")?,
            section(REPL_SECTION_RARITY, "rarity")?,
        ];
        let set = SketchSet::restore(config, frames).map_err(|e| e.to_string())?;
        Ok(Self::Full(Box::new(set)))
    }
}

/// The tuples of a batches section, refused unless its length is exactly
/// `8 + count × 16` and every `y ≤ y_max`.
fn decode_batches(bytes: &[u8], y_max: u64) -> Result<Vec<(u64, u64)>, String> {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let (count, body) = bytes.split_at(bytes.len().min(8));
    if count.len() < 8 || word(count).checked_mul(16) != Some(body.len() as u64) {
        return Err(format!(
            "batches section of {} bytes does not hold the count × 16 bytes it declares",
            bytes.len()
        ));
    }
    let tuples: Vec<(u64, u64)> =
        body.chunks_exact(16).map(|t| (word(&t[..8]), word(&t[8..]))).collect();
    if let Some(&(_, y)) = tuples.iter().find(|&&(_, y)| y > y_max) {
        return Err(format!("batches section holds y {y} above y_max {y_max}"));
    }
    Ok(tuples)
}

/// The correlated-`F_2` structure plus the auxiliary families — an
/// aggregator's per-stream state, its union composite, and what a full
/// replication container decodes to.
pub(crate) struct SketchSet {
    f2: CorrelatedSketch<F2HeavyAggregate>,
    aux: AuxSet,
}

impl SketchSet {
    /// Empty sketches with this config's parameters.
    pub(crate) fn fresh(config: &ServeConfig) -> Result<Self, CoreError> {
        Ok(Self {
            f2: CorrelatedSketch::new(config.shard_aggregate(), config.f2_config()?)?,
            aux: AuxSet::fresh(config)?,
        })
    }

    /// Rebuild the set from a full container's or a bundle's `F_2`, `F_0`
    /// and rarity frames, refused unless all three restore and are what
    /// `config` would build fresh (the `F_2` frame's aggregate fingerprint
    /// covers `phi`), so nothing a bad set would replace is touched.
    pub(crate) fn restore(
        config: &ServeConfig,
        [f2, f0, rarity]: [&[u8]; 3],
    ) -> Result<Self, ServeError> {
        let f2 = CorrelatedSketch::restore_from(config.shard_aggregate(), f2)
            .map_err(in_section("F2"))?;
        if *f2.config() != config.f2_config()? {
            return Err(config_mismatch("F2 accuracy, domain, stream bound, or seed"));
        }
        Ok(Self { f2, aux: AuxSet::restore(config, f0, rarity)? })
    }

    /// Feed a batch to every family: the aggregator's replay of shipped
    /// batches and of a warm-standby journal.
    pub(crate) fn insert_batch(&mut self, tuples: &[(u64, u64)]) -> Result<(), CoreError> {
        self.f2.update_batch(tuples)?;
        self.aux.insert_batch(tuples)
    }

    /// Family-wise Property-V merge, for the aggregator's cross-stream
    /// union. A failure part-way leaves `self` half-merged; the caller must
    /// discard it.
    pub(crate) fn merge_from(&mut self, other: &Self) -> Result<(), CoreError> {
        self.f2.merge_from(&other.f2)?;
        self.aux.merge_from(&other.aux)
    }

    /// The distinct sampler (`set_f0` combines two streams' samplers).
    pub(crate) fn f0(&self) -> &CorrelatedF0 {
        &self.aux.f0
    }

    /// Answer any of the four whole-stream sketch queries.
    pub(crate) fn answer(&self, request: &Request, y_max: u64) -> Reply {
        match *request {
            Request::QueryF2 { .. } | Request::QueryHeavyHitters { .. } => {
                f2_answer(&self.f2, request)
            }
            _ => self.aux.answer(request, y_max),
        }
    }
}
