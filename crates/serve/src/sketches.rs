//! The sketch state both node kinds host, as one value, and the one
//! container it travels in. [`AuxSet`] is the `F_0` and rarity sketches a
//! node updates inline; [`SketchSet`] adds the correlated-`F_2` structure,
//! whose buckets carry the heavy-hitter candidates ([`f2_answer`]), and is
//! an aggregator's per-stream state, its union, and what a full replication
//! cut restores to. Everything a node writes or ships is one sealed
//! sections container ([`seal_sections`], read by [`pick_sections`]): a
//! snapshot bundle holds six [`Section`]s, a full cut the first three, an
//! incremental cut the acked tuples as one batch payload of [`crate::wire`].

use crate::protocol::{Reply, Request, Value};
use crate::server::{config_mismatch, ServeConfig, ServeError};
use crate::wire::{decode_ingest_into, encode_ingest_into, IngestMeta};
use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::snapshot::{seal_sections_into, SectionsHeader};
use cora_core::{CoreError, CorrelatedF0, CorrelatedRarity, CorrelatedSketch};

/// The one tag table of every container: the `F_2` structure (heavy-hitter
/// candidates included), `F_0`, rarity, the windowed `F_2` and `F_0` pane
/// rings, the per-writer ingest sequence map, and the tuples acked since
/// the previous replication cut. Tag 4 stays unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Section {
    F2 = 1, F0 = 2, Rarity = 3, WindowF2 = 5, WindowF0 = 6, Seqs = 7, Batches = 8,
}

/// A full replication cut's sections, and a snapshot bundle's first three.
pub(crate) const SKETCH_SECTIONS: [Section; 3] = [Section::F2, Section::F0, Section::Rarity];

/// Seal `frames` under `header` as one container, each in the section its
/// tag in `tags` names.
pub(crate) fn seal_sections<const N: usize>(
    header: &SectionsHeader,
    tags: [Section; N],
    frames: [&[u8]; N],
) -> Vec<u8> {
    let sections: [(u8, &[u8]); N] = std::array::from_fn(|i| (tags[i] as u8, frames[i]));
    let mut container = Vec::new();
    seal_sections_into(header, &sections, &mut container);
    container
}

/// Pick the `wanted` sections of an opened container, in that order,
/// refusing the container if one is missing, repeated or not wanted.
pub(crate) fn pick_sections<'a, const N: usize>(
    sections: &[(u8, &'a [u8])],
    wanted: [Section; N],
) -> Result<[&'a [u8]; N], String> {
    let mut picked = [None; N];
    for &(tag, bytes) in sections {
        let Some(slot) = wanted.iter().position(|&section| section as u8 == tag) else {
            return Err(format!("container holds an unexpected section (tag {tag})"));
        };
        if picked[slot].replace(bytes).is_some() {
            return Err(format!("container holds its {:?} section twice", wanted[slot]));
        }
    }
    if let Some(slot) = picked.iter().position(Option::is_none) {
        return Err(format!("container is missing its {:?} section", wanted[slot]));
    }
    Ok(picked.map(|bytes| bytes.expect("checked above")))
}

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

    /// The `F_0` and rarity snapshot frames, in that order.
    pub(crate) fn frames(&self) -> [Vec<u8>; 2] {
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

/// Seal an incremental replication container: one batches section holding
/// `tuples`, in ack order, as a batch payload without timestamps or pair.
pub(crate) fn seal_batches(header: &SectionsHeader, tuples: &[(u64, u64)]) -> Vec<u8> {
    let mut batch = Vec::new();
    encode_ingest_into(tuples, &[], None, &mut batch);
    seal_sections(header, [Section::Batches], [&batch])
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
    /// Decode an opened container's sections: the three sketch sections of
    /// a full container, or the batches section of an incremental one,
    /// whose batch may carry neither timestamps nor a `(writer, seq)` pair.
    pub(crate) fn open(
        config: &ServeConfig,
        full: bool,
        sections: &[(u8, &[u8])],
    ) -> Result<Self, String> {
        if full {
            let frames = pick_sections(sections, SKETCH_SECTIONS)?;
            let set = SketchSet::restore(config, frames).map_err(|e| e.to_string())?;
            return Ok(Self::Full(Box::new(set)));
        }
        let [batch] = pick_sections(sections, [Section::Batches])?;
        let (mut tuples, mut ts) = (Vec::new(), Vec::new());
        let meta = decode_ingest_into(batch, &mut tuples, &mut ts)?;
        if meta != (IngestMeta { has_ts: false, seq: None }) {
            return Err("batches section carries timestamps or a sequence pair".into());
        }
        if let Some(&(_, y)) = tuples.iter().find(|&&(_, y)| y > config.y_max) {
            return Err(format!("batches section holds y {y} above y_max {}", config.y_max));
        }
        Ok(Self::Batches(tuples))
    }
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

    /// Rebuild the set from the [`SKETCH_SECTIONS`] of a full cut or a
    /// bundle, refused unless all three restore and are what
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
