//! The mergeable sketch state both node kinds host, as one value.
//!
//! Property V makes same-seeded sketches merge into the sketch of the union
//! stream, so a node's live auxiliary sketches, its since-last-cut
//! replication delta, an aggregator's per-stream state and its union
//! composite are one value at different points of one life:
//! `fresh` → `insert_batch` → (frames → container → `from_sections`) →
//! `merge_from` → `answer`. Two concrete shapes cover every holder:
//! [`AuxSet`] is the `F_0` and rarity sketches a node updates inline beside
//! its sharded ingest, [`SketchSet`] adds the correlated-`F_2` structure —
//! whose buckets also carry the heavy-hitter candidates, so it answers both
//! queries ([`f2_answer`]) — and is what replicates. The windowed pane rings
//! and the per-writer sequence map are deliberately *not* part of either:
//! the aggregator serves whole-stream queries over the union, and
//! idempotency is a per-upstream concern.

use crate::protocol::{Reply, Request, Value};
use crate::server::{config_mismatch, Bundle, ServeConfig, ServeError};
use cora_core::heavy_hitters::F2HeavyAggregate;
use cora_core::snapshot::{seal_delta_into, DeltaHeader};
use cora_core::{CoreError, CorrelatedF0, CorrelatedRarity, CorrelatedSketch};

/// Section tags inside a replication delta container
/// ([`SnapshotKind::Delta`](cora_core::SnapshotKind)), one per replicated
/// structure (tag 4 stays unassigned).
const REPL_SECTION_F2: u8 = 1;
const REPL_SECTION_F0: u8 = 2;
const REPL_SECTION_RARITY: u8 = 3;

/// The `F_0` and rarity snapshot frames of one [`AuxSet`], in that order.
pub(crate) type AuxFrames = [Vec<u8>; 2];

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

/// The families updated synchronously, tuple by tuple, on the ingest path.
pub(crate) struct AuxSet {
    f0: CorrelatedF0,
    rarity: CorrelatedRarity,
}

impl AuxSet {
    /// Empty sketches with this config's parameters.
    pub(crate) fn fresh(config: &ServeConfig) -> Result<Self, CoreError> {
        Ok(Self {
            f0: CorrelatedF0::with_seed(
                config.epsilon,
                config.delta,
                config.x_domain_log2,
                config.y_max,
                config.seed,
            )?,
            rarity: CorrelatedRarity::with_seed(
                config.epsilon,
                config.x_domain_log2,
                config.y_max,
                config.seed,
            )?,
        })
    }

    /// Rebuild both sketches from their snapshot frames. The error names the
    /// family whose frame was refused.
    fn restore(f0: &[u8], rarity: &[u8]) -> Result<Self, (&'static str, CoreError)> {
        Ok(Self {
            f0: CorrelatedF0::restore_from(f0).map_err(|e| ("F0", e))?,
            rarity: CorrelatedRarity::restore_from(rarity).map_err(|e| ("rarity", e))?,
        })
    }

    /// The auxiliary sketches an ingest node's snapshot bundle holds.
    pub(crate) fn from_bundle(bundle: &Bundle) -> Result<Self, CoreError> {
        Self::restore(&bundle.f0, &bundle.rarity).map_err(|(_, e)| e)
    }

    /// Whether every restored sketch is what `config` would build fresh —
    /// including `x_domain_log2`, which sizes the samplers and which the
    /// `F_2` check cannot see.
    pub(crate) fn matches(&self, config: &ServeConfig) -> Result<(), ServeError> {
        let (f0, rarity) = (&self.f0, &self.rarity);
        if f0.epsilon() != config.epsilon
            || f0.delta() != config.delta
            || f0.y_max() != config.y_max
            || f0.seed() != config.seed
            || f0.x_domain_log2() != config.x_domain_log2
        {
            return Err(config_mismatch("F0 parameters"));
        }
        if rarity.epsilon() != config.epsilon
            || rarity.y_max() != config.y_max
            || rarity.seed() != config.seed
            || rarity.x_domain_log2() != config.x_domain_log2
        {
            return Err(config_mismatch("rarity parameters"));
        }
        Ok(())
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

/// Seal one replication container: the `F_2` frame plus the two auxiliary
/// frames under `header`, each in its tagged section.
pub(crate) fn seal_container(header: &DeltaHeader, f2: &[u8], aux: &AuxFrames) -> Vec<u8> {
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

/// Everything that replicates: the correlated-`F_2` structure plus the
/// auxiliary families — an aggregator's per-stream state, its union
/// composite, and what one replication container decodes to.
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

    /// Rebuild the set from its frames; the `F_2` frame's aggregate
    /// fingerprint covers `phi` (the candidate capacity).
    fn restore(
        config: &ServeConfig,
        [f2, f0, rarity]: [&[u8]; 3],
    ) -> Result<Self, (&'static str, CoreError)> {
        Ok(Self {
            f2: CorrelatedSketch::restore_from(config.shard_aggregate(), f2)
                .map_err(|e| ("F2", e))?,
            aux: AuxSet::restore(f0, rarity)?,
        })
    }

    /// Whether every sketch is what `config` would build fresh — the
    /// condition under which [`Self::merge_from`] into such a set cannot be
    /// refused half-way.
    fn matches(&self, config: &ServeConfig) -> Result<(), ServeError> {
        if *self.f2.config() != config.f2_config()? {
            return Err(config_mismatch("F2 accuracy, domain, stream bound, or seed"));
        }
        self.aux.matches(config)
    }

    /// The replicated part of an ingest node's snapshot bundle, refused if
    /// the bundle was taken under different parameters.
    pub(crate) fn from_bundle(config: &ServeConfig, bundle: &Bundle) -> Result<Self, ServeError> {
        let set = Self::restore(config, [&bundle.f2, &bundle.f0, &bundle.rarity])
            .map_err(|(_, e)| e)?;
        set.matches(config)?;
        Ok(set)
    }

    /// Decode an opened container's sections; every section is required
    /// (the producer always ships all three), and nothing is returned unless
    /// all three restore and match `config` — so a container is refused
    /// before any state it would merge into is touched.
    pub(crate) fn from_sections(
        config: &ServeConfig,
        sections: &[(u8, &[u8])],
    ) -> Result<Self, String> {
        let section = |tag: u8, name: &str| -> Result<&[u8], String> {
            sections
                .iter()
                .find(|&&(t, _)| t == tag)
                .map(|&(_, bytes)| bytes)
                .ok_or_else(|| format!("replication container is missing its {name} section"))
        };
        let frames = [
            section(REPL_SECTION_F2, "F2")?,
            section(REPL_SECTION_F0, "F0")?,
            section(REPL_SECTION_RARITY, "rarity")?,
        ];
        let set = Self::restore(config, frames)
            .map_err(|(name, e)| format!("{name} section: {e}"))?;
        set.matches(config).map_err(|e| e.to_string())?;
        Ok(set)
    }

    /// Feed a batch to every family (the aggregator's warm-standby replay).
    pub(crate) fn insert_batch(&mut self, tuples: &[(u64, u64)]) -> Result<(), CoreError> {
        self.f2.update_batch(tuples)?;
        self.aux.insert_batch(tuples)
    }

    /// Family-wise Property-V merge. A failure part-way leaves `self`
    /// half-merged; the caller must discard it.
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
