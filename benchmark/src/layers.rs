//! The in-process layer pass of the traced run: the same generated batches
//! the server received are pushed through each layer's **public** API, with
//! every structure built from the values the node's `config` op returned.
//! Nothing inside the server is instrumented; this is the outside-in ledger
//! of what one batch costs in each layer.
//!
//! Costs that grow with the stream (level walks, window panes) are taken at
//! the state the server held around its median batch: the pass feeds the
//! stream up to the middle of the measured phase and reports the median of
//! the last fifth of its batches.

use crate::spec::{HH_PHI, WINDOW_TICKS};
use crate::stats::median;
use cora_core::{
    CorrelatedAggregate, CorrelatedConfig, CorrelatedF0, CorrelatedHeavyHitters, CorrelatedRarity,
    CorrelatedSketch, F2Aggregate,
};
use cora_serve::journal::{DiskStorage, JournalWriter, JOURNAL_HEADER_BYTES};
use cora_serve::protocol::Response;
use cora_serve::wire;
use cora_stream::windowed::{windowed_f0, windowed_f2, PaneConfig};
use cora_stream::ShardedIngest;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches the stateless layers (wire, journal) are timed over.
const STATELESS_BATCHES: usize = 200;

/// The node's construction parameters as its `config` op reports them.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub epsilon: f64,
    pub delta: f64,
    pub y_max: u64,
    pub max_stream_len: u64,
    pub seed: u64,
    pub shards: usize,
    pub phi: f64,
    pub x_domain_log2: u32,
    pub panes: PaneConfig,
}

impl NodeConfig {
    pub fn from_response(r: &Response) -> Result<Self, String> {
        Ok(Self {
            epsilon: r.f64_field("epsilon")?,
            delta: r.f64_field("delta")?,
            y_max: r.u64_field("y_max")?,
            max_stream_len: r.u64_field("max_stream_len")?,
            seed: r.u64_field("seed")?,
            shards: r.u64_field("shards")? as usize,
            phi: r.f64_field("phi")?,
            x_domain_log2: r.u64_field("x_domain_log2")? as u32,
            panes: PaneConfig {
                pane_ticks: r.u64_field("pane_ticks")?,
                k: r.u64_field("pane_k")? as usize,
                retention: r.u64_field("pane_retention").ok(),
            },
        })
    }

    fn f2(&self) -> Result<(F2Aggregate, CorrelatedConfig), String> {
        let agg = F2Aggregate::new(self.epsilon, self.delta, self.seed);
        let config = CorrelatedConfig::new(
            self.epsilon,
            self.delta,
            self.y_max,
            agg.f_max_log2(self.max_stream_len),
        )
        .map_err(|e| e.to_string())?
        .with_seed(self.seed);
        Ok((agg, config))
    }
}

/// What the pass measured. Times per batch are microseconds for one batch
/// of the workload's batch size.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    pub batch: usize,
    pub tuples_fed: usize,
    pub encode_us: f64,
    pub decode_us: f64,
    pub wire_bytes_per_tuple: f64,
    pub journal_append_us: f64,
    pub journal_fsync_us: f64,
    pub journal_bytes_per_tuple: f64,
    pub sharded_us: f64,
    pub sharded_dispatch_us: f64,
    pub build_composite_100k_us: f64,
    pub build_composite_us: f64,
    pub take_delta_us: f64,
    pub f0_us: f64,
    pub rarity_us: f64,
    pub hh_us: f64,
    pub framework_us: f64,
    pub windows_us: f64,
    pub window_query_us: f64,
    pub window_panes: f64,
    pub f2_query_cold_us: f64,
    pub f2_query_cached_ns: f64,
    pub f0_query_us: f64,
    pub hh_query_us: f64,
    pub rarity_query_us: f64,
}

impl LayerCosts {
    /// The ledger's layer sum for one batch: decode, journal append and
    /// fsync, sharded ingest, the three families (twice while replicating:
    /// live plus delta) and the two window observes.
    pub fn layer_sum_us(&self, replicated: bool) -> f64 {
        let families = self.f0_us + self.rarity_us + self.hh_us;
        self.decode_us
            + self.journal_append_us
            + self.journal_fsync_us
            + self.sharded_us
            + families * if replicated { 2.0 } else { 1.0 }
            + self.windows_us
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Median of the last fifth (at least ten) of per-batch times.
fn settled(per_batch_us: &[f64]) -> f64 {
    let tail = (per_batch_us.len() / 5).max(10).min(per_batch_us.len());
    median(&per_batch_us[per_batch_us.len() - tail..])
}

/// Time `f` on every batch and return the settled per-batch cost.
fn per_batch(
    tuples: &[(u64, u64)],
    batch: usize,
    mut f: impl FnMut(usize, &[(u64, u64)]) -> cora_core::Result<()>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(tuples.len() / batch + 1);
    for (i, chunk) in tuples.chunks(batch).enumerate() {
        let t = Instant::now();
        f(i, chunk).map_err(|e| e.to_string())?;
        times.push(us_since(t));
    }
    Ok(settled(&times))
}

/// Median time of `f` over distinct cold thresholds.
fn per_query(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let times: Vec<f64> = (1..=n)
        .map(|i| {
            let c = crate::run::cold_threshold(i);
            let t = Instant::now();
            f(c);
            us_since(t)
        })
        .collect();
    median(&times)
}

/// Run the pass over `stream` (preload plus measured tuples, in send order).
pub fn pass(
    cfg: &NodeConfig,
    stream: &[(u64, u64)],
    batch: usize,
    replicated: bool,
    scratch_dir: &Path,
) -> Result<LayerCosts, String> {
    let err = |e: cora_core::CoreError| e.to_string();
    let fed = (stream.len() / 2 + crate::spec::PRELOAD / 2) / batch * batch;
    let tuples = &stream[..fed];
    let mut out = LayerCosts {
        batch,
        tuples_fed: fed,
        ..LayerCosts::default()
    };

    // wire: the client's encode and the server's decode of one ingest frame.
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let (mut scratch, mut ts) = (Vec::new(), Vec::new());
    for (i, chunk) in tuples.chunks(batch).take(STATELESS_BATCHES).enumerate() {
        let t = Instant::now();
        let frame = black_box(wire::encode_ingest(chunk, None, Some((1, i as u64 + 1)), 0));
        encode.push(us_since(t));
        let t = Instant::now();
        wire::decode_ingest_into(&frame[wire::HEADER_BYTES..], &mut scratch, &mut ts)?;
        decode.push(us_since(t));
        black_box(&scratch);
        out.wire_bytes_per_tuple = frame.len() as f64 / chunk.len() as f64;
    }
    out.encode_us = median(&encode);
    out.decode_us = median(&decode);

    // journal: append without and with the per-batch fsync, on the real disk.
    std::fs::create_dir_all(scratch_dir).map_err(|e| e.to_string())?;
    let mut journal =
        JournalWriter::create(&DiskStorage, scratch_dir, 1).map_err(|e| format!("journal: {e}"))?;
    let mut timed = [Vec::new(), Vec::new()];
    for (fsync, times) in [false, true].into_iter().zip(&mut timed) {
        for (i, chunk) in tuples.chunks(batch).take(STATELESS_BATCHES).enumerate() {
            let t = Instant::now();
            journal
                .append_batch(chunk, &[], Some((1, i as u64 + 1)), fsync)
                .map_err(|e| format!("journal append: {e}"))?;
            times.push(us_since(t));
        }
    }
    out.journal_append_us = median(&timed[0]);
    out.journal_fsync_us = (median(&timed[1]) - out.journal_append_us).max(0.0);
    out.journal_bytes_per_tuple = (journal.bytes() - JOURNAL_HEADER_BYTES as u64) as f64
        / (journal.batches() as usize * batch) as f64;
    drop(journal);
    let _ = std::fs::remove_dir_all(scratch_dir);

    // sharded: dispatch to the shard workers, then the flush barrier.
    let (agg, f2_config) = cfg.f2()?;
    let mut sharded =
        ShardedIngest::new(agg.clone(), f2_config.clone(), cfg.shards).map_err(err)?;
    if replicated {
        sharded.enable_delta_tracking().map_err(err)?;
    }
    let reader = sharded.reader();
    let (mut total, mut dispatch) = (Vec::new(), Vec::new());
    for (i, chunk) in tuples.chunks(batch).enumerate() {
        if i * batch == 100_000 {
            let t = Instant::now();
            black_box(reader.build_composite().map_err(err)?);
            out.build_composite_100k_us = us_since(t);
        }
        let t = Instant::now();
        sharded.ingest(chunk).map_err(err)?;
        dispatch.push(us_since(t));
        sharded.flush();
        total.push(us_since(t));
    }
    out.sharded_us = settled(&total);
    out.sharded_dispatch_us = settled(&dispatch);
    let t = Instant::now();
    let (_, composite) = reader.build_composite().map_err(err)?;
    out.build_composite_us = us_since(t);
    if out.build_composite_100k_us == 0.0 {
        out.build_composite_100k_us = out.build_composite_us;
    }
    // One replication interval's worth of tuples in the delta (200 ms at
    // the paced rate is 1 600 tuples; two batches is the nearest whole).
    sharded.enable_delta_tracking().map_err(err)?;
    sharded.take_delta().map_err(err)?;
    for chunk in tuples.chunks(batch).take(2) {
        sharded.ingest(chunk).map_err(err)?;
    }
    sharded.flush();
    let t = Instant::now();
    black_box(sharded.take_delta().map_err(err)?);
    out.take_delta_us = us_since(t);
    drop(sharded);

    // core families, one insert loop each as the server runs them.
    let mut framework = CorrelatedSketch::new(agg, f2_config).map_err(err)?;
    let mut f0 = CorrelatedF0::with_seed(
        cfg.epsilon,
        cfg.delta,
        cfg.x_domain_log2,
        cfg.y_max,
        cfg.seed,
    )
    .map_err(err)?;
    let mut rarity =
        CorrelatedRarity::with_seed(cfg.epsilon, cfg.x_domain_log2, cfg.y_max, cfg.seed)
            .map_err(err)?;
    let mut hh = CorrelatedHeavyHitters::with_seed(
        cfg.epsilon,
        cfg.delta,
        cfg.phi,
        cfg.y_max,
        cfg.max_stream_len,
        cfg.seed,
    )
    .map_err(err)?;
    out.framework_us = per_batch(tuples, batch, |_, chunk| framework.update_batch(chunk))?;
    out.f0_us = per_batch(tuples, batch, |_, chunk| {
        chunk.iter().try_for_each(|&(x, y)| f0.insert(x, y))
    })?;
    out.rarity_us = per_batch(tuples, batch, |_, chunk| {
        chunk.iter().try_for_each(|&(x, y)| rarity.insert(x, y))
    })?;
    out.hh_us = per_batch(tuples, batch, |_, chunk| {
        chunk.iter().try_for_each(|&(x, y)| hh.insert(x, y))
    })?;

    // windowed: both rings observe every tuple at its arrival tick.
    let mut wf2 = windowed_f2(
        cfg.epsilon,
        cfg.delta,
        cfg.y_max,
        cfg.max_stream_len,
        cfg.seed,
        cfg.panes.clone(),
    )
    .map_err(err)?;
    let mut wf0 = windowed_f0(
        cfg.epsilon,
        cfg.delta,
        cfg.x_domain_log2,
        cfg.y_max,
        cfg.seed,
        cfg.panes.clone(),
    )
    .map_err(err)?;
    out.windows_us = per_batch(tuples, batch, |i, chunk| {
        chunk.iter().enumerate().try_for_each(|(j, &(x, y))| {
            let t = (i * batch + j) as u64;
            wf2.observe(x, y, t).and_then(|()| wf0.observe(x, y, t))
        })
    })?;
    out.window_panes = wf2.pane_count() as f64;
    out.window_query_us = per_query(20, |c| {
        black_box(wf2.query_sliding(WINDOW_TICKS, c).ok());
    });

    // core queries on the composite the sharded pass ended with.
    out.f2_query_cold_us = per_query(40, |c| {
        black_box(composite.query(c).ok());
    });
    let t = Instant::now();
    for _ in 0..1_000 {
        black_box(composite.query(black_box(2_047)).ok());
    }
    out.f2_query_cached_ns = t.elapsed().as_nanos() as f64 / 1_000.0;
    out.f0_query_us = per_query(40, |c| {
        black_box(f0.query(c).ok());
    });
    out.hh_query_us = per_query(20, |c| {
        black_box(hh.query_heavy_hitters(c, HH_PHI).ok());
    });
    out.rarity_query_us = per_query(40, |c| {
        black_box(rarity.query(c).ok());
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{tuples, Keys};

    fn node_config() -> NodeConfig {
        NodeConfig {
            epsilon: 0.25,
            delta: 0.1,
            y_max: 4_095,
            max_stream_len: 1_000_000,
            seed: 7,
            shards: 2,
            phi: 0.05,
            x_domain_log2: 16,
            panes: PaneConfig {
                pane_ticks: 256,
                k: 4,
                retention: None,
            },
        }
    }

    #[test]
    fn the_pass_times_every_layer_on_a_small_stream() {
        let stream = tuples(Keys::Zipf, 60_000, 3);
        let dir = std::env::temp_dir().join(format!("cora-loadgen-layers-{}", std::process::id()));
        let costs = pass(&node_config(), &stream, 500, true, &dir).unwrap();
        assert_eq!(costs.tuples_fed % 500, 0);
        assert!(costs.tuples_fed >= 30_000);
        for (name, v) in [
            ("encode", costs.encode_us),
            ("decode", costs.decode_us),
            ("append", costs.journal_append_us),
            ("sharded", costs.sharded_us),
            ("dispatch", costs.sharded_dispatch_us),
            ("composite", costs.build_composite_us),
            ("delta", costs.take_delta_us),
            ("f0", costs.f0_us),
            ("rarity", costs.rarity_us),
            ("hh", costs.hh_us),
            ("framework", costs.framework_us),
            ("windows", costs.windows_us),
            ("f2 query", costs.f2_query_cold_us),
            ("cached", costs.f2_query_cached_ns),
        ] {
            assert!(v > 0.0, "{name} was not timed");
        }
        assert!(costs.sharded_dispatch_us <= costs.sharded_us);
        assert!(costs.wire_bytes_per_tuple >= 16.0 && costs.journal_bytes_per_tuple >= 16.0);
        assert!(costs.layer_sum_us(true) > costs.layer_sum_us(false));
        assert!(!dir.exists(), "the journal scratch directory is removed");
    }
}
