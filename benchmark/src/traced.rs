//! The traced run (`--trace 1`): the workload's untraced run (the reference
//! the ledger's end-to-end numbers come from), one more episode with every
//! client call wrapped in a span, then the probes that only make sense on a live
//! fleet (idle CPU, wake latency, rotation, crash recovery), then the
//! in-process layer pass. Prints the ledger; returns every per-layer metric.

use crate::layers::{self, LayerCosts, NodeConfig};
use crate::oracle::Oracle;
use crate::procs::{self, Env};
use crate::run::{
    self, analyst_job, connect, gate, ingest_rate, judge_contract, measure, set_up,
    settle_and_gate, spawn_node, tear_down, writer_job, Inputs, Live, QuerySeq, Tally, WRITER_ID,
};
use crate::spec::{Analyst, Query, Workload, Writer, PRELOAD_BATCH, PROBE_TUPLES};
use crate::stats::{median, p50_p90_p99};
use crate::trace::{self, Tracer};
use cora_serve::client::ServeClient;
use cora_serve::protocol::Request;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seconds of the unreplicated reference phase behind `cluster.replication_tax`.
const TAX_REFERENCE_SECONDS: usize = 6;
/// How long the idle-CPU probe watches a server with open, silent connections.
const IDLE_WATCH: Duration = Duration::from_secs(3);

pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
}

fn p50_us(samples: &mut [u64]) -> f64 {
    p50_p90_p99(samples).0 as f64 / 1e3
}

/// Time `n` calls of `f`, optionally idling before each; returns the p50 in µs.
fn probe(n: usize, idle: Duration, tally: &mut Tally, mut f: impl FnMut() -> bool) -> f64 {
    let mut ns = Vec::with_capacity(n);
    for _ in 0..n {
        if !idle.is_zero() {
            std::thread::sleep(idle);
        }
        tally.attempted += 1;
        let t = Instant::now();
        if f() {
            ns.push(t.elapsed().as_nanos() as u64);
        } else {
            tally.failed += 1;
        }
    }
    p50_us(&mut ns)
}

/// The probes that need a live, loaded node: round trips, wake latency, the
/// compose-cache hit path, query kinds the workload's own cycle lacks, idle
/// CPU, and the pipelined (no-ack) ingest path.
fn live_probes(
    w: &Workload,
    inputs: &Inputs,
    live: &mut Live,
    node: &mut ServeClient,
    own_lat: &mut [Vec<u64>; Query::COUNT],
    v: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) {
    let none = Duration::ZERO;
    v.insert(
        "server.rtt_ping_us",
        probe(200, none, tally, || node.ping().is_ok()),
    );
    v.insert(
        "server.wake_ping_us",
        probe(100, Duration::from_millis(5), tally, || node.ping().is_ok()),
    );
    let _ = node.query_f2(2_047);
    v.insert(
        "server.hot_query_f2_us",
        probe(200, none, tally, || node.query_f2(2_047).is_ok()),
    );
    // Query kinds: the workload's own samples where its cycle has the kind,
    // a short probe at the workload's think time where it does not.
    let mut queries = QuerySeq { issued: 1_000_000 };
    let kinds: [(Query, &'static [Query], &'static str); 3] = [
        (
            Query::HeavyHitters,
            &[Query::HeavyHitters],
            "server.query_hh_p50_us",
        ),
        (
            Query::WindowF2,
            &[Query::WindowF2],
            "server.query_window_f2_p50_us",
        ),
        (
            Query::Rarity,
            &[Query::Rarity],
            "server.query_rarity_p50_us",
        ),
    ];
    for (q, cycle, name) in kinds {
        if own_lat[q as usize].is_empty() {
            let plan = Analyst { cycle, ..w.analyst };
            let mut off = Tracer::new(Instant::now(), false, 3);
            let mut out = analyst_job(node, None, &plan, 40, None, &mut queries, &mut off);
            tally.add(out.tally);
            own_lat[q as usize] = std::mem::take(&mut out.lat_ns[q as usize]);
        }
        v.insert(name, p50_us(&mut own_lat[q as usize]));
    }
    // Idle: connections stay open and silent; whatever CPU the servers use
    // now is polling, as a share of one core.
    let cpu0 = live.cpu_seconds();
    std::thread::sleep(IDLE_WATCH);
    let cpu1 = live.cpu_seconds();
    v.insert(
        "server.idle_cpu_share",
        (cpu1.0 - cpu0.0 + cpu1.1 - cpu0.1) / IDLE_WATCH.as_secs_f64(),
    );
    // Pipelined: the same 1k batches without waiting for each ack.
    let pipelined = &inputs.extra()[..PROBE_TUPLES];
    let t = Instant::now();
    let mut ok = true;
    for chunk in pipelined.chunks(PRELOAD_BATCH) {
        live.seq += 1;
        tally.attempted += 1;
        ok &= live
            .writer
            .ingest_noack_seq(chunk, Some((WRITER_ID, live.seq)))
            .is_ok();
    }
    ok &= live.writer.sync().is_ok();
    if !ok {
        eprintln!("pipelined probe: a batch was refused");
        tally.failed += 1;
    }
    v.insert(
        "server.pipelined_tuples_per_s",
        pipelined.len() as f64 / t.elapsed().as_secs_f64(),
    );
}

/// Rotate, write a journal tail, `SIGKILL` the node, restart it on the same
/// directory and time the way back to the first answered query; then hold
/// the recovered node to the same gate as the live one.
fn rotate_crash_recover(
    inputs: &Inputs,
    live: &mut Live,
    env: &Env,
    v: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.attempted += 1;
    let t = Instant::now();
    let rotated = live
        .writer
        .request(&Request::Snapshot {
            path: String::new(),
        })
        .map_err(|e| format!("snapshot_rotate: {e}"))?;
    v.insert("journal.rotate_ms", t.elapsed().as_secs_f64() * 1e3);
    v.insert("journal.snapshot_bytes", rotated.u64_field("bytes")? as f64);
    for chunk in inputs.extra()[PROBE_TUPLES..].chunks(PRELOAD_BATCH) {
        live.seq += 1;
        tally.attempted += 1;
        if let Err(e) = live.writer.ingest_seq(chunk, Some((WRITER_ID, live.seq))) {
            return Err(format!("journal tail batch {}: {e}", live.seq));
        }
    }
    procs::kill(live.node.pid);
    let t = Instant::now();
    live.node = spawn_node(env, &live.node_args)?;
    let mut recovered = connect(&live.node.addr)?;
    recovered
        .query_f0(4_095)
        .map_err(|e| format!("first query after recovery: {e}"))?;
    v.insert("journal.recovery_s", t.elapsed().as_secs_f64());
    recovered
        .flush()
        .map_err(|e| format!("flush after recovery: {e}"))?;
    // The recovered node holds preload, measured, pipelined and tail tuples.
    let accuracy = gate(
        &mut recovered,
        &Oracle::new(&inputs.tuples),
        "recovered node",
        tally,
    );
    judge_contract(&accuracy, tally);
    live.writer = recovered;
    Ok(())
}

/// CPU per tuple of a plain (unreplicated) node under the same paced ingest,
/// with no analyst — in `replicated_paced` the node sees no queries either.
fn unreplicated_cpu_us_per_tuple(w: &Workload, inputs: &Inputs, env: &Env) -> Result<f64, String> {
    let Writer::Paced { tuples_per_s, .. } = w.writer else {
        return Ok(0.0);
    };
    let plain = Workload {
        replicated: false,
        ..*w
    };
    let (mut live, _) = set_up(&plain, inputs, env)?;
    let tuples = &inputs.measured()[..(tuples_per_s * TAX_REFERENCE_SECONDS).min(inputs.measured)];
    let cpu0 = live.cpu_seconds().0;
    let mut off = Tracer::new(Instant::now(), false, 1);
    let mut seq = live.seq;
    let out = writer_job(&mut live.writer, tuples, w.writer, &mut seq, &mut off);
    let cpu = live.cpu_seconds().0 - cpu0;
    tear_down(live);
    match out.tally.failed {
        0 => Ok(cpu * 1e6 / tuples.len() as f64),
        n => Err(format!("{n} batches of the unreplicated reference failed")),
    }
}

/// What recording one span costs, measured on its own: the difference
/// between a traced and an untraced run is mostly the box's run-to-run
/// noise, so the ledger prints this beside it.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let mut tracer = Tracer::new(Instant::now(), true, 4);
    let t = Instant::now();
    for i in 0..SPANS {
        let id = tracer.begin("calibration", 0, u64::from(i));
        tracer.end(id);
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(SPANS);
    std::hint::black_box(tracer.into_spans());
    ns
}

pub fn run_traced(
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    env: &Env,
    seconds: u64,
    seed: u64,
) -> Result<Traced, String> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let cycles = w.cycles(seconds);

    // 1. The untraced reference: end-to-end numbers never come from a
    //    traced phase.
    let mut reference = run::run_untraced(w, inputs, oracle, env, seconds)?;
    let mut tally = reference.tally;

    // 2. One more episode with spans on, and `stats` polled every few
    //    analyst rounds over a third connection.
    let (mut live, _) = set_up(w, inputs, env)?;
    let mut node = connect(&live.node.addr)?;
    let cfg = NodeConfig::from_response(&node.config().map_err(|e| format!("config: {e}"))?)?;
    let before = node.stats().map_err(|e| format!("stats: {e}"))?;
    let epoch = Instant::now();
    let (mut t1, mut t2) = (Tracer::new(epoch, true, 1), Tracer::new(epoch, true, 2));
    let mut m = measure(
        w,
        inputs,
        &mut live,
        oracle,
        cycles,
        Some(&mut node),
        (&mut t1, &mut t2),
    );
    let after = node.stats().map_err(|e| format!("stats: {e}"))?;
    let mut gate_tally = Tally::default();
    let mut accuracy = m.analyst.accuracy;
    let catch_up_ms = settle_and_gate(
        &mut live,
        oracle,
        m.catch_up_ms.take(),
        &mut accuracy,
        &mut gate_tally,
    );
    tally.add(gate_tally);
    tally.add(m.writer.tally);
    tally.add(m.analyst.tally);
    // Tails come from the reference's episodes together (five times the
    // samples of one episode).
    let (_, ack_p90, ack_p99) = p50_p90_p99(&mut reference.ack_ns);
    let (_, f2_p90, f2_p99) = p50_p90_p99(&mut reference.f2_ns);
    let staleness_max = m.analyst.staleness_max;
    let mut own_lat = std::mem::take(&mut m.analyst.lat_ns);
    let traced_rate = ingest_rate(&m.writer.done_ns, w.batch());
    // One traced episode against the reference's typical one.
    let untraced_rate = median(reference.episodes("ingest_tuples_per_s"));

    let batches = (inputs.measured / w.batch()) as f64;
    let delta = |field: &str| -> Result<f64, String> {
        Ok((after.u64_field(field)? - before.u64_field(field)?) as f64)
    };
    v.insert(
        "merger.epochs_per_batch",
        delta("composite_epoch")? / batches,
    );
    v.insert("merger.staleness_batches_max", staleness_max as f64);
    let stats = node.stats().map_err(|e| format!("stats: {e}"))?;
    for (name, field) in [
        ("core.space_bytes", "space_bytes"),
        ("core.dyadic_buckets", "dyadic_buckets"),
        ("core.singleton_buckets", "singleton_buckets"),
        ("core.stored_tuples", "stored_tuples"),
    ] {
        v.insert(name, stats.u64_field(field)? as f64);
    }
    v.insert("core.f2.max_rel_err", accuracy.f2.worst);
    v.insert("core.f0.max_rel_err", accuracy.f0.worst);
    v.insert("server.ack_p90_us", ack_p90 as f64 / 1e3);
    v.insert("server.ack_p99_us", ack_p99 as f64 / 1e3);
    v.insert("server.query_f2_p90_us", f2_p90 as f64 / 1e3);
    v.insert("server.query_f2_p99_us", f2_p99 as f64 / 1e3);
    v.insert(
        "client.max_lateness_ms",
        reference
            .max_lateness_ms
            .max(m.writer.max_lateness_ns as f64 / 1e6),
    );
    v.insert("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
    v.insert("trace.span_cost_ns", span_cost_ns());

    // cluster: the aggregator's counters, and CPU per tuple on both sides.
    let tuples = inputs.measured as f64;
    let queries = (cycles * w.analyst.cycle.len()) as f64;
    let agg_stats = match live.agg {
        Some(_) => Some(
            live.analyst
                .stats()
                .map_err(|e| format!("aggregator stats: {e}"))?,
        ),
        None => None,
    };
    for name in [
        "cluster.deltas_applied",
        "cluster.snapshots_applied",
        "cluster.repl_rejected",
    ] {
        let value = match &agg_stats {
            Some(stats) => stats.u64_field(name.trim_start_matches("cluster."))?,
            None => 0,
        };
        v.insert(name, value as f64);
    }
    v.insert("cluster.catchup_ms", catch_up_ms);
    let replicated = live.agg.is_some();
    let per_tuple_us = |cpu_s: f64| {
        if replicated {
            cpu_s * 1e6 / tuples
        } else {
            0.0
        }
    };
    v.insert("cluster.node_cpu_us_per_tuple", per_tuple_us(m.cpu_s.0));
    v.insert("cluster.agg_cpu_us_per_tuple", per_tuple_us(m.cpu_s.1));

    // 3. Probes on the live fleet, 4. rotation and crash recovery.
    live_probes(
        w,
        inputs,
        &mut live,
        &mut node,
        &mut own_lat,
        &mut v,
        &mut tally,
    );
    // CPU per query and per tuple: from the two stages when they ran one
    // after the other; otherwise a short probe prices the queries and the
    // rest of the node's phase CPU is the tuples'.
    let cpu_per_query_us = match m.writer_stage_cpu_s {
        Some(stage) => (m.cpu_s.0 - stage) * 1e6 / queries,
        None => {
            let cpu0 = live.cpu_seconds().0;
            let mut off = Tracer::new(Instant::now(), false, 3);
            let mut th = QuerySeq { issued: 2_000_000 };
            let out = analyst_job(&mut node, None, &w.analyst, 60, None, &mut th, &mut off);
            tally.add(out.tally);
            (live.cpu_seconds().0 - cpu0) * 1e6 / (60 * w.analyst.cycle.len()) as f64
        }
    };
    let node_queries = if replicated { 0.0 } else { queries };
    let cpu_per_tuple_us = match m.writer_stage_cpu_s {
        Some(stage) => stage * 1e6 / tuples,
        None => (m.cpu_s.0 * 1e6 - node_queries * cpu_per_query_us).max(0.0) / tuples,
    };
    v.insert("server.cpu_us_per_query", cpu_per_query_us);
    v.insert("server.cpu_us_per_tuple", cpu_per_tuple_us);
    drop(node);
    rotate_crash_recover(inputs, &mut live, env, &mut v, &mut tally)?;
    tear_down(live);

    let tax = match replicated {
        true => v["cluster.node_cpu_us_per_tuple"] / unreplicated_cpu_us_per_tuple(w, inputs, env)?,
        false => 0.0,
    };
    v.insert("cluster.replication_tax", tax);

    // 5. The in-process layer pass and the ledger.
    let costs = layers::pass(
        &cfg,
        inputs.served(),
        w.batch(),
        replicated,
        &env.fresh_dir("journal"),
    )?;
    let ack_p50 = reference.value("ingest_ack_p50_us");
    let layer_sum = costs.layer_sum_us(replicated);
    insert_layer_costs(&costs, &mut v);
    v.insert("ledger.layer_sum_us_per_batch", layer_sum);
    v.insert("server.unattributed_us_per_batch", ack_p50 - layer_sum);
    v.insert("ledger.unattributed_share", (ack_p50 - layer_sum) / ack_p50);

    let mut spans = t1.into_spans();
    let writer_spans = spans.len();
    spans.extend(t2.into_spans());
    let span_file = env.work_dir.join(format!("trace-{}-{seed}.json", w.name));
    trace::write_json(&span_file, &spans).map_err(|e| format!("{}: {e}", span_file.display()))?;
    print_ledger(w, &costs, replicated, ack_p50, untraced_rate, traced_rate);
    println!(
        "  one span costs {:.0} ns to record; a batch records {:.1} spans",
        v["trace.span_cost_ns"],
        writer_spans as f64 / batches
    );
    println!("spans: {} written to {}", spans.len(), span_file.display());
    println!(
        "  {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in trace::self_times(&spans) {
        println!(
            "  {name:<22} {count:>8} {:>12.1} {:>12.1}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(Traced { values: v, tally })
}

fn insert_layer_costs(c: &LayerCosts, v: &mut BTreeMap<&'static str, f64>) {
    let ns_per_tuple = |us_per_batch: f64| us_per_batch * 1e3 / c.batch as f64;
    v.insert("wire.encode_ingest_ns_per_tuple", ns_per_tuple(c.encode_us));
    v.insert("wire.decode_ingest_ns_per_tuple", ns_per_tuple(c.decode_us));
    v.insert("wire.bytes_per_tuple", c.wire_bytes_per_tuple);
    v.insert("journal.append_us_per_batch", c.journal_append_us);
    v.insert("journal.fsync_us_per_batch", c.journal_fsync_us);
    v.insert("journal.bytes_per_tuple", c.journal_bytes_per_tuple);
    v.insert("sharded.ingest_ns_per_tuple", ns_per_tuple(c.sharded_us));
    v.insert(
        "sharded.dispatch_ns_per_tuple",
        ns_per_tuple(c.sharded_dispatch_us),
    );
    v.insert("sharded.build_composite_100k_us", c.build_composite_100k_us);
    v.insert("sharded.build_composite_us", c.build_composite_us);
    v.insert("sharded.take_delta_us", c.take_delta_us);
    v.insert("core.f0.insert_ns_per_tuple", ns_per_tuple(c.f0_us));
    v.insert("core.rarity.insert_ns_per_tuple", ns_per_tuple(c.rarity_us));
    v.insert("core.hh.insert_ns_per_tuple", ns_per_tuple(c.hh_us));
    v.insert(
        "core.framework.update_batch_ns_per_tuple",
        ns_per_tuple(c.framework_us),
    );
    v.insert("core.f2.query_cold_us", c.f2_query_cold_us);
    v.insert("core.f2.query_cached_ns", c.f2_query_cached_ns);
    v.insert("core.f0.query_us", c.f0_query_us);
    v.insert("core.hh.query_us", c.hh_query_us);
    v.insert("core.rarity.query_us", c.rarity_query_us);
    v.insert("windowed.observe_ns_per_tuple", ns_per_tuple(c.windows_us));
    v.insert("windowed.query_cold_us", c.window_query_us);
    v.insert("windowed.pane_count", c.window_panes);
}

/// The ledger: what one batch costs in each layer (in-process, public API),
/// their sum, and what is left of the end-to-end ack once they are taken
/// out — the server's own share (framing, locks, wake-up, reply).
fn print_ledger(
    w: &Workload,
    c: &LayerCosts,
    replicated: bool,
    ack_p50_us: f64,
    untraced_rate: f64,
    traced_rate: f64,
) {
    let twice = if replicated { 2.0 } else { 1.0 };
    println!(
        "ledger for {}: one {}-tuple batch, layers fed {} tuples (state at the median batch)",
        w.name, c.batch, c.tuples_fed
    );
    let rows = [
        ("wire decode", c.decode_us),
        ("journal append", c.journal_append_us),
        ("journal fsync", c.journal_fsync_us),
        ("sharded ingest+flush", c.sharded_us),
        ("core F0 inserts", c.f0_us * twice),
        ("core rarity inserts", c.rarity_us * twice),
        ("core HH inserts", c.hh_us * twice),
        ("windowed observes (2)", c.windows_us),
    ];
    let sum = c.layer_sum_us(replicated);
    for (name, us) in rows {
        println!(
            "  {name:<24} {us:>10.1} us {:>6.1}%",
            100.0 * us / ack_p50_us
        );
    }
    println!(
        "  {:<24} {sum:>10.1} us {:>6.1}%",
        "layer sum",
        100.0 * sum / ack_p50_us
    );
    println!(
        "  {:<24} {:>10.1} us {:>6.1}%  (server.unattributed_us_per_batch)",
        "unattributed",
        ack_p50_us - sum,
        100.0 * (ack_p50_us - sum) / ack_p50_us
    );
    println!(
        "  {:<24} {ack_p50_us:>10.1} us  (ingest_ack_p50_us, untraced)",
        "end to end"
    );
    println!(
        "tracing overhead: {untraced_rate:.0} tuples/s untraced, {traced_rate:.0} traced ({:+.2}%)",
        100.0 * (traced_rate / untraced_rate - 1.0)
    );
}
