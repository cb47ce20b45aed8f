//! The engine: set a fleet up, drive one workload's measured phase from a
//! writer connection and an analyst connection (at most two threads), check
//! the served answers against the oracle, and tear the fleet down.

use crate::gen;
use crate::oracle::{Accuracy, Oracle, GRID};
use crate::pacing::Schedule;
use crate::procs::{self, Env, Server, IO_TIMEOUT};
use crate::spec::{
    Analyst, Query, Workload, Writer, END_TO_END, EPISODES, EXTRA, HH_PHI, PACED_DEADLINE, PRELOAD,
    PRELOAD_BATCH, WINDOW_TICKS,
};
use crate::stats::p50_p90_p99;
use crate::trace::Tracer;
use cora_serve::client::{ClientError, ServeClient};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `(writer, seq)` writer id every batch of a run is tagged with.
pub const WRITER_ID: u64 = 1;
/// All cores spin this long before the first episode of a run (see
/// [`procs::warm_up`]): one second is what it takes, half a second is not
/// enough. After that the box never idles: every measured phase follows its
/// own set-up's preload at once.
pub const WARM_UP: Duration = Duration::from_millis(1_500);
/// The traced run reads `stats` once every this many analyst rounds.
const STATS_POLL_ROUNDS: usize = 25;
/// Stream name the node registers under on the aggregator.
const STREAM: &str = "bench";

/// Everything an episode sends, generated up front from the seed; every
/// episode of a run sends the same.
pub struct Inputs {
    pub tuples: Vec<(u64, u64)>,
    /// Tuples the writer sends in the measured phase (after [`PRELOAD`]).
    pub measured: usize,
    pub fingerprint: u64,
}

impl Inputs {
    pub fn new(w: &Workload, seed: u64, seconds: u64) -> Self {
        let measured = w.measured_tuples(seconds);
        let tuples = gen::tuples(w.keys, PRELOAD + measured + EXTRA, seed);
        let fingerprint = gen::fingerprint(&tuples);
        Self {
            tuples,
            measured,
            fingerprint,
        }
    }

    pub fn preload(&self) -> &[(u64, u64)] {
        &self.tuples[..PRELOAD]
    }

    pub fn measured(&self) -> &[(u64, u64)] {
        &self.tuples[PRELOAD..PRELOAD + self.measured]
    }

    /// Preload plus measured: what the node holds when the phase ends.
    pub fn served(&self) -> &[(u64, u64)] {
        &self.tuples[..PRELOAD + self.measured]
    }

    /// The traced run's extra tuples, in two halves.
    pub fn extra(&self) -> &[(u64, u64)] {
        &self.tuples[PRELOAD + self.measured..]
    }
}

/// Operations attempted and failed. A refused or errored request, a paced
/// batch acked too late and an answer outside the oracle tolerance all fail.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A running fleet with its two client connections.
pub struct Live {
    pub node: Server,
    pub node_dir: PathBuf,
    pub node_args: Vec<String>,
    pub agg: Option<Server>,
    pub writer: ServeClient,
    pub analyst: ServeClient,
    /// Last sequence number the writer connection used.
    pub seq: u64,
}

impl Live {
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(self.node.pid)
            .chain(self.agg.as_ref().map(|a| a.pid))
            .collect()
    }

    pub fn cpu_seconds(&self) -> (f64, f64) {
        (
            procs::cpu_seconds(self.node.pid),
            self.agg.as_ref().map_or(0.0, |a| procs::cpu_seconds(a.pid)),
        )
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(procs::peak_rss_mb).sum()
    }
}

pub fn connect(addr: &str) -> Result<ServeClient, String> {
    let mut client = ServeClient::connect_binary_timeout(addr, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .set_timeouts(Some(IO_TIMEOUT), Some(IO_TIMEOUT))
        .map_err(|e| format!("cannot set timeouts: {e}"))?;
    Ok(client)
}

pub fn spawn_node(env: &Env, args: &[String]) -> Result<Server, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    procs::spawn(&env.bin_dir.join("cora_serve_node"), &args)
}

/// Spawn every server process, connect, preload, flush: what `setup_s`
/// times. Rotation is off (`--snap-tuples 0`): the default rotation every
/// 200k tuples costs a quarter of the throughput and makes peak memory
/// bimodal, so the traced run measures it explicitly instead.
pub fn set_up(w: &Workload, inputs: &Inputs, env: &Env) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let agg = match w.replicated {
        true => Some(procs::spawn(&env.bin_dir.join("cora_serve_agg"), &[])?),
        false => None,
    };
    let node_dir = env.fresh_dir("node");
    let mut node_args: Vec<String> = ["--dir", &node_dir.to_string_lossy(), "--snap-tuples", "0"]
        .map(String::from)
        .to_vec();
    if let Some(agg) = &agg {
        node_args.extend(["--replicate-to", &agg.addr, "--stream", STREAM].map(String::from));
    }
    let node = spawn_node(env, &node_args)?;
    let mut writer = connect(&node.addr)?;
    let analyst = connect(agg.as_ref().map_or(&node.addr, |a| &a.addr))?;
    let mut seq = 0;
    for chunk in inputs.preload().chunks(PRELOAD_BATCH) {
        seq += 1;
        writer
            .ingest_seq(chunk, Some((WRITER_ID, seq)))
            .map_err(|e| format!("preload batch {seq}: {e}"))?;
    }
    writer.flush().map_err(|e| format!("preload flush: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Live {
            node,
            node_dir,
            node_args,
            agg,
            writer,
            analyst,
            seq,
        },
        setup_s,
    ))
}

/// Stop the servers and delete the node's durable directory.
pub fn tear_down(live: Live) {
    let Live {
        node,
        node_dir,
        agg,
        writer,
        analyst,
        ..
    } = live;
    drop((writer, analyst));
    procs::stop(&node);
    if let Some(agg) = &agg {
        procs::stop(agg);
    }
    let _ = std::fs::remove_dir_all(node_dir);
}

/// Threshold of query number `i`: `(i · 2654435761) mod 4096`. The
/// multiplier is odd, so a value recurs only after 4 096 queries — far
/// outside the 16-entry compose cache. Every query is a cold one.
pub fn cold_threshold(i: u64) -> u64 {
    i.wrapping_mul(2_654_435_761) % (gen::Y_MAX + 1)
}

/// The analyst's deterministic sequence: query number `i` asks
/// [`cold_threshold`]`(i)` and is followed by a pause that is also a
/// function of `i` alone.
pub struct QuerySeq {
    pub issued: u64,
}

impl QuerySeq {
    pub fn next(&mut self) -> u64 {
        self.issued += 1;
        cold_threshold(self.issued)
    }

    /// Think time after query number `issued`: the nominal time scaled by a
    /// factor in `[0.5, 1.5)` that depends only on the query's number. A
    /// constant think time lets the analyst's cycle lock in step with the
    /// writer's batch period, and which phase it locks into differs from run
    /// to run; the jitter makes every run average over all phases.
    pub fn think(&self, nominal: Duration) -> Duration {
        let mut x = self.issued.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        nominal.mul_f64(0.5 + (x >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// What the writer connection measured.
#[derive(Default)]
pub struct WriterOut {
    /// Ack latency per batch (paced: from the due time).
    pub ack_ns: Vec<u64>,
    /// When each ack arrived, from the start of the writer's job.
    pub done_ns: Vec<u64>,
    pub tally: Tally,
    pub max_lateness_ns: u64,
    pub finished: Option<Instant>,
}

/// `true` when the connection can no longer be used (anything but a
/// structured error reply desynchronises or ends the stream).
fn broken(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server(_))
}

pub fn writer_job(
    client: &mut ServeClient,
    tuples: &[(u64, u64)],
    shape: Writer,
    seq: &mut u64,
    tr: &mut Tracer,
) -> WriterOut {
    let (batch, mut schedule) = match shape {
        Writer::Closed { batch, .. } => (batch, None),
        Writer::Paced {
            tuples_per_s,
            batch,
        } => (
            batch,
            Some(Schedule::new(tuples_per_s as f64 / batch as f64)),
        ),
    };
    let batches = tuples.len().div_ceil(batch) as u64;
    let mut out = WriterOut::default();
    let root = tr.begin("writer", 0, 0);
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    for (i, chunk) in tuples.chunks(batch).enumerate() {
        let i = i as u64;
        *seq += 1;
        out.tally.attempted += 1;
        let span = tr.begin("batch", root, *seq);
        if let Some(schedule) = &mut schedule {
            let wait = tr.begin("pace_wait", span, *seq);
            schedule.wait_until_due(start, i);
            tr.end(wait);
            schedule.note_sent(i, now_ns());
        }
        let sent = now_ns();
        let call = tr.begin("ingest_seq", span, *seq);
        let reply = client.ingest_seq(chunk, Some((WRITER_ID, *seq)));
        tr.end(call);
        let done = now_ns();
        tr.end(span);
        let latency = schedule
            .as_ref()
            .map_or(done - sent, |s| s.latency_ns(i, done));
        match reply {
            Ok(accepted) if accepted == chunk.len() as u64 => {
                out.ack_ns.push(latency);
                out.done_ns.push(done);
                if schedule.is_some() && latency > PACED_DEADLINE.as_nanos() as u64 {
                    out.tally.failed += 1;
                }
            }
            Ok(accepted) => {
                eprintln!("batch {seq}: {accepted} of {} tuples accepted", chunk.len());
                out.tally.failed += 1;
            }
            Err(e) => {
                eprintln!("batch {seq}: {e}");
                out.tally.failed += 1;
                if broken(&e) {
                    let rest = batches - i - 1;
                    out.tally.attempted += rest;
                    out.tally.failed += rest;
                    break;
                }
            }
        }
    }
    tr.end(root);
    out.max_lateness_ns = schedule.map_or(0, |s| s.max_lateness_ns());
    out.finished = Some(Instant::now());
    out
}

/// What the analyst connection measured.
#[derive(Default)]
pub struct AnalystOut {
    /// Round-trip latency per query kind, indexed by `Query as usize`.
    pub lat_ns: [Vec<u64>; Query::COUNT],
    pub tally: Tally,
    /// How the answers checked against the oracle fared.
    pub accuracy: Accuracy,
    /// Largest `staleness_batches` the traced run's `stats` polling saw.
    pub staleness_max: u64,
}

fn ask(client: &mut ServeClient, q: Query, c: u64) -> Result<Option<f64>, ClientError> {
    match q {
        Query::F2 => client.query_f2(c).map(Some),
        Query::F0 => client.query_f0(c).map(Some),
        Query::HeavyHitters => client.query_heavy_hitters(c, HH_PHI).map(|_| None),
        Query::WindowF2 => client.query_window_f2(WINDOW_TICKS, c).map(|_| None),
        Query::Rarity => client.query_rarity(c).map(|_| None),
    }
}

/// Run `cycles` rounds of the analyst's cycle. With `verify`, the state is
/// known to be static and every `F_2`/`F_0` answer is checked against the
/// oracle. With `poll`, a second connection to the node reads `stats` every
/// few rounds (traced run only).
#[allow(clippy::too_many_arguments)]
pub fn analyst_job(
    client: &mut ServeClient,
    mut poll: Option<&mut ServeClient>,
    plan: &Analyst,
    cycles: usize,
    verify: Option<&Oracle>,
    queries: &mut QuerySeq,
    tr: &mut Tracer,
) -> AnalystOut {
    let mut out = AnalystOut::default();
    let root = tr.begin("analyst", 0, 0);
    let total = (cycles * plan.cycle.len()) as u64;
    'job: for round in 0..cycles {
        for (slot, &q) in plan.cycle.iter().enumerate() {
            let c = queries.next();
            let request = queries.issued;
            out.tally.attempted += 1;
            let span = tr.begin(q.span_name(), root, request);
            let sent = Instant::now();
            let answer = ask(client, q, c);
            let ns = sent.elapsed().as_nanos() as u64;
            tr.end(span);
            match answer {
                Ok(value) => {
                    out.lat_ns[q as usize].push(ns);
                    if let (Some(oracle), Some(value)) = (verify, value) {
                        let (verdicts, exact) = match q {
                            Query::F2 => (&mut out.accuracy.f2, oracle.f2(c)),
                            _ => (&mut out.accuracy.f0, oracle.f0(c)),
                        };
                        if !verdicts.record(value, exact) {
                            eprintln!("{} at c={c}: served {value}, exact {exact}", q.span_name());
                            out.tally.failed += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{} at c={c}: {e}", q.span_name());
                    out.tally.failed += 1;
                    if broken(&e) {
                        let rest = total - out.tally.attempted;
                        out.tally.attempted += rest;
                        out.tally.failed += rest;
                        break 'job;
                    }
                }
            }
            let think = tr.begin("think", root, request);
            // The light query measures the pool's wake-up after a *fixed*
            // idle time (the poller sleeps in tiers), so the pause before
            // an F0 stays nominal; every other pause is jittered.
            let next = plan.cycle[(slot + 1) % plan.cycle.len()];
            std::thread::sleep(match next {
                Query::F0 => plan.think,
                _ => queries.think(plan.think),
            });
            tr.end(think);
        }
        // `stats` takes the ingest locks, so the traced run polls it rarely.
        if let Some(poll) = poll
            .as_deref_mut()
            .filter(|_| round % STATS_POLL_ROUNDS == 0)
        {
            if let Ok(stats) = poll.stats() {
                out.staleness_max = out
                    .staleness_max
                    .max(stats.u64_field("staleness_batches").unwrap_or(0));
            }
        }
    }
    tr.end(root);
    out
}

/// What one measured phase produced, before it is boiled down to metrics.
pub struct Measured {
    pub writer: WriterOut,
    pub analyst: AnalystOut,
    /// CPU seconds of (node, aggregator) over the whole phase, and over the
    /// writer's stage alone when the analyst ran after it.
    pub cpu_s: (f64, f64),
    pub writer_stage_cpu_s: Option<f64>,
    /// Milliseconds from the writer's last ack until the aggregator stopped
    /// receiving (`None` without an aggregator).
    pub catch_up_ms: Option<Result<f64, String>>,
}

/// Drive the measured phase: the writer and the analyst, beside each other
/// or one after the other. `tracers` are the two threads' span lanes.
pub fn measure(
    w: &Workload,
    inputs: &Inputs,
    live: &mut Live,
    oracle: &Oracle,
    cycles: usize,
    poll: Option<&mut ServeClient>,
    tracers: (&mut Tracer, &mut Tracer),
) -> Measured {
    let (writer_tr, analyst_tr) = tracers;
    let mut queries = QuerySeq { issued: 0 };
    let cpu0 = live.cpu_seconds();
    let mut seq = live.seq;
    // The writer's thread watches replication settle as soon as its last
    // ack is in, over a connection of its own: the analyst's is still busy.
    let agg_addr = live.agg.as_ref().map(|agg| agg.addr.clone());
    let watch_catch_up = |writer: &WriterOut| {
        let last_ack = writer.finished.unwrap_or_else(Instant::now);
        let addr = agg_addr.as_deref()?;
        Some(connect(addr).and_then(|mut agg| await_catch_up(&mut agg, last_ack)))
    };
    let (writer, analyst, writer_stage_cpu_s, catch_up_ms);
    if w.analyst.beside {
        let (writer_conn, analyst_conn) = (&mut live.writer, &mut live.analyst);
        (writer, analyst, catch_up_ms) = std::thread::scope(|scope| {
            let analyst = scope.spawn(|| {
                analyst_job(
                    analyst_conn,
                    poll,
                    &w.analyst,
                    cycles,
                    None,
                    &mut queries,
                    analyst_tr,
                )
            });
            let writer = writer_job(
                writer_conn,
                inputs.measured(),
                w.writer,
                &mut seq,
                writer_tr,
            );
            let catch_up_ms = watch_catch_up(&writer);
            (
                writer,
                analyst.join().expect("the analyst thread does not panic"),
                catch_up_ms,
            )
        });
        writer_stage_cpu_s = None;
    } else {
        writer = writer_job(
            &mut live.writer,
            inputs.measured(),
            w.writer,
            &mut seq,
            writer_tr,
        );
        catch_up_ms = watch_catch_up(&writer);
        // Read-your-writes barrier: the analyst's stage sees a static
        // composite that covers every acked batch, so answers can be checked.
        let mut tally = Tally {
            attempted: 1,
            failed: 0,
        };
        if let Err(e) = live.writer.flush() {
            eprintln!("flush after the writer's stage: {e}");
            tally.failed = 1;
        }
        writer_stage_cpu_s = Some(live.cpu_seconds().0 - cpu0.0);
        let verify = (!w.replicated).then_some(oracle);
        let mut out = analyst_job(
            &mut live.analyst,
            poll,
            &w.analyst,
            cycles,
            verify,
            &mut queries,
            analyst_tr,
        );
        out.tally.add(tally);
        analyst = out;
    }
    live.seq = seq;
    let cpu1 = live.cpu_seconds();
    Measured {
        writer,
        analyst,
        cpu_s: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
        writer_stage_cpu_s,
        catch_up_ms,
    }
}

/// Wait until the aggregator has stopped receiving: `high_water_sum` has not
/// advanced for three replication intervals. Returns milliseconds from
/// `since` to the last advance seen.
pub fn await_catch_up(agg: &mut ServeClient, since: Instant) -> Result<f64, String> {
    const QUIET: Duration = Duration::from_millis(600);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut high_water = None;
    let mut last_advance = since;
    loop {
        let stats = agg.stats().map_err(|e| format!("aggregator stats: {e}"))?;
        let now = stats.u64_field("high_water_sum")?;
        if high_water.is_some_and(|seen| seen != now) {
            last_advance = Instant::now();
        }
        high_water = Some(now);
        if last_advance.elapsed() >= QUIET {
            return Ok(last_advance.saturating_duration_since(since).as_secs_f64() * 1e3);
        }
        if Instant::now() > deadline {
            return Err("the aggregator never went quiet".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The correctness gate: `F_2` and `F_0` at the 16 grid thresholds against
/// the exact oracle (see [`crate::oracle`] for the tolerance).
pub fn gate(client: &mut ServeClient, oracle: &Oracle, who: &str, tally: &mut Tally) -> Accuracy {
    let mut accuracy = Accuracy::default();
    for c in GRID {
        for (name, served, exact, verdicts) in [
            ("F2", client.query_f2(c), oracle.f2(c), &mut accuracy.f2),
            ("F0", client.query_f0(c), oracle.f0(c), &mut accuracy.f0),
        ] {
            tally.attempted += 1;
            match served {
                Ok(value) if verdicts.record(value, exact) => {}
                Ok(value) => {
                    eprintln!("gate: {who} {name}({c}) = {value}, exact {exact}");
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("gate: {who} {name}({c}): {e}");
                    tally.failed += 1;
                }
            }
        }
    }
    accuracy
}

/// Flush and run the gate on every endpoint that serves answers, the
/// aggregator included once replication has caught up (`catch_up_ms` is
/// what [`measure`] watched). `accuracy` already holds the answers checked
/// during the phase; the (ε, δ) contract is judged over all of them and
/// counts as one more operation. Returns the catch-up time in ms.
pub fn settle_and_gate(
    live: &mut Live,
    oracle: &Oracle,
    catch_up_ms: Option<Result<f64, String>>,
    accuracy: &mut Accuracy,
    tally: &mut Tally,
) -> f64 {
    tally.attempted += 1;
    if let Err(e) = live.writer.flush() {
        eprintln!("gate: flush: {e}");
        tally.failed += 1;
    }
    let mut waited_ms = 0.0;
    if let Some(caught_up) = catch_up_ms {
        tally.attempted += 1;
        match caught_up {
            Ok(ms) => waited_ms = ms,
            Err(e) => {
                eprintln!("gate: {e}");
                tally.failed += 1;
            }
        }
        accuracy.add(gate(&mut live.analyst, oracle, "aggregator", tally));
    }
    accuracy.add(gate(&mut live.writer, oracle, "node", tally));
    judge_contract(accuracy, tally);
    waited_ms
}

/// The (ε, δ) contract over every answer checked: one more operation.
pub fn judge_contract(accuracy: &Accuracy, tally: &mut Tally) {
    tally.attempted += 1;
    if !accuracy.contract_holds() {
        eprintln!("gate: more than a δ share of the answers is beyond ε: {accuracy:?}");
        tally.failed += 1;
    }
}

/// Acked tuples per second over the writer's whole job, first send to last
/// ack: the ingest speed a single exactly-once producer gets in a closed
/// loop, the achieved rate in a paced one.
pub fn ingest_rate(done_ns: &[u64], batch: usize) -> f64 {
    match done_ns.last() {
        Some(&last) if last > 0 => (done_ns.len() * batch) as f64 / (last as f64 / 1e9),
        _ => 0.0,
    }
}

/// One episode: a fresh fleet set up (timed), driven through the measured
/// phase, gated and torn down.
pub struct Episode {
    pub setup_s: f64,
    pub m: Measured,
    pub peak_rss_mb: f64,
    pub tally: Tally,
}

impl Episode {
    /// This episode's value of every end-to-end metric, in [`END_TO_END`]
    /// order.
    pub fn values(&mut self, w: &Workload) -> Vec<f64> {
        let us = |ns: u64| ns as f64 / 1e3;
        let m = &mut self.m;
        let [f2, f0, ..] = &mut m.analyst.lat_ns;
        vec![
            self.setup_s,
            ingest_rate(&m.writer.done_ns, w.batch()),
            us(p50_p90_p99(&mut m.writer.ack_ns).0),
            us(p50_p90_p99(f2).0),
            us(p50_p90_p99(f0).0),
            m.cpu_s.0 + m.cpu_s.1,
            self.peak_rss_mb,
        ]
    }
}

pub fn episode(
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    env: &Env,
    cycles: usize,
) -> Result<Episode, String> {
    let (mut live, setup_s) = set_up(w, inputs, env)?;
    let epoch = Instant::now();
    let (mut t1, mut t2) = (Tracer::new(epoch, false, 1), Tracer::new(epoch, false, 2));
    let mut m = measure(
        w,
        inputs,
        &mut live,
        oracle,
        cycles,
        None,
        (&mut t1, &mut t2),
    );
    let mut tally = Tally::default();
    let mut accuracy = m.analyst.accuracy;
    settle_and_gate(
        &mut live,
        oracle,
        m.catch_up_ms.take(),
        &mut accuracy,
        &mut tally,
    );
    tally.add(m.writer.tally);
    tally.add(m.analyst.tally);
    let peak_rss_mb = live.peak_rss_mb();
    tear_down(live);
    Ok(Episode {
        setup_s,
        m,
        peak_rss_mb,
        tally,
    })
}

/// The end-to-end numbers of one run, plus what the contract asks beside
/// them.
pub struct EndToEnd {
    /// In [`END_TO_END`] order.
    pub values: Vec<f64>,
    /// The episodes' own values behind each of `values`.
    pub per_episode: Vec<Vec<f64>>,
    pub tally: Tally,
    pub correct: bool,
    pub max_lateness_ms: f64,
    /// Every episode's ack and `F_2` latencies together (the traced run's
    /// p90 and p99 come from these).
    pub ack_ns: Vec<u64>,
    pub f2_ns: Vec<u64>,
    pub f0_samples: usize,
}

impl EndToEnd {
    pub fn value(&self, name: &str) -> f64 {
        self.values[index_of(name)]
    }

    pub fn episodes(&self, name: &str) -> &[f64] {
        &self.per_episode[index_of(name)]
    }
}

fn index_of(name: &str) -> usize {
    END_TO_END
        .iter()
        .position(|def| def.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// One untraced run: all cores warmed up, then [`EPISODES`] episodes.
pub fn run_untraced(
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    env: &Env,
    seconds: u64,
) -> Result<EndToEnd, String> {
    procs::warm_up(WARM_UP);
    let mut out = EndToEnd {
        values: Vec::new(),
        per_episode: vec![Vec::with_capacity(EPISODES); END_TO_END.len()],
        tally: Tally::default(),
        correct: false,
        max_lateness_ms: 0.0,
        ack_ns: Vec::new(),
        f2_ns: Vec::new(),
        f0_samples: 0,
    };
    for _ in 0..EPISODES {
        let mut e = episode(w, inputs, oracle, env, w.cycles(seconds))?;
        for (series, value) in out.per_episode.iter_mut().zip(e.values(w)) {
            series.push(value);
        }
        out.tally.add(e.tally);
        out.max_lateness_ms = out
            .max_lateness_ms
            .max(e.m.writer.max_lateness_ns as f64 / 1e6);
        out.ack_ns.append(&mut e.m.writer.ack_ns);
        out.f2_ns
            .append(&mut e.m.analyst.lat_ns[Query::F2 as usize]);
        out.f0_samples += e.m.analyst.lat_ns[Query::F0 as usize].len();
    }
    for (def, series) in END_TO_END.iter().zip(&out.per_episode) {
        out.values.push(def.over_episodes(series));
    }
    out.correct = out.tally.failed == 0;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_never_repeat_inside_the_compose_cache() {
        let mut t = QuerySeq { issued: 0 };
        let seq: Vec<u64> = (0..4_096).map(|_| t.next()).collect();
        let distinct: std::collections::BTreeSet<u64> = seq.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            4_096,
            "a full period visits every threshold once"
        );
        assert!(seq.iter().all(|&c| c <= gen::Y_MAX));
    }

    #[test]
    fn think_time_is_jittered_around_the_nominal_and_repeats_per_query() {
        let nominal = Duration::from_millis(4);
        let mut t = QuerySeq { issued: 0 };
        let mut total = Duration::ZERO;
        for _ in 0..1_000 {
            t.next();
            let think = t.think(nominal);
            assert!(think >= nominal / 2 && think < nominal * 3 / 2, "{think:?}");
            assert_eq!(
                think,
                t.think(nominal),
                "a function of the query number only"
            );
            total += think;
        }
        let mean = total / 1_000;
        assert!(
            mean > nominal.mul_f64(0.95) && mean < nominal.mul_f64(1.05),
            "{mean:?}"
        );
    }

    #[test]
    fn ingest_rate_is_acked_tuples_over_the_whole_job() {
        // 100 batches of 500 tuples, the last acked after 5 s: 10 000 tuples/s.
        let done: Vec<u64> = (1..=100u64).map(|i| i * 50_000_000).collect();
        assert_eq!(ingest_rate(&done, 500), 10_000.0);
        assert_eq!(ingest_rate(&[], 500), 0.0);
    }
}
