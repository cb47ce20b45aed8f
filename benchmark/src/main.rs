//! `cora_loadgen` — the repo benchmark's load generator.
//!
//! One process, at most two load threads (a writer connection and an analyst
//! connection), driving the real `cora_serve_node` / `cora_serve_agg`
//! binaries from outside, five fresh fleets per run. See `benchmark/README.md` for what each workload
//! and metric is for; `bash benchmark/run.sh` builds everything and runs
//! this.
//!
//! ```text
//! cora_loadgen --workload NAME --seed N --seconds S --trace 0|1
//!              [--bin-dir DIR] [--work-dir DIR]
//! cora_loadgen --selfcheck [--seed N] [--seconds S]
//! cora_loadgen --print-benchmark-json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. No gain is claimed by this benchmark
//! (`"claim": null`): every later claim names one metric and one workload.

mod gen;
mod layers;
mod oracle;
mod pacing;
mod procs;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod traced;

use procs::{Env, ReapOnDrop, Watchdog};
use spec::{Workload, BASE_SECONDS, END_TO_END, EPISODES, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One invocation must end within the contract's 180 s; the watchdog fires
/// a little earlier so the servers are reaped by this process.
const RUN_LIMIT: Duration = Duration::from_secs(170);
const SELFCHECK_LIMIT: Duration = Duration::from_secs(1_700);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    print_benchmark_json: bool,
    bin_dir: Option<PathBuf>,
    work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: BASE_SECONDS,
        trace: false,
        selfcheck: false,
        print_benchmark_json: false,
        bin_dir: None,
        work_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: {v:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?,
            "--trace" => out.trace = number(value()?)? != 0,
            "--selfcheck" => out.selfcheck = true,
            "--print-benchmark-json" => out.print_benchmark_json = true,
            "--bin-dir" => out.bin_dir = Some(value()?.into()),
            "--work-dir" => out.work_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&out.seconds) {
        return Err(format!(
            "--seconds must be between 1 and 60, got {}",
            out.seconds
        ));
    }
    Ok(out)
}

/// Where the server binaries are and where this run may write. By default
/// both sit beside this executable (`run.sh` builds all three into one
/// target directory), which keeps every write inside the checkout.
fn environment(args: &Args) -> Result<Env, String> {
    let beside = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .ok_or("cannot locate this executable")?;
    let bin_dir = args.bin_dir.clone().unwrap_or_else(|| beside.clone());
    let work_dir = args
        .work_dir
        .clone()
        .unwrap_or_else(|| beside.join("../loadgen-work"));
    for bin in ["cora_serve_node", "cora_serve_agg"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!(
                "{} is missing — build it with `cargo build --release -p cora-serve` (run.sh does)",
                bin_dir.join(bin).display()
            ));
        }
    }
    let run_dir = work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    Ok(Env {
        bin_dir,
        work_dir,
        run_dir,
    })
}

/// JSON has no NaN or infinity; a metric that could not be computed is 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn result_line(correct: bool, tally: run::Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    line.push_str("}}");
    line
}

/// `BENCHMARK.json` as the tables in `spec` define it.
fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {BASE_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = if *higher { "higher" } else { "lower" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn run_one(w: &Workload, args: &Args, env: &Env) -> Result<bool, String> {
    let inputs = run::Inputs::new(w, args.seed, args.seconds);
    let oracle = oracle::Oracle::new(inputs.served());
    println!(
        "workload {} seed {} seconds {} trace {}: {} tuples generated, fingerprint {:016x}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.tuples.len(),
        inputs.fingerprint
    );
    if args.trace {
        let traced = traced::run_traced(w, &inputs, &oracle, env, args.seconds, args.seed)?;
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for &(name, unit, higher) in PER_LAYER {
            let value = traced
                .values
                .get(name)
                .copied()
                .ok_or(format!("{name} was not measured"))?;
            let better = if higher { "higher" } else { "lower" };
            println!(
                "  {name:<44} {:>16.3} {unit:<6} ({better} is better)",
                finite(value)
            );
            metrics.push((name, value, unit));
        }
        let correct = traced.tally.failed == 0;
        println!("{}", result_line(correct, traced.tally, &metrics));
        return Ok(correct);
    }
    let run = run::run_untraced(w, &inputs, &oracle, env, args.seconds)?;
    println!(
        "  {EPISODES} episodes, together {} acked batches, {} f2 and {} f0 queries; generator ran at most {:.3} ms late",
        run.ack_ns.len(),
        run.f2_ns.len(),
        run.f0_samples,
        run.max_lateness_ms
    );
    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for ((def, value), episodes) in END_TO_END.iter().zip(&run.values).zip(&run.per_episode) {
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let episodes: Vec<String> = episodes.iter().map(|v| format!("{v:.3}")).collect();
        println!(
            "  {:<22} {:>14.3} {:<4} ({better} is better, regression bound {:.0}%; episodes {})",
            def.name,
            finite(*value),
            def.unit,
            def.bound * 100.0,
            episodes.join(" ")
        );
        metrics.push((def.name, *value, def.unit));
    }
    println!("{}", result_line(run.correct, run.tally, &metrics));
    Ok(run.correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    let env = environment(&args)?;
    let _reaper = ReapOnDrop {
        run_dir: env.run_dir.clone(),
    };
    if args.selfcheck {
        let _watchdog = Watchdog::arm(
            SELFCHECK_LIMIT,
            "the self-check".into(),
            env.run_dir.clone(),
        );
        return selfcheck::selfcheck(&env, args.seed, args.seconds);
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let _watchdog = Watchdog::arm(RUN_LIMIT, format!("workload {name}"), env.run_dir.clone());
    run_one(w, &args, &env)
}

fn main() -> ExitCode {
    match real_main() {
        // A run whose operations failed still printed its result line; the
        // exit code says the benchmark itself worked.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            run::Tally {
                attempted: 10,
                failed: 0,
            },
            &[("latency_ms", 1.2034, "ms"), ("bad", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` is outside this package, so the comparison only runs
    /// where the repo root is present.
    #[test]
    fn benchmark_json_at_the_root_is_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(on_disk) = std::fs::read_to_string(path) {
            assert_eq!(
                on_disk,
                benchmark_json(),
                "regenerate with --print-benchmark-json"
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
