//! `--selfcheck`: the full set of workloads five times back to back, each
//! round on its own seed. Prints min / median / max per metric per workload
//! and fails when a metric does not repeat: max/min above 1.10, or the
//! medians of the two halves apart by more than the metric's own bound.
//! A metric that fails is fixed by lengthening its phase or moved to the
//! per-layer table — never shipped noisy.

use crate::oracle::Oracle;
use crate::procs::Env;
use crate::run::{run_untraced, Inputs};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

const ROUNDS: u64 = 5;
const MAX_OVER_MIN: f64 = 1.10;

/// Returns `Ok(true)` when every metric repeated.
pub fn selfcheck(env: &Env, seed: u64, seconds: u64) -> Result<bool, String> {
    // values[workload][metric][round]
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for round in 0..ROUNDS {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            let inputs = Inputs::new(w, seed + round, seconds);
            let oracle = Oracle::new(inputs.served());
            let run = run_untraced(w, &inputs, &oracle, env, seconds)?;
            if !run.correct {
                return Err(format!(
                    "{} seed {}: {} of {} operations failed",
                    w.name,
                    seed + round,
                    run.tally.failed,
                    run.tally.attempted
                ));
            }
            for (mi, value) in run.values.iter().enumerate() {
                values[wi][mi].push(*value);
            }
            eprintln!(
                "selfcheck: round {} of {ROUNDS}, {} done",
                round + 1,
                w.name
            );
        }
    }
    let mut all_ok = true;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "min", "median", "max", "max/min", "iqr/med", "halves"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, def) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (first, second) = v.split_at(v.len() / 2);
            let (a, b) = (median(first), median(second));
            // How much worse the second half's median is than the first's.
            let worse = if def.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let ok = max / min <= MAX_OVER_MIN && worse.abs() <= def.bound;
            all_ok &= ok;
            println!(
                "{:<18} {:<20} {:>12.3} {:>12.3} {:>12.3} {:>8.3} {:>7.3} {:>+7.3}  {}",
                w.name,
                def.name,
                min,
                median(v),
                max,
                max / min,
                spread(v),
                worse,
                if ok { "repeats" } else { "NOISY" }
            );
        }
    }
    Ok(all_ok)
}
