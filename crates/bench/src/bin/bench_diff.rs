//! Compare a fresh criterion-shim JSONL summary against a baseline summary
//! and fail (exit code 1) on regressions beyond a tolerance.
//!
//! Used by CI as a performance gate on the correlated insert paths and the
//! server ingest path, against the parent commit benched in the same job:
//!
//! ```text
//! cargo run -p cora-bench --release --bin bench_diff -- \
//!     parent-bench.jsonl bench-summary.jsonl \
//!     --filter update_throughput/correlated_f2 \
//!     --filter update_throughput/correlated_f0 --max-regression 0.25
//! ```
//!
//! Each input line is one `{"bench":"...","median_ns":...}` object as written
//! by the criterion shim when `CRITERION_JSON` is set. `--filter` may be
//! passed multiple times; a bench participates in the gate when its name
//! contains **any** of the filter substrings, and everything else is
//! reported informationally. Benches present in only one file are reported
//! but never fail the gate (new benches appear, old ones get renamed).
//!
//! When both files carry a `min_ns` for a bench, the fastest samples are
//! printed alongside the medians. The gate itself always compares medians;
//! the min column exists because RTT-shaped benches (`serve_latency/*`)
//! have medians dominated by scheduler jitter while their min tracks the
//! actual protocol cost.
//!
//! Absolute nanoseconds are machine-dependent, so comparing a baseline
//! recorded elsewhere against a different runner class would gate on
//! hardware, not code. `--anchor SUBSTR` fixes that: each gated bench is
//! normalized by the anchor bench's median *from the same file*, so the
//! gate compares the ratio `gated / anchor` across files and machine speed
//! cancels to first order. Pick an anchor whose code rarely changes (CI
//! uses the exact linear-storage insert baseline).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The value part after `"key":` in a flat JSON object line, with any
/// whitespace around the colon skipped (the shim writes compact JSON, but
/// hand-edited or pretty-printed baselines should parse too).
fn json_value_start<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut rest = &line[line.find(&needle)? + needle.len()..];
    rest = rest.trim_start();
    rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

/// Extract the string value of `"key": "..."` from a flat JSON object line.
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let rest = json_value_start(line, key)?.strip_prefix('"')?;
    // Names written by the shim escape only '"' and '\'; undo that here.
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extract the numeric value of `"key": 123` from a flat JSON object line.
fn json_number_field(line: &str, key: &str) -> Option<f64> {
    let rest = json_value_start(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One bench's summarized timings from a shim JSONL line.
#[derive(Debug, Clone, Copy)]
struct BenchStat {
    median_ns: f64,
    /// Fastest sample, when the line carries one. The gate always compares
    /// medians, but for RTT-shaped benches (`serve_latency/*`) the median
    /// soaks up scheduler jitter while the min tracks the protocol cost, so
    /// it is reported alongside for eyeballing.
    min_ns: Option<f64>,
}

/// Parse a criterion-shim JSONL file into `bench name -> stats`. The shim
/// appends, so a name can repeat across runs; the **last** occurrence wins
/// (most recent run).
fn parse_summary(path: &str) -> Result<BTreeMap<String, BenchStat>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (Some(bench), Some(median_ns)) = (
            json_string_field(line, "bench"),
            json_number_field(line, "median_ns"),
        ) else {
            return Err(format!("malformed summary line in {path}: {line}"));
        };
        let min_ns = json_number_field(line, "min_ns");
        out.insert(bench, BenchStat { median_ns, min_ns });
    }
    Ok(out)
}

struct Options {
    baseline: String,
    fresh: String,
    /// Gate substrings (a bench is gated when it matches any of them).
    filters: Vec<String>,
    max_regression: f64,
    anchor: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut max_regression = 0.25f64;
    let mut anchor = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" if i + 1 < args.len() => {
                filters.push(args[i + 1].clone());
                i += 1;
            }
            "--max-regression" if i + 1 < args.len() => {
                max_regression = args[i + 1]
                    .parse()
                    .map_err(|e| format!("bad --max-regression: {e}"))?;
                i += 1;
            }
            "--anchor" if i + 1 < args.len() => {
                anchor = Some(args[i + 1].clone());
                i += 1;
            }
            other if !other.starts_with("--") => positional.push(other.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    if positional.len() != 2 {
        return Err("usage: bench_diff <baseline.jsonl> <fresh.jsonl> [--filter SUBSTR]... [--max-regression FRAC] [--anchor SUBSTR]".into());
    }
    if filters.is_empty() {
        filters.push(String::from("update_throughput/correlated_f2"));
    }
    Ok(Options {
        baseline: positional.remove(0),
        fresh: positional.remove(0),
        filters,
        max_regression,
        anchor,
    })
}

/// The median of the unique bench matching `needle` in `summary`, for anchor
/// normalization. Errors when the match is missing or ambiguous.
fn anchor_median(
    summary: &BTreeMap<String, BenchStat>,
    needle: &str,
    file: &str,
) -> Result<f64, String> {
    let matches: Vec<(&String, &BenchStat)> =
        summary.iter().filter(|(name, _)| name.contains(needle)).collect();
    match matches.as_slice() {
        [(_, stat)] if stat.median_ns > 0.0 => Ok(stat.median_ns),
        [] => Err(format!("anchor '{needle}' not found in {file}")),
        [(_, _)] => Err(format!("anchor '{needle}' has a non-positive median in {file}")),
        _ => Err(format!(
            "anchor '{needle}' is ambiguous in {file}: {} matches",
            matches.len()
        )),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, fresh) = match (parse_summary(&opts.baseline), parse_summary(&opts.fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    // With an anchor, gated regressions are measured on the machine-
    // normalized ratio `median / anchor_median` within each file.
    let norms = match &opts.anchor {
        Some(needle) => {
            let base = anchor_median(&baseline, needle, &opts.baseline);
            let fresh_norm = anchor_median(&fresh, needle, &opts.fresh);
            match (base, fresh_norm) {
                (Ok(b), Ok(f)) => Some((b, f)),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("bench_diff: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    println!(
        "# bench_diff: {} vs {} (gate: '{}' > +{:.0}%{})",
        opts.baseline,
        opts.fresh,
        opts.filters.join("' | '"),
        opts.max_regression * 100.0,
        match &opts.anchor {
            Some(a) => format!(", normalized by anchor '{a}'"),
            None => String::new(),
        }
    );
    let mut failures = 0usize;
    let mut gated = 0usize;
    // Gated benches per filter: every filter must match at least one bench
    // present in both files, or the gate for that group is silently vacuous.
    let mut gated_per_filter = vec![0usize; opts.filters.len()];
    for (bench, &fresh_stat) in &fresh {
        let fresh_ns = fresh_stat.median_ns;
        let Some(&base_stat) = baseline.get(bench) else {
            println!("{bench:<60} NEW     {fresh_ns:>14.0} ns");
            continue;
        };
        let base_ns = base_stat.median_ns;
        let mut in_gate = false;
        for (slot, filter) in gated_per_filter.iter_mut().zip(&opts.filters) {
            if bench.contains(filter.as_str()) {
                *slot += 1;
                in_gate = true;
            }
        }
        let delta = match (in_gate, norms) {
            (true, Some((base_anchor, fresh_anchor))) => {
                (fresh_ns / fresh_anchor) / (base_ns / base_anchor) - 1.0
            }
            _ => (fresh_ns - base_ns) / base_ns,
        };
        let mut marker = if in_gate { "gate" } else { "    " }.to_string();
        if in_gate {
            gated += 1;
            if delta > opts.max_regression {
                failures += 1;
                marker = "FAIL".to_string();
            }
        }
        // Medians drive the gate; mins ride along so jitter-dominated rows
        // (RTT benches) can be judged by their floor instead of their median.
        let min_col = match (base_stat.min_ns, fresh_stat.min_ns) {
            (Some(b), Some(f)) => format!("  [min {b:>12.0} -> {f:>12.0} ns]"),
            _ => String::new(),
        };
        println!(
            "{bench:<60} {marker}  {base_ns:>14.0} -> {fresh_ns:>14.0} ns  ({:+.1}%){min_col}",
            delta * 100.0
        );
    }
    for bench in baseline.keys() {
        if !fresh.contains_key(bench) {
            println!("{bench:<60} GONE");
        }
    }
    let mut vacuous = false;
    for (filter, &count) in opts.filters.iter().zip(&gated_per_filter) {
        if count == 0 {
            eprintln!(
                "bench_diff: no bench matching '{filter}' present in both files — \
                 that gate group is vacuous (renamed or removed bench?)"
            );
            vacuous = true;
        }
    }
    if vacuous {
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        eprintln!(
            "bench_diff: {failures} bench(es) regressed more than {:.0}%",
            opts.max_regression * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("# gate passed: {gated} bench(es) within tolerance");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_handles_shim_lines() {
        let line = r#"{"bench":"update_throughput/correlated_f2/uniform","median_ns":32500000,"min_ns":31000000,"max_ns":40000000,"throughput_per_s":615384.6}"#;
        assert_eq!(
            json_string_field(line, "bench").unwrap(),
            "update_throughput/correlated_f2/uniform"
        );
        assert_eq!(json_number_field(line, "median_ns").unwrap(), 32_500_000.0);
        assert_eq!(json_number_field(line, "min_ns").unwrap(), 31_000_000.0);
        assert_eq!(json_number_field(line, "throughput_per_s").unwrap(), 615_384.6);
        // Escaped quotes/backslashes round-trip.
        let escaped = r#"{"bench":"a\"b\\c","median_ns":1}"#;
        assert_eq!(json_string_field(escaped, "bench").unwrap(), "a\"b\\c");
    }

    #[test]
    fn anchor_normalization_cancels_machine_speed() {
        // A "fresh" machine that is uniformly 2x slower: raw deltas are
        // +100%, but the anchored ratio is unchanged.
        let stat = |median_ns: f64| BenchStat { median_ns, min_ns: None };
        let base: BTreeMap<String, BenchStat> = [
            ("update_throughput/correlated_f2/uniform".to_string(), stat(30.0e6)),
            ("update_throughput/exact_baseline/uniform".to_string(), stat(4.0e6)),
        ]
        .into_iter()
        .collect();
        let anchor = anchor_median(&base, "exact_baseline/uniform", "base").unwrap();
        assert_eq!(anchor, 4.0e6);
        let slow_anchor = anchor_median(
            &base
                .iter()
                .map(|(k, v)| (k.clone(), stat(v.median_ns * 2.0)))
                .collect(),
            "exact_baseline/uniform",
            "fresh",
        )
        .unwrap();
        let ratio_delta = ((30.0e6 * 2.0) / slow_anchor) / (30.0e6 / anchor) - 1.0;
        assert!(ratio_delta.abs() < 1e-12);
        // Missing and ambiguous anchors are rejected.
        assert!(anchor_median(&base, "nope", "base").is_err());
        assert!(anchor_median(&base, "update_throughput", "base").is_err());
    }

    #[test]
    fn last_occurrence_wins_when_file_was_appended_to() {
        let dir = std::env::temp_dir().join(format!("bench_diff_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("appended.jsonl");
        std::fs::write(
            &path,
            "{\"bench\":\"g/a\",\"median_ns\":100}\n{\"bench\":\"g/a\",\"median_ns\":200,\"min_ns\":150}\n",
        )
        .unwrap();
        let parsed = parse_summary(path.to_str().unwrap()).unwrap();
        assert_eq!(parsed["g/a"].median_ns, 200.0);
        assert_eq!(parsed["g/a"].min_ns, Some(150.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
