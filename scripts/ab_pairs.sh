#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark, and the table a
# performance PR reports: per end-to-end metric each side's runs, median,
# quartiles and pairwise wins, plus every run's `failed` / `correct`.
#
#   bash scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> [seed]
#
# Both arguments are exported trees of this repo (`git archive` or
# `git clone`, not the tree you are editing while it runs). Each side builds
# into its own `<checkout>/target`; the side that goes first alternates per
# pair. This only *calls* `benchmark/run.sh --trace 0` at the run length
# BENCHMARK.json declares; raw result lines are kept in the file named on
# the last line of output. The first line names the machine (nproc, CPU
# model, kernel, start time).
set -euo pipefail
if [[ $# -lt 4 || $# -gt 5 ]]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=${5:-}
raw=$(mktemp "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
# Rows from different box classes must never be compared raw: the table's
# header names the box it was measured on.
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
machine="nproc $(nproc), cpu ${cpu:-unknown}, kernel $(uname -r), started $(date -u +%Y-%m-%dT%H:%M:%SZ)"

seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")

run_side() { # <label> <checkout> <pair>
    local line
    line=$(CARGO_TARGET_DIR="$2/target" bash "$2/benchmark/run.sh" \
        --workload "$workload" --seconds "$seconds" --trace 0 ${seed:+--seed "$seed"} | tail -n 1)
    printf '%s\t%s\t%s\n' "$1" "$3" "$line" >>"$raw"
    echo "pair $3 $1 done" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

python3 - "$raw" "$change/BENCHMARK.json" "$workload" "${seed:-default}" "$machine" <<'PY'
import json, statistics, sys

raw, spec, workload, seed, machine = sys.argv[1:6]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
runs = {"parent": {}, "change": {}}
for row in open(raw):
    side, pair, line = row.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = json.loads(line)
pairs = sorted(runs["parent"])


def summary(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


print(f"machine: {machine}")
print(f"workload {workload}, seed {seed}, {len(pairs)} alternating pairs (odd pairs ran the parent first)")
for name, direction in better.items():
    side_values = {
        side: [runs[side][p]["metrics"][name]["value"] for p in pairs] for side in runs
    }
    sign = 1 if direction == "lower" else -1
    wins = sum(
        sign * c < sign * p for p, c in zip(side_values["parent"], side_values["change"])
    )
    ties = sum(p == c for p, c in zip(side_values["parent"], side_values["change"]))
    print(f"\n{name} ({direction} is better): change wins {wins}/{len(pairs)}, ties {ties}")
    for side in ("parent", "change"):
        listed = " ".join(f"{v:.6g}" for v in side_values[side])
        print(f"  {side}  median [q1, q3] {summary(side_values[side])}  runs {listed}")
print()
for side in ("parent", "change"):
    failed = " ".join(f'{runs[side][p]["failed"]}/{runs[side][p]["attempted"]}' for p in pairs)
    correct = all(runs[side][p]["correct"] for p in pairs)
    print(f"{side}  failed/attempted {failed}  correct {'all true' if correct else 'NOT ALL TRUE'}")
print(f"raw lines: {raw}")
PY
