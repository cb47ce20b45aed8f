#!/usr/bin/env bash
# Per-crate line counts for ROADMAP aim 2 ("each PR reports crates/ line
# count"): every .rs line under the crate, and the src/ lines that are not
# unit tests (everything above each file's first `#[cfg(test)]`).
#
#   bash scripts/loc.sh            # the working tree
#   bash scripts/loc.sh <dir>      # another checkout of this repo
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
printf '%-8s %8s %12s\n' crate all_rs src_nontest
for crate in crates/*/; do
    all=$(find "$crate" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    nontest=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        nontest=$((nontest + n))
    done < <(find "${crate}src" -name '*.rs' -print0)
    printf '%-8s %8d %12d\n' "$(basename "$crate")" "$all" "$nontest"
done
