#!/usr/bin/env bash
# Build the server binaries (root workspace) and the load generator (this
# package) into one target directory, then run the load generator.
#
#   bash benchmark/run.sh --workload replicated_paced --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --selfcheck
#
# Everything the run writes (durable dirs, span files) goes under the target
# directory, which is inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p cora-serve --bin cora_serve_node --bin cora_serve_agg 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/cora_loadgen" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --work-dir "$CARGO_TARGET_DIR/loadgen-work" \
    "$@"
