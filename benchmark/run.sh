#!/usr/bin/env bash
# Builds the benchmark and runs it: each workload in its own process,
# never two at once. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Without --workload all four run in turn, one result line (JSON) each on
# stdout; tables for people go to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/mib-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
for workload in solve-warm solve-cold wire-closed accel; do
    "$bin" --workload "$workload" "$@"
done
