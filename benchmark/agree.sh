#!/usr/bin/env bash
# Do two sets of runs of the same build agree within the benchmark's own
# bounds? Runs the full suite RUNS times per set, the sets interleaved
# (A B A B ...), every run with the same seed, and hands the result lines
# to `mib-benchmark --agree`, which prints each cell's difference against
# its bound and fails on any breach. See benchmark/README.md.
#
#   benchmark/agree.sh [RUNS (default 5)] [SEED (default 1)]
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
seed="${2:-1}"
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/mib-benchmark"

out=benchmark/out/agree
rm -rf "$out"
mkdir -p "$out"
for k in $(seq 1 "$runs"); do
    for set in A B; do
        for workload in solve-warm solve-cold wire-closed accel; do
            echo "agree: set $set run $k: $workload" >&2
            "$bin" --workload "$workload" --seed "$seed" \
                > "$out/${set}${k}_${workload}.json" 2> "$out/${set}${k}_${workload}.err"
        done
    done
done
echo "nproc: $(nproc)"
"$bin" --agree "$out"
