#!/usr/bin/env bash
# Benchmark regression gate: diff the working-tree benchmark documents
# against the copies committed at a baseline revision (default HEAD).
#
#   scripts/bench_diff.sh [baseline-rev]
#
# Exits 0 when every tracked metric is within tolerance, 1 on a
# regression, 2 when inputs are unreadable (see crates/bench/src/diff.rs
# for the per-metric rules). A benchmark file absent from the baseline
# revision is skipped — there is nothing to regress against.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

args=()
for doc in serve kernels backends; do
    if git cat-file -e "$rev:results/BENCH_${doc}.json" 2>/dev/null; then
        git show "$rev:results/BENCH_${doc}.json" > "$tmpdir/BENCH_${doc}.json"
        args+=("--baseline-${doc}" "$tmpdir/BENCH_${doc}.json")
    else
        echo "bench_diff: no results/BENCH_${doc}.json at ${rev}; skipping" >&2
    fi
done

if [ "${#args[@]}" -eq 0 ]; then
    echo "bench_diff: no baseline benchmark documents at ${rev}; nothing to diff" >&2
    exit 0
fi

cargo run --quiet --release -p mib-bench --bin bench_diff -- "${args[@]}"
