#!/usr/bin/env bash
# Benchmark regression gate: diff the working-tree benchmark documents
# against the copies committed at a baseline revision (default HEAD).
#
#   scripts/bench_diff.sh [baseline-rev]
#
# Copies every results/BENCH_*.json of the baseline revision into a temp
# directory and hands it to bench_diff, which compares each with the
# working-tree copy under the rules in crates/bench/src/diff.rs. Exits 0
# when every tracked metric is within tolerance, 1 on a regression, 2
# when inputs are unreadable or a document has no rules. A document
# absent from the baseline revision is skipped — there is nothing to
# regress against.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
if ! git rev-parse --verify --quiet "${rev}^{commit}" >/dev/null; then
    echo "bench_diff: ${rev} is not a revision" >&2
    exit 2
fi
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

found=0
while IFS= read -r path; do
    case "$path" in
        results/BENCH_*.json)
            git show "$rev:$path" > "$tmpdir/${path#results/}"
            found=$((found + 1))
            ;;
    esac
done < <(git ls-tree --name-only "$rev" results/)

if [ "$found" -eq 0 ]; then
    echo "bench_diff: no baseline benchmark documents at ${rev}; nothing to diff" >&2
    exit 0
fi

cargo run --quiet --release -p mib-bench --bin bench_diff -- "$tmpdir"
