#!/usr/bin/env bash
# Serving-runtime soak: repeats the multi-threaded soak test to shake out
# scheduling-dependent bugs, then a sustained load_bench run in process
# and over real sockets.
#
# Usage: scripts/soak.sh [iterations]   (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

iterations="${1:-5}"

echo "==> building (release)"
cargo build --release -q -p mib-bench --bin load_bench
cargo test --test serve_soak --no-run -q

echo "==> serve_soak x ${iterations}"
for i in $(seq 1 "${iterations}"); do
  echo "--- iteration ${i}/${iterations}"
  cargo test --test serve_soak -q
done

echo "==> load soak (in process, then both socket loop modes)"
# ~20k requests in process, ~20k closed-loop + 2k open-loop over the
# mib-net front-end, with sampled bitwise verification every 200th
# answer on each. Catches scheduling-dependent bugs (demux races,
# writer ordering, shed/retry loops) that single-shot tests miss. Writes
# nothing to results/ (smoke mode).
cargo run --release -q -p mib-bench --bin load_bench -- \
  --smoke --requests 20000 --clients 4 --sample-every 200 >/dev/null

echo "Soak passed (${iterations} iterations + load soak)."
