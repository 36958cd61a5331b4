#!/usr/bin/env bash
# Tracing demo: regenerate the per-domain Chrome traces and the committed
# deterministic summary.
#
# Artifacts:
#   results/trace_report.txt     deterministic summary (committed)
#   results/<domain>.trace.json  Chrome trace-event JSON (gitignored);
#                                load into Perfetto or chrome://tracing
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run --release -p mib-bench --bin trace_report"
cargo run --release -q -p mib-bench --bin trace_report

echo "trace demo complete; open results/<domain>.trace.json in Perfetto."
