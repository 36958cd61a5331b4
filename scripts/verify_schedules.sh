#!/usr/bin/env bash
# Static certification gate: predict every benchmark-suite schedule (five
# domains, both KKT variants) under the strict hazard policy and fail if
# any is rejected or its prediction differs from the simulator.
#
# Pass --full to certify all 20 instances per domain instead of the
# default three-instance sample.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run --release -p mib-bench --bin verify_schedules"
cargo run --release -p mib-bench --bin verify_schedules -- "$@"
