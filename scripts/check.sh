#!/usr/bin/env bash
# Repository gate: formatting, lints and the full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --workspace (pedantic)"
# Pedantic pass: everything it reports is denied except the lints below,
# each of which fires somewhere in the workspace today. Vendored
# dependency stubs are excluded — they mirror external APIs and are held
# to the plain -D warnings bar above instead.
pedantic_allow=(
  # Getters and constructors all over the API; the attribute is noise.
  -A clippy::must_use_candidate
  -A clippy::return_self_not_must_use
  # Panics are invariant checks (poisoned locks, impossible states), not
  # caller contracts.
  -A clippy::missing_panics_doc
  # Counts become f64 for rates, means and models, far below 2^53.
  -A clippy::cast_precision_loss
  # Narrowing casts are range-checked by construction (wire u32 counts,
  # f64 -> u64 microseconds, lane indices).
  -A clippy::cast_possible_truncation
  # f64 -> u64 of quantities that are never negative.
  -A clippy::cast_sign_loss
  # `as` widening in kernels and tests; `From` adds nothing there.
  -A clippy::cast_lossless
  # Docs name math and paper terms (KKT, OSQP, rho) that are not code.
  -A clippy::doc_markdown
  # Numerical code keeps the paper's notation (P, q, A, l, u, x, y, z).
  -A clippy::many_single_char_names
  -A clippy::similar_names
  # Long single-purpose functions (ADMM loop, schedulers, report bins).
  -A clippy::too_many_lines
  # Bitwise equality is the contract the solver tests pin.
  -A clippy::float_cmp
  # Closures and `iter_mut()` loop heads state intent at these sites.
  -A clippy::redundant_closure_for_method_calls
  -A clippy::explicit_iter_loop
  -A clippy::semicolon_if_nothing_returned
  # Platform models keep `&self` for one model interface.
  -A clippy::unused_self
  # The SIMD kernel helpers must inline into their callers.
  -A clippy::inline_always
  # A constant declared next to its one use inside a long function.
  -A clippy::items_after_statements
  # A multiplier constant from the xorshift64* reference.
  -A clippy::unreadable_literal
)
cargo clippy --workspace --all-targets --exclude proptest --exclude rand \
  -- -D warnings -W clippy::pedantic "${pedantic_allow[@]}"

echo "==> cargo doc --workspace (deny warnings)"
# Broken or private intra-doc links and citation brackets read as links
# fail here. Vendored stubs are excluded, as for the pedantic pass.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand

echo "==> cargo test --workspace"
# Every crate's unit, integration and doc tests, the root package's
# suites (serve_soak, trace_pipeline, static_timing, zero_alloc,
# ...) among them.
cargo test --workspace -q

echo "==> serving stack (load smoke gate: in process and over loopback)"
# A few thousand requests in process and over real sockets in both loop
# modes: bitwise verification of sampled answers on every transport,
# explicit rate-limit sheds on the limited tenant, zero unexplained
# sheds, zero decode errors (all asserted inside the bin).
cargo run --release -q -p mib-bench --bin load_bench -- --smoke >/dev/null

echo "==> solver backends (ADMM/PDQP convergence gate)"
cargo run --release -q -p mib-bench --bin backend_bench -- --smoke >/dev/null

echo "==> SIMD kernels (bench schema smoke gate)"
# Every benched kernel runs at small sizes and the emitted JSON must
# validate.
cargo run --release -q -p mib-bench --bin kernel_bench -- --smoke >/dev/null

echo "==> static timing (predicted-vs-simulated smoke gate + checked-profile tests)"
# One instance per domain: every compiled program must be certified (the
# strict prediction accepts it), its statically predicted execution
# statistics must equal the simulator's, bitwise, and forced appends must
# stay at the committed baseline.
cargo run --release -q -p mib-bench --bin verify_schedules -- --smoke >/dev/null
# Re-run the cycle-accounting, certification-verdict, pending-window and
# reference-interpreter tests optimized but with debug assertions and
# overflow checks armed (the [profile.checked] build), over the full
# 120-program verify sample (MIB_TIMING_FULL); and the random permutations
# and SpMVs of proptest_invariants through the lane-mask builders.
MIB_TIMING_FULL=1 cargo test --profile checked --test static_timing --test proptest_timing \
  --test machine_reference --test proptest_verify --test pending_window \
  --test proptest_invariants -q
# The same build for mib-core's own unit tests: the literal fault-order
# and certification tests of the predictor.
cargo test --profile checked -p mib-core --lib -q
# And for mib-compiler's: the program cache's bitwise hit-equals-fresh
# tests and the pinned schedule digest over accel's 25 lowerings, with
# checked_schedule's debug-only packing cross-check and strict prediction
# armed on every schedule.
cargo test --profile checked -p mib-compiler --lib -q
# The same 25 lowerings' heap allocations per logical instruction, under
# the bound for builds that certify every schedule.
cargo test --profile checked --test zero_alloc -q lowering_allocates_per_kernel

echo "==> paper reports (all_experiments reproduces results/*.txt byte for byte)"
# Every figure and table is deterministic: regenerated in a scratch
# directory, each of the ten reports must equal its committed copy.
cargo build --release -q -p mib-bench --bins
reports="$(mktemp -d)"
trap 'rm -rf "$reports"' EXIT
(cd "$reports" && cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" \
  -p mib-bench --bin all_experiments >/dev/null 2>&1)
produced=0
for f in "$reports"/results/*.txt; do
  cmp "$f" "results/$(basename "$f")"
  produced=$((produced + 1))
done
if [ "$produced" -ne 10 ]; then
  echo "all_experiments wrote $produced reports, expected 10" >&2
  exit 1
fi

echo "==> tracing (trace_report reproduces results/trace_report.txt byte for byte)"
# Every field of the report is deterministic (no wall-clock values):
# regenerated in a scratch directory, it must equal the committed copy.
traces="$(mktemp -d)"
trap 'rm -rf "$reports" "$traces"' EXIT
(cd "$traces" && cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" \
  -p mib-bench --bin trace_report >/dev/null 2>&1)
cmp "$traces/results/trace_report.txt" results/trace_report.txt

echo "==> benchmark/ (its own tests + every workload once, briefly)"
# benchmark/ is a package of its own that reaches the workspace only
# through public items: this is what notices a public-API change that
# stops it compiling, or a workload whose checks no longer pass.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null

echo "==> benchmark regression gate (working tree vs HEAD baselines)"
# Diffs every results/BENCH_*.json committed at HEAD against the working
# tree under the rules of its spec in mib_bench::diff::DOCUMENTS (a
# document without one fails), with generous single-core tolerances:
# fails on lost runs/rows, large slowdowns, any rise in a backend run's
# iterations or PCG iterations, lost convergence, obs overhead >= 5%, or
# any rise in a program's slots or predicted cycles, a stall, or a lost
# timing agreement.
scripts/bench_diff.sh

echo "All checks passed."
