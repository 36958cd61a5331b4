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
# Pedantic pass with a curated allowlist: the denied subset must stay
# clean; the allowed lints are stylistic choices this codebase makes
# deliberately (see DESIGN.md). Vendored dependency stubs are excluded —
# they mirror external APIs and are held to the plain -D warnings bar
# above instead.
cargo clippy --workspace --all-targets \
  --exclude criterion --exclude proptest --exclude rand \
  -- -D warnings -W clippy::pedantic \
  -A clippy::cast_precision_loss \
  -A clippy::cast_possible_truncation \
  -A clippy::cast_sign_loss \
  -A clippy::cast_possible_wrap \
  -A clippy::cast_lossless \
  -A clippy::similar_names \
  -A clippy::many_single_char_names \
  -A clippy::too_many_lines \
  -A clippy::too_many_arguments \
  -A clippy::missing_panics_doc \
  -A clippy::missing_errors_doc \
  -A clippy::module_name_repetitions \
  -A clippy::doc_markdown \
  -A clippy::must_use_candidate \
  -A clippy::return_self_not_must_use \
  -A clippy::float_cmp \
  -A clippy::needless_range_loop \
  -A clippy::unreadable_literal \
  -A clippy::items_after_statements \
  -A clippy::inline_always \
  -A clippy::struct_excessive_bools \
  -A clippy::wildcard_imports \
  -A clippy::match_same_arms \
  -A clippy::if_not_else \
  -A clippy::single_match_else \
  -A clippy::redundant_closure_for_method_calls \
  -A clippy::explicit_iter_loop \
  -A clippy::uninlined_format_args \
  -A clippy::manual_assert \
  -A clippy::range_plus_one \
  -A clippy::unnecessary_wraps \
  -A clippy::unused_self \
  -A clippy::fn_params_excessive_bools \
  -A clippy::large_types_passed_by_value \
  -A clippy::trivially_copy_pass_by_ref \
  -A clippy::semicolon_if_nothing_returned \
  -A clippy::ptr_arg \
  -A clippy::implicit_hasher

echo "==> cargo test --workspace"
# Every crate's unit, integration and doc tests, the root package's
# suites (serve_soak, trace_pipeline, timeline_attribution, zero_alloc,
# ...) among them.
cargo test --workspace -q

echo "==> serving runtime (smoke trace)"
cargo run --release -q -p mib-bench --bin serve_bench -- --smoke >/dev/null

echo "==> network front-end (loopback load smoke gate)"
# A few thousand requests over real sockets in both loop modes: bitwise
# verification of sampled answers, explicit rate-limit sheds on the
# limited tenant, zero unexplained sheds, zero decode errors (all
# asserted inside the bin).
cargo run --release -q -p mib-bench --bin load_bench -- --smoke >/dev/null

echo "==> solver backends (ADMM/PDQP convergence gate)"
cargo run --release -q -p mib-bench --bin backend_bench -- --smoke >/dev/null

echo "==> SIMD kernels (bench schema smoke gate)"
# Every benched kernel runs at small sizes and the emitted JSON must
# validate.
cargo run --release -q -p mib-bench --bin kernel_bench -- --smoke >/dev/null

echo "==> static timing (predicted-vs-simulated smoke gate + checked-profile tests)"
# One instance per domain: every compiled program's statically predicted
# cycles and attribution must equal the simulator's, bitwise, and forced
# appends must stay at the committed baseline.
cargo run --release -q -p mib-bench --bin verify_schedules -- --smoke >/dev/null
# Re-run the cycle-accounting tests optimized but with debug assertions
# and overflow checks armed (the [profile.checked] build).
cargo test --profile checked --test static_timing --test proptest_timing -q

echo "==> tracing (trace report smoke gate)"
cargo run --release -q -p mib-bench --bin trace_report -- --smoke >/dev/null

echo "==> benchmark/ (its own tests + every workload once, briefly)"
# benchmark/ is a package of its own that reaches the workspace only
# through public items: this is what notices a public-API change that
# stops it compiling, or a workload whose checks no longer pass.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null

echo "==> benchmark regression gate (working tree vs HEAD baselines)"
# Diffs results/BENCH_serve.json and results/BENCH_kernels.json against
# the copies committed at HEAD with generous single-core tolerances;
# fails on lost runs/rows, large slowdowns, or obs overhead >= 5%.
scripts/bench_diff.sh

echo "All checks passed."
