#!/usr/bin/env bash
# Tier-1 gate: offline build, the full test suite (the benchmark's too), a
# lint-clean tree, and a conform-clean tree (cc-mis-conform, the in-tree
# model-invariant linter).
# Everything must pass before a change lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --workspace --all-targets
cargo test --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark (perfbench/, a Cargo workspace of its own) tests that its
# timing adapters leave outcomes, ledgers and trace bytes identical.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Conformance lint, archiving the SARIF log for CI annotation tooling.
# Exit 3 means an error-severity finding (P1 broken pragma, R16 pool leak,
# R17 snapshot-parity break, R21 determinism taint, R22 snapshot-format
# drift) — state corruption, called out explicitly. --timings is captured
# so the gate reports the persistent cache's hit rate.
mkdir -p target
conform_status=0
cargo run -q -p cc-mis-conform -- --workspace --timings --sarif target/conform.sarif \
  2> target/conform-timings.txt || conform_status=$?
cat target/conform-timings.txt >&2
cache_line=$(grep -o 'cache .*' target/conform-timings.txt || true)
if [ -n "$cache_line" ]; then
  echo "tier1: conform $cache_line"
fi
if [ "$conform_status" = "3" ]; then
  echo "tier1: FAILED — error-severity conform finding (see target/conform.sarif)" >&2
  exit 3
elif [ "$conform_status" != "0" ]; then
  echo "tier1: FAILED — conform findings (see target/conform.sarif)" >&2
  exit "$conform_status"
fi

# Opt-in perf gate: BENCH_CHECK=1 reruns the engines, batch-throughput and
# MIS-algorithm benches and fails if any gated median regresses >25% vs its
# pinned results/bench_*.json (kept opt-in: wall-clock gates are too noisy
# for shared CI runners, but useful before re-pinning).
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  scripts/bench.sh --check
fi

echo "tier1: OK"
