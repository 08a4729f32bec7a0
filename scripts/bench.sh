#!/usr/bin/env bash
# Wall-clock benchmarks -> results/bench_<exp>.json.
#
# Two layers:
#   1. the harness benches (per-operation timings; each group appends one
#      JSON line via BENCH_JSON — see crates/bench/src/harness.rs);
#   2. end-to-end experiment timings for the perf-sensitive experiments
#      (e1, e7), reported as the minimum of $SAMPLES runs.
#
# BENCH_SAMPLES controls harness sample counts; SAMPLES (default 3) the
# end-to-end repetitions.
#
# `bench.sh --check` is the regression gate: it reruns the engines,
# batch-throughput, MIS-algorithm, exponentiation and routing benches into
# scratch files and fails if any `clique_all_to_all_round` or
# `sharded_round_frames` median regresses >25% against the pinned
# results/bench_engines.json, any `batch_throughput` median regresses >25%
# against results/bench_batch_throughput.json, any `mis_algorithms` median
# regresses >25% against results/bench_mis_algorithms.json, any
# `gather_balls` median regresses >25% against
# results/bench_exponentiation.json, or any `lenzen_routing` median
# regresses >25% against results/bench_routing.json (see
# crates/bench/src/regress.rs). Opt into it from CI via BENCH_CHECK=1
# scripts/tier1.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

SAMPLES="${SAMPLES:-3}"

if [ "${1:-}" = "--check" ]; then
  cargo build --release --workspace
  fresh="$(mktemp)"
  fresh_batch="$(mktemp)"
  fresh_mis="$(mktemp)"
  fresh_exp="$(mktemp)"
  fresh_routing="$(mktemp)"
  trap 'rm -f "$fresh" "$fresh_batch" "$fresh_mis" "$fresh_exp" "$fresh_routing"' EXIT
  BENCH_JSON="$fresh" cargo bench -p cc-mis-bench --bench engines
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_engines.json "$fresh" clique_all_to_all_round 25
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_engines.json "$fresh" sharded_round_frames 25
  BENCH_JSON="$fresh_batch" cargo bench -p cc-mis-bench --bench batch_throughput
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_batch_throughput.json "$fresh_batch" batch_throughput 25
  BENCH_JSON="$fresh_mis" cargo bench -p cc-mis-bench --bench mis_algorithms
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_mis_algorithms.json "$fresh_mis" mis_algorithms 25
  BENCH_JSON="$fresh_exp" cargo bench -p cc-mis-bench --bench exponentiation
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_exponentiation.json "$fresh_exp" gather_balls 25
  BENCH_JSON="$fresh_routing" cargo bench -p cc-mis-bench --bench routing
  cargo run -q --release -p cc-mis-bench --bin bench_check -- \
    results/bench_routing.json "$fresh_routing" lenzen_routing 25
  exit 0
fi

cargo build --release --workspace

for bench in engines mis_algorithms batch_throughput exponentiation routing; do
  out="results/bench_${bench}.json"
  : > "$out"
  # Absolute path: cargo runs bench binaries from the crate directory.
  BENCH_JSON="$PWD/$out" cargo bench -p cc-mis-bench --bench "$bench"
done

for exp in e1_headline e7_exponentiation; do
  bin="target/release/${exp}"
  best=""
  for _ in $(seq "$SAMPLES"); do
    t0=$(date +%s%N)
    "$bin" > /dev/null
    dt=$(( $(date +%s%N) - t0 ))
    if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
  done
  printf '{"group":"%s","results":[{"name":"%s/end_to_end","samples":%d,"min_ns":%d}]}\n' \
    "$exp" "$exp" "$SAMPLES" "$best" > "results/bench_${exp}.json"
  echo "results/bench_${exp}.json: min ${best} ns over ${SAMPLES} runs"
done
