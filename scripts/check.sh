#!/usr/bin/env bash
# Full verification: normal build + the fast test tier, then an
# ASan+UBSan build + tests, then a TSan build running the
# concurrency-sensitive suites (experiment engine, Monte-Carlo, RNG
# forking) to catch data races in the parallel trial fan-out.
#
# Usage: scripts/check.sh [--all] [--golden] [--bench] [--no-sanitize] [--no-tsan]
#
# Test tiers (ctest labels): fast (default, < ~30 s), slow
# (integration/e2e), golden (paper-fidelity regression).
#
#   default    normal + sanitized builds, `ctest -L fast`
#   --golden   additionally run the golden gate: ctest -L golden (its
#              golden.<bench> entries run scripts/golden_regress.sh
#              --check against golden/, one bench each)
#   --bench    additionally run the benchmark-regression gate
#              (scripts/bench_regress.sh --check) when the committed
#              BENCH_link_sim.json baseline exists — benchmarks are
#              wall-clock sensitive, so they never gate by default
#   --all      everything: full ctest (fast+slow+golden), golden gate,
#              bench gate
#
# Build trees:
#   build/           normal (RelWithDebInfo by default via CMakeLists)
#   build-sanitize/  -DSKYFERRY_SANITIZE=ON (address,undefined)
#   build-tsan/      -DSKYFERRY_SANITIZE=thread
set -euo pipefail

cd "$(dirname "$0")/.."

run_sanitize=1
run_tsan=1
run_bench=0
run_golden=0
run_all=0
for arg in "$@"; do
  case "$arg" in
    --no-sanitize) run_sanitize=0 ;;
    --no-tsan) run_tsan=0 ;;
    --bench) run_bench=1 ;;
    --golden) run_golden=1 ;;
    --all) run_all=1; run_bench=1; run_golden=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 4)

# Default tier: the fast label. --all drops the filter (fast+slow+golden).
ctest_filter=(-L fast)
if [[ "$run_all" == "1" ]]; then
  ctest_filter=()
fi

echo "== normal build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs" "${ctest_filter[@]}"

# --all already ran the golden-labeled ctest tier above.
if [[ "$run_golden" == "1" && "$run_all" != "1" ]]; then
  echo "== golden paper-fidelity gate =="
  ctest --test-dir build --output-on-failure -j "$jobs" -L golden
fi

if [[ "$run_bench" == "1" ]]; then
  if [[ -f BENCH_link_sim.json ]]; then
    echo "== benchmark regression check =="
    scripts/bench_regress.sh --check
  else
    echo "== benchmark regression check skipped (no BENCH_link_sim.json) =="
  fi
fi

if [[ "$run_sanitize" == "1" ]]; then
  echo "== sanitized build (ASan+UBSan) =="
  cmake -B build-sanitize -S . -DSKYFERRY_SANITIZE=ON >/dev/null
  cmake --build build-sanitize -j "$jobs"
  ctest --test-dir build-sanitize --output-on-failure -j "$jobs" "${ctest_filter[@]}"
fi

if [[ "$run_tsan" == "1" ]]; then
  echo "== thread-sanitized build (TSan, engine + Monte-Carlo + fleet tests) =="
  cmake -B build-tsan -S . -DSKYFERRY_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs" --target exp_tests fault_tests sim_tests ctrl_tests core_tests net_tests policy_tests fleet_tests link_tests
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'ThreadPool|Sweep|Runner|Cli|MonteCarlo|MissionTrial|Fork|Rng|Checkpoint|Codec|Resilience|ReDecision|Mismatch|RetryBudget|Compiler|DecisionService|Fleet|MultiLink|BackendEquivalence|Chaos|OutageExtreme'
fi

echo "== all checks passed =="
