#!/usr/bin/env bash
# Benchmark-regression harness for the link-simulation hot path.
#
# Runs bench/micro_benchmarks with --benchmark_format=json, normalizes
# the output into a stable {name -> median real_time ns} map, and either
# records it as the committed baseline or fails on >TOLERANCE% regression
# of any baselined counter. The baseline also pins the headline claims:
# SPEEDUPS requires counter ratios (kAggregate vs kPerMpdu link-second),
# and CEILING_NS pins
# absolute budgets for latency-contract counters (a relative gate would
# let a slow-but-stable baseline hide a blown contract — BM_ReDecision
# must fit in a probe tick, so it gets a hard 10 us ceiling).
#
# Usage:
#   scripts/bench_regress.sh --update     # (re)record BENCH_link_sim.json
#   scripts/bench_regress.sh --check      # compare against the baseline
#   scripts/bench_regress.sh              # run + print, no gate
#
# Options:
#   --build-dir DIR    build tree containing bench/micro_benchmarks [build]
#   --baseline FILE    baseline path [BENCH_link_sim.json]
#   --tolerance PCT    allowed slowdown per counter in --check [25]
#   --min-time SEC     --benchmark_min_time per benchmark [0.05]
#   --repetitions N    --benchmark_repetitions (median is kept) [3]
set -euo pipefail

cd "$(dirname "$0")/.."

mode=run
build_dir=build
baseline=BENCH_link_sim.json
tolerance=25
min_time=0.05
repetitions=3

while [[ $# -gt 0 ]]; do
  case "$1" in
    --update) mode=update ;;
    --check) mode=check ;;
    --build-dir) build_dir=$2; shift ;;
    --baseline) baseline=$2; shift ;;
    --tolerance) tolerance=$2; shift ;;
    --min-time) min_time=$2; shift ;;
    --repetitions) repetitions=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

bin="$build_dir/bench/micro_benchmarks"
if [[ ! -x "$bin" ]]; then
  echo "error: $bin not built — run: cmake -B $build_dir -S . && cmake --build $build_dir --target micro_benchmarks" >&2
  exit 2
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

"$bin" --benchmark_format=json \
       --benchmark_min_time="$min_time" \
       --benchmark_repetitions="$repetitions" \
       --benchmark_report_aggregates_only=true > "$raw"

MODE="$mode" BASELINE="$baseline" TOLERANCE="$tolerance" python3 - "$raw" <<'PY'
import json, os, sys

# Required numerator/denominator speedups, checked whenever both
# counters are present:
#   - kPerMpdu / kAggregate saturated link-second >= 10x (PR 3)
SPEEDUPS = [
    ("aggregate link-second", "BM_LinkSimSecondPerMpdu", "BM_LinkSimSecondAggregate", 10.0),
]
# Absolute real-time ceilings [ns], enforced in --update and --check:
# these are latency contracts, not regression baselines.
# BM_PolicyDecideBatch decides 1024 queries per iteration; its ceiling is
# the >= 1e6 decisions/s service contract (<= 1 us/decision amortized).
# BM_FleetStep1k advances 1000 saturated UAVs by one 50 ms sweep, and
# mostly times the idle-sweep skip; the 25 us ceiling keeps ~2000x
# headroom on the faster-than-real-time contract while sitting ~4x
# above the measured median.
CEILING_NS = {
    "BM_ReDecision": 10_000.0,
    "BM_PolicyDecideBatch": 1_024_000.0,
    "BM_FleetStep1k": 25_000.0,
    # A joint (link, d) decision over four backends runs eight exact
    # optimizer searches (4 single + 4 joint) over one shared grid
    # column plus the dominance nets (~0.18 ms); it must stay well under
    # a spawn tick so fleets decide exactly, no table needed. A
    # re-election finalizes every link's pinned election from the same
    # solve. Both ceilings are ~4x the recorded median.
    "BM_MultiLinkDecide": 700_000.0,
    "BM_MultiLinkReelect": 700_000.0,
    # The line protocol around BM_PolicyDecideBatch's table path: a
    # 64-query begin/end batch through LineServer (~1.9 us per line,
    # parse + decide + reply), and one exact double formatted for a
    # reply (~0.25 us, four per reply). Both ceilings are ~4x the
    # recorded median.
    "BM_LineServerBatch": 480_000.0,
    "BM_JsonNumber": 1_000.0,
    # BM_EventQueue churns a binary heap through the allocator; its
    # median swings ~1.5x between otherwise-identical machines (cache
    # and allocator layout, not code), so it is exempt from the
    # relative gate below and pinned by a ~4x-median ceiling instead.
    "BM_EventQueue": 250_000.0,
    # One 4096-packet selective-repeat transfer (window 64, 10 % loss,
    # ~4550 transmissions): the sender's bookkeeping is O(window) per
    # packet, ~0.27 ms in all. One harsh-plan mission trial that stops at
    # its verdict (~52 us). Both ceilings are ~4x the recorded median.
    "BM_ArqTransfer": 1_100_000.0,
    "BM_MonteCarloTrial": 210_000.0,
}
# Counters whose medians are machine-speed-sensitive: recorded in the
# baseline for reference, gated only by their CEILING_NS contract.
RELATIVE_EXEMPT = {"BM_EventQueue"}

mode = os.environ["MODE"]
baseline_path = os.environ["BASELINE"]
tolerance = float(os.environ["TOLERANCE"])

with open(sys.argv[1]) as f:
    raw = json.load(f)

# Normalize: median real_time per benchmark, in nanoseconds.
unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
current = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
        continue
    name = b["run_name"] if "run_name" in b else b["name"]
    current[name] = b["real_time"] * unit_ns.get(b.get("time_unit", "ns"), 1.0)

if not current:
    print("error: no benchmark results parsed", file=sys.stderr)
    sys.exit(2)

def speedups(times):
    out = []
    for label, num, den, floor in SPEEDUPS:
        if num in times and den in times and times[den] > 0:
            out.append((label, times[num] / times[den], floor))
    return out

print(f"{'benchmark':44s} {'real_time':>14s}")
for name in sorted(current):
    print(f"{name:44s} {current[name]:>11.0f} ns")
sps = speedups(current)
for label, sp, floor in sps:
    print(f"{f'speedup ({label})':44s} {sp:>10.1f} x  (floor {floor:.0f}x)")

def ceiling_failures(times, ceilings):
    out = []
    for name, cap in sorted(ceilings.items()):
        if name not in times:
            out.append(f"{name}: ceiling counter missing from current run")
        elif times[name] > cap:
            out.append(f"{name}: {times[name]:.0f} ns over absolute ceiling {cap:.0f} ns")
    return out

def speedup_failures(times, pairs):
    out = []
    for label, num, den, floor in pairs:
        if num not in times or den not in times:
            out.append(f"speedup ({label}): counter {num} or {den} missing")
        elif times[den] <= 0 or times[num] / times[den] < float(floor):
            got = times[num] / times[den] if times[den] > 0 else float("inf")
            out.append(f"speedup ({label}): {got:.1f}x < required {float(floor):.1f}x")
    return out

if mode == "update":
    # Refuse to bake a blown latency or speedup contract into the baseline.
    over = ceiling_failures(current, CEILING_NS) + speedup_failures(current, SPEEDUPS)
    if over:
        print("bench_regress: refusing to record baseline over a contract")
        for f_ in over:
            print(f"  - {f_}")
        sys.exit(1)
    doc = {
        "_comment": "scripts/bench_regress.sh baseline: median real_time [ns] of "
                    "bench/micro_benchmarks. Regenerate with scripts/bench_regress.sh --update. "
                    "ceiling_ns entries are absolute latency contracts and speedups entries "
                    "[label, numerator, denominator, floor] required ratios, both checked on "
                    "every run.",
        "tolerance_pct": tolerance,
        "speedups": [list(s) for s in SPEEDUPS],
        "ceiling_ns": CEILING_NS,
        "benchmarks": {k: round(v, 1) for k, v in sorted(current.items())},
    }
    with open(baseline_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {baseline_path} ({len(current)} counters)")
elif mode == "check":
    with open(baseline_path) as f:
        base = json.load(f)
    base_times = base["benchmarks"]
    tol = 1.0 + float(base.get("tolerance_pct", tolerance)) / 100.0
    failures = []
    print(f"\n{'counter':44s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for name, b_ns in sorted(base_times.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        ratio = current[name] / b_ns if b_ns > 0 else float("inf")
        exempt = name in RELATIVE_EXEMPT
        flag = "  ceiling-gated" if exempt else ("  FAIL" if ratio > tol else "")
        print(f"{name:44s} {b_ns:>9.0f} ns {current[name]:>9.0f} ns {ratio:>6.2f}x{flag}")
        if ratio > tol and not exempt:
            failures.append(f"{name}: {ratio:.2f}x baseline (tolerance {tol:.2f}x)")
    failures += speedup_failures(current, base.get("speedups", SPEEDUPS))
    failures += ceiling_failures(current, base.get("ceiling_ns", CEILING_NS))
    if failures:
        print("\nbench_regress: FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        sys.exit(1)
    print(f"\nbench_regress: OK ({len(base_times)} counters within {tol:.2f}x)")
PY
