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
# A baseline recorded on one host says little about a run on another, so
# --ab REV compares against a revision instead: it exports REV (git
# archive) into a temporary tree, builds its micro_benchmarks there, and
# runs REV's binary and this tree's interleaved in one run (the order
# alternates per round). The tolerance then applies to the change/REV
# ratio of the medians; every ceiling_ns and speedups floor still applies
# to this tree's medians. --update and --ab append a line (commit, nproc,
# medians) to BENCH_history.jsonl, so results keep a trajectory. Each
# line also names the measured code by the tree hashes of src/ and
# bench/ on disk: they equal `git rev-parse <commit>:src` (and :bench)
# for the commit that holds that code, even when it was measured before
# being committed.
#
# Usage:
#   scripts/bench_regress.sh --update     # (re)record BENCH_link_sim.json
#   scripts/bench_regress.sh --check      # compare against the baseline
#   scripts/bench_regress.sh --ab REV     # A/B against REV on this host
#   scripts/bench_regress.sh              # run + print, no gate
#
# Options:
#   --build-dir DIR    build tree containing bench/micro_benchmarks [build]
#   --baseline FILE    baseline path [BENCH_link_sim.json]
#   --tolerance PCT    allowed slowdown per counter in --check/--ab [25]
#   --min-time SEC     --benchmark_min_time per benchmark [0.05]
#   --repetitions N    --benchmark_repetitions (median is kept) [3];
#                      with --ab, interleaved rounds per side
set -euo pipefail

cd "$(dirname "$0")/.."

mode=run
build_dir=build
baseline=BENCH_link_sim.json
history=BENCH_history.jsonl
tolerance=25
min_time=0.05
repetitions=3
ab_rev=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --update) mode=update ;;
    --check) mode=check ;;
    --ab) mode=ab; ab_rev=$2; shift ;;
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

raw_dir=$(mktemp -d)
cleanup() {
  rm -rf "$raw_dir"
  if [[ -n "${ab_dir:-}" ]]; then rm -rf "$ab_dir"; fi
}
trap cleanup EXIT

bench_args=(--benchmark_format=json --benchmark_min_time="$min_time")

# The history log is not code: appending to it leaves the tree clean.
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [[ "$commit" != unknown && -n "$(git status --porcelain --untracked-files=no \
        -- . ":(exclude)$history" 2>/dev/null)" ]]; then
  commit="$commit-dirty"
fi
# Tree hash of directory $1 as it is on disk (tracked and new files),
# built in a scratch index so the real one is left alone.
disk_tree() {
  local idx
  idx=$(mktemp)
  cp "$(git rev-parse --git-path index)" "$idx"
  GIT_INDEX_FILE=$idx git add -A -- "$1" && GIT_INDEX_FILE=$idx git write-tree --prefix="$1/"
  rm -f "$idx"
}
src_tree=$(disk_tree src 2>/dev/null || echo unknown)
bench_tree=$(disk_tree bench 2>/dev/null || echo unknown)
parent=""

if [[ "$mode" == ab ]]; then
  parent=$(git rev-parse --verify --short=12 "$ab_rev^{commit}") || {
    echo "error: --ab: unknown revision '$ab_rev'" >&2
    exit 2
  }
  ab_dir=$(mktemp -d)
  mkdir -p "$ab_dir/src"
  git archive "$parent" | tar -x -C "$ab_dir/src"
  # Build REV exactly as this tree was configured.
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)
  echo "bench_regress: building $parent micro_benchmarks in $ab_dir"
  cmake -S "$ab_dir/src" -B "$ab_dir/build" ${build_type:+-DCMAKE_BUILD_TYPE="$build_type"} \
        > "$ab_dir/configure.log" 2>&1 || { tail -20 "$ab_dir/configure.log"; exit 2; }
  cmake --build "$ab_dir/build" --target micro_benchmarks -j "$(nproc)" \
        > "$ab_dir/build.log" 2>&1 || { tail -20 "$ab_dir/build.log"; exit 2; }
  ab_bin="$ab_dir/build/bench/micro_benchmarks"
  # Interleave the two binaries, alternating which one goes first.
  for ((r = 1; r <= repetitions; ++r)); do
    if ((r % 2 == 1)); then order=(a b); else order=(b a); fi
    for side in "${order[@]}"; do
      if [[ "$side" == a ]]; then exe=$ab_bin; else exe=$bin; fi
      echo "bench_regress: round $r/$repetitions: $([[ $side == a ]] && echo "$parent" || echo "$commit")"
      "$exe" "${bench_args[@]}" --benchmark_repetitions=1 > "$raw_dir/${side}_$r.json"
    done
  done
else
  "$bin" "${bench_args[@]}" \
         --benchmark_repetitions="$repetitions" \
         --benchmark_report_aggregates_only=true > "$raw_dir/b_1.json"
fi

MODE="$mode" BASELINE="$baseline" HISTORY="$history" TOLERANCE="$tolerance" \
COMMIT="$commit" SRC_TREE="$src_tree" BENCH_TREE="$bench_tree" PARENT="$parent" \
NPROC="$(nproc)" MIN_TIME="$min_time" REPETITIONS="$repetitions" python3 - "$raw_dir" <<'PY'
import datetime, glob, json, os, statistics, sys

# Required numerator/denominator speedups, checked whenever both
# counters are present:
#   - kPerMpdu / kAggregate saturated link-second >= 10x (PR 3)
SPEEDUPS = [
    ("aggregate link-second", "BM_LinkSimSecondPerMpdu", "BM_LinkSimSecondAggregate", 10.0),
]
# Absolute real-time ceilings [ns], enforced in --update, --check and
# --ab: these are latency contracts, not regression baselines.
# BM_PolicyDecideBatch decides 1024 queries per iteration; its ceiling is
# the >= 1e6 decisions/s service contract (<= 1 us/decision amortized).
# BM_FleetStep1k advances 1000 saturated UAVs by one 50 ms sweep, and
# times the idle-sweep skip; the 25 us ceiling keeps ~2000x
# headroom on the faster-than-real-time contract while sitting ~4x
# above the measured median.
CEILING_NS = {
    "BM_ReDecision": 10_000.0,
    "BM_PolicyDecideBatch": 1_024_000.0,
    "BM_FleetStep1k": 25_000.0,
    # One fresh 160-mission fleet_wifi-shaped fleet run over 40 s of
    # simulated time (800 sweeps with rebuilds and A-MPDU exchanges,
    # ~13 ms); the ceiling is ~4.5x the recorded median.
    "BM_FleetWifiMix": 60_000_000.0,
    # A joint (link, d) decision over four backends: four single-link
    # searches over one shared grid column, then joint searches only for
    # the links whose utility bound reaches the best found (~50 us at
    # d0 = 1500 m; ~25-40 us in the fleet's spawn shape, where all three
    # losers are pruned). It must stay well under a spawn tick so fleets
    # decide exactly, no table needed. A re-election runs every link's
    # joint search and finalizes each pinned election (~45-65 us). The
    # ceilings are ~4x the slower of two recorded A/B medians.
    "BM_MultiLinkDecide": 240_000.0,
    "BM_MultiLinkDecideFleet": 160_000.0,
    "BM_MultiLinkReelect": 260_000.0,
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
    # perfbench decide_stream's 12285-knot table compiled on one thread
    # (~45 ms), and one of its exact fallbacks past the table's d0
    # (~4.5 us); core::optimize prunes both grid stages to ~37 of 256
    # points. Both ceilings are ~4x the recorded median.
    "BM_PolicyCompile": 180_000_000.0,
    "BM_OptimizeFallback": 18_000.0,
}
# Counters whose medians are machine-speed-sensitive: recorded in the
# baseline for reference, gated only by their CEILING_NS contract.
RELATIVE_EXEMPT = {"BM_EventQueue"}

mode = os.environ["MODE"]
baseline_path = os.environ["BASELINE"]
history_path = os.environ["HISTORY"]
tolerance = float(os.environ["TOLERANCE"])
raw_dir = sys.argv[1]

# Normalize: median real_time per benchmark, in nanoseconds, over every
# run of one side (b = this tree, a = the --ab revision).
unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
def medians(side):
    samples = {}
    for path in sorted(glob.glob(os.path.join(raw_dir, f"{side}_*.json"))):
        with open(path) as f:
            raw = json.load(f)
        for b in raw.get("benchmarks", []):
            if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
                continue
            if b.get("error_occurred"):
                continue
            name = b["run_name"] if "run_name" in b else b["name"]
            samples.setdefault(name, []).append(
                b["real_time"] * unit_ns.get(b.get("time_unit", "ns"), 1.0))
    return {k: statistics.median(v) for k, v in samples.items()}

current = medians("b")
if not current:
    print("error: no benchmark results parsed", file=sys.stderr)
    sys.exit(2)
parent = medians("a") if mode == "ab" else {}

def speedups(times):
    out = []
    for label, num, den, floor in SPEEDUPS:
        if num in times and den in times and times[den] > 0:
            out.append((label, times[num] / times[den], floor))
    return out

def ceiling_failures(times, ceilings, ref=None, ref_name=""):
    out = []
    for name, cap in sorted(ceilings.items()):
        if name not in times:
            out.append(f"{name}: ceiling counter missing from current run")
        elif times[name] > cap:
            msg = f"{name}: {times[name]:.0f} ns over absolute ceiling {cap:.0f} ns"
            # A ceiling the reference revision blows too points at the host.
            if ref and ref.get(name, 0.0) > cap:
                msg += f" ({ref_name} also over: {ref[name]:.0f} ns)"
            out.append(msg)
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

def contracts(base):
    """The baseline's ceilings and speedup floors."""
    return base.get("ceiling_ns", CEILING_NS), base.get("speedups", SPEEDUPS)

def append_history(entry):
    entry = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "commit": os.environ["COMMIT"], "nproc": int(os.environ["NPROC"]),
             "src_tree": os.environ["SRC_TREE"], "bench_tree": os.environ["BENCH_TREE"],
             "min_time_s": float(os.environ["MIN_TIME"]),
             "repetitions": int(os.environ["REPETITIONS"]), **entry}
    with open(history_path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"history appended: {history_path}")

def rounded(times):
    return {k: round(v, 1) for k, v in sorted(times.items())}

def fail(failures):
    if failures:
        print("\nbench_regress: FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        sys.exit(1)

if mode != "ab":
    print(f"{'benchmark':44s} {'real_time':>14s}")
    for name in sorted(current):
        print(f"{name:44s} {current[name]:>11.0f} ns")
    for label, sp, floor in speedups(current):
        print(f"{f'speedup ({label})':44s} {sp:>10.1f} x  (floor {floor:.0f}x)")

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
        "benchmarks": rounded(current),
    }
    with open(baseline_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {baseline_path} ({len(current)} counters)")
    append_history({"kind": "update", "medians_ns": rounded(current)})
elif mode == "check":
    with open(baseline_path) as f:
        base = json.load(f)
    base_times = base["benchmarks"]
    tol = 1.0 + float(base.get("tolerance_pct", tolerance)) / 100.0
    ceilings, pairs = contracts(base)
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
    failures += speedup_failures(current, pairs)
    failures += ceiling_failures(current, ceilings)
    fail(failures)
    print(f"\nbench_regress: OK ({len(base_times)} counters within {tol:.2f}x)")
elif mode == "ab":
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except FileNotFoundError:
        base = {}
    tol = 1.0 + float(base.get("tolerance_pct", tolerance)) / 100.0
    ceilings, pairs = contracts(base)
    rev = os.environ["PARENT"]
    failures = []
    print(f"{'counter':44s} {rev[:12]:>14s} {'change':>14s} {'change/rev':>10s}")
    for name in sorted(current):
        if name not in parent:
            print(f"{name:44s} {'-':>14s} {current[name]:>11.0f} ns {'new':>10s}")
            continue
        ratio = current[name] / parent[name] if parent[name] > 0 else float("inf")
        exempt = name in RELATIVE_EXEMPT
        flag = "  ceiling-gated" if exempt else ("  FAIL" if ratio > tol else "")
        print(f"{name:44s} {parent[name]:>11.0f} ns {current[name]:>11.0f} ns {ratio:>9.2f}x{flag}")
        if ratio > tol and not exempt:
            failures.append(f"{name}: {ratio:.2f}x {rev} (tolerance {tol:.2f}x)")
    for name in sorted(set(parent) - set(current)):
        print(f"{name:44s} {parent[name]:>11.0f} ns {'-':>14s} {'gone':>10s}")
    for label, sp, floor in speedups(current):
        print(f"{f'speedup ({label})':44s} {sp:>10.1f} x  (floor {floor:.0f}x)")
    failures += speedup_failures(current, pairs)
    failures += ceiling_failures(current, ceilings, parent, rev)
    append_history({"kind": "ab", "parent": rev, "medians_ns": rounded(current),
                    "parent_medians_ns": rounded(parent)})
    fail(failures)
    print(f"\nbench_regress: OK ({len(current)} counters, change/{rev} within {tol:.2f}x)")
PY
