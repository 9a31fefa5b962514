#!/usr/bin/env python3
"""SkyFerry benchmark driver.

Builds perfbench/ (CMake, RelWithDebInfo) into .bench_build/perfbench,
runs the self-tests after every rebuild, runs one workload, echoes the
program's report and prints one JSON result as the last line:

  python3 perfbench/run.py --workload fleet_wifi --seed 1 --seconds 10 --trace 0

With --trace 0 the JSON carries the `end_to_end` metrics of
BENCHMARK.json, with --trace 1 its `per_layer` metrics (a layer the
workload does not exercise reads 0). The exit code is nonzero when the
build, a self-test or any output check fails.

Other modes:
  --self-test                      build, then run only the self-tests
  --repeat N [--workload W|all]    N runs on seeds seed..seed+N-1; prints
                                   each metric's median, quartiles and
                                   quartile spread / median
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "skyferry_perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def run_logged(cmd, logfile, timeout):
    with open(logfile, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(logfile) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"'{' '.join(cmd)}' failed (exit {proc.returncode}):\n{tail}")


def build():
    """Configure + build; returns True when the binary changed."""
    os.makedirs(BUILD, exist_ok=True)
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    run_logged(["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
               os.path.join(BUILD, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", "skyferry_perfbench", "-j", jobs],
               os.path.join(BUILD, "build.log"), BUILD_TIMEOUT_S)
    if not os.path.exists(BINARY):
        raise BenchError("build produced no binary")
    return os.path.getmtime(BINARY) != before


def self_test(force=False):
    stamp = os.path.join(BUILD, "selftest.ok")
    mtime = str(os.path.getmtime(BINARY))
    if not force and os.path.exists(stamp) and open(stamp).read() == mtime:
        return
    proc = subprocess.run([BINARY, "--self-test"], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    log(proc.stdout.strip())
    if proc.returncode != 0:
        raise BenchError("self-test failed")
    with open(stamp, "w") as f:
        f.write(mtime)


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def parse_report(text):
    metrics, result, header = {}, None, {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
        elif parts[:2] == ["#", "perfbench"]:
            header = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    if result is None:
        raise BenchError("program printed no result line")
    return metrics, result, header


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """One run; returns (result dict, every metric the program printed)."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload '{workload}' (choose from {', '.join(names)})")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.stderr:
        log(proc.stderr.strip())
    metrics, result, header = parse_report(proc.stdout)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                raise BenchError(f"{m['name']}: program reports unit {unit}, "
                                 f"BENCHMARK.json says {m['unit']}")
        elif trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise BenchError(f"program did not report end-to-end metric {m['name']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}

    stamp = {"commit": source_commit(), "nproc": os.cpu_count(),
             "threads": int(header.get("threads", 0)), "copies": int(header.get("copies", 1)),
             "seed": seed,
             "build_type": header.get("build", "unknown"), "workload": workload,
             "trace": int(trace), "seconds": seconds}
    if echo:
        print("# stamp " + json.dumps(stamp, sort_keys=True))
    correct = proc.returncode == 0 and result.get("correct") == "1"
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": out}, metrics


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat(spec, workloads, seed, seconds, trace, n):
    summary, all_ok = {}, True
    for w in workloads:
        runs = []
        for i in range(n):
            res, printed = run_once(spec, w, seed + i, seconds, trace, echo=False)
            all_ok = all_ok and res["correct"]
            runs.append(printed)
            log(f"{w} seed {seed + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))
        print(f"== {w}: {n} runs, seeds {seed}..{seed + n - 1}, {seconds} s each")
        print(f"   {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        summary[w] = {}
        for name in sorted(runs[0]):
            values = [r[name][0] for r in runs if name in r]
            if len(values) < 2:
                continue
            q1, med, q3 = spread(values)
            rel = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
            print(f"   {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f}")
    print(json.dumps({"correct": all_ok, "repeat": summary}))
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
        rebuilt = build()
        self_test(force=rebuilt or args.self_test)
        if args.self_test:
            return 0
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if seconds == int(seconds):
            seconds = int(seconds)
        if args.repeat > 0:
            names = [w["name"] for w in spec["workloads"]]
            wl = names if args.workload in (None, "all") else [args.workload]
            return repeat(spec, wl, args.seed, seconds, args.trace == 1, args.repeat)
        if not args.workload:
            raise BenchError("--workload is required")
        res, _ = run_once(spec, args.workload, args.seed, seconds, args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
