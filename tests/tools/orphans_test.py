#!/usr/bin/env python3
"""Behaviour tests for scripts/orphans.py (the orphan guard).

Each case builds a small repository tree in a temporary directory, runs
the guard on it and checks its exit code and the exact set of files it
reports. The `readded_*` cases copy this repository's program sources
and put one deleted module back (header, source and a test that
includes it): the guard must report exactly that module's files.

Usage: tests/tools/orphans_test.py CASE [CASE...]   (no CASE: run all)
       tests/tools/orphans_test.py --list            (case names, one a line;
                                                      ctest registers each)
"""
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
GUARD = REPO / "scripts" / "orphans.py"

# The smallest tree the guard accepts: both tool mains and one live
# module they reach.
BASE = {
    "src/policy/compile_main.cc": '#include "policy/compiler.h"\n',
    "src/policy/decide_main.cc": '#include "policy/compiler.h"\n',
    "src/policy/compiler.h": "#pragma once\n",
    "src/policy/compiler.cc": '#include "policy/compiler.h"\n',
}


def run_guard(files):
    """Write BASE + files under a fresh root; return (exit code, orphans)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in {**BASE, **files}.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return guard_on(root)


def guard_on(root):
    proc = subprocess.run([sys.executable, str(GUARD), str(root)],
                          capture_output=True, text=True, check=False)
    orphans = {line.split(": ", 1)[1] for line in proc.stdout.splitlines()
               if line.startswith("orphan: ")}
    return proc.returncode, orphans


def expect(files, orphans):
    code, got = run_guard(files)
    want = set(orphans)
    assert got == want, f"orphans {sorted(got)}, want {sorted(want)}"
    assert code == (1 if want else 0), f"exit code {code}"


# ---- the walk ---------------------------------------------------------------

def case_minimal_tree_is_clean():
    expect({}, [])


def case_module_only_its_test_includes_is_orphan():
    expect({
        "src/stats/hist.h": "#pragma once\n",
        "src/stats/hist.cc": '#include "stats/hist.h"\n',
        "tests/stats/hist_test.cc": '#include "stats/hist.h"\n',
    }, ["src/stats/hist.h", "src/stats/hist.cc"])


def case_bench_is_an_entry_point():
    expect({
        "bench/fig.cc": '#include "core/u.h"\n',
        "src/core/u.h": "#pragma once\n",
        "src/core/u.cc": '#include "core/u.h"\n',
    }, [])


def case_examples_cpp_is_an_entry_point():
    expect({
        "examples/demo.cpp": '#include "geo/g.h"\n',
        "src/geo/g.h": "#pragma once\n",
    }, [])


def case_perfbench_src_is_an_entry_point():
    expect({
        "perfbench/src/main.cc": '#include "fleet/e.h"\n',
        "src/fleet/e.h": "#pragma once\n",
    }, [])


def case_perfbench_outside_src_is_not_an_entry_point():
    expect({
        "perfbench/tools/helper.cc": '#include "fleet/e.h"\n',
        "src/fleet/e.h": "#pragma once\n",
    }, ["src/fleet/e.h"])


def case_tool_mains_are_entry_points():
    # compiler.h is reached only through the two mains in BASE.
    expect({"src/policy/other.h": '#include "policy/compiler.h"\n'},
           ["src/policy/other.h"])


def case_transitive_chain_is_live():
    expect({
        "bench/b.cc": '#include "a/a.h"\n',
        "src/a/a.h": '#pragma once\n#include "b/b.h"\n',
        "src/b/b.h": '#pragma once\n#include "c/c.h"\n',
        "src/c/c.h": "#pragma once\n",
    }, [])


def case_include_cycle_terminates():
    expect({
        "bench/b.cc": '#include "a/a.h"\n',
        "src/a/a.h": '#pragma once\n#include "b/b.h"\n',
        "src/b/b.h": '#pragma once\n#include "a/a.h"\n',
        "src/c/c.h": '#pragma once\n#include "c/d.h"\n',
        "src/c/d.h": '#pragma once\n#include "c/c.h"\n',
    }, ["src/c/c.h", "src/c/d.h"])


def case_cc_joins_through_its_first_include():
    # A .cc that implements a live header is live, even from another
    # directory, and so is what it includes.
    expect({
        "bench/b.cc": '#include "core/planner.h"\n',
        "src/core/planner.h": "#pragma once\n",
        "src/impl/planner.cc": '#include "core/planner.h"\n#include "impl/detail.h"\n',
        "src/impl/detail.h": "#pragma once\n",
    }, [])


def case_later_include_does_not_make_a_cc_live():
    expect({
        "bench/b.cc": '#include "core/live.h"\n',
        "src/core/live.h": "#pragma once\n",
        "src/core/dead.h": "#pragma once\n",
        "src/core/dead.cc": '#include "core/dead.h"\n#include "core/live.h"\n',
    }, ["src/core/dead.h", "src/core/dead.cc"])


def case_header_used_only_by_an_orphan_cc_is_orphan():
    expect({
        "src/x/x.h": "#pragma once\n",
        "src/x/x.cc": '#include "x/x.h"\n#include "x/helper.h"\n',
        "src/x/helper.h": "#pragma once\n",
    }, ["src/x/x.h", "src/x/x.cc", "src/x/helper.h"])


def case_cc_without_quoted_includes_is_orphan():
    expect({"src/x/lonely.cc": "#include <vector>\nint f() { return 1; }\n"},
           ["src/x/lonely.cc"])


def case_angle_bracket_includes_are_not_edges():
    expect({
        "bench/b.cc": "#include <core/u.h>\n",
        "src/core/u.h": "#pragma once\n",
    }, ["src/core/u.h"])


def case_include_resolves_next_to_includer_first():
    # "util.h" from src/a/a.h is src/a/util.h, not src/util.h.
    expect({
        "bench/b.cc": '#include "a/a.h"\n',
        "src/a/a.h": '#pragma once\n#include "util.h"\n',
        "src/a/util.h": "#pragma once\n",
        "src/util.h": "#pragma once\n",
    }, ["src/util.h"])


def case_spaced_include_directive_is_an_edge():
    expect({
        "bench/b.cc": '  #  include   "core/u.h"\n',
        "src/core/u.h": "#pragma once\n",
    }, [])


def case_only_h_and_cc_under_src_are_checked():
    expect({
        "src/core/CMakeLists.txt": "add_library(x)\n",
        "src/core/notes.md": "# notes\n",
        "src/core/gen.inc": "1,\n",
        "bench/unused.h": "#pragma once\n",
    }, [])


# ---- one deleted module put back into this repository's sources --------------

READDED = {
    "sensitivity": ("core/sensitivity", "core/optimizer.h"),
    "throughput_io": ("core/throughput_io", "core/throughput_model.h"),
    "estimator": ("ctrl/estimator", "geo/gps.h"),
    "meter": ("net/meter", "net/flow.h"),
    "antenna": ("phy/antenna", "phy/pathloss.h"),
    "tworay": ("phy/tworay", "phy/pathloss.h"),
    "histogram": ("stats/histogram", "stats/descriptive.h"),
    "wind": ("uav/wind", "uav/uav.h"),
    "csv_reader": ("io/csv_reader", "io/csv.h"),
    "queue": ("net/queue", "net/flow.h"),
}


def copy_program_sources(dst):
    for d in ("src", "bench", "examples", "perfbench/src"):
        shutil.copytree(REPO / d, dst / d,
                        ignore=shutil.ignore_patterns("CMakeLists.txt", "*.md"))


def readd(stem, dep):
    """Put module `stem` back (it includes live `dep`); expect exactly it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_program_sources(root)
        code, got = guard_on(root)
        assert (code, got) == (0, set()), f"copy not clean: {code} {sorted(got)}"
        header, source = f"src/{stem}.h", f"src/{stem}.cc"
        assert not (root / header).exists(), f"{header} exists in the tree"
        (root / header).write_text(f'#pragma once\n#include "{dep}"\n')
        (root / source).write_text(f'#include "{stem}.h"\n#include "{dep}"\n')
        test = root / "tests" / f"{stem}_test.cc"
        test.parent.mkdir(parents=True)
        test.write_text(f'#include "{stem}.h"\n')
        code, got = guard_on(root)
        assert got == {header, source}, f"orphans {sorted(got)}"
        assert code == 1, f"exit code {code}"


def make_readded_case(stem, dep):
    return lambda: readd(stem, dep)


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}
for key, (stem, dep) in READDED.items():
    CASES[f"readded_{key}"] = make_readded_case(stem, dep)


def case_readded_runner_header():
    # A header-only engine (no .cc) is reported on its own.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_program_sources(root)
        (root / "src/exp/runner.h").write_text('#pragma once\n#include "exp/sweep.h"\n')
        code, got = guard_on(root)
        assert got == {"src/exp/runner.h"}, f"orphans {sorted(got)}"
        assert code == 1, f"exit code {code}"


CASES["readded_runner_header"] = case_readded_runner_header


def main(argv):
    if argv == ["--list"]:
        print("\n".join(sorted(CASES)))
        return 0
    names = argv or sorted(CASES)
    failed = 0
    for name in names:
        if name not in CASES:
            print(f"unknown case: {name}", file=sys.stderr)
            return 2
        try:
            CASES[name]()
            print(f"[ok] {name}")
        except AssertionError as e:
            failed += 1
            print(f"[FAILED] {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
