#!/usr/bin/env python3
"""Behaviour tests for scripts/layers.py (the layer guard).

Each case builds a small src/ tree in a temporary directory, runs the
guard on it and checks its exit code and the exact problems it reports.
The `repo_*` cases copy this repository's src/ and undo one step of the
layering (a forward declaration put back, a link dependency dropped or
added): the guard must report exactly what that step broke.

Usage: tests/tools/layers_test.py CASE [CASE...]   (no CASE: run all)
       tests/tools/layers_test.py --list            (case names, one a line;
                                                     ctest registers each)
"""
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
GUARD = REPO / "scripts" / "layers.py"


def lib(name, links=(), sources=("x.cc",)):
    """A src/<name>/CMakeLists.txt that builds skyferry_<name>."""
    text = f"add_library(skyferry_{name} STATIC\n" + "".join(f"  {s}\n" for s in sources) + ")\n"
    if links:
        text += (f"target_link_libraries(skyferry_{name} PUBLIC\n  "
                 + " ".join(f"skyferry_{d}" for d in links) + ")\n")
    return {f"src/{name}/CMakeLists.txt": text}


def guard_on(root):
    """Run the guard; return (exit code, set of reported problem lines)."""
    proc = subprocess.run([sys.executable, str(GUARD), str(root)],
                          capture_output=True, text=True, check=False)
    problems = {line for line in proc.stdout.splitlines()
                if line.startswith(("violation: ", "cycle: "))}
    return proc.returncode, problems


def run_guard(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return guard_on(root)


def expect(files, problems):
    code, got = run_guard(files)
    want = set(problems)
    assert got == want, f"problems {sorted(got)}, want {sorted(want)}"
    assert code == (1 if want else 0), f"exit code {code}"


def violation(path, how, lib, other):
    return f"violation: {path}: {how}, but skyferry_{lib} does not link skyferry_{other}"


# ---- synthetic trees --------------------------------------------------------

def case_declared_include_is_clean():
    expect({**lib("a", ["b"]), **lib("b"),
            "src/a/a.h": '#pragma once\n#include "b/b.h"\n',
            "src/b/b.h": "#pragma once\n"}, [])


def case_transitive_include_is_clean():
    expect({**lib("a", ["b"]), **lib("b", ["c"]), **lib("c"),
            "src/a/a.cc": '#include "c/c.h"\n',
            "src/c/c.h": "#pragma once\n"}, [])


def case_undeclared_include_is_violation():
    expect({**lib("a"), **lib("b"),
            "src/a/a.h": '#pragma once\n#include "b/b.h"\n',
            "src/b/b.h": "#pragma once\n"},
           [violation("src/a/a.h", 'includes "b/b.h"', "a", "b")])


def case_upward_include_is_violation():
    # b sits below a: a may include b, b may not include a.
    expect({**lib("a", ["b"]), **lib("b"),
            "src/a/a.h": "#pragma once\n",
            "src/b/b.cc": '#include "b/b.h"\n#include "a/a.h"\n',
            "src/b/b.h": "#pragma once\n"},
           [violation("src/b/b.cc", 'includes "a/a.h"', "b", "a")])


def case_upward_forward_declaration_is_violation():
    expect({**lib("a", ["b"]), **lib("b"),
            "src/b/b.h": "#pragma once\nnamespace skyferry::a {\nclass Service;\n}\n"},
           [violation("src/b/b.h", "opens namespace skyferry::a", "b", "a")])


def case_one_line_per_file_and_library():
    # An include and a forward declaration of the same library: one line.
    expect({**lib("a"), **lib("b"),
            "src/a/a.h": ('#pragma once\n#include "b/b.h"\n#include "b/c.h"\n'
                          "namespace skyferry::b {\nclass C;\n}\n")},
           [violation("src/a/a.h", 'includes "b/b.h"', "a", "b")])


def case_closing_namespace_comment_is_not_an_opening():
    expect({**lib("a"), **lib("b"),
            "src/b/b.cc": "namespace skyferry::b {\n}  // namespace skyferry::a\n"}, [])


def case_declared_namespace_is_clean():
    # A codec specialization in a library the includer links.
    expect({**lib("a", ["b"]), **lib("b"),
            "src/a/codec.h": ("#pragma once\nnamespace skyferry::b {\n"
                              "template <> struct C<int> {};\n}\n")}, [])


def case_non_library_names_are_ignored():
    expect({**lib("a"),
            "src/a/a.h": ('#pragma once\n#include "util.h"\n#include "vendor/lib.h"\n'
                          "#include <b/b.h>\nnamespace skyferry::detail {\n}\n")}, [])


def case_cycle_is_reported():
    expect({**lib("a", ["b"]), **lib("b", ["c"]), **lib("c", ["a"])},
           ["cycle: skyferry_a -> skyferry_b -> skyferry_c -> skyferry_a"])


def case_executable_links_are_not_library_links():
    # skyferry_a_tool links b; skyferry_a itself does not.
    expect({"src/a/CMakeLists.txt": ("add_library(skyferry_a STATIC\n  a.cc\n)\n"
                                     "add_executable(skyferry_a_tool main.cc)\n"
                                     "target_link_libraries(skyferry_a_tool PRIVATE skyferry_b)\n"),
            **lib("b"),
            "src/a/a.cc": '#include "b/b.h"\n'},
           [violation("src/a/a.cc", 'includes "b/b.h"', "a", "b")])


def case_non_library_dependencies_are_ignored():
    expect({"src/a/CMakeLists.txt": ("add_library(skyferry_a STATIC a.cc)\n"
                                     "target_link_libraries(skyferry_a PUBLIC Threads::Threads)\n"),
            "src/a/a.cc": "#include <thread>\n"}, [])


# ---- one layering step undone in a copy of this repository's src/ -----------

def copy_src(dst):
    shutil.copytree(REPO / "src", dst / "src",
                    ignore=shutil.ignore_patterns("*.md"))


def edit(path, old, new):
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def unlink(src, lib_name, dep):
    edit(src / lib_name / "CMakeLists.txt", f" skyferry_{dep}", "")


def on_repo_copy(change, problems):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_src(root)
        code, got = guard_on(root)
        assert (code, got) == (0, set()), f"copy not clean: {code} {sorted(got)}"
        change(root / "src")
        code, got = guard_on(root)
        want = set(problems)
        assert got == want, f"problems {sorted(got)}, want {sorted(want)}"
        assert code == 1, f"exit code {code}"


FORWARD_DECL = "namespace skyferry::policy {\nclass DecisionService;\n}\n\n"
CORE_NAMESPACE = "namespace skyferry::core {\n"
OPENS_POLICY = "opens namespace skyferry::policy"
PLANNER_DECL = violation("src/core/planner.h", OPENS_POLICY, "core", "policy")
REDECIDE_DECL = violation("src/core/redecide.h", OPENS_POLICY, "core", "policy")
FLEET_CHAOS = violation("src/fleet/engine.h", 'includes "fault/link_chaos.h"', "fleet", "fault")
LINK_CHAOS = violation("src/link/backend.h", 'includes "fault/link_chaos.h"', "link", "fault")
LINK_PLAN = violation("src/link/outage.h", 'includes "fault/fault_plan.h"', "link", "fault")


def case_repo_forward_declaration_readded():
    on_repo_copy(lambda src: edit(src / "core/planner.h", CORE_NAMESPACE,
                                  FORWARD_DECL + CORE_NAMESPACE),
                 [PLANNER_DECL])


def case_repo_link_without_fault():
    on_repo_copy(lambda src: unlink(src, "link", "fault"), [LINK_CHAOS, LINK_PLAN])


def case_repo_fault_linking_policy_is_a_cycle():
    on_repo_copy(lambda src: edit(src / "fault/CMakeLists.txt", "skyferry_core",
                                  "skyferry_policy skyferry_core"),
                 ["cycle: skyferry_fault -> skyferry_policy -> skyferry_link -> skyferry_fault"])


def parent_shape(src):
    """The layering before the planner and re-decision called the optimizer
    directly: fault linked policy, link and fleet left their fault
    dependency undeclared, and two core headers forward-declared
    policy::DecisionService."""
    edit(src / "fault/CMakeLists.txt", "skyferry_core", "skyferry_policy skyferry_core")
    unlink(src, "link", "fault")
    unlink(src, "fleet", "fault")
    for header in ("planner.h", "redecide.h"):
        edit(src / "core" / header, CORE_NAMESPACE, FORWARD_DECL + CORE_NAMESPACE)


def case_repo_parent_shape_has_five_violations():
    on_repo_copy(parent_shape, [PLANNER_DECL, REDECIDE_DECL, FLEET_CHAOS, LINK_CHAOS, LINK_PLAN])


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}


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
