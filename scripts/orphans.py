#!/usr/bin/env python3
"""Orphan guard: fail on any src/ file that no program reaches.

Walks quoted #include edges from the non-test entry points (bench/,
examples/, perfbench/src/ and the two tool mains under src/policy/).
A src/ .cc is live when the header named by its *first* quoted include
is live (its interface, even when that header sits in another
directory); that is how every .cc joins the walk. Tests are not entry
points, so a module that only its own test includes is reported.

Usage: scripts/orphans.py [REPO_ROOT]    (exit 0 = no orphans)
"""
import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def includes(path):
    return INCLUDE.findall(path.read_text(encoding="utf-8", errors="replace"))


def resolve(name, including, src):
    """A quoted include resolves next to its includer first, then under src/."""
    for base in (including.parent, src):
        cand = (base / name).resolve()
        if cand.is_file():
            return cand
    return None


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    src = root / "src"

    roots = [src / "policy" / "compile_main.cc", src / "policy" / "decide_main.cc"]
    for d in ("bench", "examples", "perfbench/src"):
        roots += [p for p in sorted((root / d).rglob("*")) if p.suffix in SOURCE_SUFFIXES]

    src_files = sorted(p.resolve() for p in src.rglob("*") if p.suffix in {".h", ".cc"})
    # .cc -> the header its first quoted include names (its interface).
    interface = {}
    for cc in (p for p in src_files if p.suffix == ".cc"):
        first = includes(cc)
        if first:
            interface[cc] = resolve(first[0], cc, src)

    live = set()
    todo = [p.resolve() for p in roots]
    while todo:
        f = todo.pop()
        if f in live:
            continue
        live.add(f)
        for name in includes(f):
            dep = resolve(name, f, src)
            if dep is not None and dep not in live:
                todo.append(dep)
        if not todo:
            todo = [cc for cc, h in interface.items() if cc not in live and h in live]

    orphans = [p.relative_to(root) for p in src_files if p not in live]
    for p in orphans:
        print(f"orphan: {p}")
    if orphans:
        print(f"{len(orphans)} src/ file(s) unreachable from any program entry point",
              file=sys.stderr)
        return 1
    print(f"orphans: none ({len(src_files)} src/ files reachable)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
