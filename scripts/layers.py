#!/usr/bin/env python3
"""Layer guard: fail when src/ reaches past the library graph CMake declares.

The declaration is the target_link_libraries lines in src/*/CMakeLists.txt:
each src/<dir>/ builds one library, skyferry_<dir>, and names the
skyferry_* libraries it links. The guard reports

  * a cycle in that graph;
  * a file in src/<lib>/ whose quoted #include "<other>/..." names a
    library outside <lib>'s transitive link closure;
  * a file in src/<lib>/ that opens `namespace skyferry::<other>` for such
    a library (an upward forward declaration).

Includes are read with orphans.py's includes(), so both guards see the
same edges.

Usage: scripts/layers.py [REPO_ROOT]    (exit 0 = layering holds)
"""
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from orphans import includes  # noqa: E402

ADD_LIBRARY = re.compile(r"add_library\(\s*skyferry_(\w+)")
LINKS = re.compile(r"target_link_libraries\(\s*skyferry_(\w+)([^)]*)\)")
OPENS = re.compile(r"^\s*namespace\s+skyferry::(\w+)", re.MULTILINE)


def declared_graph(src):
    """{lib: set of libs it links}, for every src/<dir> that builds skyferry_<dir>."""
    graph = {}
    for cmake in sorted(src.glob("*/CMakeLists.txt")):
        text = cmake.read_text(encoding="utf-8")
        lib = cmake.parent.name
        if lib not in ADD_LIBRARY.findall(text):
            continue
        graph[lib] = set()
        for name, args in LINKS.findall(text):
            if name == lib:
                graph[lib] |= set(re.findall(r"\bskyferry_(\w+)", args))
    for deps in graph.values():
        deps.intersection_update(graph)
    return graph


def find_cycle(graph):
    """One cycle as a list of libs (first == last), or None."""
    state = {}  # lib -> 1 on the DFS stack, 2 done

    def visit(lib, path):
        state[lib] = 1
        path.append(lib)
        for dep in sorted(graph[lib]):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path)
                if cycle:
                    return cycle
        path.pop()
        state[lib] = 2
        return None

    for lib in sorted(graph):
        if lib not in state:
            cycle = visit(lib, [])
            if cycle:
                return cycle
    return None


def closure(graph, lib):
    seen, todo = set(), [lib]
    while todo:
        for dep in graph[todo.pop()]:
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    src = root / "src"
    graph = declared_graph(src)
    problems = []

    cycle = find_cycle(graph)
    if cycle:
        problems.append("cycle: " + " -> ".join(f"skyferry_{lib}" for lib in cycle))

    for lib in sorted(graph):
        allowed = closure(graph, lib) | {lib}
        for path in sorted((src / lib).rglob("*")):
            if path.suffix not in {".h", ".cc"}:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            reached = {}
            for name in includes(path):
                other = name.split("/", 1)[0]
                if "/" in name and other in graph and other not in allowed:
                    reached.setdefault(other, f'includes "{name}"')
            for other in OPENS.findall(text):
                if other in graph and other not in allowed:
                    reached.setdefault(other, f"opens namespace skyferry::{other}")
            for other, how in sorted(reached.items()):
                problems.append(f"violation: {path.relative_to(root)}: {how}, but "
                                f"skyferry_{lib} does not link skyferry_{other}")

    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} layering problem(s)", file=sys.stderr)
        return 1
    print(f"layers: acyclic, {len(graph)} libraries, every include and namespace declared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
