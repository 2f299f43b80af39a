"""Structural guards for the repro package tree.

Run as ``python -m repro.analysis.structure src/repro``.  Three
checks; the first two were born from the decomposition of the original
daemon god-module:

- **size** — no module under ``src/repro`` may exceed
  :data:`MAX_MODULE_LINES` lines.  The daemon once grew to ~1,600
  lines before it had to be split into the kernel services; this
  guard keeps the next god-module from forming silently.  Modules
  under ``repro/consistency/`` get the tighter
  :data:`CONSISTENCY_MODULE_LINES` ceiling: with all shared mechanism
  in ``repro.consistency.engine``, each protocol module is policy
  only, and a policy file that outgrows the ceiling is mechanism
  leaking back in.
- **cycles** — the layered packages :data:`LAYERED_PACKAGES`
  (``repro.core``, ``repro.consistency`` — including its ``engine``
  subpackage — and ``repro.net``) must stay
  free of module-level import cycles.  Only *unconditional top-level*
  ``import``/``from ... import`` statements count: imports inside
  functions and under ``if TYPE_CHECKING:`` are the sanctioned
  escape hatches (the kernel/service split depends on them) and do
  not create a load-time edge.
- **budget** — the package as a whole may not exceed
  :data:`SRC_LINE_BUDGET` lines.  The number is committed: a change
  that grows ``src/repro`` past it must raise it in the same diff, so
  growth is always a visible decision, never a side effect.  A change
  that shrinks the package lowers it to the new count.

Exit status 1 on any violation; findings print one per line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Hard ceiling on module length under src/repro.
MAX_MODULE_LINES = 900

#: Tighter ceiling for the consistency layer: protocol modules hold
#: policy only (mechanism lives in repro.consistency.engine).
CONSISTENCY_MODULE_LINES = 400

#: Committed ceiling on the total size of the package: the sum over
#: every ``.py`` file of its newline count (what ``wc -l`` reports).
SRC_LINE_BUDGET = 24853

#: Packages whose mutual imports must stay acyclic at load time.
LAYERED_PACKAGES = ("repro.core", "repro.consistency", "repro.net")


def line_ceiling(path: Path) -> int:
    """The size ceiling that applies to one module."""
    if "repro/consistency/" in path.as_posix():
        return CONSISTENCY_MODULE_LINES
    return MAX_MODULE_LINES


def check_module_sizes(root: Path) -> List[str]:
    """Flag every ``.py`` file under ``root`` over its line ceiling."""
    problems = []
    for path in sorted(root.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").count("\n") + 1
        ceiling = line_ceiling(path)
        if lines > ceiling:
            problems.append(
                f"{path.as_posix()}: {lines} lines exceeds the "
                f"{ceiling}-line module ceiling — split it "
                "into cohesive services (see docs/architecture.md §2)"
            )
    return problems


def check_line_budget(root: Path) -> List[str]:
    """Flag a package whose total size exceeds :data:`SRC_LINE_BUDGET`."""
    total = sum(path.read_text(encoding="utf-8").count("\n")
                for path in root.rglob("*.py"))
    if total <= SRC_LINE_BUDGET:
        return []
    return [
        f"{root.as_posix()}: {total} lines exceed the committed "
        f"{SRC_LINE_BUDGET}-line budget — shrink the change, or raise "
        "SRC_LINE_BUDGET in repro/analysis/structure.py in the same diff"
    ]


def _module_name(path: Path, root: Path) -> Tuple[str, bool]:
    """``src/repro/core/kernel.py`` -> (``repro.core.kernel``, False);
    ``__init__.py`` maps to its package name with ``True``."""
    rel = path.relative_to(root.parent)
    parts = list(rel.with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


def _top_level_imports(tree: ast.Module) -> List[ast.stmt]:
    """Unconditional module-level import statements only.

    ``if TYPE_CHECKING:`` blocks and ``try:`` fallbacks are skipped —
    neither creates a mandatory load-time edge.
    """
    out: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(node)
    return out


def _layered(module: str) -> Optional[str]:
    for package in LAYERED_PACKAGES:
        if module == package or module.startswith(package + "."):
            return package
    return None


def build_import_graph(root: Path) -> Dict[str, Set[str]]:
    """Module-level import edges among the layered packages."""
    graph: Dict[str, Set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        module, is_package = _module_name(path, root)
        if _layered(module) is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        edges = graph.setdefault(module, set())
        for node in _top_level_imports(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                if node.level:   # relative import
                    # A package's own ``from . import x`` stays in it.
                    strip = node.level - 1 if is_package else node.level
                    base = (module.rsplit(".", strip)[0] if strip
                            else module)
                    targets = [f"{base}.{node.module}"
                               if node.module else base]
                else:
                    targets = [node.module] if node.module else []
            for target in targets:
                if _layered(target) is not None and target != module:
                    edges.add(target)
    return graph


def find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    """First module-level cycle found, as a path ``[a, b, ..., a]``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        color[node] = GREY
        stack.append(node)
        for dep in sorted(graph.get(node, ())):
            if color.get(dep, BLACK) == GREY:
                return stack[stack.index(dep):] + [dep]
            if color.get(dep, BLACK) == WHITE:
                cycle = visit(dep)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def check_import_cycles(root: Path) -> List[str]:
    cycle = find_cycle(build_import_graph(root))
    if cycle is None:
        return []
    return [
        "import cycle among layered packages: " + " -> ".join(cycle)
        + " — break it with a TYPE_CHECKING or function-local import"
    ]


def check_tree(root: Path) -> List[str]:
    return (check_module_sizes(root) + check_import_cycles(root)
            + check_line_budget(root))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        args = ["src/repro"]
    problems: List[str] = []
    for raw in args:
        root = Path(raw)
        if not root.is_dir():
            raise SystemExit(f"{raw}: not a directory")
        problems.extend(check_tree(root))
    for problem in problems:
        print(problem)
    print(
        f"repro.analysis.structure: {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
