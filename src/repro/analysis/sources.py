"""Shared parsed-source infrastructure for every analysis pass.

The linter (:mod:`repro.analysis.lint`), the schedule explorer
(:mod:`repro.analysis.explore`), and the whole-program flow analyzer
(:mod:`repro.analysis.flow`) all walk the same files.  Parsing is the
dominant cost of a lint run, so this module owns the one
:class:`SourceFile` representation and a process-wide cache keyed by
``(resolved path, mtime, size)``: each file is parsed once per
invocation no matter how many passes look at it, and a re-run inside
one process (e.g. the test suite linting the tree repeatedly) reuses
the cached tree as long as the file has not changed on disk.

It also owns :func:`import_map`, the one resolution of a module's
local names to their dotted origins that the lint fences and the flow
call graph share.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

SUPPRESS_RE = re.compile(r"#\s*khz:\s*allow-([a-z0-9-]+)\(([^)]*)\)")


@dataclass
class SourceFile:
    """One parsed input file plus its suppression comments."""

    path: str          # normalized posix path, as given
    source: str
    tree: ast.AST
    #: line -> list of (slug, reason) suppressions on that line.
    suppressions: Dict[int, List[Tuple[str, str]]] = field(
        default_factory=dict
    )

    @classmethod
    def parse(cls, path: str, source: str) -> "SourceFile":
        tree = ast.parse(source, filename=path)
        suppressions: Dict[int, List[Tuple[str, str]]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            for match in SUPPRESS_RE.finditer(line):
                suppressions.setdefault(lineno, []).append(
                    (match.group(1), match.group(2))
                )
        return cls(path=path, source=source, tree=tree,
                   suppressions=suppressions)


def import_map(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


#: resolved path -> (mtime_ns, size, parsed file).
_CACHE: Dict[Path, Tuple[int, int, SourceFile]] = {}

#: Cache effectiveness counters (the tests and docs cite these).
stats = {"parses": 0, "hits": 0}


def clear_cache() -> None:
    """Drop every cached parse (tests use this to measure cold runs)."""
    _CACHE.clear()
    stats["parses"] = 0
    stats["hits"] = 0


def load(path: Path) -> SourceFile:
    """The parsed form of ``path``, reparsing only when it changed."""
    resolved = path.resolve()
    meta = path.stat()
    key = (meta.st_mtime_ns, meta.st_size)
    entry = _CACHE.get(resolved)
    if entry is not None and (entry[0], entry[1]) == key:
        stats["hits"] += 1
        return entry[2]
    source = path.read_text(encoding="utf-8")
    sf = SourceFile.parse(path.as_posix(), source)
    stats["parses"] += 1
    _CACHE[resolved] = (key[0], key[1], sf)
    return sf


def collect(paths: Sequence[str]) -> List[SourceFile]:
    """Every ``.py`` file under ``paths``, parsed once, deduplicated.

    A file that cannot be parsed aborts the run: an analysis pass
    silently skipping unparseable input would report a clean tree it
    never actually checked.
    """
    seen: Set[Path] = set()
    files: List[SourceFile] = []
    for raw in paths:
        root = Path(raw)
        candidates = (
            sorted(root.rglob("*.py")) if root.is_dir() else [root]
        )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                files.append(load(candidate))
            except SyntaxError as error:
                raise SystemExit(f"{candidate}: cannot parse: {error}")
    return files
