"""KHZ013 static-table: the protocol verifier's inputs stay literal.

The Layer 5 verifier (:mod:`repro.analysis.protocol`) rebuilds each
consistency manager's automaton from two syntactic surfaces: the
CM's ``TRANSITIONS`` class attribute and the ``MessageType``-keyed
dispatch registrations in ``MessageRouter.wire``.  Verification is
only sound while those surfaces stay *statically extractable* —
pure literals, never mutated at runtime, no computed keys.  This
rule CI-enforces that input contract inside ``repro/``:

- **table shape** — every ``TRANSITIONS`` assignment must be a
  literal dict of ``PageEvent.X: LocalPageState.Y`` entries; no
  ``**`` unpacking, comprehensions, function calls, or name keys.
- **no runtime mutation** — ``TRANSITIONS`` may not be assigned
  outside a class body, subscript-assigned, ``del``-ed, or mutated
  through ``update``/``pop``/``setdefault``/``clear``/``popitem``.
- **dispatch maps** — a dict display keyed by ``PageEvent.X`` or
  ``MessageType.X`` members must key *every* entry that way, and
  ``cm_dispatch(...)`` / ``reg(MessageType.X, ...)`` registrations
  must pass literals (a string handler name, a literal member).

Scope: files under ``repro/`` (the shipped package) only; tests and
fixtures may build mutated tables on purpose.  Suppress a deliberate
exception with ``# khz: allow-static-table(reason)``.

This rule lives outside :mod:`repro.analysis.lint` purely for size:
folding it in would push that module past the structure guard's
per-module line ceiling.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.sources import SourceFile

if TYPE_CHECKING:   # the reporter duck type lives in lint.py
    from repro.analysis.lint import _Reporter

#: KHZ013 applies to the shipped package, not tests/examples.
PACKAGE_SCOPE = "repro/"

#: The class attribute that *is* each protocol's automaton.
TABLE_NAME = "TRANSITIONS"

#: Enums whose literal-keyed dict displays the verifier extracts.
EXTRACTED_ENUMS = ("PageEvent", "MessageType")

#: dict methods that mutate in place.
MUTATORS = frozenset({"update", "pop", "setdefault", "clear",
                      "popitem", "__setitem__"})


def _enum_key(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in EXTRACTED_ENUMS)


def _names_table(node: ast.expr) -> bool:
    """Does this expression refer to a TRANSITIONS table?"""
    if isinstance(node, ast.Name):
        return node.id == TABLE_NAME
    if isinstance(node, ast.Attribute):
        return node.attr == TABLE_NAME
    return False


def _check_table_value(sf: SourceFile, value: ast.expr,
                       reporter: "_Reporter") -> None:
    if not isinstance(value, ast.Dict):
        reporter.flag(
            sf, value.lineno, "KHZ013", "static-table",
            "TRANSITIONS must be a literal dict the verifier can "
            f"extract; found {type(value).__name__}",
        )
        return
    for key, val in zip(value.keys, value.values):
        if key is None:
            reporter.flag(
                sf, value.lineno, "KHZ013", "static-table",
                "TRANSITIONS must not unpack another mapping; write "
                "every PageEvent entry out literally",
            )
            continue
        if not (_enum_key(key) and isinstance(key, ast.Attribute)
                and key.value.id == "PageEvent"):  # type: ignore[union-attr]
            reporter.flag(
                sf, key.lineno, "KHZ013", "static-table",
                "TRANSITIONS keys must be literal PageEvent members",
            )
        if not (isinstance(val, ast.Attribute)
                and isinstance(val.value, ast.Name)
                and val.value.id == "LocalPageState"):
            reporter.flag(
                sf, val.lineno, "KHZ013", "static-table",
                "TRANSITIONS values must be literal LocalPageState "
                "members",
            )


def _check_dispatch_display(sf: SourceFile, node: ast.Dict,
                            reporter: "_Reporter") -> None:
    if not any(key is not None and _enum_key(key) for key in node.keys):
        return
    for key in node.keys:
        if key is None:
            reporter.flag(
                sf, node.lineno, "KHZ013", "static-table",
                "enum-keyed dispatch maps must not unpack another "
                "mapping — the verifier reads them statically",
            )
        elif not _enum_key(key):
            reporter.flag(
                sf, key.lineno, "KHZ013", "static-table",
                "dispatch maps keyed by PageEvent/MessageType must "
                "key every entry with a literal member; found "
                f"{type(key).__name__}",
            )


def _check_registration(sf: SourceFile, node: ast.Call,
                        reporter: "_Reporter") -> None:
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name == "cm_dispatch":
        if node.args and not (
                isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            reporter.flag(
                sf, node.lineno, "KHZ013", "static-table",
                "cm_dispatch must take a literal handler-name string "
                "so the verifier can pair routes with handlers",
            )
    elif name == "reg" and node.args:
        if not _enum_key(node.args[0]):
            reporter.flag(
                sf, node.lineno, "KHZ013", "static-table",
                "reg(...) must register a literal MessageType member "
                "so the dispatch surface stays extractable",
            )


def check_static_tables(sf: SourceFile, reporter: "_Reporter") -> None:
    """KHZ013: TRANSITIONS tables and dispatch maps stay literal."""
    if PACKAGE_SCOPE not in sf.path:
        return
    class_body_tables = set()
    table_dicts = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == TABLE_NAME):
                    class_body_tables.add(id(stmt))
                    table_dicts.add(id(stmt.value))
                    _check_table_value(sf, stmt.value, reporter)
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Assign):
            if id(node) in class_body_tables:
                continue
            for target in node.targets:
                if _names_table(target):
                    reporter.flag(
                        sf, node.lineno, "KHZ013", "static-table",
                        "TRANSITIONS may only be declared once, in "
                        "the CM class body — runtime rebinding hides "
                        "the automaton from the verifier",
                    )
                elif (isinstance(target, ast.Subscript)
                        and _names_table(target.value)):
                    reporter.flag(
                        sf, node.lineno, "KHZ013", "static-table",
                        "TRANSITIONS entries may not be assigned at "
                        "runtime — declare the transition in the "
                        "table literal",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (_names_table(target)
                        or (isinstance(target, ast.Subscript)
                            and _names_table(target.value))):
                    reporter.flag(
                        sf, node.lineno, "KHZ013", "static-table",
                        "TRANSITIONS entries may not be deleted at "
                        "runtime",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATORS
                    and _names_table(func.value)):
                reporter.flag(
                    sf, node.lineno, "KHZ013", "static-table",
                    f"TRANSITIONS.{func.attr}(...) mutates the "
                    "declared automaton at runtime — the verifier "
                    "would be proving the wrong table",
                )
            else:
                _check_registration(sf, node, reporter)
        elif isinstance(node, ast.Dict) and id(node) not in table_dicts:
            _check_dispatch_display(sf, node, reporter)
