"""KHZ103 — await discipline for futures and generator ops.

The simulator's concurrency is cooperative: a :class:`Future` does
nothing until a task yields it (or a ``gather`` wraps it), and a
generator op does nothing until something drives it (``yield from``,
``spawn``, ``pipeline``).  Both failure shapes are silent — the code
runs, no error fires, the protocol just never performs the work.  The
two slugs:

``dropped-future``
    A future-producing call (``engine.request``, ``rpc.request``,
    ``gather``/``gather_settled``, ``with_timeout``, ``Future(...)``,
    ``ledger.acquire``/``KeyedMutex.acquire``) used as a bare
    expression statement, or assigned to a name the function never
    reads again.  Nothing will ever wait on it; a request's reply is
    thrown away, an acquire's grant is leaked.

``undriven-generator``
    A call that resolves — through the call graph's *type-directed*
    resolution only, so no guessing — to a project generator
    function, used as a bare expression statement.  Calling a
    generator creates it and discards it: none of its body runs.
    The classic misspelling is ``self.acquire(...)`` for
    ``yield from self.acquire(...)``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    body_walk,
)

FUTURE_FACTORIES = {"gather", "gather_settled", "with_timeout"}
FUTURE_METHODS = {"request", "with_timeout"}
ACQUIRE_TYPES = {"CopysetLedger", "KeyedMutex"}


class AwaitDisciplineAnalysis:
    RULE = "KHZ103"

    def __init__(self, graph: CallGraph, reporter) -> None:
        self.graph = graph
        self.reporter = reporter

    def run(self) -> None:
        for fn in self.graph.functions.values():
            self._check_function(fn)

    # -- per function ----------------------------------------------------

    def _check_function(self, fn: FunctionInfo) -> None:
        for node in body_walk(fn.node):
            if isinstance(node, ast.Expr) and isinstance(node.value,
                                                         ast.Call):
                self._check_bare_call(node.value, fn)
            elif isinstance(node, ast.Assign):
                self._check_assignment(node, fn)

    def _check_bare_call(self, call: ast.Call, fn: FunctionInfo) -> None:
        label = self._future_label(call, fn)
        if label is not None:
            self.reporter.flag(
                fn.sf, call.lineno, self.RULE, "dropped-future",
                f"{label} returns a Future that is neither yielded nor "
                "gathered; nothing will ever wait on it and its result "
                "(or grant) is silently dropped"
            )
            return
        gen = self._resolved_generator(call, fn)
        if gen is not None:
            self.reporter.flag(
                fn.sf, call.lineno, self.RULE, "undriven-generator",
                f"'{gen.qualname}' is a generator op; calling it bare "
                "creates the generator and discards it without running "
                "a single step — drive it with 'yield from' or spawn it"
            )

    def _check_assignment(self, node: ast.Assign, fn: FunctionInfo) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0],
                                                    ast.Name):
            return
        if not isinstance(node.value, ast.Call):
            return
        label = self._future_label(node.value, fn)
        if label is None:
            return
        name = node.targets[0].id
        for other in body_walk(fn.node):
            if (isinstance(other, ast.Name) and other.id == name
                    and isinstance(other.ctx, ast.Load)):
                return
        for child in self.graph.functions.values():
            if child.parent is fn:
                for other in body_walk(child.node):
                    if isinstance(other, ast.Name) and other.id == name:
                        return
        self.reporter.flag(
            fn.sf, node.lineno, self.RULE, "dropped-future",
            f"future '{name}' from {label} is never read again in "
            f"'{fn.qualname}'; it will never be waited on"
        )

    # -- classification --------------------------------------------------

    def _future_label(self, call: ast.Call,
                      fn: FunctionInfo) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in FUTURE_FACTORIES or func.id == "Future":
                return f"{func.id}(...)"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in FUTURE_METHODS:
            receiver = self._receiver_label(func.value)
            if receiver in ("engine", "rpc", "host", "kernel", "daemon"):
                return f".{func.attr}(...)"
            rtype = self.graph.receiver_type(func.value, fn)
            if rtype in ("ProtocolEngine", "RpcLayer", "NodeKernel"):
                return f".{func.attr}(...)"
            return None
        if func.attr == "acquire":
            rtype = self.graph.receiver_type(func.value, fn)
            if rtype in ACQUIRE_TYPES:
                return f".{func.attr}(...)"
            name = self._receiver_label(func.value)
            if name == "ledger" or (name or "").endswith("_mutex"):
                return ".acquire(...)"
        return None

    @staticmethod
    def _receiver_label(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None

    def _resolved_generator(self, call: ast.Call,
                            fn: FunctionInfo) -> Optional[FunctionInfo]:
        func = call.func
        # Type-directed resolution only: an attribute call needs a
        # known receiver type, a name call resolves through scoping.
        if isinstance(func, ast.Attribute):
            if self.graph.receiver_type(func.value, fn) is None:
                return None
            targets = self.graph.resolve_call(call, fn)
        elif isinstance(func, ast.Name):
            targets = self.graph.resolve_name(func.id, fn)
        else:
            return None
        for target in targets:
            if target.is_generator:
                return target
        return None
