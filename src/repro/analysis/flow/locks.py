"""KHZ101 — whole-program lock-order analysis.

The deadlock-freedom argument of the consistency protocols rests on
three disciplines that, before this pass, lived in comments:

* WRITE tokens (``CopysetLedger``) for multiple pages are acquired in
  **ascending page order** — two multi-page lockers can then never
  hold-and-wait on each other (``engine/wire.py`` pipeline docstring,
  ``release.py`` batch handler).
* Token acquisition must **not** ride the request pipeline: the
  sliding window starts later requests while earlier ones are still
  in flight, which breaks the ordered-acquire argument.
* Across lock **classes** (ledger tokens, the home ``KeyedMutex``,
  dataplane lock contexts) the acquisition graph must stay acyclic.

This module checks all three statically:

``check_acquire_loops``
    Every ``for`` loop whose body (transitively, through resolved
    calls) acquires a write token keyed by the loop variable must
    iterate in provably ascending page order.  The proof engine
    (:func:`prove`) handles ``sorted(...)``, ``range(...)``,
    comprehensions that preserve their source order, singleton
    literals, local assignments, project calls (by proving every
    ``return``/``yield`` source), and — interprocedurally — function
    parameters, by proving the argument at every call site.
    ``sorted(..., reverse=True)`` / ``reversed(...)`` are reported as
    explicit descending-order errors; anything unprovable is reported
    as such.  ``while`` retry loops are out of scope (they re-acquire
    a single page, never a swept range) — documented approximation.

``check_pipelined_acquires``
    No generator handed to ``ProtocolEngine.pipeline`` may acquire a
    write token.  Mode facts prune infeasible paths: the READ-only
    pipeline branch of ``ConsistencyManager.acquire_many`` passes
    ``mode is LockMode.READ``, under which the per-protocol
    ``acquire`` implementations provably skip their token paths.

``check_hold_and_wait``
    Builds the lock-class graph — an edge A -> B wherever code may
    acquire class B while holding class A — and reports any cycle of
    two or more distinct classes.  ``HomeTransactions.run`` is a
    scoped acquire (its ``finally`` releases the key mutex), so the
    mutex is held exactly for the wrapped generator.  Dataplane lock
    contexts ("pagelock") participate in edges but single-class
    pagelock ordering is the dataplane's own conflict table's job,
    not this pass's.

Mode facts: a variable of :class:`LockMode` type carries the set of
values it may still hold, refined by ``if mode is LockMode.X`` /
``mode.is_write`` tests (including early-return guards and ``and``
conjunctions) and propagated through call argument lists.  A token
event is only real if WRITE is in the feasible set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    attribute_chain,
    body_walk,
    map_args,
)

ALL_MODES: FrozenSet[str] = frozenset({"READ", "WRITE", "WRITE_SHARED"})
WRITEY: FrozenSet[str] = frozenset({"WRITE", "WRITE_SHARED"})

#: Receiver class -> lock class for ``.acquire`` calls.
ACQUIRE_CLASSES = {"CopysetLedger": "token", "KeyedMutex": "mutex"}

Facts = Dict[str, FrozenSet[str]]


@dataclass
class LockEvent:
    """One acquisition the walker observed."""

    lock_class: str          # "token" | "mutex" | "home" | "pagelock"
    node: ast.AST            # the call, for line anchoring
    key_expr: Optional[ast.expr]   # the page/key argument, if any


@dataclass
class Edge:
    held: str
    acquired: str
    fn: FunctionInfo
    line: int


# ----------------------------------------------------------------------
# Mode facts
# ----------------------------------------------------------------------

def _mode_of_attr(expr: ast.expr) -> Optional[FrozenSet[str]]:
    """``LockMode.X`` / ``LockMode.X.value`` -> {X}."""
    chain = attribute_chain(expr)
    if not chain:
        return None
    if chain and chain[-1] == "value":
        chain = chain[:-1]
    if len(chain) == 2 and chain[0] == "LockMode" and chain[1] in ALL_MODES:
        return frozenset({chain[1]})
    return None


def mode_values(expr: ast.expr, facts: Facts) -> FrozenSet[str]:
    """The feasible LockMode values of ``expr`` under ``facts``."""
    direct = _mode_of_attr(expr)
    if direct is not None:
        return direct
    if isinstance(expr, ast.Name):
        return facts.get(expr.id, ALL_MODES)
    if isinstance(expr, ast.Attribute) and expr.attr == "value":
        if isinstance(expr.value, ast.Name):
            return facts.get(expr.value.id, ALL_MODES)
    return ALL_MODES


def _refinement(test: ast.expr) -> Optional[Tuple[str, FrozenSet[str]]]:
    """``(var, feasible-set)`` implied by ``test`` being true."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _refinement(test.operand)
        if inner is None:
            return None
        var, include = inner
        return (var, ALL_MODES - include)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, right = test.left, test.comparators[0]
        if isinstance(left, ast.Name):
            values = _mode_of_attr(right)
            if values is not None:
                if isinstance(test.ops[0], (ast.Is, ast.Eq)):
                    return (left.id, values)
                if isinstance(test.ops[0], (ast.IsNot, ast.NotEq)):
                    return (left.id, ALL_MODES - values)
    if isinstance(test, ast.Attribute) and test.attr == "is_write":
        if isinstance(test.value, ast.Name):
            return (test.value.id, WRITEY)
    return None


def _refine(facts: Facts, test: ast.expr, *, truthy: bool) -> Facts:
    """Facts inside the branch where ``test`` is truthy/falsy."""
    out = dict(facts)

    def apply(var: str, include: FrozenSet[str]) -> None:
        out[var] = out.get(var, ALL_MODES) & include

    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        if truthy:
            for clause in test.values:
                hit = _refinement(clause)
                if hit is not None:
                    apply(*hit)
        # ``not (a and b)`` narrows nothing per-var.
        return out
    hit = _refinement(test)
    if hit is not None:
        var, include = hit
        apply(var, include if truthy else ALL_MODES - include)
    return out


def _terminates(stmts: Sequence[ast.stmt]) -> bool:
    if not stmts:
        return False
    last = stmts[-1]
    return isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def call_facts(call: ast.Call, callee: FunctionInfo,
               caller_facts: Facts) -> Facts:
    """Facts for ``callee``'s parameters given the call site."""
    mapped: Facts = {}
    for param, arg in map_args(call, callee).items():
        values = mode_values(arg, caller_facts)
        if values != ALL_MODES:
            mapped[param] = values
        elif _looks_like_mode(arg, caller_facts):
            mapped[param] = ALL_MODES
    return mapped


def _looks_like_mode(arg: ast.expr, facts: Facts) -> bool:
    return isinstance(arg, ast.Name) and arg.id in facts


def _facts_key(facts: Facts) -> Tuple:
    return tuple(sorted((k, tuple(sorted(v))) for k, v in facts.items()))


def _infeasible(facts: Facts) -> bool:
    """A variable with no feasible LockMode left marks dead code —
    e.g. the WRITE token path under ``mode is LockMode.READ``."""
    return any(not values for values in facts.values())


# ----------------------------------------------------------------------
# Acquisition classification
# ----------------------------------------------------------------------

class LockModel:
    """Classifies calls into lock events and computes per-function
    transitive acquisition summaries."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._summary_memo: Dict[Tuple, FrozenSet[str]] = {}
        self._in_progress: Set[Tuple] = set()

    # -- direct events ---------------------------------------------------

    def classify(self, call: ast.Call, fn: FunctionInfo,
                 facts: Facts) -> Optional[LockEvent]:
        """The lock event ``call`` performs directly, if any."""
        request_event = self._classify_request(call, facts)
        if request_event is not None:
            return request_event
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver_name = self._receiver_name(func.value)
        if func.attr == "acquire":
            rtype = self.graph.receiver_type(func.value, fn)
            lock_class = ACQUIRE_CLASSES.get(rtype or "")
            if lock_class is None and receiver_name:
                if receiver_name.endswith("_mutex"):
                    lock_class = "mutex"
                elif receiver_name == "ledger":
                    lock_class = "token"
            if lock_class is not None:
                key = call.args[0] if call.args else None
                return LockEvent(lock_class, call, key)
        if func.attr == "run":
            rtype = self.graph.receiver_type(func.value, fn)
            if rtype == "HomeTransactions" or receiver_name == "home":
                key = call.args[0] if call.args else None
                return LockEvent("home", call, key)
        if func.attr == "op_lock":
            return LockEvent("pagelock", call,
                             call.args[0] if call.args else None)
        return None

    @staticmethod
    def _receiver_name(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None

    def _classify_request(self, call: ast.Call,
                          facts: Facts) -> Optional[LockEvent]:
        """A client-side token acquisition: any request carrying
        ``MessageType.LOCK_REQUEST`` whose mode payload may feasibly be
        WRITE.  Its key is the ``pages`` list: a request is one event
        however many pages it carries, and a loop only takes tokens in
        its own order when the list is built from the loop variable."""
        msg_type: Optional[str] = None
        payload: Optional[ast.Dict] = None
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            chain = attribute_chain(arg) if not isinstance(arg, ast.Dict) \
                else None
            if chain and len(chain) == 2 and chain[0] == "MessageType":
                if chain[1] == "LOCK_REQUEST":
                    msg_type = chain[1]
            if isinstance(arg, ast.Dict):
                payload = arg
        if msg_type is None:
            return None
        key_expr: Optional[ast.expr] = None
        modes = ALL_MODES
        if payload is not None:
            for key, value in zip(payload.keys, payload.values):
                if isinstance(key, ast.Constant) and key.value == "mode":
                    modes = mode_values(value, facts)
                if isinstance(key, ast.Constant) and key.value == "pages":
                    key_expr = value
        if "WRITE" not in modes:
            return None      # READ / WRITE_SHARED requests take no token
        return LockEvent("token", call, key_expr)

    # -- transitive summaries --------------------------------------------

    def summary(self, fn: FunctionInfo, facts: Facts,
                depth: int = 0) -> FrozenSet[str]:
        """Lock classes ``fn`` may acquire, transitively, under
        ``facts``."""
        if _infeasible(facts):
            return frozenset()
        key = (fn.key, _facts_key(facts))
        cached = self._summary_memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress or depth > 8:
            return frozenset()
        self._in_progress.add(key)
        acquired: Set[str] = set()

        def on_call(call: ast.Call, local_facts: Facts) -> None:
            event = self.classify(call, fn, local_facts)
            if event is not None:
                acquired.add(event.lock_class)
                return
            for callee in self.graph.resolve_call(call, fn):
                if callee.parent is fn:
                    # Nested def: closure vars share the caller's facts.
                    callee_facts = dict(local_facts)
                    callee_facts.update(call_facts(call, callee, local_facts))
                else:
                    callee_facts = call_facts(call, callee, local_facts)
                acquired.update(self.summary(callee, callee_facts, depth + 1))

        walk_with_facts(fn.node.body, facts, on_call)
        self._in_progress.discard(key)
        result = frozenset(acquired)
        self._summary_memo[key] = result
        return result

    def token_acquires(self, fn: FunctionInfo, facts: Facts) -> bool:
        return "token" in self.summary(fn, facts)


def walk_with_facts(stmts: Sequence[ast.stmt], facts: Facts,
                    on_call: Callable[[ast.Call, Facts], None]) -> None:
    """Visit every call in ``stmts`` in source order, maintaining mode
    facts across ``if`` refinements (including early-return guards).

    Nested ``def``/``class`` bodies are skipped — they only execute
    when called, and calls are followed through ``on_call``.
    """

    def visit_expr(expr: Optional[ast.AST], local: Facts) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                on_call(node, local)

    def visit_block(block: Sequence[ast.stmt], local: Facts) -> Facts:
        if _infeasible(local):
            return local
        for stmt in block:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                visit_expr(stmt.test, local)
                then_facts = _refine(local, stmt.test, truthy=True)
                else_facts = _refine(local, stmt.test, truthy=False)
                visit_block(stmt.body, then_facts)
                visit_block(stmt.orelse, else_facts)
                # ``if mode is X: ... return`` — the continuation only
                # runs when the guard was false.
                if _terminates(stmt.body) and not stmt.orelse:
                    local = else_facts
                elif _terminates(stmt.orelse) and stmt.orelse:
                    local = then_facts
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                visit_expr(stmt.iter, local)
                visit_block(stmt.body, local)
                visit_block(stmt.orelse, local)
                continue
            if isinstance(stmt, ast.While):
                visit_expr(stmt.test, local)
                visit_block(stmt.body, local)
                visit_block(stmt.orelse, local)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    visit_expr(item.context_expr, local)
                visit_block(stmt.body, local)
                continue
            if isinstance(stmt, ast.Try):
                visit_block(stmt.body, local)
                for handler in stmt.handlers:
                    visit_block(handler.body, local)
                visit_block(stmt.orelse, local)
                visit_block(stmt.finalbody, local)
                continue
            for child in ast.iter_child_nodes(stmt):
                visit_expr(child, local)
        return local

    visit_block(stmts, dict(facts))


# ----------------------------------------------------------------------
# The ascending-order proof engine
# ----------------------------------------------------------------------

class OrderProver:
    """Proves iteration order of page sequences: "asc", "desc" or
    "unknown"."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph

    def prove(self, expr: ast.expr, fn: FunctionInfo,
              stack: Optional[Set[Tuple]] = None) -> str:
        stack = stack if stack is not None else set()
        if len(stack) > 24:
            return "unknown"

        if isinstance(expr, ast.Call):
            return self._prove_call(expr, fn, stack)
        if isinstance(expr, (ast.List, ast.Tuple)):
            return "asc" if len(expr.elts) <= 1 else "unknown"
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._prove_comp(expr, fn, stack)
        if isinstance(expr, ast.Name):
            return self._prove_name(expr.id, fn, stack)
        return "unknown"

    def _prove_call(self, call: ast.Call, fn: FunctionInfo,
                    stack: Set[Tuple]) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                for kw in call.keywords:
                    if kw.arg == "reverse":
                        if (isinstance(kw.value, ast.Constant)
                                and kw.value.value):
                            return "desc"
                        if not isinstance(kw.value, ast.Constant):
                            return "unknown"
                    if kw.arg == "key":
                        return "unknown"
                return "asc"
            if func.id == "reversed" and call.args:
                inner = self.prove(call.args[0], fn, stack)
                return {"asc": "desc", "desc": "asc"}.get(inner, "unknown")
            if func.id == "range":
                # Descending ranges are written with a literal negative
                # step; a variable step is a (positive) page size.
                if len(call.args) == 3:
                    step = call.args[2]
                    if isinstance(step, ast.Constant) and isinstance(
                            step.value, (int, float)) and step.value < 0:
                        return "desc"
                    if (isinstance(step, ast.UnaryOp)
                            and isinstance(step.op, ast.USub)):
                        return "desc"
                return "asc"
            if func.id == "list" and len(call.args) == 1:
                return self.prove(call.args[0], fn, stack)
        # A project call: prove every value it can produce.
        targets = self.graph.resolve_call(call, fn)
        if not targets:
            return "unknown"
        verdicts = {self._prove_returns(t, stack) for t in targets}
        if verdicts == {"asc"}:
            return "asc"
        if "desc" in verdicts:
            return "desc"
        return "unknown"

    def _prove_comp(self, comp: ast.expr, fn: FunctionInfo,
                    stack: Set[Tuple]) -> str:
        generators = comp.generators                      # type: ignore
        elt = comp.elt                                    # type: ignore
        if len(generators) != 1:
            return "unknown"
        gen = generators[0]
        if not (isinstance(gen.target, ast.Name)
                and isinstance(elt, ast.Name)
                and elt.id == gen.target.id):
            return "unknown"          # a mapped elt may reorder values
        return self.prove(gen.iter, fn, stack)

    def _prove_name(self, name: str, fn: FunctionInfo,
                    stack: Set[Tuple]) -> str:
        key = ("name", fn.key, name)
        if key in stack:
            return "unknown"
        stack = stack | {key}
        # A single local assignment pins the value.
        assigns: List[ast.expr] = []
        for node in body_walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        assigns.append(node.value)
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == name and node.value is not None):
                assigns.append(node.value)
        if len(assigns) == 1:
            return self.prove(assigns[0], fn, stack)
        if assigns:
            return "unknown"
        # Not assigned locally: a parameter (prove every call site) or
        # a closure variable (prove in the enclosing scope).
        if name in fn.params:
            return self._prove_param(name, fn, stack)
        if fn.parent is not None:
            return self._prove_name(name, fn.parent, stack)
        return "unknown"

    def _prove_param(self, name: str, fn: FunctionInfo,
                     stack: Set[Tuple]) -> str:
        key = ("param", fn.key, name)
        if key in stack:
            return "unknown"
        stack = stack | {key}
        callers = self.graph.callers_of(fn)
        if not callers:
            return "unknown"
        verdicts: Set[str] = set()
        for caller, call in callers:
            arg = map_args(call, fn).get(name)
            if arg is None:
                return "unknown"
            verdicts.add(self.prove(arg, caller, stack))
        if verdicts == {"asc"}:
            return "asc"
        if "desc" in verdicts:
            return "desc"
        return "unknown"

    def _prove_returns(self, fn: FunctionInfo, stack: Set[Tuple]) -> str:
        """Prove the sequence a function returns (or a generator
        yields) is ascending."""
        key = ("returns", fn.key)
        if key in stack:
            return "unknown"
        stack = stack | {key}
        verdicts: Set[str] = set()
        for node in body_walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                verdicts.add(self.prove(node.value, fn, stack))
            elif isinstance(node, ast.YieldFrom):
                verdicts.add(self.prove(node.value, fn, stack))
        # ``for base in <proven>: yield base`` generators.
        yield_loop = self._yielding_loop(fn)
        if yield_loop is not None:
            target, iter_expr = yield_loop
            verdicts.add(self.prove(iter_expr, fn, stack))
        elif any(isinstance(n, ast.Yield) for n in body_walk(fn.node)):
            verdicts.add("unknown")
        if not verdicts:
            return "unknown"
        if verdicts == {"asc"}:
            return "asc"
        if "desc" in verdicts:
            return "desc"
        return "unknown"

    @staticmethod
    def _yielding_loop(fn: FunctionInfo
                       ) -> Optional[Tuple[str, ast.expr]]:
        """Match the ``for x in ITER: yield x`` generator shape."""
        yields = [n for n in body_walk(fn.node) if isinstance(n, ast.Yield)]
        if len(yields) != 1:
            return None
        the_yield = yields[0]
        for node in body_walk(fn.node):
            if (isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and len(node.body) == 1
                    and isinstance(node.body[0], ast.Expr)
                    and node.body[0].value is the_yield
                    and isinstance(the_yield.value, ast.Name)
                    and the_yield.value.id == node.target.id):
                return (node.target.id, node.iter)
        return None


# ----------------------------------------------------------------------
# The analysis passes
# ----------------------------------------------------------------------

class LockOrderAnalysis:
    RULE = "KHZ101"
    SLUG = "lock-order"

    def __init__(self, graph: CallGraph, reporter) -> None:
        self.graph = graph
        self.reporter = reporter
        self.model = LockModel(graph)
        self.prover = OrderProver(graph)

    def run(self) -> None:
        for fn in list(self.graph.functions.values()):
            self.check_acquire_loops(fn)
            self.check_pipelined_acquires(fn)
        self.check_hold_and_wait()

    # -- ascending-order loops -------------------------------------------

    def check_acquire_loops(self, fn: FunctionInfo) -> None:
        def on_loop(loop: ast.For, facts: Facts) -> None:
            if not isinstance(loop.target, ast.Name):
                return
            if not self._loop_takes_token(loop, fn, facts):
                return
            verdict = self.prover.prove(loop.iter, fn)
            if verdict == "asc":
                return
            if verdict == "desc":
                message = (
                    f"loop over '{loop.target.id}' acquires write tokens "
                    "in DESCENDING page order; concurrent multi-page "
                    "lockers will deadlock (tokens must be taken "
                    "ascending-by-page)"
                )
            else:
                message = (
                    f"loop over '{loop.target.id}' acquires write tokens "
                    "but its iteration order cannot be proven ascending-"
                    "by-page; sort the pages (or hoist the proof into a "
                    "helper the analyzer can see)"
                )
            self.reporter.flag(fn.sf, loop.lineno, self.RULE, self.SLUG,
                               message)

        self._walk_loops(fn, on_loop)

    def _walk_loops(self, fn: FunctionInfo,
                    on_loop: Callable[[ast.For, Facts], None]) -> None:
        loops: List[Tuple[ast.For, Facts]] = []

        def on_call(call: ast.Call, facts: Facts) -> None:
            pass

        # Reuse the facts walker by intercepting For statements: walk
        # once collecting (loop, facts-at-loop) pairs.
        def visit(block, facts: Facts) -> Facts:
            if _infeasible(facts):
                return facts
            for stmt in block:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.If):
                    then_facts = _refine(facts, stmt.test, truthy=True)
                    else_facts = _refine(facts, stmt.test, truthy=False)
                    visit(stmt.body, then_facts)
                    visit(stmt.orelse, else_facts)
                    if _terminates(stmt.body) and not stmt.orelse:
                        facts = else_facts
                    elif stmt.orelse and _terminates(stmt.orelse):
                        facts = then_facts
                    continue
                if isinstance(stmt, ast.For):
                    loops.append((stmt, dict(facts)))
                    visit(stmt.body, facts)
                    visit(stmt.orelse, facts)
                    continue
                if isinstance(stmt, (ast.While, ast.AsyncFor)):
                    visit(stmt.body, facts)
                    visit(stmt.orelse, facts)
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    visit(stmt.body, facts)
                    continue
                if isinstance(stmt, ast.Try):
                    visit(stmt.body, facts)
                    for handler in stmt.handlers:
                        visit(handler.body, facts)
                    visit(stmt.orelse, facts)
                    visit(stmt.finalbody, facts)
                    continue
            return facts

        visit(fn.node.body, {})
        del on_call
        for loop, facts in loops:
            on_loop(loop, facts)

    def _loop_takes_token(self, loop: ast.For, fn: FunctionInfo,
                          facts: Facts) -> bool:
        """Does the loop body acquire a (held) write token keyed by
        the loop variable?"""
        assert isinstance(loop.target, ast.Name)
        loop_var = loop.target.id
        found = False

        def uses_loop_var(expr: Optional[ast.AST]) -> bool:
            if expr is None:
                return False
            return any(isinstance(n, ast.Name) and n.id == loop_var
                       for n in ast.walk(expr))

        def on_call(call: ast.Call, local_facts: Facts) -> None:
            nonlocal found
            if found:
                return
            event = self.model.classify(call, fn, local_facts)
            if event is not None:
                if (event.lock_class == "token"
                        and (uses_loop_var(event.key_expr)
                             or (event.key_expr is None
                                 and uses_loop_var(call)))):
                    found = True
                return
            if not uses_loop_var(call):
                return
            for callee in self.graph.resolve_call(call, fn):
                if callee.parent is fn:
                    callee_facts = dict(local_facts)
                    callee_facts.update(
                        call_facts(call, callee, local_facts))
                else:
                    callee_facts = call_facts(call, callee, local_facts)
                if self.model.token_acquires(callee, callee_facts):
                    found = True
                    return

        walk_with_facts(loop.body, facts, on_call)
        return found

    # -- pipeline windows ------------------------------------------------

    def check_pipelined_acquires(self, fn: FunctionInfo) -> None:
        def on_call(call: ast.Call, facts: Facts) -> None:
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "pipeline" and call.args):
                return
            rtype = self.graph.receiver_type(call.func.value, fn)
            if rtype is not None and rtype != "ProtocolEngine":
                return
            for gen_call in self._gen_calls(call.args[0]):
                for callee in self.graph.resolve_call(gen_call, fn):
                    if callee.parent is fn:
                        callee_facts = dict(facts)
                        callee_facts.update(
                            call_facts(gen_call, callee, facts))
                    else:
                        callee_facts = call_facts(gen_call, callee, facts)
                    if self.model.token_acquires(callee, callee_facts):
                        self.reporter.flag(
                            fn.sf, call.lineno, self.RULE, self.SLUG,
                            f"generator '{callee.name}' may acquire a "
                            "write token inside a pipeline window; the "
                            "sliding window overlaps acquisitions and "
                            "voids the ascending-order deadlock proof "
                            "(write acquires must stay serial)"
                        )

        walk_with_facts(fn.node.body, {}, on_call)

    @staticmethod
    def _gen_calls(expr: ast.expr) -> List[ast.Call]:
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            if isinstance(expr.elt, ast.Call):
                return [expr.elt]
            return []
        if isinstance(expr, (ast.List, ast.Tuple)):
            return [e for e in expr.elts if isinstance(e, ast.Call)]
        return []

    # -- hold-and-wait cycles --------------------------------------------

    def check_hold_and_wait(self) -> None:
        edges: List[Edge] = []
        for fn in list(self.graph.functions.values()):
            edges.extend(self._function_edges(fn))
        adjacency: Dict[str, Dict[str, Edge]] = {}
        for edge in edges:
            adjacency.setdefault(edge.held, {}).setdefault(
                edge.acquired, edge)
        for cycle in self._cycles(adjacency):
            witnesses = []
            for index, node in enumerate(cycle):
                nxt = cycle[(index + 1) % len(cycle)]
                witness = adjacency[node][nxt]
                witnesses.append(
                    f"{node}->{nxt} at {witness.fn.sf.path}:{witness.line}"
                )
            first = adjacency[cycle[0]][cycle[1]]
            self.reporter.flag(
                first.fn.sf, first.line, self.RULE, self.SLUG,
                "hold-and-wait cycle across lock classes: "
                + " ".join(witnesses)
            )

    def _function_edges(self, fn: FunctionInfo) -> List[Edge]:
        edges: List[Edge] = []
        held: Set[str] = set()

        def acquire(lock_class: str, line: int) -> None:
            for holder in held:
                if holder != lock_class:
                    edges.append(Edge(holder, lock_class, fn, line))
            held.add(lock_class)

        def on_call(call: ast.Call, facts: Facts) -> None:
            func = call.func
            if isinstance(func, ast.Attribute):
                # Releases first so scoped acquire/release pairs in
                # sequence do not fabricate held state.
                if func.attr in ("release", "abort"):
                    rtype = self.graph.receiver_type(func.value, fn)
                    name = self._receiver_simple_name(func.value)
                    if rtype == "CopysetLedger" or name == "ledger":
                        if func.attr == "release" or func.attr == "abort":
                            held.discard("token")
                            return
                    if rtype == "KeyedMutex" or (
                            name and name.endswith("_mutex")):
                        held.discard("mutex")
                        return
                if func.attr == "op_unlock":
                    held.discard("pagelock")
                    return
            event = self.model.classify(call, fn, facts)
            if event is not None:
                if event.lock_class == "home":
                    # Scoped: the key mutex is held exactly while the
                    # wrapped generator runs.
                    for holder in held:
                        if holder != "home":
                            edges.append(Edge(holder, "home", fn,
                                              call.lineno))
                    if len(call.args) >= 2 and isinstance(
                            call.args[1], ast.Call):
                        for callee in self.graph.resolve_call(
                                call.args[1], fn):
                            inner = self.model.summary(
                                callee,
                                call_facts(call.args[1], callee, facts))
                            for acquired in inner:
                                if acquired != "home":
                                    edges.append(Edge(
                                        "home", acquired, fn, call.lineno))
                                for holder in held:
                                    if holder != acquired:
                                        edges.append(Edge(
                                            holder, acquired, fn,
                                            call.lineno))
                    return
                acquire(event.lock_class, call.lineno)
                return
            for callee in self.graph.resolve_call(call, fn):
                if callee.parent is fn:
                    callee_facts = dict(facts)
                    callee_facts.update(call_facts(call, callee, facts))
                else:
                    callee_facts = call_facts(call, callee, facts)
                for acquired in self.model.summary(callee, callee_facts):
                    for holder in held:
                        if holder != acquired:
                            edges.append(Edge(holder, acquired, fn,
                                              call.lineno))

        walk_with_facts(fn.node.body, {}, on_call)
        return edges

    @staticmethod
    def _receiver_simple_name(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None

    @staticmethod
    def _cycles(adjacency: Dict[str, Dict[str, Edge]]
                ) -> List[List[str]]:
        """Simple cycles of length >= 2 over the (tiny) class graph,
        each reported once (rotated to its lexicographically smallest
        node)."""
        seen: Set[Tuple[str, ...]] = set()
        cycles: List[List[str]] = []
        nodes = sorted(adjacency)

        def walk(path: List[str]) -> None:
            current = path[-1]
            for nxt in sorted(adjacency.get(current, ())):
                if nxt == path[0] and len(path) >= 2:
                    smallest = min(range(len(path)),
                                   key=lambda i: path[i])
                    canonical = tuple(path[smallest:] + path[:smallest])
                    if canonical not in seen:
                        seen.add(canonical)
                        cycles.append(list(canonical))
                elif nxt not in path:
                    walk(path + [nxt])

        for node in nodes:
            walk([node])
        return cycles
