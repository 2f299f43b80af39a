"""Per-CM effect summaries over the flow call graph.

Every KHZ20x rule asks the same question about different effects:
*starting from this method of this consistency manager, what can the
code reach?*  :class:`Summarizer` answers it by walking the call
graph in the context of one CM class — virtual dispatch on the
``ConsistencyManager`` family is narrowed to that class's MRO, so
crew's directory traffic is never attributed to release — and
folding what it finds into an :class:`EffectSummary`:

* ``fires``: page-state events driven through ``pages.fire`` (the
  only legal way to move a page between states);
* ``var_fires``: ``fire`` sites whose event is a parameter — the
  table-driven installers — resolved to constants via their in-slice
  callers by :func:`resolve_fire_events`;
* ``naks`` / ``replies``: whether a request can be answered;
* ``ledger_ops``: write-token traffic (KHZ202's counters);
* ``guards``: serialization evidence (ledger acquire, home
  transaction, home grant request) that KHZ202's proofs discharge
  write-grant obligations against;
* ``mutations``: any other observable host effect, which is what
  separates a deliberate one-way absorb from a silent drop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    attribute_chain,
    body_walk,
    map_args,
)
from repro.analysis.protocol.model import CM_BASE, ProtocolModel, Route

#: Host/engine calls that observably change node state without going
#: through ``pages.fire`` — a handler reaching one of these is doing
#: real work, not silently dropping the message.
MUTATION_METHODS = frozenset({
    "store_local_page", "drop_local_page", "mark_clean",
    "record_sharer", "forget_sharer", "set_owner", "take_ownership",
})

#: Message types whose home round-trip grants write access; a reply
#: to one of these is serialization evidence for KHZ202.
GRANT_REQUEST_TYPES = frozenset({"LOCK_REQUEST"})

MAX_DEPTH = 10

Site = Tuple[str, int]           # (path, line)


@dataclass(frozen=True)
class Guard:
    """One piece of write-serialization evidence."""

    kind: str                    # ledger-acquire | home-transaction | ...
    path: str
    line: int
    detail: str


@dataclass(frozen=True)
class VarFire:
    """A ``pages.fire(addr, event)`` site with a non-constant event."""

    fn_key: Tuple[str, str]
    path: str
    line: int
    var_name: Optional[str]      # None: not even a plain name


@dataclass
class EffectSummary:
    fires: Dict[str, Site] = field(default_factory=dict)
    var_fires: List[VarFire] = field(default_factory=list)
    naks: List[Site] = field(default_factory=list)
    replies: List[Site] = field(default_factory=list)
    ledger_ops: Dict[str, List[Site]] = field(default_factory=dict)
    guards: List[Guard] = field(default_factory=list)
    mutations: List[Site] = field(default_factory=list)
    reached: Set[Tuple[str, str]] = field(default_factory=set)

    def merge(self, other: "EffectSummary") -> None:
        for event, site in other.fires.items():
            self.fires.setdefault(event, site)
        self.var_fires.extend(
            v for v in other.var_fires if v not in self.var_fires
        )
        self.naks.extend(s for s in other.naks if s not in self.naks)
        self.replies.extend(s for s in other.replies
                            if s not in self.replies)
        for op, sites in other.ledger_ops.items():
            known = self.ledger_ops.setdefault(op, [])
            known.extend(s for s in sites if s not in known)
        self.guards.extend(g for g in other.guards
                           if g not in self.guards)
        self.mutations.extend(s for s in other.mutations
                              if s not in self.mutations)
        self.reached |= other.reached

    def reaches(self, func_name: str) -> bool:
        return any(qual.split(".")[-1] == func_name
                   for _, qual in self.reached)


def fire_event_constants(expr: ast.expr) -> Optional[List[str]]:
    """Constant events an event argument can evaluate to, if literal."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "PageEvent"):
        return [expr.attr]
    if isinstance(expr, ast.IfExp):
        branches = []
        for branch in (expr.body, expr.orelse):
            sub = fire_event_constants(branch)
            if sub is None:
                return None
            branches.extend(sub)
        return branches
    return None


class Summarizer:
    """Context-narrowed transitive effect summaries, cached per
    (function, CM class)."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._cache: Dict[Tuple[Tuple[str, str], str], EffectSummary] = {}
        self._cm_family = graph.subclasses(CM_BASE) | {CM_BASE}

    # -- dispatch narrowing ---------------------------------------------

    def _mro_order(self, cm_class: str) -> List[str]:
        """Subclass-first linearization (good enough for this
        single-inheritance codebase)."""
        out: List[str] = []
        frontier = [cm_class]
        while frontier:
            name = frontier.pop(0)
            if name in out:
                continue
            out.append(name)
            for ci in self.graph.class_infos(name):
                frontier.extend(ci.bases)
        return out

    def _mro_names(self, cm_class: str) -> Set[str]:
        return set(self._mro_order(cm_class))

    def _narrow(self, hits: Sequence[FunctionInfo],
                cm_class: str) -> List[FunctionInfo]:
        """Drop sibling-CM overrides when resolving in ``cm_class``
        context; keep the MRO-nearest definition."""
        family_hits = [h for h in hits if h.cls is not None
                       and h.cls.name in self._cm_family]
        if not family_hits:
            return list(hits)
        mro = self._mro_names(cm_class)
        in_mro = [h for h in family_hits if h.cls.name in mro]
        others = [h for h in hits if h.cls is None
                  or h.cls.name not in self._cm_family]
        if in_mro:
            # Prefer the subclass override over the base default.
            chosen = [h for h in in_mro if h.cls.name == cm_class]
            return (chosen or in_mro[:1]) + others
        return others

    # -- summarization ---------------------------------------------------

    def summarize(self, fn: FunctionInfo, cm_class: str,
                  _depth: int = 0) -> EffectSummary:
        key = (fn.key, cm_class)
        if key in self._cache:
            return self._cache[key]
        summary = EffectSummary()
        summary.reached.add(fn.key)
        # Break cycles: an in-progress function contributes what has
        # been folded in so far (its direct effects land below).
        self._cache[key] = summary
        if _depth > MAX_DEPTH:
            return summary
        for node in body_walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            self._direct_effects(summary, fn, node)
            for callee in self._narrow(
                    self.graph.resolve_call(node, fn), cm_class):
                if callee.key == fn.key:
                    continue
                summary.merge(
                    self.summarize(callee, cm_class, _depth + 1)
                )
        return summary

    def _direct_effects(self, summary: EffectSummary, fn: FunctionInfo,
                        call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        chain = attribute_chain(func) or []
        site: Site = (fn.sf.path, call.lineno)
        attr = func.attr
        if attr == "fire" and "pages" in chain and len(call.args) >= 2:
            events = fire_event_constants(call.args[1])
            if events is not None:
                for event in events:
                    summary.fires.setdefault(event, site)
            else:
                var = (call.args[1].id
                       if isinstance(call.args[1], ast.Name) else None)
                vf = VarFire(fn_key=fn.key, path=fn.sf.path,
                             line=call.lineno, var_name=var)
                if vf not in summary.var_fires:
                    summary.var_fires.append(vf)
            return
        if attr == "drop" and "pages" in chain:
            summary.mutations.append(site)
            return
        if attr == "nak":
            summary.naks.append(site)
            return
        if attr == "reply":
            summary.replies.append(site)
            return
        if attr in ("acquire", "grant", "release", "abort") \
                and "ledger" in chain:
            summary.ledger_ops.setdefault(attr, []).append(site)
            if attr == "acquire":
                summary.guards.append(Guard(
                    "ledger-acquire", fn.sf.path, call.lineno,
                    "CopysetLedger.acquire blocks until the write "
                    "token is free",
                ))
            return
        if attr == "run" and "home" in chain:
            summary.guards.append(Guard(
                "home-transaction", fn.sf.path, call.lineno,
                "HomeTransactions.run serializes grants per page",
            ))
            return
        # Any call sending a grant-class request (request_home, or a
        # CM's own wrapper around it) is serialization evidence: write
        # access only arrives as the serializing home's reply.
        for arg in call.args:
            if (isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "MessageType"
                    and arg.attr in GRANT_REQUEST_TYPES):
                summary.guards.append(Guard(
                    "home-grant-reply", fn.sf.path, call.lineno,
                    f"write access arrives as a MessageType."
                    f"{arg.attr} reply from the serializing home",
                ))
                break
        if attr in MUTATION_METHODS:
            summary.mutations.append(site)


def resolve_fire_events(
    graph: CallGraph, site: VarFire, slice_keys: Set[Tuple[str, str]],
) -> Optional[List[Tuple[str, List[FunctionInfo]]]]:
    """Constant events a variable-event ``fire`` site can carry.

    Walks in-slice callers mapping arguments onto the event
    parameter; returns ``(event, caller_chain)`` pairs — the chain is
    the guard-search context for KHZ202 — or ``None`` when any path
    stays unresolvable (a KHZ201 finding: the automaton input is no
    longer static).
    """
    fn = graph.functions.get(site.fn_key)
    if fn is None or site.var_name is None:
        return None
    out: List[Tuple[str, List[FunctionInfo]]] = []

    def walk(target: FunctionInfo, var: str,
             chain: List[FunctionInfo], depth: int) -> bool:
        if depth > 5:
            return False
        callers = [
            (caller, call) for caller, call in graph.callers_of(target)
            if caller.key in slice_keys and caller.key != target.key
        ]
        if not callers:
            return False
        ok = True
        for caller, call in callers:
            arg = map_args(call, target).get(var)
            if arg is None:
                ok = False
                continue
            events = fire_event_constants(arg)
            if events is not None:
                for event in events:
                    out.append((event, chain + [caller]))
                continue
            if isinstance(arg, ast.Name):
                if not walk(caller, arg.id, chain + [caller], depth + 1):
                    ok = False
                continue
            ok = False
        return ok

    if not walk(fn, site.var_name, [fn], 0):
        return None
    return out


@dataclass
class ModelSlice:
    """Everything the rules need about one CM: its model, the routed
    handler summaries, and the union summary over every method."""

    model: ProtocolModel
    handlers: Dict[str, Tuple[FunctionInfo, EffectSummary]]
    full: EffectSummary
    keys: Set[Tuple[str, str]]

    def resolved_fires(self, graph: CallGraph,
                       summary: EffectSummary
                       ) -> Tuple[Dict[str, Site], List[VarFire]]:
        """``summary.fires`` plus var-fire instantiations; unresolved
        sites come back separately."""
        fires = dict(summary.fires)
        unresolved: List[VarFire] = []
        for vf in summary.var_fires:
            hits = resolve_fire_events(graph, vf, self.keys)
            if hits is None:
                unresolved.append(vf)
                continue
            for event, _chain in hits:
                fires.setdefault(event, (vf.path, vf.line))
        return fires, unresolved


def build_slice(graph: CallGraph, summarizer: Summarizer,
                model: ProtocolModel,
                routes: Sequence[Route]) -> ModelSlice:
    handlers: Dict[str, Tuple[FunctionInfo, EffectSummary]] = {}
    full = EffectSummary()
    for route in routes:
        hits = graph.lookup_method(model.class_name, route.handler,
                                   virtual=False)
        if not hits:
            continue
        fn = hits[0]
        summary = summarizer.summarize(fn, model.class_name)
        handlers[route.handler] = (fn, summary)
        full.merge(summary)
    # Client-side paths (acquire/release/evict/tick/...) complete the
    # slice: KHZ201's undeclared-event check covers both sides.
    seen: Set[str] = set()
    for name in summarizer._mro_order(model.class_name):
        for ci in graph.class_infos(name):
            for method_name, fn in ci.methods.items():
                if method_name in seen:
                    continue   # subclass override already folded in
                seen.add(method_name)
                full.merge(summarizer.summarize(fn, model.class_name))
    return ModelSlice(model=model, handlers=handlers, full=full,
                      keys=set(full.reached))
