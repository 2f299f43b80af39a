"""KHZ102 — reply-path completeness for request-class messages.

KHZ002 checks, per file, that every ``MessageType`` member has *some*
handler.  This pass goes strictly deeper: it parses the actual route
table (:meth:`MessageRouter.wire`), takes every route registered with
``dedup=True`` — the request class, whose senders block on a reply —
and proves each handler replies (or naks) on **every** path, including
early returns, except arms, and the generator bodies it spawns.

What counts as discharging the obligation on a path:

* a direct ``reply`` / ``nak`` / ``reply_request`` / ``reply_error``
  call that mentions the message;
* delegating the message to a helper that itself always replies
  (``serve_owner_fetch``, ``serve_fetch``, ``reply_pages``, ...), resolved
  through the call graph and checked recursively;
* ``spawn_handler(msg, gen(), op)`` where the spawned generator
  always replies **or raises** — the kernel's handler wrapper naks a
  request on task failure, so a raise is a completed reply path;
* calling a replier parameter — a callable parameter that every call
  site binds to a replying lambda/function (the
  ``serve_token_grants`` shape);
* ``defer_until_unlocked(page, cb)`` where ``cb`` always replies —
  deferral moves the reply in time, not away;
* an exit that only happens when ``msg.request_id is None``: one-way
  transmissions of the same type (fan-outs) expect no reply;
* a guard of the form ``if not helper(...): return`` where every
  ``return False`` path inside the helper has already replied
  (``primary_only`` / ``check_remote_access``);
* raising: an unhandled exception is loud, not silent, and becomes a
  nak — from ``MessageRouter.dispatch`` for a sync handler, from
  ``spawn_handler`` in a spawned task.

Everything else that lets a ``dedup=True`` handler return is a
finding: a client hangs until its RPC timeout for every such path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    attribute_chain,
    map_args,
)

REPLYING_ATTRS = {"reply", "nak", "reply_request", "reply_error"}


@dataclass
class RouteInfo:
    msg_type: str
    handler_expr: ast.expr
    dedup: bool
    wire_fn: FunctionInfo
    line: int


@dataclass
class _Ctx:
    """One function being evaluated."""

    fn: FunctionInfo
    msg_name: str
    violations: List[int] = field(default_factory=list)


class ReplyPathAnalysis:
    RULE = "KHZ102"
    SLUG = "reply-path"

    def __init__(self, graph: CallGraph, reporter) -> None:
        self.graph = graph
        self.reporter = reporter
        self._must_reply_memo: Dict[Tuple[str, str], bool] = {}
        self._in_progress: Set[Tuple[str, str]] = set()
        self._guard_memo: Dict[Tuple[str, str], bool] = {}
        self._replier_memo: Dict[Tuple[Tuple[str, str], str], bool] = {}

    # -- route table -----------------------------------------------------

    def routes(self) -> List[RouteInfo]:
        found: List[RouteInfo] = []
        for fn in self.graph.functions.values():
            if fn.name != "wire":
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else (
                    callee.attr if isinstance(callee, ast.Attribute) else "")
                if name not in ("reg", "register") or len(node.args) < 2:
                    continue
                chain = attribute_chain(node.args[0])
                if not (chain and chain[0] == "MessageType"
                        and len(chain) == 2):
                    continue
                dedup = any(
                    kw.arg == "dedup" and isinstance(kw.value, ast.Constant)
                    and bool(kw.value.value)
                    for kw in node.keywords
                )
                found.append(RouteInfo(chain[1], node.args[1], dedup,
                                       fn, node.lineno))
        return found

    def handlers_for(self, route: RouteInfo) -> List[FunctionInfo]:
        expr = route.handler_expr
        # ``self.cm_dispatch("handle_update")``: every project class
        # defining that method is a possible consistency manager.
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "cm_dispatch"
                and expr.args
                and isinstance(expr.args[0], ast.Constant)):
            return list(self.graph.by_method.get(expr.args[0].value, []))
        if isinstance(expr, ast.Attribute):
            receiver = self.graph.receiver_type(expr.value, route.wire_fn)
            if receiver is not None:
                hits = self.graph.lookup_method(receiver, expr.attr)
                if hits:
                    return hits
            return list(self.graph.by_method.get(expr.attr, []))
        return []

    # -- driver ----------------------------------------------------------

    def run(self) -> None:
        seen: Set[Tuple[Tuple[str, str], str]] = set()
        for route in self.routes():
            if not route.dedup:
                continue    # one-way traffic owes nobody a reply
            for handler in self.handlers_for(route):
                msg_name = self._msg_param(handler)
                if msg_name is None:
                    continue
                key = (handler.key, route.msg_type)
                if key in seen:
                    continue
                seen.add(key)
                ctx = _Ctx(handler, msg_name)
                satisfied, exempt, reachable = self._eval_block(
                    handler.node.body, ctx, satisfied=False, exempt=False)
                if reachable and not satisfied and not exempt:
                    ctx.violations.append(handler.node.body[-1].lineno)
                for line in sorted(set(ctx.violations)):
                    self.reporter.flag(
                        handler.sf, line, self.RULE, self.SLUG,
                        f"handler '{handler.qualname}' for "
                        f"MessageType.{route.msg_type} (a request route) "
                        "can exit here without reply or nak; the "
                        "requester hangs until its RPC timeout"
                    )

    @staticmethod
    def _msg_param(fn: FunctionInfo) -> Optional[str]:
        for name in fn.params:
            if name == "msg" or fn.param_type(name) == "Message":
                return name
        return None

    # -- the path walker -------------------------------------------------

    def must_reply(self, fn: FunctionInfo, msg_name: str) -> bool:
        """Every exit of ``fn`` replies, is exempt, or raises."""
        key = (fn.key, msg_name)
        cached = self._must_reply_memo.get(key)
        if cached is not None:
            return cached
        if key[0:1] and key in self._in_progress:
            return True     # optimistic on recursion; cycles are rare
        self._in_progress.add(key)
        ctx = _Ctx(fn, msg_name)
        satisfied, exempt, reachable = self._eval_block(
            fn.node.body, ctx, satisfied=False, exempt=False)
        ok = not ctx.violations and (satisfied or exempt or not reachable)
        self._in_progress.discard(key)
        self._must_reply_memo[key] = ok
        return ok

    def _eval_block(self, stmts: Sequence[ast.stmt], ctx: _Ctx,
                    satisfied: bool, exempt: bool
                    ) -> Tuple[bool, bool, bool]:
        """Returns ``(satisfied, exempt, reachable)`` at block end.

        Records a violation for every ``return`` (or implicit fall-off
        handled by the caller) reached with ``satisfied`` and
        ``exempt`` both false.
        """
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Return):
                if not satisfied and not exempt:
                    ctx.violations.append(stmt.lineno)
                return satisfied, exempt, False
            if isinstance(stmt, ast.Raise):
                return satisfied, exempt, False
            if isinstance(stmt, (ast.Break, ast.Continue)):
                return satisfied, exempt, False
            if isinstance(stmt, ast.If):
                satisfied, exempt, reachable = self._eval_if(
                    stmt, ctx, satisfied, exempt)
                if not reachable:
                    return satisfied, exempt, False
                continue
            if isinstance(stmt, ast.Try):
                satisfied = self._eval_try(stmt, ctx, satisfied, exempt)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # The body may run zero times: a reply inside a loop
                # does not establish the obligation after it.
                self._eval_block(stmt.body, ctx, satisfied, exempt)
                self._eval_block(stmt.orelse, ctx, satisfied, exempt)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                satisfied, exempt, reachable = self._eval_block(
                    stmt.body, ctx, satisfied, exempt)
                if not reachable:
                    return satisfied, exempt, False
                continue
            if self._stmt_replies(stmt, ctx):
                satisfied = True
        return satisfied, exempt, True

    def _eval_if(self, stmt: ast.If, ctx: _Ctx, satisfied: bool,
                 exempt: bool) -> Tuple[bool, bool, bool]:
        rid = self._request_id_test(stmt.test, ctx.msg_name)
        then_exempt, else_exempt = exempt, exempt
        if rid == "is_none":
            then_exempt = True
        elif rid == "is_not_none":
            else_exempt = True
        if self._is_replied_guard(stmt, ctx):
            # ``if not helper(...): return`` where the helper replied
            # on every False return — the early exit is clean.
            then_exempt = True
        then_satisfied, then_exempt, then_reach = self._eval_block(
            stmt.body, ctx, satisfied, then_exempt)
        if stmt.orelse:
            else_satisfied, else_exempt, else_reach = self._eval_block(
                stmt.orelse, ctx, satisfied, else_exempt)
        else:
            else_satisfied, else_reach = satisfied, True
        if not then_reach and not else_reach:
            return satisfied, exempt, False
        if not then_reach:
            # Only the else path continues; its exemption holds.
            return else_satisfied, else_exempt, True
        if not else_reach:
            return then_satisfied, then_exempt, True
        both = then_satisfied and else_satisfied
        # ``if msg.request_id is not None: reply(...)`` and fall
        # through: the remaining unreplied path is the one-way case.
        if rid == "is_not_none" and then_satisfied and not stmt.orelse:
            return True, exempt, True
        if rid == "is_none" and else_satisfied and not stmt.body:
            return True, exempt, True
        return both, exempt and then_exempt and else_exempt, True

    def _eval_try(self, stmt: ast.Try, ctx: _Ctx, satisfied: bool,
                  exempt: bool) -> bool:
        body_satisfied, _, body_reach = self._eval_block(
            stmt.body, ctx, satisfied, exempt)
        handlers_ok = True
        for handler in stmt.handlers:
            # The exception may fire before any reply in the body.
            h_satisfied, h_exempt, h_reach = self._eval_block(
                handler.body, ctx, satisfied, exempt)
            if h_reach and not h_satisfied and not h_exempt:
                handlers_ok = False
        else_satisfied = body_satisfied
        if stmt.orelse:
            else_satisfied, _, _ = self._eval_block(
                stmt.orelse, ctx, body_satisfied, exempt)
        out = else_satisfied and handlers_ok
        if stmt.finalbody:
            fin_satisfied, _, _ = self._eval_block(
                stmt.finalbody, ctx, out, exempt)
            out = fin_satisfied
        return out

    # -- what discharges the obligation ----------------------------------

    def _stmt_replies(self, stmt: ast.stmt, ctx: _Ctx) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Call) and self._call_replies(node, ctx):
                return True
        return False

    def _call_replies(self, call: ast.Call, ctx: _Ctx) -> bool:
        func = call.func
        mentions_msg = any(
            isinstance(a, ast.Name) and a.id == ctx.msg_name
            for a in list(call.args) + [kw.value for kw in call.keywords]
        )
        if isinstance(func, ast.Attribute):
            if func.attr in REPLYING_ATTRS and mentions_msg:
                return True
            if func.attr == "spawn_handler" and mentions_msg:
                return self._spawned_gen_replies(call, ctx)
            if func.attr == "defer_until_unlocked" and len(call.args) >= 2:
                return self._callback_replies(call.args[1], ctx)
        if isinstance(func, ast.Name):
            # A replier parameter (the serve_token_grants shape).
            if self._is_replier_param(func.id, ctx.fn):
                return True
            # ``apply()`` — a nested def replying via the closed-over
            # message (the serve_invalidate else-arm shape).
            for callee in self.graph.resolve_name(func.id, ctx.fn):
                if (callee.parent is not None
                        and self.must_reply(callee, ctx.msg_name)):
                    return True
        if mentions_msg:
            for callee in self.graph.resolve_call(call, ctx.fn):
                mapped = map_args(call, callee)
                for param, arg in mapped.items():
                    if isinstance(arg, ast.Name) and arg.id == ctx.msg_name:
                        if callee.parent is not None:
                            # A nested def sharing ``msg`` by closure.
                            if self.must_reply(callee, ctx.msg_name):
                                return True
                        elif self.must_reply(callee, param):
                            return True
        return False

    def _spawned_gen_replies(self, call: ast.Call, ctx: _Ctx) -> bool:
        if len(call.args) < 2 or not isinstance(call.args[1], ast.Call):
            return False
        for callee in self.graph.resolve_call(call.args[1], ctx.fn):
            # Closures read the same ``msg``; standalone gens get it
            # as a parameter.
            name = ctx.msg_name if callee.parent is not None else (
                self._msg_param(callee) or ctx.msg_name)
            if self.must_reply(callee, name):
                return True
        return False

    def _callback_replies(self, arg: ast.expr, ctx: _Ctx) -> bool:
        if isinstance(arg, ast.Lambda):
            return (isinstance(arg.body, ast.Call)
                    and self._call_replies(arg.body, ctx))
        if isinstance(arg, ast.Name):
            for callee in self.graph.resolve_name(arg.id, ctx.fn):
                if self.must_reply(callee, ctx.msg_name):
                    return True
        return False

    # -- guard helpers ---------------------------------------------------

    def _request_id_test(self, test: ast.expr,
                         msg_name: str) -> Optional[str]:
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return None
        left = test.left
        if not (isinstance(left, ast.Attribute)
                and left.attr == "request_id"
                and isinstance(left.value, ast.Name)
                and left.value.id == msg_name):
            return None
        right = test.comparators[0]
        if not (isinstance(right, ast.Constant) and right.value is None):
            return None
        if isinstance(test.ops[0], ast.Is):
            return "is_none"
        if isinstance(test.ops[0], ast.IsNot):
            return "is_not_none"
        return None

    def _is_replied_guard(self, stmt: ast.If, ctx: _Ctx) -> bool:
        test = stmt.test
        if not (isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Call)):
            return False
        for callee in self.graph.resolve_call(test.operand, ctx.fn):
            if self._false_paths_reply(callee):
                return True
        return False

    def _false_paths_reply(self, fn: FunctionInfo) -> bool:
        """Every ``return False`` in ``fn`` happens after a reply."""
        key = fn.key
        cached = self._guard_memo.get(key)
        if cached is not None:
            return cached
        false_returns: List[bool] = []

        def walk(stmts: Sequence[ast.stmt], satisfied: bool) -> bool:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Return):
                    value = stmt.value
                    if (isinstance(value, ast.Constant)
                            and value.value is False):
                        false_returns.append(satisfied)
                    return satisfied
                for node in ast.walk(stmt) if not isinstance(
                        stmt, (ast.If, ast.Try)) else ():
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in REPLYING_ATTRS):
                        satisfied = True
                if isinstance(stmt, ast.If):
                    walk(stmt.body, satisfied)
                    walk(stmt.orelse, satisfied)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body, satisfied)
                    for handler in stmt.handlers:
                        walk(handler.body, satisfied)
                    walk(stmt.finalbody, satisfied)
            return satisfied

        walk(fn.node.body, False)
        ok = bool(false_returns) and all(false_returns)
        self._guard_memo[key] = ok
        return ok

    def _is_replier_param(self, name: str, fn: FunctionInfo) -> bool:
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if name in scope.params:
                break
            scope = scope.parent
        if scope is None:
            return False
        key = (scope.key, name)
        cached = self._replier_memo.get(key)
        if cached is not None:
            return cached
        callers = self.graph.callers_of(scope)
        ok = bool(callers)
        for caller, call in callers:
            arg = map_args(call, scope).get(name)
            if isinstance(arg, ast.Lambda) and isinstance(
                    arg.body, ast.Call):
                body = arg.body
                if (isinstance(body.func, ast.Attribute)
                        and body.func.attr in REPLYING_ATTRS):
                    continue
            ok = False
            break
        self._replier_memo[key] = ok
        return ok
