"""Wire primitives: the only road from a consistency policy to the
network.

Lint rule KHZ007 forbids policy modules (everything under
``repro/consistency/`` outside this package) from touching
``host.rpc`` or ``host.reply_*`` directly; every request, one-way
send, reply, and NAK goes through a :class:`ProtocolEngine` primitive
so that retry policies, home failover, NAK classification
(:func:`typed_denial`), page-list counters, and task labels are
uniform across protocols.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, Iterable, List,
                    Optional, Tuple)

from repro.consistency.engine.batch import BatchPlanner, PageMeta
from repro.consistency.engine.counters import EngineCounters
from repro.consistency.engine.directory import DirectoryCoherence
from repro.consistency.engine.home import HomeTransactions
from repro.consistency.engine.ledger import CopysetLedger
from repro.core.errors import ERROR_CODES, LockDenied, error_from_code
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout
from repro.net.tasks import Future, gather_settled

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

ProtocolGen = Generator[Future, Any, Any]

#: Most independent per-page transactions one multi-page operation
#: keeps in flight (:meth:`ProtocolEngine.pipeline`): READ acquires
#: and home-local releases.  Order-dependent traffic — WRITE-token
#: acquisition, taken in ascending page order to stay deadlock-free —
#: never rides the pipeline.
PIPELINE_WINDOW = 8

#: Home NAK codes that mean "this node no longer serves the region" —
#: after a re-home the stale descriptor's first home answers with one
#: of these, and the ordered failover must keep trying later
#: candidates even in ``nak="raise"`` mode instead of surfacing a
#: denial for what is merely a moved region.
STALE_HOME_NAKS = frozenset({"not_responsible", "region_not_found"})

#: Wire message kind -> engine operation, for uniform trace grouping.
WIRE_OPS: Dict[MessageType, str] = {
    MessageType.LOCK_REQUEST: "grant",
    MessageType.LOCK_REPLY: "grant",
    MessageType.PAGE_FETCH: "fetch",
    MessageType.PAGE_DATA: "fetch",
    MessageType.UPDATE_PUSH: "update",
    MessageType.UPDATE_ACK: "update",
    MessageType.INVALIDATE: "invalidate",
    MessageType.INVALIDATE_ACK: "invalidate",
    MessageType.SHARER_REGISTER: "copyset",
    MessageType.SHARER_UNREGISTER: "copyset",
}


def wire_op(msg_type: MessageType) -> Optional[str]:
    """The engine operation a wire message kind belongs to, if any."""
    return WIRE_OPS.get(msg_type)


def transaction_label(protocol: str, op: str, detail: str = "") -> str:
    """Uniform task label for engine-run protocol transactions.

    ``detail`` (e.g. the wire message kind a handler serves) keeps
    labels distinguishable for the schedule explorer's coverage and
    trace grouping without breaking the stable ``cm:{protocol}:{op}``
    prefix.
    """
    label = f"cm:{protocol}:{op}"
    return f"{label}:{detail}" if detail else label


def typed_denial(error: Any) -> Exception:
    """Turn a peer's NAK into the most specific client-facing error.

    Known Khazana codes (access_denied, not_allocated, ...) surface as
    their typed exceptions; anything else becomes LockDenied.
    """
    if getattr(error, "code", None) in ERROR_CODES:
        return error_from_code(error.code, error.detail)
    return LockDenied(str(error))


class ProtocolEngine:
    """Shared mechanism under one consistency manager.

    One engine per (daemon, protocol); the policy reaches every
    subsystem through it: ``engine.home`` (per-page transaction
    mutex), ``engine.ledger`` (write tokens + probe ordering),
    ``engine.batch`` (page-list replies, fetch, push),
    ``engine.directory`` (owner/copyset coherence), plus the wire
    primitives below.
    """

    def __init__(self, cm: Any) -> None:
        self.cm = cm
        self.host: "CMHost" = cm.host
        self.counters = EngineCounters()
        self.home = HomeTransactions()
        self.ledger = CopysetLedger(self.host)
        self.batch = BatchPlanner(self)
        self.directory = DirectoryCoherence(self)

    # -- outbound --------------------------------------------------------

    def request(self, dst: int, msg_type: MessageType,
                payload: Optional[Dict[str, Any]] = None,
                policy: Optional[RetryPolicy] = None) -> Future:
        """An acknowledged request to one peer."""
        if payload is not None and len(
                payload.get("pages") or payload.get("updates") or ()) > 1:
            self.counters.batch_fanouts += 1
        return self.host.rpc.request(dst, msg_type, payload, policy=policy)

    def send(self, dst: int, msg_type: MessageType,
             payload: Dict[str, Any]) -> None:
        """A one-way (fire-and-forget) message to one peer."""
        self.host.rpc.send(
            Message(
                msg_type=msg_type,
                src=self.host.node_id,
                dst=dst,
                payload=payload,
            )
        )

    # -- replies ---------------------------------------------------------

    def reply(self, msg: Message, msg_type: MessageType,
              payload: Optional[Dict[str, Any]] = None) -> None:
        """Answer a request (no-op for one-way messages)."""
        self.host.reply_request(msg, msg_type, payload)

    def nak(self, msg: Message, code: str, detail: str = "") -> None:
        """Refuse a request with a typed error code."""
        self.host.reply_error(msg, code, detail)

    # -- home fan-out ----------------------------------------------------

    def request_home(
        self,
        desc: RegionDescriptor,
        msg_type: MessageType,
        payload: Dict[str, Any],
        *,
        policy: Optional[RetryPolicy],
        fail: str,
        nak: str = "raise",
    ) -> ProtocolGen:
        """Ask the region's home candidates (in order) until one
        answers.

        The candidate order comes from the host's placement strategy
        (:meth:`~repro.core.kernel.NodeKernel.home_order`): normally
        the descriptor's own home list, but after a re-home the
        strategy may promote or append the region's *current* home so
        in-flight traffic survives a migration the caller has not
        heard about yet.

        Timeouts always fail over to the next candidate (paper 3.5),
        and so do the stale-home NAKs in :data:`STALE_HOME_NAKS` — a
        former home saying "not mine any more" is a redirect, not a
        denial.  Any other NAK either surfaces immediately as its
        typed denial (``nak="raise"``, the token protocols) or also
        fails over (``nak="skip"``, availability-first protocols).
        ``fail`` is the LockDenied template for total failure,
        formatted with ``rid`` and ``error``.
        """
        last_error: Optional[Exception] = None
        for home in self.host.home_order(desc):
            if home == self.host.node_id:
                continue
            try:
                reply = yield self.request(
                    home, msg_type, payload, policy=policy
                )
                return reply
            except RpcTimeout as error:
                last_error = error   # try the next home (Section 3.5)
            except RemoteError as error:
                if nak == "skip" or error.code in STALE_HOME_NAKS:
                    last_error = error
                    continue
                raise typed_denial(error) from error
        if nak != "skip" and isinstance(last_error, RemoteError):
            # Every candidate redirected us away: surface the typed
            # denial the pre-failover path would have raised.
            raise typed_denial(last_error) from last_error
        raise LockDenied(fail.format(rid=desc.rid, error=last_error))

    def push_homes(
        self,
        desc: RegionDescriptor,
        msg_type: MessageType,
        payload: Dict[str, Any],
        *,
        policy: Optional[RetryPolicy],
        label: str,
    ) -> ProtocolGen:
        """Best-effort push to every non-self home, settled together.

        Unreachable homes are repaired by replica maintenance, not by
        failing the caller (release-type errors never surface, 3.5).
        """
        pushes = []
        for home in desc.home_nodes:
            if home == self.host.node_id:
                continue
            pushes.append(self.request(home, msg_type, payload, policy=policy))
        if pushes:
            yield gather_settled(pushes, label=label)

    def fanout(self, rid: int,
               items: Iterable[Tuple[Dict[str, Any], Iterable[int]]]) -> None:
        """One-way UPDATE_PUSH of one region's update items, each paired
        with its recipients: one push per replica site, carrying that
        site's items in ascending page order; sites are served in the
        order they are first seen.  A replica that misses a push keeps
        its stale copy until a later update or fetch."""
        per_site: Dict[int, List[Dict[str, Any]]] = {}
        for item, sites in sorted(items, key=lambda pair: pair[0]["page"]):
            for site in sites:
                per_site.setdefault(site, []).append(item)
        for site, updates in per_site.items():
            self.send(site, MessageType.UPDATE_PUSH,
                      {"rid": rid, "updates": updates})

    def serve_token_grants(
        self,
        desc: RegionDescriptor,
        msg: Message,
        pages: List[int],
        meta: PageMeta,
        op: str,
    ) -> None:
        """Home-side all-or-nothing token grant over the ledger.

        Acquire every page's write token in order, serve the current
        bytes (each granted item is ``{page, data, **meta(page)}``),
        send the LOCK_REPLY, then record the grants — the grant probe
        must fire *after* the reply it rides on.  Any failure aborts
        every token held so far: a denied or killed grant leaves no
        residue (token conservation).
        """
        ledger = self.ledger
        host = self.host

        def grant() -> ProtocolGen:
            held: List[int] = []
            granted: List[Dict[str, Any]] = []
            try:
                for page_addr in pages:
                    yield ledger.acquire(page_addr)
                    held.append(page_addr)
                    data = yield from host.local_page_bytes(desc, page_addr)
                    if data is None:
                        for token_page in held:
                            ledger.abort(token_page)
                        self.nak(msg, "not_allocated",
                                 f"page {page_addr:#x} has no storage")
                        return
                    granted.append({"page": page_addr, "data": data,
                                    **meta(page_addr)})
            except BaseException:
                # Cleanup-then-reraise: must also run when the handler
                # task is killed (GeneratorExit), or held tokens leak.
                for token_page in held:
                    ledger.abort(token_page)
                raise
            for page_addr in pages:
                entry = host.page_directory.ensure(page_addr, desc.rid,
                                                   homed=True)
                entry.record_sharer(msg.src)
            self.reply(msg, MessageType.LOCK_REPLY,
                       {"pages": granted, "errors": []})
            # Tokens now belong to msg.src until its update push with
            # release_token=True arrives.
            for page_addr in pages:
                ledger.grant(page_addr, msg.src)

        self.spawn_handler(msg, grant(), op)

    def raise_batch_errors(self, reply: Message) -> None:
        """Surface the first per-page error of a partial reply."""
        errors = reply.payload["errors"]
        if errors:
            first = errors[0]
            raise error_from_code(first["code"], first.get("detail", ""))

    # -- pipelining ------------------------------------------------------

    def pipeline(self, gens: List[ProtocolGen], *, op: str) -> ProtocolGen:
        """Run independent protocol generators with a bounded in-flight
        window; resolves to ``[(ok, value-or-exc), ...]`` in input
        order, never raising (the caller decides what a failure means).

        Up to :data:`PIPELINE_WINDOW` transactions run at once, so one
        reply's latency hides the others'; a single generator runs
        serially in the caller's task.

        The generators must be mutually independent: anything
        order-dependent — WRITE-token acquisition takes tokens in
        ascending page order to stay deadlock-free — must not come
        through here.
        """
        results: List[Any] = [None] * len(gens)
        if len(gens) <= 1:
            for index, gen in enumerate(gens):
                try:
                    value = yield from gen
                    results[index] = (True, value)
                except Exception as error:  # khz: allow-broad-except(failure is handed to the caller in the settled results, mirroring the windowed path)
                    results[index] = (False, error)
            return results
        label = transaction_label(self.cm.protocol_name, op)
        state = {"pending": 0, "gate": None}

        def settle(index: int, future: Future) -> None:
            error = future.exception()
            results[index] = (
                (False, error) if error is not None
                else (True, future.result())
            )
            state["pending"] -= 1
            gate = state["gate"]
            if gate is not None and not gate.done:
                gate.set_result(None)

        next_index = 0
        total = len(gens)
        while next_index < total or state["pending"]:
            while (next_index < total
                   and state["pending"] < PIPELINE_WINDOW):
                state["pending"] += 1
                future = self.host.spawn(
                    gens[next_index], label=f"{label}#{next_index}"
                )
                future.add_callback(
                    lambda f, i=next_index: settle(i, f)
                )
                next_index += 1
            if state["pending"]:
                # Nothing progresses between here and the yield (the
                # scheduler is single-threaded), so the first settling
                # task is guaranteed to find and fire this gate.
                gate = Future(label=f"{label}:window")
                state["gate"] = gate
                yield gate
                state["gate"] = None
        return results

    # -- task plumbing ---------------------------------------------------

    def spawn(self, gen: ProtocolGen, op: str) -> None:
        """Run a background protocol task under a uniform label."""
        self.host.spawn(
            gen, label=transaction_label(self.cm.protocol_name, op)
        )

    def spawn_handler(self, msg: Message, gen: ProtocolGen, op: str) -> None:
        """Run a request handler; uncaught errors NAK the request."""
        self.counters.home_transactions += 1
        self.host.spawn_handler(
            msg, gen,
            label=transaction_label(self.cm.protocol_name, op,
                                    detail=msg.msg_type.value),
        )
