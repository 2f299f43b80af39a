"""MessageRouter: wire dispatch as an interceptor chain.

Replaces the old monolithic ``_wire_handlers`` table.  Every inbound
message runs through a small middleware stack before its handler:

1. :class:`DedupInterceptor` — duplicate suppression for request
   routes (retransmits of an in-progress request are dropped;
   answered ones get the cached reply resent),
2. :class:`LatencyInterceptor` — starts the per-op virtual-clock
   latency timer that :meth:`MessageRouter.reply_request` /
   :meth:`MessageRouter.reply_error` stop,
3. :class:`TraceInterceptor` — debug-logs the dispatch with the same
   page-counting label the message trace tool renders,
4. :class:`ProbeInterceptor` — tells the race-detector probe a
   message is about to be handled (before any handler side-effect),
5. :class:`AccessNoteInterceptor` — feeds consistency traffic on
   homed regions to the migration advisor.

The chain is a plain list (:attr:`MessageRouter.interceptors`); tests
insert recorders to observe ordering.  Handlers come from the node
services (LocationService, SpaceService, the cluster-manager role) or
from :meth:`MessageRouter.cm_dispatch`, which routes a consistency
message to the owning region's CM exactly as the paper's Section 3.3
plug-in model requires.
"""

from __future__ import annotations

import logging

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Tuple,
)

from repro.net.message import Message, MessageType, wire_label
from repro.core.region import RegionDescriptor

if TYPE_CHECKING:
    from repro.core.kernel import NodeKernel

logger = logging.getLogger(__name__)

#: Cached replies kept for duplicate suppression.
REPLY_CACHE_LIMIT = 2048
#: Page bytes the cached replies may pin; the oldest go first past it.
REPLY_CACHE_BYTES = 1 << 20
#: In-flight latency timers kept before the oldest is abandoned.
INFLIGHT_LIMIT = 4096


def _page_bytes(reply: Optional[Message]) -> int:
    """Page-body bytes a cached reply pins (its ``pages`` items' data)."""
    if reply is None:
        return 0
    return sum(len(item.get("data") or b"")
               for item in reply.payload.get("pages", ()))


@dataclass(frozen=True)
class Route:
    """One wire registration: a handler plus its dispatch policy."""

    msg_type: Optional[MessageType]
    handler: Callable[[Message], None]
    #: Suppress retransmitted duplicates of this request type.
    dedup: bool = False
    #: This route carries consistency-protocol traffic for a region.
    cm: bool = False


class Interceptor:
    """One middleware stage.  ``handle`` either calls ``proceed()`` to
    pass the message down the chain or returns to drop it."""

    def __init__(self, router: "MessageRouter") -> None:
        self.router = router

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        proceed()


class DedupInterceptor(Interceptor):
    """Duplicate suppression for request routes.

    Retransmitted requests must not start a second transaction:
    in-progress duplicates are dropped (the eventual reply matches
    either transmission); completed ones get the cached reply.
    """

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        if not route.dedup or msg.request_id is None:
            proceed()
            return
        router = self.router
        key = (msg.src, msg.request_id)
        cache = router.reply_cache
        if key in cache:
            cached = cache[key]
            if cached is not None:
                router.kernel.rpc.send(cached)
            return   # in progress or already answered
        cache[key] = None
        router.trim_reply_cache()
        proceed()


class LatencyInterceptor(Interceptor):
    """Start the virtual-clock service timer for a request.

    The matching :meth:`MessageRouter.reply_request` /
    :meth:`MessageRouter.reply_error` stops it and records the latency
    under the request's message type in ``DaemonStats.op_latency``.
    """

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        if msg.request_id is not None:
            router = self.router
            inflight = router.inflight
            inflight[(msg.src, msg.request_id)] = (
                msg.msg_type.value, router.kernel.now
            )
            while len(inflight) > INFLIGHT_LIMIT:
                inflight.popitem(last=False)
        proceed()


class TraceInterceptor(Interceptor):
    """Debug-log each dispatch with the page-counting wire label."""

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "node %d: dispatch %s from %d",
                self.router.kernel.node_id, wire_label(msg), msg.src,
            )
        proceed()


class ProbeInterceptor(Interceptor):
    """Hand the message to the race-detector probe before the handler
    runs, so detector bookkeeping precedes every handler side-effect."""

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        kernel = self.router.kernel
        if kernel.probe.enabled:
            kernel.probe.message_dispatched(kernel.node_id, msg)
        proceed()


class AccessNoteInterceptor(Interceptor):
    """Feed the load-aware migration policy: consistency traffic on a
    homed region reveals who actually uses it."""

    def handle(self, msg: Message, route: Route,
               proceed: Callable[[], None]) -> None:
        if route.cm:
            kernel = self.router.kernel
            rid = msg.payload.get("rid")
            if rid is not None and rid in kernel.homed_regions:
                kernel.migration_advisor.note_access(rid, msg.src)
        proceed()


class MessageRouter:
    """Registers wire routes and runs the interceptor chain."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        self.routes: Dict[MessageType, Route] = {}
        #: (src, request_id) -> cached reply (None while in progress).
        self.reply_cache: "OrderedDict[Tuple[int, int], Optional[Message]]" = (
            OrderedDict()
        )
        #: Page-body bytes held by the cached replies.
        self.reply_cache_bytes = 0
        #: (src, request_id) -> (op name, virtual start time).
        self.inflight: "OrderedDict[Tuple[int, int], Tuple[str, float]]" = (
            OrderedDict()
        )
        self.interceptors = [
            DedupInterceptor(self),
            LatencyInterceptor(self),
            TraceInterceptor(self),
            ProbeInterceptor(self),
            AccessNoteInterceptor(self),
        ]

    # ------------------------------------------------------------------
    # Registration and dispatch
    # ------------------------------------------------------------------

    def register(self, msg_type: MessageType,
                 handler: Callable[[Message], None],
                 dedup: bool = False, cm: bool = False) -> Route:
        route = Route(msg_type=msg_type, handler=handler, dedup=dedup, cm=cm)
        self.routes[msg_type] = route
        self.kernel.rpc.on(
            msg_type, lambda msg, route=route: self.dispatch(route, msg)
        )
        return route

    def dispatch(self, route: Route, msg: Message) -> None:
        """Walk the interceptor chain, then the handler.

        The chain list is read live so tests (and future middleware)
        can insert stages after construction.
        """
        interceptors = self.interceptors

        def run(index: int) -> None:
            if index >= len(interceptors):
                route.handler(msg)
                return
            interceptors[index].handle(msg, route, lambda: run(index + 1))

        run(0)

    def dedup(self, handler: Callable[[Message], None]):
        """Wrap a bare handler with the full dispatch chain including
        duplicate suppression (for ad-hoc ``rpc.on`` registrations)."""
        route = Route(msg_type=None, handler=handler, dedup=True)
        return lambda msg: self.dispatch(route, msg)

    # ------------------------------------------------------------------
    # Replies (cached for dedup, timed for latency stats)
    # ------------------------------------------------------------------

    def reply_request(self, msg: Message, msg_type: MessageType,
                      payload: Optional[Dict[str, Any]] = None) -> None:
        """Send (and cache) the reply to a request."""
        self._finish(msg, msg.reply(msg_type, payload or {}))

    def reply_error(self, msg: Message, code: str, detail: str = "") -> None:
        self._finish(msg, msg.error_reply(code, detail))

    def trim_reply_cache(self) -> None:
        """Forget the oldest cached replies until both the entry and
        the page-byte bound hold."""
        cache = self.reply_cache
        while cache and (len(cache) > REPLY_CACHE_LIMIT
                         or self.reply_cache_bytes > REPLY_CACHE_BYTES):
            self.reply_cache_bytes -= _page_bytes(cache.popitem(last=False)[1])

    def _finish(self, msg: Message, reply: Message) -> None:
        if msg.request_id is not None:
            key = (msg.src, msg.request_id)
            self.reply_cache_bytes += (_page_bytes(reply)
                                       - _page_bytes(self.reply_cache.get(key)))
            self.reply_cache[key] = reply
            self.trim_reply_cache()
            timer = self.inflight.pop(key, None)
            if timer is not None:
                op, started = timer
                self.kernel.stats.note_latency(
                    op, self.kernel.now - started
                )
        self.kernel.rpc.send(reply)

    # ------------------------------------------------------------------
    # The consistency-manager route factory (paper Section 3.3)
    # ------------------------------------------------------------------

    def cm_dispatch(self, method_name: str) -> Callable[[Message], None]:
        """Route a consistency message to the region's CM."""
        kernel = self.kernel

        def handler(msg: Message) -> None:
            rid = msg.payload.get("rid")
            desc = kernel.homed_regions.get(rid)
            if desc is None:
                desc = kernel.region_directory.get(rid)
            if desc is None and "descriptor" in msg.payload:
                desc = RegionDescriptor.from_wire(msg.payload["descriptor"])
                kernel.adopt_descriptor(desc)
            if desc is None:
                if msg.request_id is not None:
                    self.reply_error(msg, "region_not_found",
                                     f"node {kernel.node_id} does not know "
                                     f"region {rid:#x}")
                return
            cm = kernel.consistency_manager(desc.attrs.protocol)
            getattr(cm, method_name)(desc, msg)

        return handler

    # ------------------------------------------------------------------
    # The standard route table
    # ------------------------------------------------------------------

    def wire(self) -> None:
        """Register every wire route of a Khazana node."""
        kernel = self.kernel
        reg = self.register
        reg(MessageType.REGION_LOOKUP,
            kernel.placement.handle_region_lookup, dedup=True)
        reg(MessageType.DESCRIPTOR_FETCH,
            kernel.space.handle_descriptor_fetch, dedup=True)
        reg(MessageType.DESCRIPTOR_UPDATE,
            kernel.space.handle_descriptor_update)
        reg(MessageType.REGION_UNRESERVE,
            kernel.space.handle_region_unreserve, dedup=True)
        reg(MessageType.ALLOC_REQUEST,
            kernel.space.handle_alloc_request, dedup=True)
        reg(MessageType.FREE_REQUEST,
            kernel.space.handle_free_request, dedup=True)
        reg(MessageType.LOCK_REQUEST,
            self.cm_dispatch("handle_lock_request"), dedup=True, cm=True)
        reg(MessageType.PAGE_FETCH,
            self.cm_dispatch("handle_page_fetch"), dedup=True, cm=True)
        reg(MessageType.INVALIDATE,
            self.cm_dispatch("handle_invalidate"), dedup=True, cm=True)
        reg(MessageType.UPDATE_PUSH,
            self.cm_dispatch("handle_update"), dedup=True, cm=True)
        reg(MessageType.SHARER_REGISTER,
            self.cm_dispatch("handle_sharer_register"), cm=True)
        reg(MessageType.SHARER_UNREGISTER,
            self.cm_dispatch("handle_sharer_unregister"), cm=True)
        reg(MessageType.REPLICA_CREATE,
            kernel.space.handle_replica_create, dedup=True)
        reg(MessageType.REGION_MIGRATE,
            kernel.space.handle_region_migrate, dedup=True)
        if kernel.cluster_role is not None:
            reg(MessageType.SPACE_REQUEST,
                kernel.cluster_role.handle_space_request, dedup=True)
            reg(MessageType.CM_HINT_QUERY,
                kernel.cluster_role.handle_hint_query, dedup=True)
            reg(MessageType.CM_HINT_UPDATE,
                kernel.cluster_role.handle_hint_update)
            reg(MessageType.FREE_SPACE_REPORT,
                kernel.cluster_role.handle_free_space_report)
        # Strategy-specific routes (e.g. ring placement's RING_QUERY /
        # RING_PUBLISH and the membership join/update protocol).
        kernel.placement.wire_routes(self)
