"""Page-list traffic shared by every protocol.

Every page request is a list — ``pages`` for lock and fetch,
``updates`` for push — and one page is a list of one.  The planner
owns the shapes all protocols' list traffic shares: the per-page
error items of a partial reply, the reply that carries them, the
per-page serve loop behind every page-list handler, the install of a
served list, and the unlock push whose failure becomes one background
retry per page.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, List, Optional

from repro.consistency.engine.state import PageEvent
from repro.core.errors import KhazanaError
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RpcTimeout

ProtocolGen = Any   # Generator[Future, Any, Any]; kept loose to avoid churn

#: ``meta(page)`` -> the protocol's per-page reply fields (version,
#: stamp, ...) that ride beside the page's bytes.
PageMeta = Callable[[int], Dict[str, Any]]

logger = logging.getLogger(__name__)


def error_item(page_addr: int, code: str, detail: str) -> Dict[str, Any]:
    """The per-page error entry of a partial reply."""
    return {"page": page_addr, "code": code, "detail": detail}


class BatchPlanner:
    """Reply, fetch and push shapes for page-list requests."""

    def __init__(self, engine: Any) -> None:
        self.engine = engine

    def reply_pages(self, msg: Message, msg_type: MessageType,
                    pages: List[Dict[str, Any]],
                    errors: List[Dict[str, Any]]) -> None:
        """Answer a page-list request: the served items plus per-page
        errors.  A request none of whose pages could be served is
        refused outright with the first page's error, so a one-page
        request is NAK'd exactly as it always was — and ordered home
        failover moves on from it."""
        if errors and not pages:
            self.engine.nak(msg, errors[0]["code"], errors[0]["detail"])
            return
        self.engine.reply(msg, msg_type, {"pages": pages, "errors": errors})

    def serve_pages(self, msg: Message, msg_type: MessageType,
                    pages: List[int], serve_one: Callable[[int], ProtocolGen],
                    op: str) -> None:
        """Serve a page-list request in one handler task and one
        :meth:`reply_pages`: ``serve_one(page)`` resolves to the page's
        served item or its :func:`error_item`."""

        def serve() -> ProtocolGen:
            served: List[Dict[str, Any]] = []
            errors: List[Dict[str, Any]] = []
            for page_addr in pages:
                item = yield from serve_one(page_addr)
                (errors if "code" in item else served).append(item)
            self.reply_pages(msg, msg_type, served, errors)

        self.engine.spawn_handler(msg, serve(), op)

    def serve_fetch(self, desc: RegionDescriptor, msg: Message,
                    meta: PageMeta, *, homed: bool = True) -> None:
        """Serve a PAGE_FETCH: one ``{page, data, **meta(page)}`` item
        per stored page, an error item per page without storage."""
        host = self.engine.host

        def serve_one(page_addr: int) -> ProtocolGen:
            data = yield from host.local_page_bytes(desc, page_addr)
            if data is None:
                return error_item(page_addr, "not_allocated",
                                  f"page {page_addr:#x} has no storage")
            if msg.payload.get("register"):
                entry = host.page_directory.ensure(page_addr, desc.rid,
                                                   homed=homed)
                entry.record_sharer(msg.src)
            return {"page": page_addr, "data": data, **meta(page_addr)}

        self.serve_pages(msg, MessageType.PAGE_DATA,
                         [int(p) for p in msg.payload["pages"]], serve_one,
                         "fetch")

    def install(self, desc: RegionDescriptor, items: List[Dict[str, Any]],
                event: PageEvent, *, dirty: bool = False,
                note: Optional[Callable[[Any, Dict[str, Any]], None]] = None,
                ) -> ProtocolGen:
        """Install served page items locally: store each item's bytes
        (an item without ``data`` keeps the local copy — a write
        upgrade), cache an allocated non-homed directory hint, let
        ``note(entry, item)`` record the protocol's metadata, fire
        ``event``."""
        host = self.engine.host
        for item in items:
            page_addr = int(item["page"])
            data = item.get("data")
            if data is not None:
                yield from host.store_local_page(desc, page_addr, data,
                                                 dirty=dirty)
            entry = host.page_directory.ensure(page_addr, desc.rid,
                                               homed=False)
            entry.allocated = True
            if note is not None:
                note(entry, item)
            self.engine.cm.pages.fire(page_addr, event)

    def push_updates(
        self,
        desc: RegionDescriptor,
        updates: List[Dict[str, Any]],
        push: Callable[[RegionDescriptor, List[Dict[str, Any]]], Any],
        label: str,
    ) -> ProtocolGen:
        """Push an unlock's updates home in one request; never raises.

        ``push(desc, updates)`` is the protocol's push generator.  Once
        it lands, every page that carried bytes is clean.  A push that
        fails — home unreachable or refusing — becomes one background
        retry per page (paper 3.5: release-type errors never surface),
        and each retry marks its page clean when it lands, exactly as
        a first-try push does.
        """
        try:
            yield from self._push_clean(desc, updates, push)
        except (KhazanaError, RpcTimeout, RemoteError):
            logger.warning(
                "push of %d page(s) to the home of region %#x failed; "
                "retrying each page in the background",
                len(updates), desc.rid, exc_info=True,
            )
            for update in updates:
                self.engine.counters.per_page_fallbacks += 1
                self.engine.host.retry_queue.enqueue(
                    lambda update=update: self._push_clean(
                        desc, [update], push
                    ),
                    label=f"{label}:{update['page']:#x}",
                )

    def _push_clean(self, desc: RegionDescriptor,
                    updates: List[Dict[str, Any]],
                    push: Callable[..., Any]) -> ProtocolGen:
        yield from push(desc, updates)
        for update in updates:
            if "data" in update or "diff" in update:
                self.engine.host.storage.mark_clean(update["page"])
