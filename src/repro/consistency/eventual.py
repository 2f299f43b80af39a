"""Bounded-staleness ("eventual") consistency.

The paper plans this protocol for consumers beyond the prototype's
CREW: "We plan to experiment with even more relaxed models for
applications such as web caches and some database query engines for
which release consistency is overkill.  Such applications typically
can tolerate data that is temporarily out-of-date (i.e., one or two
versions old) as long as they get fast response." (Section 3.3)

Semantics:

- Reads are always served from the local replica when it is within the
  staleness bound (age in virtual seconds, and version lag at the time
  of last contact); otherwise the replica is refreshed from the home
  node — but if the home is unreachable the stale copy is served
  anyway, trading freshness for availability.
- Writes never take tokens; they apply locally and are pushed to the
  home at release, where last-writer-wins ordering by (version,
  writer id) resolves conflicts.
- The home batches fan-out: replicas receive updates on the CM's
  anti-entropy tick rather than per write, so bursts of writes cost
  one propagation round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Set, Tuple

from repro.consistency.engine import PageEvent, absorb_replica_push
from repro.consistency.manager import (
    ConsistencyManager,
    LocalPageState,
    ProtocolGen,
    register_protocol,
)
from repro.core.errors import KhazanaError, LockDenied
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RetryPolicy

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

#: Maximum age (virtual seconds) a local replica may have before a
#: read acquire refreshes it from the home node.
DEFAULT_STALENESS_BOUND = 2.0

#: How often the home pushes batched updates to replica sites.
ANTI_ENTROPY_PERIOD = 0.5

FETCH_POLICY = RetryPolicy(timeout=2.0, retries=1, backoff=2.0)


def _lww_key(update: Dict[str, Any]) -> Tuple[int, int]:
    """An update's last-writer-wins order: (version, writer id)."""
    return (update.get("version", 0), update.get("writer", 0))


@register_protocol
class EventualManager(ConsistencyManager):
    """Consistency manager implementing bounded-staleness replication."""

    protocol_name = "eventual"

    #: Replicas are only ever SHARED: writes apply locally without a
    #: grant, and staleness is tracked by time/version, not by an
    #: EXCLUSIVE or INVALID state.
    TRANSITIONS = {
        PageEvent.READ_FILL: LocalPageState.SHARED,
    }

    def __init__(self, host: "CMHost",
                 staleness_bound: float = DEFAULT_STALENESS_BOUND) -> None:
        super().__init__(host)
        self.staleness_bound = staleness_bound
        self._dirty_fanout: Set[int] = set()             # home: pages to push

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def acquire(
        self,
        desc: RegionDescriptor,
        page_addr: int,
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """In place: the home's own copy, or a replica within the
        staleness bound (fast response — the whole point)."""
        if self.host.node_id == desc.primary_home:
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is None:
                raise KhazanaError(f"home lost page {page_addr:#x}")
            return True
        entry = self.host.page_directory.get(page_addr)
        return (entry is not None and self.host.storage.contains(page_addr)
                and self.host.now - entry.refreshed_at
                <= self.staleness_bound)

    def acquire_remote(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """Refresh stale or missing pages in one fetch from the home.

        A refusal fails over to the next home just like a timeout:
        this protocol prefers availability over surfacing a denial.
        If no home serves, stale copies still do; a page this node has
        never held is a hard failure.
        """
        try:
            reply = yield from self.engine.request_home(
                desc, MessageType.PAGE_FETCH,
                {"rid": desc.rid, "pages": list(pages), "register": True,
                 "principal": ctx.principal},
                policy=FETCH_POLICY,
                fail="no home of region {rid:#x} reachable: {error}",
                nak="skip",
            )
        except LockDenied:
            if not all(self.host.storage.contains(p) for p in pages):
                raise
            return
        def note(entry: Any, item: Dict[str, Any]) -> None:
            entry.version = _lww_key(item)
            entry.refreshed_at = self.host.now

        yield from self.engine.batch.install(desc, reply.payload["pages"],
                                             PageEvent.READ_FILL, note=note)
        for err in reply.payload["errors"]:
            if not self.host.storage.contains(int(err["page"])):
                raise LockDenied(
                    f"home refused page {int(err['page']):#x}: "
                    f"{err['detail']}"
                )

    def release_many(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        ctx: LockContext,
    ) -> ProtocolGen:
        """Stamp every dirty page with a new (version, writer) and push
        them to the primary home in one request; the home records its
        own writes in place."""
        me = self.host.node_id
        updates: List[Dict[str, Any]] = []
        for page_addr, page in self.dirty_copies(pages, ctx):
            counter = self._version_of(page_addr)["version"]
            entry = self._record(desc, page_addr, (counter + 1, me))
            entry.refreshed_at = self.host.now
            if me != desc.primary_home:
                updates.append({"page": page_addr, "data": page.data,
                                **self._version_of(page_addr)})
        if updates:
            # The local copies stay dirty until the push lands.
            yield from self.engine.batch.push_updates(
                desc, updates, self._push, "eventual-push"
            )

    def _push(self, desc: RegionDescriptor,
              updates: List[Dict[str, Any]]) -> ProtocolGen:
        yield self.engine.request(
            desc.primary_home, MessageType.UPDATE_PUSH,
            {"rid": desc.rid, "updates": updates}, policy=FETCH_POLICY,
        )

    def _record(self, desc: RegionDescriptor, page_addr: int,
                version: Tuple[int, int]) -> Any:
        """Record a write's version on the page's entry; at the primary
        home also mark the page for the next tick's fan-out."""
        me = self.host.node_id
        entry = self.host.page_directory.ensure(
            page_addr, desc.rid, homed=me in desc.home_nodes)
        entry.version = version
        if me == desc.primary_home:
            entry.allocated = True
            self._dirty_fanout.add(page_addr)
        return entry

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _version_of(self, page_addr: int) -> Dict[str, Any]:
        version, writer = self.host.page_directory.version_of(page_addr,
                                                              (0, 0))
        return {"version": version, "writer": writer}

    def handle_page_fetch(self, desc: RegionDescriptor, msg: Message) -> None:
        if not self.check_remote_access(desc, msg, LockMode.READ):
            return
        self.engine.batch.serve_fetch(desc, msg, self._version_of)

    def handle_update(self, desc: RegionDescriptor, msg: Message) -> None:
        if self.host.node_id != desc.primary_home:
            absorb_replica_push(self, desc, msg, _lww_key, (0, -1))
            return
        updates = msg.payload["updates"]

        def apply() -> ProtocolGen:
            for update in updates:
                page_addr = int(update["page"])
                # Last-writer-wins by (version, writer id): concurrent
                # writers converge on a single winner everywhere.  The
                # winner is committed before the store yields (as
                # install_replica_update does), so a push arriving
                # mid-store compares against it, not against what the
                # store is replacing.
                incoming = _lww_key(update)
                if incoming <= self.host.page_directory.version_of(
                        page_addr, (0, -1)):
                    continue
                self._record(desc, page_addr, incoming)
                if self.host.probe.enabled:
                    self.host.probe.remote_update(
                        self.host.node_id, page_addr, msg.src,
                        desc.attrs.protocol,
                    )
                yield from self.host.store_local_page(
                    desc, page_addr, update["data"], dirty=False
                )
            self.engine.reply(msg, MessageType.UPDATE_ACK, {})

        self.engine.spawn_handler(msg, apply(), "apply")

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Push the pages written since the last tick to replica
        sites: one push per sharer and region."""
        if not self._dirty_fanout:
            return
        pages, self._dirty_fanout = self._dirty_fanout, set()
        per_region: Dict[int, List[Any]] = {}
        for page_addr in sorted(pages):
            page = self.host.storage.peek(page_addr)
            entry = self.host.page_directory.get(page_addr)
            if page is None or entry is None:
                continue
            per_region.setdefault(entry.rid, []).append((
                {"page": page_addr, "data": page.data,
                 **self._version_of(page_addr)},
                entry.copyset_excluding(self.host.node_id),
            ))
        for rid, items in per_region.items():
            self.engine.fanout(rid, items)
