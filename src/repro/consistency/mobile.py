"""Mobile / disconnected-operation consistency, after Bayou.

Paper Section 7: "Bayou is a system designed to support data sharing
among mobile users ... It is most useful for disconnected operations
and uses a very specialized weak consistency protocol.  In the current
implementation, Khazana does not support disconnected operations or
such a protocol, although we are considering adding a coherence
protocol similar to Bayou's for mobile data."

This module adds that protocol.  Semantics:

- **Writes always succeed locally**, even while the writer is
  partitioned from every other replica — the defining property of
  disconnected operation.  Each committed write gets a Lamport-style
  stamp ``(counter, node_id)``.
- **Reads serve the local replica** (read-your-writes holds trivially);
  a node with no replica fetches one from the home or any known
  sharer, and only fails if it is completely disconnected.
- **Epidemic anti-entropy**: on every CM tick, replicas push their
  newest version of each mobile page to peers drawn from the copyset;
  a receiver holding something *newer* pushes back, so reconciliation
  is bidirectional and convergence needs only transitive connectivity
  — no home involvement (unlike the ``eventual`` protocol, whose
  propagation is home-centred).
- **Conflicts** resolve last-writer-wins by stamp, Bayou's default
  when no application merge procedure is supplied.

A lock range costs one ``PAGE_FETCH`` per peer tried (each carrying
every still-missing page) and, at release, one ``UPDATE_PUSH`` per
gossip peer carrying every dirty page that peer replicates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.consistency.engine import PageEvent, install_replica_update
from repro.consistency.manager import (
    ConsistencyManager,
    LocalPageState,
    ProtocolGen,
    register_protocol,
)
from repro.core.errors import LockDenied
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

Stamp = Tuple[int, int]   # (lamport counter, writer node id)

FETCH_POLICY = RetryPolicy(timeout=1.0, retries=1, backoff=2.0)

#: How many peers each replica gossips with per anti-entropy round.
GOSSIP_FANOUT = 2


@register_protocol
class MobileManager(ConsistencyManager):
    """Consistency manager for disconnected (mobile) data."""

    protocol_name = "mobile"

    #: Replicas are only ever SHARED — writes never need a grant, and
    #: nothing is ever invalidated, only overwritten by newer stamps.
    TRANSITIONS = {
        PageEvent.READ_FILL: LocalPageState.SHARED,
        PageEvent.REPLICA_APPLY: LocalPageState.SHARED,
    }

    def __init__(self, host: "CMHost") -> None:
        super().__init__(host)
        self._descs: Dict[int, RegionDescriptor] = {}
        self._gossip_cursor = 0

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
        """In place: the local replica, disconnected or not, or a home
        node's own copy."""
        self._descs[desc.rid] = desc
        if self.host.storage.contains(page_addr):
            return True
        if self.host.node_id in desc.home_nodes:
            data = yield from self.host.local_page_bytes(desc, page_addr)
            return data is not None
        return False

    def acquire_remote(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """Fetch from the home nodes, then any hinted sharer, narrowing
        to the still-missing pages — a peer that replicates only part
        of the range serves what it has and the next candidate fills
        the rest.  A write with no reachable peer starts from zeroes;
        a read fails only when completely disconnected."""
        remaining = list(pages)
        for peer in self._peers(desc, pages):
            if not remaining:
                break
            try:
                reply = yield self.engine.request(
                    peer, MessageType.PAGE_FETCH,
                    {"rid": desc.rid, "pages": list(remaining),
                     "register": True},
                    policy=FETCH_POLICY,
                )
            except (RpcTimeout, RemoteError):
                continue

            def note(entry: Any, item: Dict[str, Any]) -> None:
                stamp = item["stamp"]
                if stamp:
                    entry.version = (int(stamp[0]), int(stamp[1]))
                entry.record_sharer(peer)
                remaining.remove(entry.address)

            yield from self.engine.batch.install(
                desc, reply.payload["pages"], PageEvent.READ_FILL, note=note)
        for page_addr in remaining:
            if not mode.is_write:
                raise LockDenied(
                    f"page {page_addr:#x}: no local replica and no "
                    "reachable peer"
                )
            yield from self._first_touch(desc, page_addr)

    def _first_touch(self, desc: RegionDescriptor,
                     page_addr: int) -> ProtocolGen:
        """Fully disconnected first touch: start from zeroes; the
        write will be reconciled by stamp when connectivity returns
        (Bayou's tentative-write spirit)."""
        yield from self.host.store_local_page(
            desc, page_addr, b"\x00" * desc.page_size, dirty=False
        )
        self.pages.fire(page_addr, PageEvent.READ_FILL)

    def release_many(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        ctx: LockContext,
    ) -> ProtocolGen:
        """Stamp every dirty page and gossip it eagerly: one one-way
        UPDATE_PUSH per peer, carrying the pages that peer replicates.
        Unreachable peers catch up via the anti-entropy tick once
        connectivity returns."""
        self.engine.fanout(desc.rid, [
            ({"page": page_addr, "data": page.data,
              "stamp": list(self._stamp_write(desc, page_addr))},
             self._peers(desc, [page_addr]))
            for page_addr, page in self.dirty_copies(pages, ctx)])
        return
        yield  # pragma: no cover - generator form required

    def _entry(self, desc: RegionDescriptor, page_addr: int) -> Any:
        return self.host.page_directory.ensure(
            page_addr, desc.rid, homed=self.host.node_id in desc.home_nodes)

    def _stamp_write(self, desc: RegionDescriptor, page_addr: int) -> Stamp:
        entry = self._entry(desc, page_addr)
        entry.version = ((entry.version or (0, 0))[0] + 1, self.host.node_id)
        return entry.version

    def _stamp_of(self, page_addr: int) -> Dict[str, Any]:
        stamp = self.host.page_directory.version_of(page_addr, (0, 0))
        return {"stamp": list(stamp)}

    def evict_update(self, page_addr: int, data: bytes) -> Dict[str, Any]:
        # A mobile peer orders pushes by stamp (last-writer-wins): the
        # evicted replica goes home with the stamp it holds.  The
        # eviction's first step runs inside on_disk_evict's spawn, so
        # this reads the stamp before the page's entry is dropped.
        return {"page": page_addr, "data": data, **self._stamp_of(page_addr)}

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------

    def _peers(self, desc: RegionDescriptor,
               pages: List[int]) -> List[int]:
        """Home nodes first, then any sharer hinted for the pages."""
        me = self.host.node_id
        peers = [n for n in desc.home_nodes if n != me]
        for page_addr in pages:
            entry = self.host.page_directory.get(page_addr)
            if entry is not None:
                peers.extend(n for n in sorted(entry.sharers)
                             if n != me and n not in peers)
        return peers

    def _gossip_page(self, desc: RegionDescriptor, page_addr: int,
                     targets: List[int]) -> None:
        page = self.host.storage.peek(page_addr)
        entry = self.host.page_directory.get(page_addr)
        if page is None or entry is None or entry.version is None:
            return
        self.engine.fanout(desc.rid, [(
            {"page": page_addr, "data": page.data,
             "stamp": list(entry.version)},
            targets,
        )])

    def tick(self) -> None:
        """One anti-entropy round: rotate gossip across the stamped
        pages of known regions, in address order (a region id is its
        first address); forget a region once no page of it is here."""
        for rid in sorted(self._descs):
            desc = self._descs[rid]
            entries = self.host.page_directory.entries_for_region(rid)
            if not entries:
                del self._descs[rid]
            for entry in entries:
                peers = self._peers(desc, [entry.address])
                if entry.version is None or not peers:
                    continue
                self._gossip_cursor += 1
                chosen = {peers[(self._gossip_cursor + i) % len(peers)]
                          for i in range(min(GOSSIP_FANOUT, len(peers)))}
                self._gossip_page(desc, entry.address, sorted(chosen))

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def handle_page_fetch(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.batch.serve_fetch(
            desc, msg, self._stamp_of,
            homed=self.host.node_id in desc.home_nodes)

    def _apply_gossip(self, desc: RegionDescriptor, page_addr: int,
                      data: bytes, incoming: Stamp, src: int,
                      teach: bool) -> None:
        """LWW-apply one pushed page version; ``teach`` answers an
        older one with ours (one-way gossip only: a request-type push
        is an eviction, and its sender is dropping the page)."""
        self._descs[desc.rid] = desc
        entry = self._entry(desc, page_addr)
        entry.record_sharer(src)
        entry.allocated = True
        local = entry.version or (0, -1)

        if incoming <= local:
            if teach and incoming < local:
                # Anti-entropy runs both ways: teach the sender.
                self._gossip_page(desc, page_addr, [src])
            return

        install_replica_update(
            self, desc, page_addr, data, incoming, (0, -1), src=src,
            require_resident=False,   # gossip may seed a new replica
            op="apply",
            on_stored=lambda: self.pages.fire(
                page_addr, PageEvent.REPLICA_APPLY
            ),
        )

    def handle_update(self, desc: RegionDescriptor, msg: Message) -> None:
        for update in msg.payload["updates"]:
            incoming: Stamp = tuple(int(x) for x in update["stamp"])
            self._apply_gossip(
                desc, int(update["page"]), update["data"], incoming, msg.src,
                teach=msg.request_id is None,
            )
        if msg.request_id is not None:
            self.engine.reply(msg, MessageType.UPDATE_ACK, {})

    def on_node_failure(self, node_id: int) -> None:
        # Mobile replicas expect peers to vanish and return; keep the
        # copyset hints so gossip resumes after recovery.
        pass
