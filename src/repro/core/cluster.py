"""The cluster-manager role.

Paper Section 3.1: "Each cluster has one or more designated cluster
managers, nodes responsible for being aware of other cluster
locations, caching hint information about regions stored in the local
cluster, and representing the local cluster during inter-cluster
communication ... Each cluster manager maintains hints of the sizes of
free address space (total size, maximum free region size, etc) managed
by other nodes in its cluster."

The role runs inside a designated daemon.  It answers three kinds of
traffic:

- ``SPACE_REQUEST`` — delegate a large chunk of unreserved global
  address space to the requesting daemon (recorded in the address
  map, so the grant survives the manager).
- ``CM_HINT_QUERY`` — "is region X cached at some nearby node?", the
  middle tier of the Section 3.2 lookup chain.
- ``CM_HINT_UPDATE`` / ``FREE_SPACE_REPORT`` — lazy hint refreshes
  from cluster members.

Like every hint layer in Khazana, the caches here may be stale; users
fall back to the address-map tree walk when a hint misleads them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.core.allocator import DEFAULT_CHUNK_SIZE
from repro.core.region import RegionDescriptor
from repro.core.region_directory import RangeIndex
from repro.net.message import Message, MessageType
from repro.net.tasks import Future

ProtocolGen = Generator[Future, Any, Any]

HINT_CAPACITY = 4096


@dataclass
class FreeSpaceHint:
    """What the manager believes about one member's local pool."""

    node_id: int
    total_free: int
    max_contiguous: int
    reported_at: float


class ClusterManagerRole:
    """Cluster-manager behaviour hosted by one daemon."""

    def __init__(self, daemon: Any) -> None:
        self.daemon = daemon
        #: rid -> (descriptor, nodes believed to cache the region)
        self._region_hints: "OrderedDict[int, Tuple[RegionDescriptor, Set[int]]]" = (
            OrderedDict()
        )
        self._hint_ranges = RangeIndex()
        self._free_space: Dict[int, FreeSpaceHint] = {}
        self.space_requests_served = 0
        self.hint_queries = 0
        self.hint_hits = 0
        # Serialises chunk delegations: two concurrent find_free calls
        # would otherwise pick the same extent and the second delegate
        # would fail.
        from repro.consistency.manager import KeyedMutex

        self._delegation_mutex = KeyedMutex()

    # ------------------------------------------------------------------
    # Message handlers (wired up by the daemon)
    # ------------------------------------------------------------------

    def handle_space_request(self, msg: Message) -> None:
        size = int(msg.payload.get("size", DEFAULT_CHUNK_SIZE))
        size = max(size, DEFAULT_CHUNK_SIZE)

        def grant() -> ProtocolGen:
            chunk = yield from self.delegate_chunk(msg.src, size)
            self.space_requests_served += 1
            self.daemon.reply_request(
                msg, MessageType.SPACE_GRANT,
                {"start": chunk.start, "length": chunk.length},
            )

        self.daemon.spawn_handler(msg, grant(), label="space-grant")

    def delegate_chunk(self, node_id: int, size: int) -> ProtocolGen:
        """Find free space in the address map and delegate it.

        find_free and delegate are two map operations; the mutex keeps
        concurrent grants from racing to the same extent.
        """
        yield self._delegation_mutex.acquire("chunks")
        try:
            free = yield from self.daemon.address_map.find_free(
                size, alignment=size
            )
            yield from self.daemon.address_map.delegate(free, node_id)
            return free
        finally:
            self._delegation_mutex.release("chunks")

    def handle_hint_query(self, msg: Message) -> None:
        self.hint_queries += 1
        address = int(msg.payload["address"])
        hint = self.lookup_hint(address)
        if hint is not None:
            descriptor, nodes = hint
            self.hint_hits += 1
            self.daemon.reply_request(
                msg, MessageType.CM_HINT_REPLY,
                {"descriptor": descriptor.to_wire(),
                 "nodes": sorted(nodes), "via": "local"},
            )
            return
        # Inter-cluster step of the hierarchy (paper 3.1): the local
        # manager represents its cluster and asks its peer managers.
        # ``no_forward`` stops the query after one hop.
        if msg.payload.get("no_forward") or not self.daemon.config.peer_managers:
            self.daemon.reply_error(msg, "region_not_found",
                                    "no cluster hint for this address")
            return
        self.daemon.spawn_handler(
            msg, self._forward_query(msg, address), label="cm-forward"
        )

    def _forward_query(self, msg: Message, address: int) -> ProtocolGen:
        from repro.net.rpc import RemoteError, RpcTimeout

        for manager in self.daemon.config.peer_managers:
            try:
                reply = yield self.daemon.rpc.request(
                    manager, MessageType.CM_HINT_QUERY,
                    {"address": address, "no_forward": True},
                )
            except (RemoteError, RpcTimeout):
                continue
            descriptor = RegionDescriptor.from_wire(
                reply.payload["descriptor"]
            )
            # Cache what the peer cluster told us, so the next local
            # query is answered without inter-cluster traffic.
            for node in reply.payload.get("nodes", []):
                self.note_region_cached(descriptor, int(node))
            self.daemon.reply_request(
                msg, MessageType.CM_HINT_REPLY,
                {"descriptor": descriptor.to_wire(),
                 "nodes": reply.payload.get("nodes", []),
                 "via": "intercluster"},
            )
            return
        self.daemon.reply_error(msg, "region_not_found",
                                "no cluster (or peer cluster) hint")

    def handle_hint_update(self, msg: Message) -> None:
        payload = msg.payload
        descriptor = RegionDescriptor.from_wire(payload["descriptor"])
        if payload.get("dropped"):
            self.note_region_dropped(descriptor.rid, msg.src)
        else:
            self.note_region_cached(descriptor, msg.src)

    def handle_free_space_report(self, msg: Message) -> None:
        self._free_space[msg.src] = FreeSpaceHint(
            node_id=msg.src,
            total_free=int(msg.payload.get("total_free", 0)),
            max_contiguous=int(msg.payload.get("max_contiguous", 0)),
            reported_at=self.daemon.now,
        )

    # ------------------------------------------------------------------
    # Hint cache
    # ------------------------------------------------------------------

    def note_region_cached(
        self, descriptor: RegionDescriptor, node_id: int
    ) -> None:
        existing = self._region_hints.get(descriptor.rid)
        if existing is not None:
            known, nodes = existing
            if descriptor.supersedes(known):
                known = descriptor
            nodes.add(node_id)
        else:
            known, nodes = descriptor, {node_id}
        for stale in self._hint_ranges.add(known.rid, known.range.end):
            del self._region_hints[stale]
        self._region_hints[known.rid] = (known, nodes)
        self._region_hints.move_to_end(known.rid)
        while len(self._region_hints) > HINT_CAPACITY:
            self._hint_ranges.discard(self._region_hints.popitem(last=False)[0])

    def note_region_dropped(self, rid: int, node_id: int) -> None:
        entry = self._region_hints.get(rid)
        if entry is None:
            return
        descriptor, nodes = entry
        nodes.discard(node_id)
        if not nodes:
            self._forget(rid)

    def _forget(self, rid: int) -> None:
        del self._region_hints[rid]
        self._hint_ranges.discard(rid)

    def lookup_hint(
        self, address: int
    ) -> Optional[Tuple[RegionDescriptor, Set[int]]]:
        rid = self._hint_ranges.covering(address)
        if rid is None:
            return None
        descriptor, nodes = self._region_hints[rid]   # never empty
        return descriptor, set(nodes)

    def forget_node(self, node_id: int) -> None:
        """Drop a crashed member from every hint."""
        doomed: List[int] = []
        for rid, (descriptor, nodes) in self._region_hints.items():
            nodes.discard(node_id)
            if not nodes:
                doomed.append(rid)
        for rid in doomed:
            self._forget(rid)
        self._free_space.pop(node_id, None)

    def free_space_hints(self) -> List[FreeSpaceHint]:
        return sorted(self._free_space.values(), key=lambda h: h.node_id)

    def hinted_regions(self) -> int:
        return len(self._region_hints)
