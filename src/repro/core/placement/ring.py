"""HashRingPlacement: rendezvous-hashed region location at scale.

The tiered chain funnels misses through the cluster manager — a
per-cluster chokepoint (ablation A1).  Here any node computes a
region's *director* in O(1) from the live member set alone, so a
lookup is at most one RPC regardless of system size, and a membership
change re-homes only the optimally-small ~``regions / nodes`` slice.

Mechanics:

- The global address space is cut into fixed ``BUCKET_BYTES`` buckets.
- Each bucket's **director** is the member winning rendezvous (HRW)
  hashing over the live member set: ``argmax rendezvous_weight(bucket,
  member)``.  Rendezvous needs no token ranges or virtual nodes, and a
  join/leave moves exactly the buckets whose argmax changed.
- A region's home nodes are the top-ranked members of its first
  bucket (``choose_homes``), so the director *is* the primary and a
  lookup usually lands on the data's home in one hop.
- Homes and cachers publish descriptors to the directors of every
  overlapped bucket (``RING_PUBLISH``, one-way); lookups ask the
  director (``RING_QUERY``), recorded as the ``ring`` tier in
  :attr:`DaemonStats.lookup_tiers`.  The address map stays the
  authority of record: a cold director falls through to the shared
  map-walk tier.
- On membership change (fed by
  :class:`~repro.core.placement.membership.MembershipService`) every
  node republishes what it homes and proposes re-homes through
  :meth:`~repro.core.migration.MigrationAdvisor.propose_rehome`; the
  engine's ordered ``request_home`` failover (via :meth:`home_order`)
  keeps in-flight consistency traffic alive across the move.

The hash is a fixed splitmix64-style mixer, *not* Python's ``hash``:
ring positions must agree across processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.core.address_map import SYSTEM_RID
from repro.core.errors import RegionNotFound
from repro.core.placement.base import (
    LOOKUP_POLICY,
    PlacementStrategy,
    ProtocolGen,
)
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RpcTimeout

if TYPE_CHECKING:
    from repro.core.kernel import NodeKernel

_MASK64 = (1 << 64) - 1

#: Placement granularity.  1 MiB buckets give a 64 GiB address space
#: 65536 buckets — enough resolution that even a 100+-node ring
#: re-homes within a few percent of the optimal ``regions / nodes`` on
#: a single join or leave.
BUCKET_BYTES = 1 << 20

#: How many top-ranked directors a lookup tries before falling through
#: to the address map (the runner-up covers a director mid-failover).
QUERY_CANDIDATES = 2

#: Publication cap for pathologically large regions: beyond this many
#: buckets the map walk is the lookup path anyway.
PUBLISH_BUCKET_CAP = 64


def mix64(value: int) -> int:
    """Deterministic 64-bit finalizer (splitmix64's output stage)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def rendezvous_weight(bucket: int, member: int) -> int:
    """HRW weight of ``member`` for ``bucket``; the highest weight
    among live members directs the bucket."""
    return mix64(((bucket + 1) * 0x9E3779B97F4A7C15 & _MASK64) ^
                 mix64(member + 1))


def bucket_of(address: int) -> int:
    return address // BUCKET_BYTES


def rank_members(bucket: int, members: Iterable[int]) -> List[int]:
    """Members ordered by descending rendezvous weight (ties break
    toward the lower node id, so every node agrees)."""
    return sorted(members,
                  key=lambda m: (-rendezvous_weight(bucket, m), m))


def director_of(bucket: int, members: Iterable[int]) -> Optional[int]:
    """The single member directing ``bucket`` (None without members)."""
    best: Optional[int] = None
    best_weight = -1
    for member in members:
        weight = rendezvous_weight(bucket, member)
        if weight > best_weight or (weight == best_weight
                                    and (best is None or member < best)):
            best = member
            best_weight = weight
    return best


class DirectorTable:
    """Incremental bucket→director assignment over a large ring.

    Caches each bucket's ``(director, weight)`` so a join is a single
    weight comparison per bucket and a leave recomputes only the
    departed member's buckets — O(buckets) per membership event
    instead of O(buckets × members).  The churn benchmark drives a
    million regions through this table.
    """

    def __init__(self, num_buckets: int, members: Iterable[int]) -> None:
        self.num_buckets = num_buckets
        self.members: List[int] = sorted(set(members))
        if not self.members:
            raise ValueError("a ring needs at least one member")
        self._best: List[Tuple[int, int]] = [
            self._recompute(bucket) for bucket in range(num_buckets)
        ]

    def _recompute(self, bucket: int) -> Tuple[int, int]:
        best = self.members[0]
        best_weight = rendezvous_weight(bucket, best)
        for member in self.members[1:]:
            weight = rendezvous_weight(bucket, member)
            if weight > best_weight or (weight == best_weight
                                        and member < best):
                best, best_weight = member, weight
        return best, best_weight

    def director(self, bucket: int) -> int:
        return self._best[bucket][0]

    def join(self, member: int) -> List[int]:
        """Add a member; returns the buckets whose director moved."""
        if member in self.members:
            return []
        self.members.append(member)
        self.members.sort()
        moved: List[int] = []
        for bucket, (incumbent, weight) in enumerate(self._best):
            challenger = rendezvous_weight(bucket, member)
            if challenger > weight or (challenger == weight
                                       and member < incumbent):
                self._best[bucket] = (member, challenger)
                moved.append(bucket)
        return moved

    def leave(self, member: int) -> List[int]:
        """Remove a member; returns the buckets whose director moved."""
        if member not in self.members or len(self.members) == 1:
            return []
        self.members.remove(member)
        moved = [
            bucket for bucket, (incumbent, _) in enumerate(self._best)
            if incumbent == member
        ]
        for bucket in moved:
            self._best[bucket] = self._recompute(bucket)
        return moved

    def spread(self) -> Dict[int, int]:
        """Buckets directed per member (ownership-spread inspection)."""
        counts: Dict[int, int] = {m: 0 for m in self.members}
        for director, _ in self._best:
            counts[director] += 1
        return counts


class HashRingPlacement(PlacementStrategy):
    """O(1) region location over a gossiped live member set."""

    name = "ring"

    def __init__(self, kernel: "NodeKernel") -> None:
        super().__init__(kernel)
        # Local import: membership.py imports mix64 from this module.
        from repro.core.placement.membership import MembershipService

        self.membership = MembershipService(kernel, self)
        #: Buckets this node directs: bucket -> rid -> descriptor.
        self._directed: Dict[int, Dict[int, RegionDescriptor]] = {}
        #: Regions this node has already published to their directors.
        self._published: set = set()
        self.rehomes_proposed = 0
        self.publishes_sent = 0

    # ------------------------------------------------------------------
    # Lookup: directory → ring → map → walk
    # ------------------------------------------------------------------

    def locate_region(self, address: int,
                      skip_directory: bool = False) -> ProtocolGen:
        kernel = self.kernel
        if not skip_directory:
            cached = kernel.region_directory.find_covering(address)
            if cached is not None:
                kernel.stats.tier("directory")
                return cached

        desc = yield from self._locate_via_ring(address)
        if desc is not None:
            kernel.stats.tier("ring")
            kernel.region_directory.insert(desc)
            return desc

        desc = yield from self._locate_via_address_map(address)
        if desc is not None:
            kernel.stats.tier("map")
            kernel.region_directory.insert(desc)
            self.advertise_caching(desc)
            return desc

        desc = yield from self._cluster_walk(address)
        if desc is not None:
            kernel.stats.tier("walk")
            kernel.region_directory.insert(desc)
            return desc

        raise RegionNotFound(
            f"no reserved region covers address {address:#x}"
        )

    def _locate_via_ring(self, address: int) -> ProtocolGen:
        """Ask the bucket's director (then the runner-up) — one RPC,
        independent of system size."""
        kernel = self.kernel
        members = self.membership.alive_members()
        if not members:
            return None
        bucket = bucket_of(address)
        for candidate in rank_members(bucket, members)[:QUERY_CANDIDATES]:
            if candidate == kernel.node_id:
                desc = self._directed_lookup(bucket, address)
                if desc is not None:
                    return desc
                continue
            try:
                reply = yield kernel.rpc.request(
                    candidate, MessageType.RING_QUERY,
                    {"address": address}, policy=LOOKUP_POLICY,
                )
            except (RpcTimeout, RemoteError):
                continue
            return RegionDescriptor.from_wire(reply.payload["descriptor"])
        return None

    def _directed_lookup(self, bucket: int,
                         address: int) -> Optional[RegionDescriptor]:
        for desc in self._directed.get(bucket, {}).values():
            if desc.range.contains(address):
                return desc
        for desc in self.kernel.homed_regions.values():
            if desc.rid != SYSTEM_RID and desc.range.contains(address):
                return desc
        return None

    # ------------------------------------------------------------------
    # Publication (replaces the tiered chain's hint advertising)
    # ------------------------------------------------------------------

    def advertise_caching(self, desc: RegionDescriptor) -> None:
        if desc.rid == SYSTEM_RID or desc.rid in self._published:
            return
        self._published.add(desc.rid)
        self._publish(desc)

    def readvertise(self, desc: RegionDescriptor) -> None:
        self._published.discard(desc.rid)
        self.advertise_caching(desc)

    def retract(self, desc: RegionDescriptor) -> None:
        """No-op: ring publications record where a region *lives*, not
        who caches it, so an eviction here retracts nothing."""

    def note_unreserved(self, desc: RegionDescriptor) -> None:
        self._published.discard(desc.rid)
        self._publish(desc, dropped=True)

    def note_migrated(self, new_desc: RegionDescriptor) -> None:
        self._published.discard(new_desc.rid)
        self.advertise_caching(new_desc)

    def _publish(self, desc: RegionDescriptor, dropped: bool = False) -> None:
        kernel = self.kernel
        members = self.membership.alive_members()
        if not members:
            return
        per_director: Dict[int, List[int]] = {}
        for bucket in self._buckets_of(desc):
            director = director_of(bucket, members)
            per_director.setdefault(director, []).append(bucket)
        for director, buckets in per_director.items():
            if director == kernel.node_id:
                self._apply_publish(desc, buckets, dropped)
                continue
            self.publishes_sent += 1
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.RING_PUBLISH,
                    src=kernel.node_id,
                    dst=director,
                    payload={"descriptor": desc.to_wire(),
                             "buckets": buckets, "dropped": dropped},
                )
            )

    @staticmethod
    def _buckets_of(desc: RegionDescriptor) -> List[int]:
        first = bucket_of(desc.range.start)
        last = bucket_of(desc.range.end - 1)
        return list(range(first, min(last, first + PUBLISH_BUCKET_CAP) + 1))

    def _apply_publish(self, desc: RegionDescriptor, buckets: List[int],
                       dropped: bool) -> None:
        for bucket in buckets:
            table = self._directed.get(bucket)
            if dropped:
                if table is not None:
                    table.pop(desc.rid, None)
                continue
            if table is None:
                table = self._directed[bucket] = {}
            known = table.get(desc.rid)
            if known is None or desc.supersedes(known):
                table[desc.rid] = desc

    # ------------------------------------------------------------------
    # Wire handlers
    # ------------------------------------------------------------------

    def handle_ring_query(self, msg: Message) -> None:
        kernel = self.kernel
        address = int(msg.payload["address"])
        desc = self._directed_lookup(bucket_of(address), address)
        if desc is None:
            kernel.reply_error(
                msg, "region_not_found",
                f"director {kernel.node_id} has no record covering "
                f"{address:#x}",
            )
            return
        kernel.reply_request(
            msg, MessageType.RING_REPLY, {"descriptor": desc.to_wire()}
        )

    def handle_ring_publish(self, msg: Message) -> None:
        desc = RegionDescriptor.from_wire(msg.payload["descriptor"])
        buckets = [int(b) for b in msg.payload.get("buckets", ())]
        self._apply_publish(desc, buckets, bool(msg.payload.get("dropped")))

    def wire_routes(self, router) -> None:
        router.register(MessageType.RING_QUERY, self.handle_ring_query,
                        dedup=True)
        router.register(MessageType.RING_PUBLISH, self.handle_ring_publish)
        router.register(MessageType.MEMBER_JOIN,
                        self.membership.handle_member_join, dedup=True)
        router.register(MessageType.MEMBER_UPDATE,
                        self.membership.handle_member_update)

    # ------------------------------------------------------------------
    # Home selection and ordered failover
    # ------------------------------------------------------------------

    def choose_homes(self, range_, min_replicas: int) -> Tuple[int, ...]:
        """Top-ranked ring members of the region's first bucket: the
        director is the primary from birth, so lookup and data land on
        the same node."""
        members = self.membership.alive_members()
        if not members:
            return (self.kernel.node_id,)
        ranked = rank_members(bucket_of(range_.start), members)
        return tuple(ranked[:max(min_replicas, 1)])

    def home_order(self, desc: RegionDescriptor) -> List[int]:
        """Director-first failover order; the current director is
        appended even when the (possibly stale) descriptor does not
        name it, as the post-migration last-ditch candidate."""
        order = list(desc.home_nodes)
        members = self.membership.alive_members()
        if members:
            director = director_of(bucket_of(desc.range.start), members)
            if director in order:
                order.remove(director)
                order.insert(0, director)
            elif (director is not None
                  and self.kernel.detector.is_alive(director)):
                order.append(director)
        return order

    # ------------------------------------------------------------------
    # Membership churn → republication + re-homing
    # ------------------------------------------------------------------

    def on_membership_change(self, joined: List[int],
                             left: List[int]) -> None:
        kernel = self.kernel
        members = self.membership.alive_members()
        if not members:
            return
        for rid, desc in list(kernel.homed_regions.items()):
            if rid == SYSTEM_RID or desc.primary_home != kernel.node_id:
                continue
            # New directors must learn what we home before lookups
            # land on them.
            self._publish(desc)
            target = director_of(bucket_of(desc.range.start), members)
            if (target is not None and target != kernel.node_id
                    and kernel.detector.is_alive(target)):
                if kernel.migration_advisor.propose_rehome(desc, target):
                    self.rehomes_proposed += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        doc = super().report()
        doc["members"] = self.membership.members()
        doc["alive_members"] = self.membership.alive_members()
        doc["buckets_directed"] = len(self._directed)
        doc["regions_directed"] = len(
            {rid for table in self._directed.values() for rid in table}
        )
        doc["regions_published"] = len(self._published)
        doc["rehomes_proposed"] = self.rehomes_proposed
        doc["publishes_sent"] = self.publishes_sent
        doc["joins_seen"] = self.membership.joins_seen
        doc["leaves_seen"] = self.membership.leaves_seen
        return doc
