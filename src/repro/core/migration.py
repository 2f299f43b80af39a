"""Region home migration and the load-aware placement policy.

Two future-work items from the paper are implemented here:

- Section 3.2 presumes homes can move ("Regions do not migrate home
  nodes often, so the cached value is most likely accurate"), and the
  conclusion lists "resource- and load-aware migration and replication
  policies" as planned work.

Mechanism (:meth:`migrate_region` on the daemon, driven through the
``REGION_MIGRATE`` message): the current primary home pushes every
allocated page to the new primary, publishes a descriptor with the new
home order, updates the address map, and demotes itself.  Stale cached
descriptors elsewhere keep pointing at the old home; its directory
entries remain as hints, and the normal stale-hint machinery (NAKs,
descriptor refresh, lookup fallbacks) converges readers onto the new
home — exactly the tolerance Section 3.2 describes.

Policy (:class:`MigrationAdvisor`): each home counts which nodes
generate consistency traffic per region; when one remote node
dominates (by share and sample count), the region follows the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Set

from repro.net.tasks import Future

ProtocolGen = Generator[Future, Any, Any]

#: A remote node must account for at least this share of a region's
#: accesses before auto-migration triggers.
DOMINANCE_THRESHOLD = 0.7

#: ...and at least this many accesses must have been observed.
MIN_SAMPLES = 12


@dataclass
class RegionTraffic:
    """Access counts per requester for one homed region."""

    by_node: Dict[int, int]

    def total(self) -> int:
        return sum(self.by_node.values())

    def dominant(self) -> Optional[int]:
        """The node providing a dominant share of accesses, if any."""
        total = self.total()
        if total < MIN_SAMPLES:
            return None
        node, count = max(self.by_node.items(), key=lambda kv: kv[1])
        if count / total >= DOMINANCE_THRESHOLD:
            return node
        return None


class MigrationAdvisor:
    """Observes per-region access traffic and proposes migrations.

    ``note_access`` is fed by the daemon's consistency-message
    dispatcher, so every remote lock request, page fetch, and update
    push counts toward the requester's share.  The advisor's ``tick``
    runs on the daemon's housekeeping timer when auto-migration is
    enabled.
    """

    def __init__(self, daemon: Any) -> None:
        self.daemon = daemon
        self._traffic: Dict[int, RegionTraffic] = {}
        self._migrating: Set[int] = set()
        self.migrations_started = 0
        self.migrations_completed = 0

    def note_access(self, rid: int, node: int) -> None:
        if node == self.daemon.node_id:
            return
        traffic = self._traffic.get(rid)
        if traffic is None:
            traffic = RegionTraffic(by_node={})
            self._traffic[rid] = traffic
        traffic.by_node[node] = traffic.by_node.get(node, 0) + 1

    def traffic_for(self, rid: int) -> Dict[int, int]:
        traffic = self._traffic.get(rid)
        return dict(traffic.by_node) if traffic else {}

    def forget_region(self, rid: int) -> None:
        self._traffic.pop(rid, None)

    def propose_rehome(self, desc: Any, target: int) -> bool:
        """Start a placement-driven migration of ``desc`` to ``target``.

        Ring placement calls this on membership change for regions
        whose director moved; the same guards as the load-aware policy
        apply (one migration per region at a time, never to self or a
        dead node, only from the current primary).  Returns True when
        a migration task was actually started.
        """
        rid = desc.rid
        if rid in self._migrating or target == self.daemon.node_id:
            return False
        if desc.primary_home != self.daemon.node_id:
            return False
        if not self.daemon.detector.is_alive(target):
            return False
        self._migrating.add(rid)
        self.migrations_started += 1
        outcome = self.daemon.spawn(
            self.daemon.space.migrate_region_local(desc, target),
            label=f"rehome:{rid:#x}",
        )

        def done(future: Future, rid=rid) -> None:
            self._migrating.discard(rid)
            self._traffic.pop(rid, None)
            if future.exception() is None:
                self.migrations_completed += 1

        outcome.add_callback(done)
        return True

    def tick(self) -> None:
        """Propose migrations for regions with a dominant remote user."""
        for rid, traffic in list(self._traffic.items()):
            desc = self.daemon.homed_regions.get(rid)
            if desc is None or desc.primary_home != self.daemon.node_id:
                self._traffic.pop(rid, None)
                continue
            if rid in self._migrating:
                continue
            target = traffic.dominant()
            if target is None or target == self.daemon.node_id:
                continue
            if not self.daemon.detector.is_alive(target):
                continue
            self._migrating.add(rid)
            self.migrations_started += 1
            outcome = self.daemon.spawn(
                self.daemon.space.migrate_region_local(desc, target),
                label=f"auto-migrate:{rid:#x}",
            )

            def done(future: Future, rid=rid) -> None:
                self._migrating.discard(rid)
                self._traffic.pop(rid, None)
                if future.exception() is None:
                    self.migrations_completed += 1

            outcome.add_callback(done)
