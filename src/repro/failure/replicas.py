"""Replica maintenance and home-node failover.

"Khazana allows clients to specify a minimum number of primary
replicas that should be maintained for each page in a Khazana region.
This functionality further enhances availability, at a cost of
resource consumption." (paper Section 3.5)

A region with ``min_replicas = N`` is reserved with N home nodes; the
consistency protocols keep all home copies current at lock release.
This module repairs the invariant after failures:

- **Promotion** — when a region's primary home dies, the first alive
  home in the descriptor's home list takes over as acting primary and
  publishes a descriptor that lists itself first.
- **Recruitment** — when fewer than N homes are alive, the acting
  primary recruits replacement nodes, pushes every allocated page to
  them (``SpaceService.push_region_to``, as migration does), and
  publishes an updated descriptor and address-map entry naming only
  the recruits that acknowledged every page; the rest are tried again
  on a later tick.

Stale cached descriptors elsewhere still name the dead primary first;
requesters simply fail over down the home list (every protocol's
``_home_request`` loop), then pick up the fresh descriptor on their
next lookup — the paper's "stale hints are harmless" posture.
"""

from __future__ import annotations

from typing import Any, Generator, List, Set

from repro.core.errors import NodeUnavailable
from repro.net.tasks import Future

ProtocolGen = Generator[Future, Any, Any]

#: How often each daemon checks its homed regions, in virtual seconds.
DEFAULT_PERIOD = 2.0


class ReplicaMaintainer:
    """Keeps every homed region at its minimum replica count."""

    def __init__(self, daemon: Any, period: float = DEFAULT_PERIOD) -> None:
        self.daemon = daemon
        self.period = period
        self._repairing: Set[int] = set()
        self._running = False
        self.repairs_completed = 0
        self.promotions = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        if not self._running:
            return
        self.daemon.runtime.call_later(
            self.period, self._tick,
            label=f"n{self.daemon.node_id}:replica-maintenance",
        )

    def _tick(self) -> None:
        if not self._running:
            return
        for desc in list(self.daemon.homed_regions.values()):
            self._check_region(desc)
        self._schedule()

    # ------------------------------------------------------------------

    def _check_region(self, desc: Any) -> None:
        me = self.daemon.node_id
        detector = self.daemon.detector
        alive_homes = [
            home for home in desc.home_nodes if detector.is_alive(home)
        ]
        if not alive_homes or alive_homes[0] != me:
            return   # a better-placed home is (or will be) acting primary
        needs_promotion = desc.primary_home != me
        short = max(0, desc.attrs.min_replicas - len(alive_homes))
        if not needs_promotion and short == 0:
            return
        if desc.rid in self._repairing:
            return
        self._repairing.add(desc.rid)
        task = self._repair(desc, alive_homes, short)
        outcome = self.daemon.spawn(task, label=f"repair:{desc.rid:#x}")
        outcome.add_callback(
            lambda _f: self._repairing.discard(desc.rid)
        )

    def _repair(self, desc: Any, alive_homes: List[int], short: int) -> ProtocolGen:
        recruits: List[int] = []
        if short > 0:
            candidates = [
                node for node in self.daemon.detector.alive_peers()
                if node not in alive_homes
            ]
            for candidate in candidates[:short]:
                try:
                    yield from self.daemon.space.push_region_to(desc,
                                                                candidate)
                except NodeUnavailable:
                    continue   # not a home without every page; next tick
                recruits.append(candidate)

        new_homes = tuple(alive_homes + recruits)   # led by this node
        if new_homes == desc.home_nodes:
            return
        if desc.primary_home != self.daemon.node_id:
            self.promotions += 1
        new_desc = desc.with_homes(new_homes)
        self.repairs_completed += 1

        # Publish: peers' directories, the cluster manager's hints and
        # the address map learn the new home list.  All are hint
        # layers — failure here only delays rediscovery — so errors
        # are swallowed by the retry queue.
        manager = self.daemon.cluster_manager_node
        self.daemon.space.publish(
            new_desc, new_homes + ((manager,) if manager is not None else ()))
        self.daemon.retry_queue.enqueue(
            lambda: self.daemon.address_map.update_homes(
                new_desc.range, new_homes
            ),
            label=f"map-homes:{desc.rid:#x}",
        )
