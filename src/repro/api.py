"""Public facade: build and drive a Khazana deployment.

Typical use::

    from repro import api
    from repro.core import LockMode, RegionAttributes

    cluster = api.create_cluster(num_nodes=5)
    kz = cluster.client(node=1)
    region = kz.reserve(64 * 1024)
    kz.allocate(region.rid)
    kz.write_at(region.rid, b"hello, global memory")
    print(cluster.client(node=4).read_at(region.rid, 20))

The cluster wraps the discrete-event simulator; every client call runs
the simulation forward until the operation completes, so the code
above behaves like a blocking client library while remaining fully
deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Union

from repro.analysis.races import RaceDetector
from repro.core.client import KhazanaSession, SyncDriver
from repro.core.kernel import DaemonConfig, NodeKernel
from repro.net.clock import EventScheduler
from repro.net.runtime import SimRuntime
from repro.net.sim import SimNetwork, Topology


class Cluster:
    """A set of Khazana daemons on a simulated network."""

    def __init__(
        self,
        num_nodes: int,
        topology: Union[str, Topology, None] = None,
        seed: int = 0,
        config: Optional[DaemonConfig] = None,
        settle: bool = True,
        clusters: Optional[List[List[int]]] = None,
        node_configs: Optional[Dict[int, DaemonConfig]] = None,
    ) -> None:
        """Build a Khazana deployment.

        ``clusters`` partitions the node ids into clusters (paper
        Section 3.1's hierarchy): each cluster's first node hosts its
        cluster-manager role, managers know each other for
        inter-cluster location queries, and — unless an explicit
        topology is given — intra-cluster links are LAN and
        inter-cluster links are WAN.  Without ``clusters`` the
        deployment is the paper's single-cluster prototype.
        """
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.scheduler = EventScheduler()
        self.clusters = self._check_clusters(clusters, num_nodes)
        self.topology = self._build_topology(topology, num_nodes)
        self.network = SimNetwork(self.scheduler, self.topology, seed=seed)
        #: The backend seam every daemon is built over.  A Cluster is
        #: always the simulated backend; the asyncio backend is built
        #: by repro.tools.cluster instead.
        self.runtime = SimRuntime(self.scheduler, self.network)
        self.config = config if config is not None else DaemonConfig()
        self._node_configs = dict(node_configs) if node_configs else {}
        self.driver = SyncDriver(self.scheduler)

        node_ids = list(range(num_nodes))
        #: Shared race detector (None unless some config sets
        #: detect_races): one observer across all daemons, so
        #: cross-node violations — two CREW writers on different
        #: nodes — are visible.
        self.race_detector: Optional[RaceDetector] = None
        if any(self._config_for(n).detect_races for n in node_ids):
            self.race_detector = RaceDetector()
            self.race_detector.attach_network(self.network)
        self.daemons: Dict[int, NodeKernel] = {}
        for node_id in node_ids:
            self.daemons[node_id] = NodeKernel(
                node_id, self.runtime,
                config=self._config_for(node_id),
                probe=self.race_detector,
            )
        for daemon in self.daemons.values():
            daemon.bootstrap_system_region(peers=node_ids)
        if settle:
            # Let bootstrap-time traffic (initial pings) drain.
            self.run(0.01)

    @staticmethod
    def _check_clusters(
        clusters: Optional[List[List[int]]], num_nodes: int
    ) -> Optional[List[List[int]]]:
        if clusters is None:
            return None
        flat = [node for group in clusters for node in group]
        if sorted(flat) != list(range(num_nodes)):
            raise ValueError(
                "clusters must partition exactly the node ids "
                f"0..{num_nodes - 1}, got {clusters}"
            )
        if any(not group for group in clusters):
            raise ValueError("every cluster needs at least one node")
        return [list(group) for group in clusters]

    def _config_for(self, node_id: int) -> DaemonConfig:
        base = self._node_configs.get(node_id, self.config)
        if self.clusters is None:
            return base
        managers = [group[0] for group in self.clusters]
        for cluster_id, group in enumerate(self.clusters):
            if node_id in group:
                return replace(
                    base,
                    cluster_id=cluster_id,
                    cluster_manager_node=group[0],
                    peer_managers=tuple(
                        m for m in managers if m != group[0]
                    ),
                    bootstrap_node=managers[0],
                )
        raise ValueError(f"node {node_id} missing from cluster map")

    def _build_topology(self, topology: Union[str, Topology, None],
                        num_nodes: int) -> Topology:
        if isinstance(topology, Topology):
            return topology
        if topology is None:
            if self.clusters is not None:
                assignment = {
                    node: cid
                    for cid, group in enumerate(self.clusters)
                    for node in group
                }
                return Topology.clustered(assignment)
            topology = "lan"
        if topology == "lan":
            return Topology.lan()
        if topology == "wan":
            return Topology.wan()
        if topology == "two_cluster":
            half = num_nodes // 2
            assignment = {
                node: (0 if node < half else 1) for node in range(num_nodes)
            }
            return Topology.clustered(assignment)
        raise ValueError(
            f"unknown topology {topology!r}; use 'lan', 'wan', "
            "'two_cluster', or a Topology instance"
        )

    # --- Clients -----------------------------------------------------------

    def client(self, node: int = 0, principal: str = "user") -> KhazanaSession:
        """A session bound to the daemon on ``node``."""
        return KhazanaSession(self.daemons[node], self.driver, principal)

    # --- Simulation control ---------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, duration: float) -> int:
        """Advance virtual time by ``duration`` seconds."""
        return self.scheduler.run_for(duration)

    def run_until(self, deadline: float) -> int:
        return self.scheduler.run_until(deadline)

    # --- Fault injection ---------------------------------------------------------

    def crash(self, node: int) -> None:
        """Crash a node: its kernel stops, as a killed process would;
        a durable node's disk stays for :meth:`restart_node`."""
        self.daemons[node].stop()

    def add_node(self, node: Optional[int] = None) -> NodeKernel:
        """Bring a brand-new node into the running system.

        "Machines can dynamically enter and leave Khazana and
        contribute/reclaim local resources" (paper Section 3).  The
        newcomer joins the cluster of the current cluster-manager
        (cluster 0 in hierarchies), learns the well-known system
        region, and starts pinging; existing daemons learn about it
        through their failure detectors.
        """
        if node is None:
            node = max(self.daemons) + 1
        if node in self.daemons:
            raise ValueError(f"node {node} already exists")
        if self.clusters is not None:
            self.clusters[0].append(node)
        fresh = NodeKernel(
            node, self.runtime,
            config=self._config_for(node),
            probe=self.race_detector,
        )
        existing = self.node_ids()
        peers = existing + [node]
        fresh.bootstrap_system_region(peers=peers)
        self.daemons[node] = fresh
        for other in self.daemons.values():
            if other.node_id != node:
                other.detector.add_peer(node)
        if fresh.membership is not None and existing:
            # Ring placement: run the join protocol so every member
            # learns the newcomer and re-homing starts (the seed peer
            # gossips the join to the rest of the ring).
            fresh.spawn(
                fresh.membership.join(existing[0]), label="member-join"
            )
        return fresh

    def remove_node(self, node: int) -> None:
        """Cleanly take a node out of the system.

        The daemon stops answering; peers notice through their
        detectors and replica maintenance re-replicates anything it
        homed (given ``min_replicas`` > 1).
        """
        daemon = self.daemons.pop(node)
        daemon.stop()
        for other in self.daemons.values():
            # A clean leave is announced rather than discovered: death
            # listeners (copyset scrubbing, replica repair) fire now.
            other.detector.declare_dead(node)

    def restart_node(self, node: int) -> NodeKernel:
        """Replace a (crashed) daemon with a fresh incarnation.

        With a ``spill_dir`` configured the new daemon recovers its
        homed regions, page metadata, and page contents from its
        persistent store — the paper's "persistent (disk)" storage
        surviving a daemon crash.  Without one, the node comes back
        empty, like a wiped machine rejoining the system.
        """
        self.daemons[node].stop()
        fresh = NodeKernel(
            node, self.runtime,
            config=self._config_for(node),
            probe=self.race_detector,
        )
        fresh.bootstrap_system_region(peers=self.node_ids())
        self.daemons[node] = fresh
        return fresh

    def shutdown(self) -> None:
        """Stop every daemon, closing durable nodes' page logs."""
        for daemon in self.daemons.values():
            daemon.stop()

    def partition(self, group_a, group_b) -> None:
        self.network.partition(set(group_a), set(group_b))

    def heal(self) -> None:
        self.network.heal_partitions()

    # --- Introspection ----------------------------------------------------------

    @property
    def stats(self):
        """Aggregate network statistics."""
        return self.network.stats

    def node_ids(self) -> List[int]:
        return sorted(self.daemons)

    def daemon(self, node: int) -> NodeKernel:
        return self.daemons[node]


def create_cluster(
    num_nodes: int = 3,
    topology: Union[str, Topology, None] = None,
    seed: int = 0,
    memory_pages: Optional[int] = None,
    disk_pages: Optional[int] = None,
    config: Optional[DaemonConfig] = None,
    clusters: Optional[List[List[int]]] = None,
) -> Cluster:
    """Build a ready-to-use Khazana deployment.

    ``memory_pages``/``disk_pages`` size each daemon's storage levels
    in 4 KiB pages; ``clusters`` builds the Section 3.1 multi-cluster
    hierarchy; other tunables go through ``config``.
    """
    if config is None:
        config = DaemonConfig()
    if memory_pages is not None:
        config = replace(config, memory_bytes=memory_pages * 4096)
    if disk_pages is not None:
        config = replace(config, disk_bytes=disk_pages * 4096)
    return Cluster(num_nodes, topology=topology, seed=seed, config=config,
                   clusters=clusters)


def create_hierarchy(
    cluster_sizes: List[int],
    seed: int = 0,
    config: Optional[DaemonConfig] = None,
) -> Cluster:
    """Build a multi-cluster hierarchy from per-cluster sizes.

    ``create_hierarchy([3, 3, 2])`` makes clusters {0,1,2}, {3,4,5},
    {6,7} with LAN links inside each cluster and WAN links between
    them; nodes 0, 3 and 6 host the cluster-manager roles.
    """
    groups: List[List[int]] = []
    next_node = 0
    for size in cluster_sizes:
        groups.append(list(range(next_node, next_node + size)))
        next_node += size
    return create_cluster(num_nodes=next_node, seed=seed, config=config,
                          clusters=groups)
