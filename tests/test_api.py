"""Tests for the public facade: cluster construction and fault surface."""

import pytest

from repro.api import Cluster, create_cluster, create_hierarchy
from repro.core.kernel import DaemonConfig
from repro.net.sim import LAN_LATENCY, WAN_LATENCY, Topology


class TestConstruction:
    def test_minimum_one_node(self):
        with pytest.raises(ValueError):
            create_cluster(num_nodes=0)

    def test_default_topology_is_lan(self):
        cluster = create_cluster(num_nodes=3)
        assert cluster.topology.link(0, 2).base_latency == LAN_LATENCY

    def test_named_topologies(self):
        wan = create_cluster(num_nodes=2, topology="wan")
        assert wan.topology.link(0, 1).base_latency == WAN_LATENCY
        two = create_cluster(num_nodes=4, topology="two_cluster")
        assert two.topology.link(0, 1).base_latency == LAN_LATENCY
        assert two.topology.link(0, 3).base_latency == WAN_LATENCY

    def test_explicit_topology_instance(self):
        topo = Topology.lan(jitter=0.001)
        cluster = Cluster(num_nodes=2, topology=topo)
        assert cluster.topology is topo

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            create_cluster(num_nodes=2, topology="mesh")

    def test_storage_sizing_helpers(self):
        cluster = create_cluster(num_nodes=1, memory_pages=8, disk_pages=32)
        daemon = cluster.daemon(0)
        assert daemon.storage.memory.capacity_bytes == 8 * 4096
        assert daemon.storage.disk.capacity_bytes == 32 * 4096

    def test_hierarchy_helper_layout(self):
        cluster = create_hierarchy([2, 3])
        assert cluster.node_ids() == [0, 1, 2, 3, 4]
        assert cluster.clusters == [[0, 1], [2, 3, 4]]

    def test_node_zero_is_manager_and_bootstrap(self):
        cluster = create_cluster(num_nodes=3)
        assert cluster.daemon(0).cluster_role is not None
        assert 0 in cluster.daemon(0).homed_regions or True
        assert cluster.daemon(1).config.bootstrap_node == 0


class TestSimulationControl:
    def test_run_advances_virtual_time(self):
        cluster = create_cluster(num_nodes=1)
        before = cluster.now
        cluster.run(2.5)
        assert cluster.now == pytest.approx(before + 2.5)

    def test_clients_share_one_timeline(self):
        cluster = create_cluster(num_nodes=2)
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        assert cluster.now >= 0.01   # settle ran

    def test_crash_stops_the_kernel_not_disk(self, tmp_path):
        """A crash is a process kill: the kernel stops, sends nothing
        and writes no checkpoint, and its page log stays for a restart."""
        import os

        from repro.storage.persistence import REGIONS_FILE

        cluster = create_cluster(num_nodes=2, config=DaemonConfig(
            spill_dir=str(tmp_path / "spill")))
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"on-disk")
        daemon = cluster.daemon(1)
        assert desc.home_nodes == (1,)
        assert cluster.now < 1.0   # before the first checkpoint tick
        regions = os.path.join(daemon.journal.directory, REGIONS_FILE)

        def journal():
            if not os.path.exists(regions):
                return None
            with open(regions, encoding="utf-8") as fh:
                return fh.read()

        at_crash = journal()
        sent = []
        cluster.network.tap(
            lambda m: sent.append(m) if m.src == 1 else None)
        cluster.crash(1)
        assert not daemon.alive
        cluster.run(3.0)
        assert sent == []
        assert journal() == at_crash

        fresh = cluster.restart_node(1)
        assert fresh.storage.peek(desc.rid).data[:7] == b"on-disk"
        cluster.shutdown()

    def test_partition_and_heal_surface(self):
        cluster = create_cluster(num_nodes=4)
        cluster.partition([0, 1], [2, 3])
        kz = cluster.client(node=2)
        from repro.core.errors import KhazanaError

        with pytest.raises(KhazanaError):
            kz.reserve(4096)   # manager (node 0) unreachable
        cluster.heal()
        desc = kz.reserve(4096)
        assert desc is not None

    def test_stats_surface(self):
        cluster = create_cluster(num_nodes=2)
        cluster.client(node=1).reserve(4096)
        assert cluster.stats.messages_sent > 0
