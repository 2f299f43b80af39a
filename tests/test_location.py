"""Tests for the region-location chain (paper Sections 3.1-3.2):
region directory -> cluster manager -> address map -> cluster walk."""

import pytest

from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.errors import RegionNotFound
from repro.api import create_cluster, create_hierarchy


def reserve_on(cluster, node, size=4096):
    kz = cluster.client(node=node)
    desc = kz.reserve(size)
    kz.allocate(desc.rid)
    kz.write_at(desc.rid, b"here")
    return desc


class TestLookupTiers:
    def test_local_directory_hit_after_first_lookup(self, cluster):
        desc = reserve_on(cluster, node=1)
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        tiers_before = dict(cluster.daemon(3).stats.lookup_tiers)
        kz3.read_at(desc.rid, 4)
        tiers_after = cluster.daemon(3).stats.lookup_tiers
        assert tiers_after.get("directory", 0) > tiers_before.get("directory", 0)

    def test_cluster_hint_tier_used_when_warm(self, cluster):
        desc = reserve_on(cluster, node=1)
        cluster.run(1.0)   # hint update reaches the cluster manager
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        assert cluster.daemon(3).stats.lookup_tiers.get("cluster", 0) >= 1

    def test_map_tier_when_hints_cold(self, cluster):
        desc = reserve_on(cluster, node=1)
        # Query immediately from another node before hints propagate,
        # with the manager's hint cache cleared.
        cluster.daemon(0).cluster_role._region_hints.clear()
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        assert cluster.daemon(3).stats.lookup_tiers.get("map", 0) >= 1

    def test_hints_disabled_falls_to_map(self):
        config = DaemonConfig(use_cluster_hints=False)
        cluster = create_cluster(num_nodes=4, config=config)
        desc = reserve_on(cluster, node=1)
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)
        tiers = cluster.daemon(3).stats.lookup_tiers
        assert tiers.get("cluster", 0) == 0
        assert tiers.get("map", 0) >= 1

    def test_tiny_directory_forces_remote_lookups(self):
        config = DaemonConfig(region_directory_capacity=1)
        cluster = create_cluster(num_nodes=4, config=config)
        kz1 = cluster.client(node=1)
        descs = []
        for _ in range(3):
            d = kz1.reserve(4096)
            kz1.allocate(d.rid)
            kz1.write_at(d.rid, b"data")
            descs.append(d)
        kz3 = cluster.client(node=3)
        for d in descs:
            kz3.read_at(d.rid, 4)
        # Re-touch in order: capacity-1 cache thrashes, so directory
        # hits stay rare and deeper tiers are exercised.
        for d in descs:
            kz3.read_at(d.rid, 4)
        tiers = cluster.daemon(3).stats.lookup_tiers
        deeper = tiers.get("cluster", 0) + tiers.get("map", 0)
        assert deeper >= 4


class TestStaleness:
    def test_unknown_region_fails_cleanly(self, cluster):
        kz = cluster.client(node=2)
        with pytest.raises(RegionNotFound):
            kz.read_at(0x7777777770000, 4)

    def test_cluster_walk_finds_region_when_map_home_down(self):
        """If the address-map home (node 0) is unreachable and hints
        are cold, the cluster walk still locates the region (Section
        3.1: 'the region can still be located using a cluster-walk
        algorithm')."""
        cluster = create_cluster(num_nodes=4)
        desc = reserve_on(cluster, node=1)
        cluster.run(1.0)
        # Node 3 knows nothing about the region; now the cluster
        # manager/bootstrap node dies, taking hints AND map home away.
        cluster.crash(0)
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 4) == b"here"
        assert cluster.daemon(3).stats.lookup_tiers.get("walk", 0) >= 1


class TestHintRetraction:
    """Tier-2 hints must follow the data out: a node that stops
    caching a region withdraws its hint, so the manager never serves
    hints that cost every looker-up a wasted redirect."""

    def test_unreserve_withdraws_manager_hint(self, cluster):
        desc = reserve_on(cluster, node=1)
        cluster.run(1.0)
        role = cluster.daemon(0).cluster_role
        assert role.lookup_hint(desc.rid) is not None
        cluster.client(node=1).unreserve(desc.rid)
        cluster.run(1.0)
        assert role.lookup_hint(desc.rid) is None

    def test_stale_hint_costs_one_fallthrough_not_wrong_answer(
        self, cluster
    ):
        """After an unreserve the hint is gone; a later lookup pays at
        most one failed hint RPC, then gets the authoritative answer
        from the map — never a descriptor for a dead region."""
        desc = reserve_on(cluster, node=1)
        cluster.run(1.0)
        cluster.client(node=1).unreserve(desc.rid)
        cluster.run(1.0)
        kz3 = cluster.client(node=3)
        with pytest.raises(RegionNotFound):
            kz3.read_at(desc.rid, 4)
        tiers = cluster.daemon(3).stats.lookup_tiers
        # One orderly fallthrough (hint miss -> map); no walk storm.
        assert tiers.get("cluster", 0) == 0
        assert tiers.get("walk", 0) == 0

    def test_evicting_last_cached_page_retracts_hint(self, cluster):
        desc = reserve_on(cluster, node=1)
        cluster.run(1.0)
        role = cluster.daemon(0).cluster_role
        # Cold hints force node 3 through the map tier, which is the
        # path that advertises node 3 as a cacher.
        role._region_hints.clear()
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)   # node 3 now caches and hints
        cluster.run(1.0)
        _, nodes = role.lookup_hint(desc.rid)
        assert 3 in nodes
        d3 = cluster.daemon(3)
        for entry in list(d3.page_directory.entries_for_region(desc.rid)):
            page = d3.storage.peek(entry.address)
            assert page is not None
            assert d3.data.on_disk_evict(page)
            d3.data.drop_local_page(entry.address)
        cluster.run(1.0)   # the dropped-hint update reaches the manager
        hint = role.lookup_hint(desc.rid)
        assert hint is None or 3 not in hint[1]
        # The region itself is still perfectly reachable.
        assert cluster.client(node=2).read_at(desc.rid, 4) == b"here"


class TestClusterWalkFallback:
    """Tier 4 (Section 3.1's cluster walk) under the two failure
    shapes that disable the earlier remote tiers."""

    def test_walk_when_manager_and_map_home_both_dead(self):
        hierarchy = create_hierarchy([2, 2])
        desc = reserve_on(hierarchy, node=1)
        hierarchy.run(1.0)
        # Node 3's cluster manager (node 2) and the map home /
        # bootstrap (node 0) both die: tiers 2 and 3 are gone.
        hierarchy.crash(2)
        hierarchy.crash(0)
        kz3 = hierarchy.client(node=3)
        assert kz3.read_at(desc.rid, 4) == b"here"
        assert hierarchy.daemon(3).stats.lookup_tiers.get("walk", 0) >= 1

    def test_manager_side_lookup_survives_dead_peer_managers(self):
        """A cluster manager whose peer managers all time out falls
        through to the map cleanly instead of erroring."""
        hierarchy = create_hierarchy([2, 2])
        desc = reserve_on(hierarchy, node=3)
        hierarchy.run(1.0)
        hierarchy.crash(2)   # the only peer manager of node 0
        kz0 = hierarchy.client(node=0)
        assert kz0.read_at(desc.rid, 4) == b"here"
        tiers = hierarchy.daemon(0).stats.lookup_tiers
        assert tiers.get("map", 0) + tiers.get("walk", 0) >= 1

    def test_walk_exhaustion_reports_region_not_found(self):
        """Even with every remote tier dead, an address nobody has
        reserved fails with the clean error, not a timeout blowup."""
        cluster = create_cluster(num_nodes=3)
        cluster.crash(0)
        kz2 = cluster.client(node=2)
        with pytest.raises(RegionNotFound):
            kz2.read_at(0x7777777770000, 4)


class TestSystemRegionBootstrap:
    def test_system_descriptor_pinned_everywhere(self, cluster):
        for node in cluster.node_ids():
            directory = cluster.daemon(node).region_directory
            assert directory.get(0) is not None

    def test_address_map_survives_region_directory_churn(self, cluster):
        """Region 0 is pinned: unbounded region traffic never evicts
        the bootstrap descriptor."""
        kz1 = cluster.client(node=1)
        directory = cluster.daemon(1).region_directory
        for _ in range(directory.capacity + 8):
            kz1.reserve(4096)
        assert directory.get(0) is not None
