"""Tests for region home migration and the load-aware policy.

Both are listed future work in the paper's conclusion ("resource- and
load-aware migration and replication policies"); Section 3.2 already
tolerates the consequences ("Regions do not migrate home nodes often,
so the cached value is most likely accurate" — and stale values only
cost a redirect).
"""

import pytest

from repro.api import create_cluster
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.errors import InvalidRange
from repro.core.migration import MIN_SAMPLES


def make_region(cluster, node=1, payload=b"movable", **attrs):
    kz = cluster.client(node=node)
    desc = kz.reserve(4096, RegionAttributes(**attrs))
    kz.allocate(desc.rid)
    kz.write_at(desc.rid, payload)
    return kz, desc


class TestExplicitMigration:
    def test_primary_home_moves(self, cluster):
        kz, desc = make_region(cluster)
        new_desc = kz.migrate(desc.rid, 3)
        assert new_desc.primary_home == 3
        assert desc.rid in cluster.daemon(3).homed_regions
        assert desc.rid not in cluster.daemon(1).homed_regions

    def test_data_intact_after_migration(self, cluster):
        kz, desc = make_region(cluster, payload=b"carried-over")
        kz.migrate(desc.rid, 3)
        cluster.run(2.0)
        for node in (0, 1, 2, 3):
            got = cluster.client(node=node).read_at(desc.rid, 12)
            assert got == b"carried-over"

    def test_writes_after_migration_stay_consistent(self, cluster):
        kz, desc = make_region(cluster)
        kz.migrate(desc.rid, 3)
        cluster.run(2.0)
        cluster.client(node=2).write_at(desc.rid, b"post-move")
        assert cluster.client(node=0).read_at(desc.rid, 9) == b"post-move"
        # The new home's directory is authoritative now.
        entry = cluster.daemon(3).page_directory.get(desc.rid)
        assert entry is not None and entry.homed

    def test_migrate_requested_from_third_party(self, cluster):
        _kz, desc = make_region(cluster)
        outsider = cluster.client(node=2)
        new_desc = outsider.migrate(desc.rid, 0)
        assert new_desc.primary_home == 0
        assert outsider.read_at(desc.rid, 7) == b"movable"

    def test_migrate_to_current_home_is_noop(self, cluster):
        kz, desc = make_region(cluster)
        same = kz.migrate(desc.rid, 1)
        assert same.primary_home == 1
        assert same.home_nodes == desc.home_nodes

    def test_migrate_interior_address_rejected(self, cluster):
        kz, desc = make_region(cluster)
        with pytest.raises(InvalidRange):
            kz.migrate(desc.rid + 100, 3)

    def test_old_writer_still_coherent(self, cluster):
        """Node 1 keeps its cached copy across the migration; a write
        at the new home must still invalidate it."""
        kz, desc = make_region(cluster, payload=b"v1")
        kz.migrate(desc.rid, 3)
        cluster.run(2.0)
        cluster.client(node=3).write_at(desc.rid, b"v2")
        assert kz.read_at(desc.rid, 2) == b"v2"

    def test_replicated_region_keeps_replica_count(self, cluster):
        kz, desc = make_region(cluster, min_replicas=2)
        new_desc = kz.migrate(desc.rid, 3)
        assert new_desc.primary_home == 3
        assert len(new_desc.home_nodes) >= 2
        cluster.run(3.0)
        assert cluster.client(node=2).read_at(desc.rid, 7) == b"movable"


class TestAutoMigration:
    def test_dominant_remote_user_attracts_region(self):
        config = DaemonConfig(enable_auto_migration=True)
        cluster = create_cluster(num_nodes=4, config=config)
        _kz, desc = make_region(cluster)
        heavy = cluster.client(node=3)
        # Node 3 dominates the region's traffic with writes (each one
        # is a remote lock request the advisor can see).
        for i in range(MIN_SAMPLES + 6):
            heavy.write_at(desc.rid, f"w{i}".encode())
            cluster.run(0.2)
        cluster.run(5.0)   # housekeeping ticks run the advisor
        assert desc.rid in cluster.daemon(3).homed_regions
        advisor = cluster.daemon(1).migration_advisor
        assert advisor.migrations_completed >= 1
        # And the data still reads correctly from everywhere.
        assert cluster.client(node=0).read_at(
            desc.rid, 3
        ) == f"w{MIN_SAMPLES + 5}".encode()[:3]

    def test_balanced_traffic_does_not_migrate(self):
        config = DaemonConfig(enable_auto_migration=True)
        cluster = create_cluster(num_nodes=4, config=config)
        _kz, desc = make_region(cluster)
        for i in range(MIN_SAMPLES * 2):
            node = 2 + (i % 2)   # split between nodes 2 and 3
            cluster.client(node=node).write_at(desc.rid, b"even")
            cluster.run(0.2)
        cluster.run(5.0)
        assert desc.rid in cluster.daemon(1).homed_regions
        assert cluster.daemon(1).migration_advisor.migrations_started == 0

    def test_advisor_counts_traffic(self, cluster):
        _kz, desc = make_region(cluster)
        cluster.client(node=3).read_at(desc.rid, 4)
        cluster.client(node=3).write_at(desc.rid, b"x")
        traffic = cluster.daemon(1).migration_advisor.traffic_for(desc.rid)
        assert traffic.get(3, 0) >= 2
