"""Tests for persistent storage and daemon restart.

Paper Section 1: Khazana uses "local storage, both volatile (RAM) and
persistent (disk), on its constituent nodes".  A daemon configured
with a spill directory journals its homed metadata and keeps page
contents in a file-backed store, so a crash + restart preserves the
regions it homes.
"""

import pytest

from repro.api import create_cluster
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.storage.persistence import MetadataJournal


@pytest.fixture
def durable_cluster(tmp_path):
    config = DaemonConfig(spill_dir=str(tmp_path / "spill"))
    return create_cluster(num_nodes=4, config=config)


class TestJournal:
    def test_regions_roundtrip(self, tmp_path, durable_cluster):
        kz = durable_cluster.client(node=1)
        desc = kz.reserve(4096)
        daemon = durable_cluster.daemon(1)
        daemon.checkpoint()
        journal = MetadataJournal(daemon.journal.directory)
        loaded = journal.load_regions()
        assert any(d.rid == desc.rid for d in loaded)

    def test_page_entries_conservative_recovery(self, durable_cluster):
        kz = durable_cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"x")
        durable_cluster.client(node=3).read_at(desc.rid, 1)  # adds sharer
        daemon = durable_cluster.daemon(1)
        daemon.checkpoint()
        entries = daemon.journal.load_page_entries(node_id=1)
        entry = next(e for e in entries if e.address == desc.rid)
        # Conservative: restarted home owns the page, copyset is self.
        assert entry.owner == 1
        assert entry.sharers == {1}
        assert entry.allocated


class TestRestart:
    def test_homed_region_survives_restart(self, durable_cluster):
        cluster = durable_cluster
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"durable-data")
        cluster.run(2.0)   # housekeeping checkpoints + disk settle

        cluster.crash(1)
        cluster.run(8.0)
        fresh = cluster.restart_node(1)
        cluster.run(2.0)

        assert desc.rid in fresh.homed_regions
        # The restarted node serves its region again — to itself...
        assert cluster.client(node=1).read_at(desc.rid, 12) == b"durable-data"
        # ...and to remote readers.
        assert cluster.client(node=3).read_at(desc.rid, 12) == b"durable-data"

    def test_restarted_bootstrap_keeps_address_map(self, durable_cluster):
        cluster = durable_cluster
        kz2 = cluster.client(node=2)
        desc = kz2.reserve(4096)
        kz2.allocate(desc.rid)
        kz2.write_at(desc.rid, b"mapped")
        cluster.run(2.0)

        cluster.crash(0)   # bootstrap node: address-map home
        cluster.run(8.0)
        cluster.restart_node(0)
        cluster.run(2.0)

        # New reservations still work (the map survived on disk) and
        # old ones still resolve through it.
        desc2 = kz2.reserve(4096)
        assert not desc2.range.overlaps(desc.range)
        probe = cluster.client(node=3)
        assert probe.read_at(desc.rid, 6) == b"mapped"

    def test_restart_without_spill_loses_state(self, tmp_path):
        cluster = create_cluster(num_nodes=4)   # volatile daemons
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"gone")
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(8.0)
        fresh = cluster.restart_node(1)
        cluster.run(2.0)
        assert desc.rid not in fresh.homed_regions

    def test_writes_after_restart_are_seen_remotely(self, durable_cluster):
        cluster = durable_cluster
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"gen-0")
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(8.0)
        cluster.restart_node(1)
        cluster.run(2.0)
        cluster.client(node=1).write_at(desc.rid, b"gen-1")
        assert cluster.client(node=2).read_at(desc.rid, 5) == b"gen-1"

    def test_stale_remote_copy_refetches_after_restart(self, durable_cluster):
        """A reader that cached the page before the crash re-fetches
        after the restarted home invalidates via a fresh write."""
        cluster = durable_cluster
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"old")
        kz3 = cluster.client(node=3)
        assert kz3.read_at(desc.rid, 3) == b"old"
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(8.0)
        cluster.restart_node(1)
        cluster.run(2.0)
        cluster.client(node=1).write_at(desc.rid, b"new")
        # Node 3's pre-crash copy is not in the restarted home's
        # copyset, so it received no invalidation; its next *cold*
        # acquire must still deliver the fresh data.
        cluster.daemon(3).drop_local_page(desc.rid)
        cm3 = cluster.daemon(3).consistency_manager("crew")
        cm3.page_state.pop(desc.rid, None)
        assert kz3.read_at(desc.rid, 3) == b"new"
