"""End-to-end robustness under message loss.

Section 1 assumes "slow or intermittent WAN links"; the RPC layer
retransmits and the daemons suppress duplicate requests (a
retransmitted LOCK_REQUEST must not start a second directory
transaction).  These tests run real workloads over links that drop a
significant fraction of messages and require full correctness.
"""

import pytest

from repro.api import Cluster
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.net.sim import Topology
from repro.fs import KhazanaFileSystem


def lossy_cluster(loss=0.15, seed=7, num_nodes=3):
    # Generous node count kept small: every message class still
    # crosses the wire, and the run stays fast despite retries.
    return Cluster(
        num_nodes=num_nodes,
        topology=Topology.lan(loss=loss),
        seed=seed,
        config=DaemonConfig(enable_failure_handling=False),
    )


class TestCoreUnderLoss:
    def test_reserve_allocate_write_read(self):
        cluster = lossy_cluster()
        kz = cluster.client(node=1)
        desc = kz.reserve(4096)
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"survives loss")
        assert cluster.client(node=2).read_at(desc.rid, 13) == (
            b"survives loss"
        )

    def test_interleaved_writers_stay_coherent(self):
        cluster = lossy_cluster(loss=0.2, seed=3)
        kz1 = cluster.client(node=1)
        kz2 = cluster.client(node=2)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        for i in range(10):
            writer = kz1 if i % 2 == 0 else kz2
            writer.write_at(desc.rid, f"gen-{i:02d}".encode())
            reader = kz2 if i % 2 == 0 else kz1
            assert reader.read_at(desc.rid, 6) == f"gen-{i:02d}".encode()

    def test_duplicate_requests_do_not_double_reserve(self):
        """Retransmitted SPACE_REQUESTs must not double-delegate."""
        cluster = lossy_cluster(loss=0.3, seed=11)
        descs = []
        for node in (1, 2):
            kz = cluster.client(node=node)
            for _ in range(3):
                descs.append(kz.reserve(4096))
        for i, a in enumerate(descs):
            for b in descs[i + 1:]:
                assert not a.range.overlaps(b.range)

    def test_multiple_protocols_under_loss(self):
        cluster = lossy_cluster(loss=0.15, seed=5)
        for level in ConsistencyLevel:
            kz = cluster.client(node=1)
            desc = kz.reserve(
                4096, RegionAttributes(consistency_level=level)
            )
            kz.allocate(desc.rid)
            kz.write_at(desc.rid, level.value.encode())
            got = cluster.client(node=2).read_at(
                desc.rid, len(level.value)
            )
            if level is ConsistencyLevel.STRICT:
                assert got == level.value.encode()
            else:
                # Relaxed protocols may serve a pre-propagation zero
                # page; give the update a moment and re-read.
                cluster.run(5.0)
                got = cluster.client(node=2).read_at(
                    desc.rid, len(level.value)
                )
                assert got == level.value.encode()


class TestFilesystemUnderLoss:
    def test_fs_workload_with_lossy_links(self):
        cluster = lossy_cluster(loss=0.1, seed=21)
        fs = KhazanaFileSystem.format(cluster.client(node=1))
        fs.mkdir("/d")
        with fs.create("/d/file.txt") as f:
            f.write(b"lossy but correct" * 10)
        other = KhazanaFileSystem.mount(
            cluster.client(node=2), fs.superblock_addr
        )
        with other.open("/d/file.txt") as f:
            assert f.read() == b"lossy but correct" * 10
        other.rename("/d/file.txt", "/d/renamed.txt")
        assert fs.listdir("/d") == ["renamed.txt"]
