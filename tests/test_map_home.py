"""The address map's home keeps its tree resident (paper Section 3.1).

Mutations run at the map's home against the decoded nodes it keeps in
memory; it stores the pages a mutation changes and publishes them
through the release protocol's home apply, while every other node keeps
reading its release-consistent replicas under READ locks.  Also here:
the per-message-type dispatch CPU probe, and a node whose region
directory evicted a descriptor still invalidating or updating its copy
of that region's pages.
"""

import dataclasses
import os
import sys

import pytest

from repro.api import create_cluster
from repro.core.address_map import ROOT_PAGE, SYSTEM_REGION, MapNode
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.net.message import MessageType
from repro.tools import dispatch_cpu_report
from repro.tools.cluster import node_config, snapshot_node
from tests.test_session_driver import tcp_sessions  # noqa: F401  (fixture)

PAGE = 4096
QUIET = DaemonConfig(enable_failure_handling=False)


def reserved(session):
    """RESERVED ranges as ``session``'s node reads the map: the home
    from its resident tree, any other node from its replicas."""
    entries = session.call(session.daemon.address_map.enumerate_reserved(),
                           "map")
    return {entry.range for entry in entries}


def assert_resident_matches_store(daemon):
    resident = daemon.address_map.resident
    assert ROOT_PAGE in resident
    for page, node in resident.items():
        assert daemon.storage.peek(page).data == node.encode(PAGE)


def stored_root(daemon):
    return MapNode.decode(daemon.storage.peek(ROOT_PAGE).data)


@pytest.fixture
def cluster():
    cluster = create_cluster(num_nodes=3, config=QUIET)
    yield cluster
    cluster.shutdown()


class TestResidentTree:
    def test_a_home_mutation_takes_no_lock_at_the_home(self, cluster):
        home = cluster.daemon(0)
        locked = []
        op_lock = home.data.op_lock

        def counting(target, *args, **kwargs):
            locked.append(target)
            return op_lock(target, *args, **kwargs)

        home.data.op_lock = counting
        cluster.client(node=1).reserve(PAGE)     # shipped to the home
        own = cluster.client(node=0).reserve(PAGE)
        cluster.client(node=0).unreserve(own.rid)
        assert locked == []

    def test_a_split_stores_its_fresh_pages_before_their_parent(self,
                                                                cluster):
        home = cluster.daemon(0)
        stored = []
        write_through = home.storage.write_through

        def tap(page):
            if SYSTEM_REGION.contains(page.address):
                stored.append(page.address)
            return write_through(page)

        home.storage.write_through = tap
        kz = cluster.client(node=1)
        for _ in range(4 * 32):
            first = stored_root(home).next_free_page
            stored.clear()
            kz.reserve(PAGE)
            last = stored_root(home).next_free_page
            if last != first:
                break
        else:
            pytest.fail("no mutation split a tree node")
        fresh = list(range(first, last, PAGE))
        start = stored.index(fresh[0])
        assert stored[start:start + len(fresh)] == fresh
        assert ROOT_PAGE in stored[start + len(fresh):]
        assert stored[-1] == ROOT_PAGE

    def test_a_replica_walk_finds_an_entry_reserved_elsewhere(self, cluster):
        kz1, kz2 = cluster.client(node=1), cluster.client(node=2)
        first = kz1.reserve(PAGE)
        assert first.range in reserved(kz2)      # fills node 2's replicas
        desc = kz1.reserve(PAGE)
        cluster.run(2.0)
        before = cluster.stats.snapshot()
        assert desc.range in reserved(kz2)
        assert cluster.stats.delta_since(before).count(
            MessageType.PAGE_FETCH) == 0        # read from its replicas
        assert reserved(kz2) == reserved(cluster.client(node=0))

    def test_the_home_keeps_its_tree_across_crash_and_recover(self,
                                                              cluster):
        kz1 = cluster.client(node=1)
        old = kz1.reserve(PAGE)
        cluster.partition({0}, set(cluster.node_ids()) - {0})
        cluster.run(1.0)
        cluster.heal()
        assert_resident_matches_store(cluster.daemon(0))
        new = kz1.reserve(PAGE)
        assert not new.range.overlaps(old.range)
        assert {old.range, new.range} <= reserved(cluster.client(node=0))
        assert_resident_matches_store(cluster.daemon(0))

    def test_a_restarted_home_rebuilds_its_tree_from_disk(self, tmp_path):
        config = dataclasses.replace(QUIET, spill_dir=str(tmp_path))
        cluster = create_cluster(num_nodes=3, config=config)
        try:
            kz1 = cluster.client(node=1)
            old = [kz1.reserve(PAGE) for _ in range(3)]
            cluster.crash(0)
            cluster.run(1.0)
            home = cluster.restart_node(0)
            assert home.address_map.resident == {}
            new = kz1.reserve(PAGE)
            assert not any(new.range.overlaps(d.range) for d in old)
            assert ({d.range for d in old} | {new.range}
                    <= reserved(cluster.client(node=0)))
            assert_resident_matches_store(home)
        finally:
            cluster.shutdown()

    def test_the_home_tree_over_asyncio_nodes(self, tcp_sessions):
        (home, other), _entered = tcp_sessions
        assert reserved(other)                   # fills node 1's replicas
        shipped = other.reserve(PAGE)
        own = home.reserve(PAGE)
        assert {shipped.range, own.range} <= reserved(home)
        assert_resident_matches_store(home.daemon)
        other.driver.wait(other.daemon.sleep(0.2))   # the pushes land
        assert reserved(other) == reserved(home)


def test_dispatch_cpu_is_billed_per_message_type(cluster):
    shipped = []
    cluster.network.tap(lambda msg: shipped.append(msg)
                        if msg.msg_type is MessageType.MAP_MUTATE else None)
    cluster.client(node=1).reserve(PAGE)
    cluster.client(node=2).reserve(PAGE)
    table = cluster.daemon(0).stats.dispatch_cpu
    count, cpu_ns = table["map_mutate"]
    assert count == len(shipped) >= 2 and cpu_ns > 0
    assert snapshot_node(cluster.daemon(0))["dispatch_cpu"] == table
    lines = dispatch_cpu_report(table).splitlines()
    assert len(lines) == 1 + len(table)
    assert any(line.split()[:2] == ["map_mutate", str(count)]
               for line in lines)


@pytest.mark.parametrize("protocol", ["crew", "release", "eventual",
                                      "mobile"])
def test_a_node_that_evicted_the_descriptor_sees_the_new_bytes(protocol):
    """Node 2's one-entry region directory drops A's descriptor when it
    reads B; the INVALIDATE or UPDATE_PUSH for A's page must still
    reach its copy of that page."""
    cluster = create_cluster(
        num_nodes=3, config=DaemonConfig(region_directory_capacity=1))
    try:
        attrs = RegionAttributes(consistency_protocol=protocol)
        writer, reader = cluster.client(node=1), cluster.client(node=2)
        a, b = writer.reserve(PAGE, attrs), writer.reserve(PAGE, attrs)
        writer.allocate(a.rid)
        writer.allocate(b.rid)
        writer.write_at(a.rid, b"old-A")
        assert reader.read_at(a.rid, 5) == b"old-A"
        writer.write_at(b.rid, b"new-B")
        assert reader.read_at(b.rid, 5) == b"new-B"
        writer.write_at(a.rid, b"new-A")
        cluster.run(2.0)
        assert reader.read_at(a.rid, 5) == b"new-A"
    finally:
        cluster.shutdown()


def test_kfs_mix_with_a_small_region_directory():
    """The benchmark's file-system mix on the sim with an 8-entry
    directory: a mount whose inode copy missed an INVALIDATE would read
    a block region another mount had already unreserved."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench_e2e"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    workload = workloads.KfsMix()
    sim = create_cluster(num_nodes=4, config=dataclasses.replace(
        node_config(), region_directory_capacity=8))
    try:
        state = workload.setup([sim.client(node=2 + i, principal="bench")
                                for i in range(2)])
        sim.run(1.5)
        failed = []
        for index, op in enumerate(workload.stream(1).ensure(1000)[:1000]):
            prepared = workload.prepare(state, op, index)
            if not workload.check(state, prepared,
                                  workload.execute(state, prepared)):
                failed.append(index)
        sim.run(1.5)
        assert failed == []
        assert workload.final_check(state) == []
    finally:
        sim.shutdown()
