"""Tests for failure handling (paper Section 3.5): retry queues,
failure detection, replica maintenance, home failover."""

import pytest

from repro.api import create_cluster
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.errors import KhazanaError
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.failure.detector import FailureDetector
from repro.failure.retry import RetryQueue
from repro.net.message import MessageType
from repro.net.clock import EventScheduler
from repro.net.sim import SimNetwork
from repro.net.rpc import RpcEndpoint
from repro.net.tasks import TaskRunner


class TestRetryQueue:
    def make(self):
        sched = EventScheduler()
        runner = TaskRunner()
        queue = RetryQueue(sched, lambda gen, label: runner.spawn(gen, label))
        return sched, queue

    def test_success_first_try(self):
        sched, queue = self.make()
        calls = []

        def op():
            calls.append(1)
            return None
            yield  # pragma: no cover

        queue.enqueue(op, "op")
        sched.run_until_idle()
        assert calls == [1]
        assert queue.pending == 0
        assert queue.stats.succeeded == 1

    def test_retries_until_success_with_backoff(self):
        sched, queue = self.make()
        attempts = []

        def op():
            attempts.append(sched.now)
            if len(attempts) < 4:
                raise KhazanaError("transient")
            return None
            yield  # pragma: no cover

        queue.enqueue(op, "flaky")
        sched.run_until_idle()
        assert len(attempts) == 4
        assert queue.pending == 0
        # Backoff doubles: gaps 0.5, 1.0, 2.0.
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps == [0.5, 1.0, 2.0]

    def test_failure_never_gives_up(self):
        sched, queue = self.make()
        count = [0]

        def op():
            count[0] += 1
            raise KhazanaError("permanent")
            yield  # pragma: no cover

        queue.enqueue(op, "doomed")
        sched.run_until(120.0)
        assert queue.pending == 1
        assert count[0] >= 5
        assert "doomed" in queue.labels()

    def test_cancel(self):
        sched, queue = self.make()

        def op():
            raise KhazanaError("x")
            yield  # pragma: no cover

        item = queue.enqueue(op, "op")
        sched.run_until(1.0)
        assert queue.cancel(item)
        sched.run_until_idle()
        assert queue.pending == 0


class TestDetector:
    def make_pair(self):
        sched = EventScheduler()
        net = SimNetwork(sched)
        a = RpcEndpoint(1, net, sched)
        b = RpcEndpoint(2, net, sched)
        det = FailureDetector(a, sched, peers=[2], period=0.5,
                              miss_threshold=2)
        # Peer 2 answers pings via its own tiny detector.
        FailureDetector(b, sched, peers=[], period=0.5)
        return sched, net, det

    def test_alive_peer_stays_alive(self):
        sched, _net, det = self.make_pair()
        det.start()
        sched.run_until(5.0)
        assert det.alive_peers() == [2]

    def test_crash_detected_then_recovery(self):
        sched, net, det = self.make_pair()
        deaths, recoveries = [], []
        det.on_death(deaths.append)
        det.on_recovery(recoveries.append)
        det.start()
        sched.run_until(2.0)
        net.partition({1}, {2})
        sched.run_until(10.0)
        assert deaths == [2]
        assert det.dead_peers() == [2]
        net.heal_partitions()
        sched.run_until(20.0)
        assert recoveries == [2]
        assert det.alive_peers() == [2]

    def test_is_alive_for_unknown_peer_defaults_true(self):
        _sched, _net, det = self.make_pair()
        assert det.is_alive(99)


class TestCrashRecovery:
    def test_operations_survive_non_home_crash(self, cluster):
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"alive")
        cluster.client(node=3).read_at(desc.rid, 5)
        cluster.crash(3)
        cluster.run(10.0)
        # Writing still works; the dead sharer is just dropped.
        kz1.write_at(desc.rid, b"after")
        assert cluster.client(node=2).read_at(desc.rid, 5) == b"after"

    def test_replicated_region_survives_primary_crash(self):
        cluster = create_cluster(num_nodes=6)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(min_replicas=3))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"precious")
        cluster.run(2.0)   # write-back reaches secondary homes
        cluster.crash(1)   # primary home dies
        cluster.run(15.0)  # detector + failover
        survivor = cluster.client(node=4)
        assert survivor.read_at(desc.rid, 8) == b"precious"

    def test_replica_maintainer_promotes_secondary(self):
        cluster = create_cluster(num_nodes=6)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(min_replicas=2))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"x")
        secondary = desc.home_nodes[1]
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(20.0)   # promotion + recruitment
        promoted = cluster.daemon(secondary).homed_regions.get(desc.rid)
        assert promoted is not None
        assert promoted.primary_home == secondary
        # Replica count restored with a recruit.
        assert len(promoted.home_nodes) >= 2

    def test_repair_publishes_only_recruits_holding_every_page(
            self, monkeypatch):
        cluster = create_cluster(num_nodes=6)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(2 * 4096, RegionAttributes(min_replicas=2))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"x")
        primary, secondary = desc.home_nodes
        cluster.run(2.0)
        # The survivor recruits the first live node that is not a home.
        recruit = min(n for n in cluster.node_ids()
                      if n not in desc.home_nodes)
        send = cluster.network.send
        dropped = []

        def drop_pushes_to_recruit(msg):
            if (msg.msg_type is MessageType.REPLICA_CREATE
                    and msg.dst == recruit):
                dropped.append(cluster.now)
                return
            send(msg)

        monkeypatch.setattr(cluster.network, "send", drop_pushes_to_recruit)
        cluster.crash(primary)
        cluster.run(20.0)
        promoted = cluster.daemon(secondary).homed_regions[desc.rid]
        assert promoted.home_nodes == (secondary,)
        assert desc.rid not in cluster.daemon(recruit).homed_regions
        # Each repair tick tried the recruit again.
        assert len(set(dropped)) >= 2
        monkeypatch.setattr(cluster.network, "send", send)
        cluster.run(10.0)
        repaired = cluster.daemon(secondary).homed_regions[desc.rid]
        assert repaired.home_nodes == (secondary, recruit)
        assert desc.rid in cluster.daemon(recruit).homed_regions

    def test_unreplicated_region_lost_with_home(self):
        cluster = create_cluster(num_nodes=4)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)   # min_replicas=1
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"fragile")
        cluster.crash(1)
        cluster.run(10.0)
        kz3 = cluster.client(node=3)
        with pytest.raises(KhazanaError):
            kz3.read_at(desc.rid, 7)

    def test_unreserve_of_dead_home_retries_in_background(self):
        cluster = create_cluster(num_nodes=4)
        kz2 = cluster.client(node=2)
        desc = kz2.reserve(4096)
        kz2.allocate(desc.rid)
        # Unreserve succeeds at the client even while the map home is
        # briefly unreachable; the map update retries in background.
        cluster.partition({0}, {1, 2, 3})
        kz2.unreserve(desc.rid)   # must not raise (release-type)
        assert cluster.daemon(2).retry_queue.pending >= 1
        cluster.heal()
        cluster.run(120.0)
        assert cluster.daemon(2).retry_queue.pending == 0

    def test_a_replaced_incarnation_sends_nothing(self):
        """A crash ends the old kernel's background retries: after a
        restart, only the fresh incarnation speaks for the node."""
        cluster = create_cluster(
            num_nodes=4, config=DaemonConfig(enable_failure_handling=False))
        owner = cluster.client(node=1)
        desc = owner.reserve(4096, RegionAttributes(
            consistency_level=ConsistencyLevel.RELEASE))
        owner.allocate(desc.rid)
        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4096, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"w" * 4096)
        cluster.partition({1}, {0, 2, 3})
        writer.unlock(ctx)   # the push to the home is retry-queued
        old = cluster.daemon(2)
        assert old.retry_queue.pending == 1

        cluster.crash(2)
        cluster.restart_node(2)
        pushes = []
        cluster.network.tap(
            lambda m: pushes.append(m)
            if m.src == 2 and m.msg_type is MessageType.UPDATE_PUSH
            else None)
        cluster.heal()
        cluster.run(200.0)
        assert old.retry_queue.pending == 0
        assert pushes == []   # the fresh node has nothing to push
