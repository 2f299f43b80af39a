"""Tests for the simulated network: latency, loss, partitions, stats."""

import pytest

from repro.net.clock import EventScheduler
from repro.net.message import Message, MessageType
from repro.net.sim import (
    LAN_LATENCY,
    WAN_LATENCY,
    LinkSpec,
    SimNetwork,
    Topology,
)


def make_net(topology=None, seed=0):
    sched = EventScheduler()
    net = SimNetwork(sched, topology, seed=seed)
    return sched, net


def msg(src, dst, payload=None):
    return Message(MessageType.PING, src=src, dst=dst, payload=payload or {})


class TestDelivery:
    def test_message_delivered_to_handler(self):
        sched, net = make_net()
        got = []
        net.attach(1, lambda m: got.append(m))
        net.attach(2, lambda m: got.append(m))
        net.send(msg(1, 2))
        sched.run_until_idle()
        assert len(got) == 1
        assert got[0].dst == 2

    def test_latency_charged(self):
        sched, net = make_net()
        times = []
        net.attach(2, lambda m: times.append(sched.now))
        net.attach(1, lambda m: None)
        net.send(msg(1, 2))
        sched.run_until_idle()
        assert times[0] >= LAN_LATENCY

    def test_wan_slower_than_lan(self):
        _, lan = make_net(Topology.lan())
        _, wan = make_net(Topology.wan())
        size = 128
        import random
        rng = random.Random(0)
        lan_d = lan.topology.link(0, 1).delivery_delay(size, rng)
        wan_d = wan.topology.link(0, 1).delivery_delay(size, rng)
        assert wan_d > lan_d * 10

    def test_unattached_destination_drops(self):
        sched, net = make_net()
        net.attach(1, lambda m: None)
        net.send(msg(1, 99))
        sched.run_until_idle()
        assert net.stats.messages_dropped == 1

    def test_bigger_messages_take_longer(self):
        sched, net = make_net()
        order = []
        net.attach(2, lambda m: order.append(m.payload.get("tag")))
        net.attach(1, lambda m: None)
        net.send(msg(1, 2, {"tag": "big", "data": b"x" * 100_000}))
        net.send(msg(1, 2, {"tag": "small"}))
        sched.run_until_idle()
        assert order == ["small", "big"]


class TestFaults:
    def test_detach_drops_inflight(self):
        sched, net = make_net()
        got = []
        net.attach(2, lambda m: got.append(m))
        net.attach(1, lambda m: None)
        net.send(msg(1, 2))
        net.detach(2)
        sched.run_until_idle()
        assert got == []
        assert net.stats.messages_dropped == 1

    def test_sender_detach_drops_inflight(self):
        sched, net = make_net()
        got = []
        net.attach(2, lambda m: got.append(m))
        net.attach(1, lambda m: None)
        net.send(msg(1, 2))
        net.detach(1)
        sched.run_until_idle()
        assert got == []
        assert net.stats.messages_dropped == 1

    def test_reattach_restores_delivery(self):
        sched, net = make_net()
        got = []
        net.attach(2, lambda m: got.append(m))
        net.attach(1, lambda m: None)
        net.detach(2)
        net.attach(2, lambda m: got.append(m))
        net.send(msg(1, 2))
        sched.run_until_idle()
        assert len(got) == 1

    def test_partition_blocks_both_ways(self):
        sched, net = make_net()
        got = []
        for node in (1, 2, 3):
            net.attach(node, lambda m: got.append((m.src, m.dst)))
        net.partition({1}, {2})
        net.send(msg(1, 2))
        net.send(msg(2, 1))
        net.send(msg(1, 3))
        sched.run_until_idle()
        assert got == [(1, 3)]

    def test_heal_partitions(self):
        sched, net = make_net()
        got = []
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: got.append(m))
        net.partition({1}, {2})
        net.heal_partitions()
        net.send(msg(1, 2))
        sched.run_until_idle()
        assert len(got) == 1

    def test_lossy_link_drops_deterministically(self):
        sched, net = make_net(Topology.lan(loss=0.5), seed=42)
        got = []
        net.attach(2, lambda m: got.append(m))
        net.attach(1, lambda m: None)
        for _ in range(100):
            net.send(msg(1, 2))
        sched.run_until_idle()
        assert 0 < len(got) < 100
        # Determinism: the same seed loses the same messages.
        sched2, net2 = make_net(Topology.lan(loss=0.5), seed=42)
        got2 = []
        net2.attach(2, lambda m: got2.append(m))
        net2.attach(1, lambda m: None)
        for _ in range(100):
            net2.send(msg(1, 2))
        sched2.run_until_idle()
        assert len(got2) == len(got)


class TestPerLinkStreams:
    """Each directed link draws from its own seeded RNG stream."""

    def _losses_on_3_to_4(self, extra_cross_traffic):
        sched, net = make_net(Topology.lan(loss=0.5), seed=42)
        got = []
        for node in (1, 2, 3, 4):
            net.attach(node, lambda m: None)
        net.attach(4, lambda m: got.append(m.payload["n"]))
        for n in range(50):
            if extra_cross_traffic:
                net.send(msg(1, 2, {"n": n}))   # noise on another link
            net.send(msg(3, 4, {"n": n}))
        sched.run_until_idle()
        return got

    def test_traffic_elsewhere_does_not_perturb_a_link(self):
        # With one shared RNG, interleaving sends on link 1->2 would
        # shift which 3->4 messages hit the loss draw.  Per-link
        # streams keep the 3->4 outcome byte-identical.
        assert self._losses_on_3_to_4(False) == self._losses_on_3_to_4(True)

    def test_opposite_directions_are_distinct_streams(self):
        sched, net = make_net(Topology.lan(loss=0.5), seed=7)
        forward, backward = [], []
        net.attach(1, lambda m: backward.append(m.payload["n"]))
        net.attach(2, lambda m: forward.append(m.payload["n"]))
        for n in range(60):
            net.send(msg(1, 2, {"n": n}))
            net.send(msg(2, 1, {"n": n}))
        sched.run_until_idle()
        assert forward != backward   # independently seeded directions

    def test_delivery_labels_identify_link_and_occurrence(self):
        sched, net = make_net()
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: None)
        labels = []
        original = sched.call_later

        def spy(delay, callback, label=""):
            labels.append(label)
            return original(delay, callback, label=label)

        sched.call_later = spy
        net.send(msg(1, 2))
        net.send(msg(1, 2))
        net.send(msg(2, 1))
        sched.run_until_idle()
        assert labels == [
            "deliver:ping:1->2#0",
            "deliver:ping:1->2#1",
            "deliver:ping:2->1#0",
        ]


class TestJitter:
    def _delivery_times(self, seed):
        sched, net = make_net(Topology.lan(jitter=0.01), seed=seed)
        times = []
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: times.append(sched.now))
        for _ in range(10):
            net.send(msg(1, 2))
        sched.run_until_idle()
        return times

    def test_jitter_spreads_deliveries(self):
        times = self._delivery_times(seed=1)
        assert len(set(times)) > 1   # not all identical

    def test_jitter_is_seed_deterministic(self):
        assert self._delivery_times(seed=5) == self._delivery_times(seed=5)
        assert self._delivery_times(seed=5) != self._delivery_times(seed=6)


class TestTopology:
    def test_clustered_intra_vs_inter(self):
        topo = Topology.clustered({0: 0, 1: 0, 2: 1})
        assert topo.link(0, 1).base_latency == LAN_LATENCY
        assert topo.link(0, 2).base_latency == WAN_LATENCY
        assert topo.cluster_of(2) == 1

    def test_link_override(self):
        topo = Topology.lan()
        slow = LinkSpec(base_latency=1.0)
        topo.set_link(1, 2, slow)
        assert topo.link(1, 2).base_latency == 1.0
        assert topo.link(2, 1).base_latency == 1.0
        assert topo.link(1, 3).base_latency == LAN_LATENCY


class TestStats:
    def test_counters_accumulate(self):
        sched, net = make_net()
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: None)
        net.send(msg(1, 2))
        net.send(msg(2, 1))
        sched.run_until_idle()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 2
        assert net.stats.count(MessageType.PING) == 2
        assert net.stats.bytes_sent > 0

    def test_snapshot_delta(self):
        sched, net = make_net()
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: None)
        net.send(msg(1, 2))
        sched.run_until_idle()
        before = net.stats.snapshot()
        net.send(msg(1, 2))
        net.send(msg(1, 2))
        sched.run_until_idle()
        delta = net.stats.delta_since(before)
        assert delta.messages_sent == 2
        assert delta.by_type["ping"] == 2

    def test_tap_sees_all_sends(self):
        sched, net = make_net()
        seen = []
        net.tap(lambda m: seen.append(m))
        net.attach(1, lambda m: None)
        net.send(msg(1, 99))   # dropped, but still tapped
        sched.run_until_idle()
        assert len(seen) == 1

    def test_node_ids_sorted(self):
        _, net = make_net()
        for node in (5, 1, 3):
            net.attach(node, lambda m: None)
        assert net.node_ids() == [1, 3, 5]
        net.detach(3)
        assert net.node_ids() == [1, 5]
