"""Span arithmetic on synthetic trees."""

import pytest

import attribution
from attribution import Cover, Timeline, UNATTRIBUTED
from tracing import FIRST, LAST


def dump(spans=(), intervals=(), sends=(), deliveries=()):
    return {"spans": list(spans), "intervals": list(intervals),
            "sends": list(sends), "deliveries": list(deliveries),
            "missing": {}}


def test_self_time_is_duration_minus_children():
    #   a [0,100)
    #     b [10,40)
    #       c [20,30)
    #     d [50,90)
    # recorded at exit: children before parents
    spans = [("c", 20, 30, None), ("b", 10, 40, None),
             ("d", 50, 90, None), ("a", 0, 100, None)]
    timeline = Timeline(spans)
    names = [timeline.name(i) for i in range(4)]
    assert names == ["a", "b", "c", "d"]
    assert [timeline.parent[i] for i in range(4)] == [-1, 0, 1, 0]
    self_ns = {timeline.name(i): ns
               for i, ns in timeline.self_times().items()}
    assert self_ns == {"a": 30, "b": 20, "c": 10, "d": 40}
    # the flat segments partition the root span, in time order
    assert timeline.seg_start == sorted(timeline.seg_start)
    assert sum(e - s for s, e in zip(timeline.seg_start,
                                     timeline.seg_end)) == 100


def test_generator_resumptions_are_separate_spans():
    # one call, suspended between 30 and 70: its two resumptions nest
    # under whatever resumed them, and the suspension is nobody's time.
    spans = [("core.dataplane.op_lock", 10, 30, FIRST),
             ("core.client.lock", 5, 35, None),
             ("core.dataplane.op_lock", 70, 80, LAST),
             ("net.rpc.deliver", 65, 85, None)]
    timeline = Timeline(spans)
    self_ns = timeline.self_times()
    by_name = {}
    for index, ns in self_ns.items():
        by_name[timeline.name(index)] = by_name.get(timeline.name(index),
                                                    0) + ns
    assert by_name == {"core.client.lock": 10, "core.dataplane.op_lock": 30,
                       "net.rpc.deliver": 10}
    assert attribution.call_durations(
        [timeline], "core.dataplane.op_lock") == [(70, False)]


def test_equal_timestamps_keep_the_later_recorded_span_outside():
    timeline = Timeline([("inner", 0, 10, None), ("outer", 0, 10, None)])
    assert [timeline.name(i) for i in range(2)] == ["outer", "inner"]
    assert timeline.parent == [-1, 0]


def test_cover_union_and_take():
    cover = Cover.union([(10, 20), (15, 30), (50, 60)], "x")
    assert (cover.starts, cover.ends) == ([10, 50], [30, 60])
    totals = {"x": 0}
    left = cover.take([(0, 55)], totals)
    assert totals["x"] == 25
    assert left == [(0, 10), (30, 50)]


def test_bridge_time_goes_to_daemon_then_sleep_then_wire_then_gap():
    # One op [0,1000).  The client is inside run_future over [100,900).
    generator = dump(
        spans=[("net.aio.run_future", 100, 900, None),
               ("core.client.lock", 50, 950, None)],
        intervals=[("net.rpc.wait", 90, 800, None)],
        sends=[(120, 2, 0, 1, "lock_request", 1, None)],
        deliveries=[(760, 0, 2, 9)])
    daemon = dump(
        spans=[("consistency.home.handler", 300, 400, None)],
        intervals=[("storage.sleep", 380, 600, 0.0104)],
        sends=[(700, 0, 2, 9, "lock_reply", None, 1)],
        deliveries=[(250, 2, 0, 1)])
    joined = attribution.attribute(generator, [daemon], [(0, 1000)])
    layers = joined["layers"]
    assert layers["core.client"] == 100          # 50..100 and 900..950
    assert layers["consistency.home"] == 100     # daemon busy 300..400
    assert layers["storage.sleep"] == 200        # 400..600 (after handler)
    assert layers["net.tcp"] == 130 + 60         # 120..250 and 700..760
    # RPC outstanding, nothing traced active: 100..120, 250..300,
    # 600..700, 760..800 — plus the op's own 0..50 and 950..1000.
    assert layers[UNATTRIBUTED] == 20 + 50 + 100 + 40 + 100
    assert layers["net.aio"] == 100              # 800..900: no RPC pending
    assert sum(layers.values()) == joined["total_ns"] == 1000
    assert joined["wire"] == [(120, 250), (700, 760)]


def test_attribution_refuses_to_lose_time():
    # a generator span reaching outside every op window is clipped, so
    # the partition identity still holds
    generator = dump(spans=[("core.client.read", 90, 130, None)])
    joined = attribution.attribute(generator, [], [(100, 120)])
    assert joined["layers"] == {"core.client": 20, UNATTRIBUTED: 0}


def test_retransmissions_pair_up_in_order():
    sends = [(10, 2, 0, 5, "lock_request", 1, None),
             (300, 2, 0, 5, "lock_request", 1, None)]
    deliveries = [(40, 2, 0, 5), (330, 2, 0, 5), (999, 2, 0, 6)]
    assert attribution.match_wire(sends, deliveries) == [(10, 40),
                                                         (300, 330)]
