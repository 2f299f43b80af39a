"""The per-layer metric catalogue and how each number is computed.

``CATALOGUE`` is the single list ``BENCHMARK.json``'s ``per_layer``
section is generated from (``run.py --write-manifest``).  Each entry
names the probes it needs: when one of them could not be installed the
metric is reported as ``null`` with the probe's reason, instead of a
number computed from half the data.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import attribution
from attribution import Timeline, UNATTRIBUTED, call_durations
from tracing import FIRST

#: message types that only exist because a wall-clock timer fired
#: (``NodeKernel._housekeeping``) or because the benchmark talked to a
#: daemon; excluded from msgs/op on both backends.
HOUSEKEEPING_TYPES = frozenset({"free_space_report"})
CONTROL_TYPES = frozenset({"app_request", "app_reply"})
#: consistency requests (they await a reply); the *_batch ones coalesce
#: a multi-page lock/unlock into one round trip per home.
CM_REQUESTS = frozenset({"lock_request", "page_fetch", "update_push",
                         "invalidate"})
CM_BATCH_REQUESTS = frozenset({"token_acquire_batch", "page_fetch_batch",
                               "update_push_batch"})

SESSION = tuple(f"core.client.{m}" for m in ("lock", "unlock", "read",
                                              "write"))
DATAPLANE = tuple(f"core.dataplane.{m}" for m in (
    "op_lock", "op_unlock", "op_read", "op_write", "try_read_fast",
    "try_write_fast"))
CM_CLIENT = tuple(f"consistency.client.{m}" for m in (
    "acquire", "acquire_many", "release", "release_many"))
CM_HOME = ("consistency.home.cm_dispatch", "home.spawn_handler")
TAPS = ("transport.tap", "transport.tap_delivery")
STORAGE = tuple(f"storage.{m}" for m in ("load", "load_resident", "store",
                                         "write_through"))
JOURNAL = ("storage.persistence.save_regions",
           "storage.persistence.save_page_entries",
           "storage.persistence.put")
SPACE = tuple(f"core.space.{m}" for m in ("op_reserve", "op_allocate",
                                           "op_free"))
FS = ("fs.open", "fs.create", "fs.stat", "fs.unlink", "fs.read", "fs.write")

#: (name, unit, better, probes it needs)
CATALOGUE: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("core.client.self_us", "us", "lower", SESSION),
    ("core.client.calls_per_op", "count", "lower", SESSION),
    ("net.aio.bridge_self_us", "us", "lower", ("net.aio.run_future",)),
    ("net.aio.run_future_per_op", "count", "lower", ("net.aio.run_future",)),
    ("core.dataplane.self_us", "us", "lower", DATAPLANE),
    ("core.dataplane.fast_path_frac", "ratio", "higher", DATAPLANE),
    ("consistency.client_self_us", "us", "lower", CM_CLIENT),
    ("consistency.home_self_us", "us", "lower", CM_HOME),
    ("consistency.msgs_per_op", "count", "lower", TAPS[:1]),
    ("consistency.bytes_per_op", "B", "lower", ("net.frame.encode_frame",)),
    ("consistency.batch_frac", "ratio", "higher", TAPS[:1]),
    ("consistency.sim_msgs_per_op", "count", "lower", ()),
    ("consistency.sim_virtual_ms_per_op", "ms", "lower", ()),
    ("core.router.dispatch_self_us", "us", "lower", ("core.router.dispatch",)),
    ("core.router.dispatches_per_op", "count", "lower",
     ("core.router.dispatch",)),
    ("net.rpc.request_wait_us", "us", "lower", ("net.rpc.request",)),
    ("net.rpc.requests_per_op", "count", "lower", ("net.rpc.request",)),
    ("net.rpc.retransmits_per_kop", "count", "lower", TAPS[:1]),
    ("net.rpc.ping_rtt_us", "us", "lower", ()),
    ("net.rpc.self_us", "us", "lower",
     ("net.rpc.request", "net.rpc.send", "net.rpc.attach")),
    ("net.frame.encode_us_per_msg", "us", "lower",
     ("net.frame.encode_frame",)),
    ("net.frame.decode_us_per_msg", "us", "lower",
     ("net.frame.decode_body",)),
    ("net.frame.bytes_per_msg", "B", "lower", ("net.frame.encode_frame",)),
    ("net.frame.pickled_frac", "ratio", "lower", ("net.frame.encode_frame",)),
    ("net.frame.self_us", "us", "lower",
     ("net.frame.encode_frame", "net.frame.decode_body")),
    ("net.tcp.wire_us_per_msg", "us", "lower", TAPS),
    ("net.tcp.frames_per_op", "count", "lower", TAPS[:1]),
    ("net.tcp.echo_rtt_us", "us", "lower", ()),
    ("net.tcp.wire_self_us", "us", "lower", TAPS),
    ("storage.real_us_per_call", "us", "lower", STORAGE),
    ("storage.calls_per_op", "count", "lower", STORAGE),
    ("storage.ram_hit_frac", "ratio", "higher", STORAGE[:2]),
    ("storage.modelled_io_ms_per_op", "ms", "lower", STORAGE),
    ("storage.victimizations_per_kop", "count", "lower",
     STORAGE + ("storage.disk.put", "storage.persistence.put")),
    ("storage.self_us", "us", "lower", STORAGE),
    ("storage.sleep_self_us", "us", "lower", ("storage.sleep",)),
    ("storage.probe_us_per_page", "us", "lower", ()),
    ("storage.persistence.journal_us_per_call", "us", "lower", JOURNAL),
    ("storage.persistence.journal_calls_per_op", "count", "lower", JOURNAL),
    ("storage.persistence.journal_bytes_per_op", "B", "lower", JOURNAL),
    ("storage.persistence.self_us", "us", "lower", JOURNAL),
    ("core.space.reserve_us", "us", "lower", ("core.space.op_reserve",)),
    ("core.space.allocate_us", "us", "lower", ("core.space.op_allocate",)),
    ("core.space.self_us", "us", "lower",
     SPACE + ("core.control.home.register",)),
    ("core.placement.locate_us_per_call", "us", "lower",
     ("core.placement.locate_region",)),
    ("core.placement.directory_hit_frac", "ratio", "higher",
     ("core.placement.locate_region",)),
    ("core.placement.self_us", "us", "lower",
     ("core.placement.locate_region",)),
    ("fs.self_us", "us", "lower", FS),
    ("fs.session_calls_per_op", "count", "lower", FS + SESSION),
    ("trace.overhead_frac", "ratio", "lower", ()),
    ("trace.unattributed_frac", "ratio", "lower", ()),
    ("trace.spans_per_op", "count", "lower", ()),
    ("trace.mean_op_us", "us", "lower", ()),
    # Moved here from the end-to-end list (README, "Metrics that moved"):
    # measured untraced, but not steady on every workload.
    ("lat_p50_us", "us", "lower", ()),
    ("lat_p99_us", "us", "lower", ()),
]

#: layer of attribution.LAYERS -> the metric carrying its self time
SELF_TIME_METRIC = {
    "core.client": "core.client.self_us",
    "net.aio": "net.aio.bridge_self_us",
    "core.dataplane": "core.dataplane.self_us",
    "consistency.client": "consistency.client_self_us",
    "consistency.home": "consistency.home_self_us",
    "core.router": "core.router.dispatch_self_us",
    "net.rpc": "net.rpc.self_us",
    "net.frame": "net.frame.self_us",
    "net.tcp": "net.tcp.wire_self_us",
    "storage": "storage.self_us",
    "storage.sleep": "storage.sleep_self_us",
    "storage.persistence": "storage.persistence.self_us",
    "core.space": "core.space.self_us",
    "core.placement": "core.placement.self_us",
    "fs": "fs.self_us",
}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def compute(joined: Dict[str, Any], n_ops: int) -> Dict[str, float]:
    """Every metric that comes from the spans themselves."""
    timelines: List[Timeline] = joined["timelines"]
    by_name = attribution.index_spans(timelines)
    layers: Dict[str, int] = joined["layers"]
    out: Dict[str, float] = {}
    per_op = lambda count: count / n_ops                      # noqa: E731

    for layer, metric in SELF_TIME_METRIC.items():
        out[metric] = layers.get(layer, 0) / n_ops / 1e3
    out["trace.unattributed_frac"] = _ratio(layers.get(UNATTRIBUTED, 0),
                                            joined["total_ns"])
    out["trace.mean_op_us"] = joined["total_ns"] / n_ops / 1e3
    out["trace.spans_per_op"] = per_op(sum(len(t.spans) for t in timelines))

    def durations(prefix: str) -> List[int]:
        return [t.spans[i][2] - t.spans[i][1]
                for t, i in attribution.spans_named(by_name, prefix)]

    def count(prefix: str) -> int:
        return len(attribution.spans_named(by_name, prefix))

    out["core.client.calls_per_op"] = per_op(count("core.client."))
    out["net.aio.run_future_per_op"] = per_op(count("net.aio.run_future"))
    out["core.router.dispatches_per_op"] = per_op(
        count("core.router.dispatch"))

    # Data accesses: a fast-path success inside op_read/op_write is that
    # slow call's own first attempt, not a second access.
    fast_ok = slow = 0
    for timeline in timelines:
        for index, (name, _t0, _t1, extra) in enumerate(timeline.spans):
            if name.startswith("core.dataplane.try_") and extra:
                fast_ok += 1
            elif (name in ("core.dataplane.op_read", "core.dataplane.op_write")
                  and extra is not None and extra & FIRST):
                slow += 1
                slow -= any(
                    timeline.name(child).startswith("core.dataplane.try_")
                    and timeline.spans[child][3]
                    for child in _children(timeline, index))
    out["core.dataplane.fast_path_frac"] = _ratio(fast_ok, fast_ok + slow)

    # The wire, from the taps.
    sends = joined["sends"]
    protocol = [s for s in sends
                if s[4] not in CONTROL_TYPES | HOUSEKEEPING_TYPES]
    out["consistency.msgs_per_op"] = per_op(len(protocol))
    requests = [s for s in protocol if s[5] is not None and s[6] is None]
    batch = sum(s[4] in CM_BATCH_REQUESTS for s in requests)
    single = sum(s[4] in CM_REQUESTS for s in requests)
    out["consistency.batch_frac"] = _ratio(batch, batch + single)
    out["net.rpc.retransmits_per_kop"] = 1e3 * per_op(
        len(requests) - len({(s[1], s[5]) for s in requests}))
    out["net.tcp.frames_per_op"] = per_op(len(sends))
    out["net.tcp.wire_us_per_msg"] = _mean(
        [(t1 - t0) / 1e3 for t0, t1 in joined["wire"]])

    waits = [(t1 - t0) / 1e3 for kind, t0, t1, _x in joined["intervals"]
             if kind == "net.rpc.wait"]
    out["net.rpc.request_wait_us"] = _mean(waits)
    out["net.rpc.requests_per_op"] = per_op(count("net.rpc.request"))

    encodes = attribution.spans_named(by_name, "net.frame.encode_frame")
    encode_bytes = [t.spans[i][3] for t, i in encodes]
    out["net.frame.encode_us_per_msg"] = _mean(
        durations("net.frame.encode_frame")) / 1e3
    out["net.frame.decode_us_per_msg"] = _mean(
        durations("net.frame.decode_body")) / 1e3
    out["net.frame.bytes_per_msg"] = _mean(encode_bytes)
    out["net.frame.pickled_frac"] = _ratio(
        sum(t.spans[i][0].endswith(".pickled") for t, i in encodes),
        len(encodes))
    out["consistency.bytes_per_op"] = per_op(sum(encode_bytes))

    # Storage: counts and modelled cost from the wrappers' return values.
    calls = [hit for name in STORAGE for hit in by_name.get(name, ())]
    out["storage.calls_per_op"] = per_op(len(calls))
    out["storage.real_us_per_call"] = _mean(
        [t.spans[i][2] - t.spans[i][1] for t, i in calls]) / 1e3
    ram_hits = lookups = 0
    modelled_s = 0.0
    for timeline, index in calls:
        name, _t0, _t1, extra = timeline.spans[index]
        if extra is None:
            continue
        if name == "storage.load":
            lookups += 1
            ram_hits += extra == 0.0
        elif name == "storage.load_resident":
            # a miss here is re-classified by the load() that follows
            lookups += extra == 0.0
            ram_hits += extra == 0.0
        modelled_s += max(extra, 0.0)
    out["storage.ram_hit_frac"] = _ratio(ram_hits, lookups)
    out["storage.modelled_io_ms_per_op"] = 1e3 * modelled_s / n_ops
    # A disk-level put directly under store()/load() is a RAM victim
    # going down; write_through's own put is not.
    victims = 0
    for prefix in ("storage.disk.put", "storage.persistence.put"):
        for timeline, index in attribution.spans_named(by_name, prefix):
            parent = timeline.parent[index]
            victims += parent >= 0 and timeline.name(parent) in (
                "storage.store", "storage.load")
    out["storage.victimizations_per_kop"] = 1e3 * per_op(victims)

    journal = [hit for name in JOURNAL for hit in by_name.get(name, ())]
    out["storage.persistence.journal_calls_per_op"] = per_op(len(journal))
    out["storage.persistence.journal_us_per_call"] = _mean(
        [t.spans[i][2] - t.spans[i][1] for t, i in journal]) / 1e3
    out["storage.persistence.journal_bytes_per_op"] = per_op(
        sum(t.spans[i][3] or 0 for t, i in journal))

    for metric, span_name in (("core.space.reserve_us",
                               "core.space.op_reserve"),
                              ("core.space.allocate_us",
                               "core.space.op_allocate")):
        out[metric] = _mean([d for d, _ in call_durations(
            timelines, span_name)]) / 1e3
    locates = call_durations(timelines, "core.placement.locate_region")
    out["core.placement.locate_us_per_call"] = _mean(
        [d for d, _ in locates]) / 1e3
    # Resolved without suspending = from this node's own state (the
    # region directory, or its own manager table): no message was sent.
    out["core.placement.directory_hit_frac"] = _ratio(
        sum(direct for _, direct in locates), len(locates))

    session_under_fs = 0
    for timeline, index in attribution.spans_named(by_name, "core.client."):
        session_under_fs += any(timeline.name(a).startswith("fs.")
                                for a in timeline.ancestors(index))
    out["fs.session_calls_per_op"] = per_op(session_under_fs)
    return out


def _children(timeline: Timeline, index: int) -> List[int]:
    """Direct children of a span (they follow it in start order)."""
    end = timeline.spans[index][2]
    children = []
    for later in range(index + 1, len(timeline.spans)):
        if timeline.spans[later][1] >= end:
            break
        if timeline.parent[later] == index:
            children.append(later)
    return children


def finalize(values: Dict[str, Optional[float]],
             missing: Dict[str, str]) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Order by the catalogue, attach units, and null what a missing
    probe invalidates.  Returns (metrics, {metric: reason})."""
    metrics: Dict[str, Any] = {}
    reasons: Dict[str, str] = {}
    for name, unit, _better, probes in CATALOGUE:
        gone = [probe for probe in probes if probe in missing]
        value = values.get(name)
        if gone:
            value = None
            reasons[name] = "; ".join(
                f"probe {probe}: {missing[probe]}" for probe in gone)
        elif value is None:
            reasons[name] = "not measured"
        metrics[name] = {"value": value, "unit": unit}
    return metrics, reasons
