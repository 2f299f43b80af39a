"""Join the three processes' spans and attribute every op's time.

With exactly one op in flight, a span belongs to the op whose window
contains it, and at every instant of an op's window at most one piece of
traced code is on the blocking path.  Each instant is therefore given to
the *deepest* span active at that instant:

1. inside the generator process the wrapped calls nest like a call
   stack (generator-based protocol code is recorded per resumption), so
   the deepest span is the innermost one — its *self time* is its
   duration minus what its children cover;
2. while the generator's innermost span is ``AsyncioRuntime.run_future``
   itself (the client is blocked in the loop), the time goes to whatever
   else is running for it, in this order: a daemon's innermost span, a
   modelled-disk sleep, a frame on the wire (sender's ``tap`` ->
   receiver's ``tap_delivery``, joined on ``(src, dst, msg_id)``), and —
   if an RPC is outstanding but nothing traced is active — to
   *unattributed* (kernel, scheduler, untraced loop machinery).  Only
   what is left with no RPC outstanding is the bridge's own self time.

The shares partition each op window, so per-layer self times plus the
unattributed remainder sum to the op latency exactly (integer
nanoseconds); :func:`attribute` asserts it.
"""

from __future__ import annotations

import bisect
import functools
from collections import defaultdict, deque
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from tracing import FIRST, LAST

UNATTRIBUTED = "trace.unattributed"

#: span-name prefix -> layer, first match wins.
LAYERS: List[Tuple[str, str]] = [
    ("core.client.", "core.client"),
    ("net.aio.", "net.aio"),
    ("core.dataplane.", "core.dataplane"),
    ("consistency.client.", "consistency.client"),
    ("consistency.home.", "consistency.home"),
    ("core.control.home.", "core.space"),
    ("core.router.", "core.router"),
    ("net.rpc.", "net.rpc"),
    ("net.frame.", "net.frame"),
    ("net.tcp.", "net.tcp"),
    ("storage.persistence.", "storage.persistence"),
    ("storage.sleep", "storage.sleep"),
    ("storage.disk.", "storage"),
    ("storage.", "storage"),
    ("core.space.", "core.space"),
    ("core.placement.", "core.placement"),
    ("fs.", "fs"),
]

BRIDGE = "net.aio.run_future"


@functools.lru_cache(maxsize=None)   # a few dozen span names
def layer_of(name: str) -> str:
    return next((layer for prefix, layer in LAYERS
                 if name.startswith(prefix)), UNATTRIBUTED)


# ---------------------------------------------------------------------------
# One process: call-stack reconstruction
# ---------------------------------------------------------------------------

class Timeline:
    """The sync spans of one process as a call tree and as a flat,
    time-ordered list of self-time segments."""

    def __init__(self, spans: Sequence[tuple]) -> None:
        # Children are appended before their parents (spans are
        # recorded at exit), so among equal (t0, t1) the later-recorded
        # span is the outer one.
        order = sorted(range(len(spans)),
                       key=lambda i: (spans[i][1], -spans[i][2], -i))
        self.spans = [spans[i] for i in order]
        self.parent: List[int] = [-1] * len(self.spans)
        self.seg_start: List[int] = []
        self.seg_end: List[int] = []
        self.seg_span: List[int] = []
        self._build()

    def _emit(self, start: int, end: int, index: int) -> None:
        if end > start:
            self.seg_start.append(start)
            self.seg_end.append(end)
            self.seg_span.append(index)

    def _build(self) -> None:
        stack: List[List[int]] = []   # [span index, end, cursor]
        for index, (_name, t0, t1, _extra) in enumerate(self.spans):
            while stack and stack[-1][1] <= t0:
                done = stack.pop()
                self._emit(done[2], done[1], done[0])
                if stack:
                    stack[-1][2] = max(stack[-1][2], done[1])
            if stack:
                top = stack[-1]
                self.parent[index] = top[0]
                self._emit(top[2], t0, top[0])
                top[2] = max(top[2], t0)
                t1 = min(t1, top[1])   # clock ties: keep strict nesting
            stack.append([index, t1, t0])
        while stack:
            done = stack.pop()
            self._emit(done[2], done[1], done[0])
            if stack:
                stack[-1][2] = max(stack[-1][2], done[1])

    def name(self, index: int) -> str:
        return self.spans[index][0]

    def self_times(self) -> Dict[int, int]:
        """span index -> self time in ns (tests, per-call statistics)."""
        out: Dict[int, int] = defaultdict(int)
        for start, end, index in zip(self.seg_start, self.seg_end,
                                     self.seg_span):
            out[index] += end - start
        return out

    def ancestors(self, index: int) -> Iterable[int]:
        index = self.parent[index]
        while index >= 0:
            yield index
            index = self.parent[index]


class Cover:
    """Disjoint, sorted ``[start, end)`` intervals with a label each."""

    def __init__(self, starts: List[int], ends: List[int],
                 labels: List[str]) -> None:
        self.starts, self.ends, self.labels = starts, ends, labels

    @classmethod
    def union(cls, intervals: Iterable[Tuple[int, int]],
              label: str) -> "Cover":
        starts: List[int] = []
        ends: List[int] = []
        for start, end in sorted(intervals):
            if end <= start:
                continue
            if ends and start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        return cls(starts, ends, [label] * len(starts))

    @classmethod
    def of_timeline(cls, timeline: Timeline) -> "Cover":
        return cls(timeline.seg_start, timeline.seg_end,
                   [layer_of(timeline.name(i)) for i in timeline.seg_span])

    def take(self, gaps: List[Tuple[int, int]],
             totals: Dict[str, int]) -> List[Tuple[int, int]]:
        """Credit this cover's share of ``gaps`` to ``totals``; return
        what it leaves uncovered."""
        starts, ends, labels = self.starts, self.ends, self.labels
        left: List[Tuple[int, int]] = []
        for lo, hi in gaps:
            i = bisect.bisect_right(ends, lo)
            while i < len(starts) and starts[i] < hi:
                start, end = max(starts[i], lo), min(ends[i], hi)
                if start > lo:
                    left.append((lo, start))
                totals[labels[i]] += end - start
                lo = end
                i += 1
            if lo < hi:
                left.append((lo, hi))
        return left


def _time(event: tuple) -> int:
    return event[0]


def match_wire(sends: Iterable[tuple], deliveries: Iterable[tuple]
               ) -> List[Tuple[int, int]]:
    """(send time, delivery time) per frame, joined on
    ``(src, dst, msg_id)``; a retransmission reuses its message, so
    equal keys pair up in order."""
    pending: Dict[tuple, deque] = defaultdict(deque)
    for t, src, dst, msg_id, *_rest in sorted(sends, key=_time):
        pending[(src, dst, msg_id)].append(t)
    matched = []
    for t, src, dst, msg_id in sorted(deliveries, key=_time):
        queue = pending.get((src, dst, msg_id))
        if queue and queue[0] <= t:
            matched.append((queue.popleft(), t))
    return matched


# ---------------------------------------------------------------------------
# The join
# ---------------------------------------------------------------------------

def attribute(generator: Dict[str, Any], daemons: List[Dict[str, Any]],
              ops: Sequence[Tuple[int, int]]) -> Dict[str, Any]:
    """Per-layer blocking-path time over the traced ops.

    ``generator``/``daemons`` are ``Recorder.export()`` dicts; ``ops`` the
    ``(start_ns, end_ns)`` windows of the traced ops, in order.  Returns
    ``{"layers": {layer: ns}, "total_ns": Σ op latency, "timelines":
    [...], "wire": [(send, delivery)], ...}``.
    """
    dumps = [generator] + list(daemons)
    timelines = [Timeline(dump["spans"]) for dump in dumps]
    gen = timelines[0]
    intervals = [iv for dump in dumps for iv in dump["intervals"]]
    wire = match_wire((s for dump in dumps for s in dump["sends"]),
                      (d for dump in dumps for d in dump["deliveries"]))
    fallbacks = [Cover.of_timeline(t) for t in timelines[1:]] + [
        Cover.union(((t0, t1) for kind, t0, t1, _x in intervals
                     if kind == "storage.sleep"), "storage.sleep"),
        Cover.union(wire, "net.tcp"),
        Cover.union(((t0, t1) for kind, t0, t1, _x in intervals
                     if kind == "net.rpc.wait"), UNATTRIBUTED),
    ]

    totals: Dict[str, int] = defaultdict(int)
    total_ns = 0
    seg = 0
    n_seg = len(gen.seg_start)
    for op_start, op_end in ops:
        total_ns += op_end - op_start
        covered = 0
        while seg < n_seg and gen.seg_end[seg] <= op_start:
            seg += 1
        while seg < n_seg and gen.seg_start[seg] < op_end:
            start = max(gen.seg_start[seg], op_start)
            end = min(gen.seg_end[seg], op_end)
            covered += end - start
            name = gen.name(gen.seg_span[seg])
            if name == BRIDGE:
                gaps = [(start, end)]
                for cover in fallbacks:
                    gaps = cover.take(gaps, totals)
                    if not gaps:
                        break
                totals["net.aio"] += sum(hi - lo for lo, hi in gaps)
            else:
                totals[layer_of(name)] += end - start
            if gen.seg_end[seg] > op_end:
                break
            seg += 1
        # benchmark code between the program calls of one op
        totals[UNATTRIBUTED] += (op_end - op_start) - covered

    if sum(totals.values()) != total_ns:
        raise AssertionError(
            f"attribution does not partition the op windows: layers sum "
            f"to {sum(totals.values())} ns, ops to {total_ns} ns")
    return {"layers": dict(totals), "total_ns": total_ns,
            "timelines": timelines, "intervals": intervals, "wire": wire,
            "sends": [s for dump in dumps for s in dump["sends"]]}


# ---------------------------------------------------------------------------
# Per-call statistics over all processes
# ---------------------------------------------------------------------------

SpanIndex = Dict[str, List[Tuple[Timeline, int]]]


def index_spans(timelines: Sequence[Timeline]) -> SpanIndex:
    """span name -> every (timeline, span index) carrying it; one pass,
    so the dozens of per-metric queries do not each rescan every span."""
    index: SpanIndex = defaultdict(list)
    for timeline in timelines:
        for position, span in enumerate(timeline.spans):
            index[span[0]].append((timeline, position))
    return index


def spans_named(index: SpanIndex, prefix: str) -> List[Tuple[Timeline, int]]:
    return [hit for name, hits in index.items() if name.startswith(prefix)
            for hit in hits]


def call_durations(timelines: Sequence[Timeline], name: str
                   ) -> List[Tuple[int, bool]]:
    """Per call of a generator function: (first resumption start ->
    last resumption end in ns, finished without ever suspending)."""
    calls = []
    for timeline in timelines:
        open_calls: List[int] = []
        for span_name, t0, t1, flags in timeline.spans:
            if span_name != name or flags is None:
                continue
            if flags & FIRST:
                open_calls.append(t0)
            if flags & LAST and open_calls:
                calls.append((t1 - open_calls.pop(),
                              bool(flags & FIRST)))
    return calls
