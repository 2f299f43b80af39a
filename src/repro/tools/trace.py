"""Message tracing and ASCII sequence diagrams.

Attach a :class:`MessageTrace` to a cluster, run some operations, and
render what happened on the wire — the textual equivalent of the
paper's Figure 2.  Used by the examples and handy when debugging new
consistency protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.net.message import Message, MessageType, wire_label


@dataclass
class TracedMessage:
    """One send event captured from the network."""

    time: float
    message: Message

    @property
    def label(self) -> str:
        """Message type, annotated with a page count for page-list
        envelopes so a trace shows how much work one RPC carries.
        Shared with the MessageRouter's dispatch logging."""
        return wire_label(self.message)


class MessageTrace:
    """Records every message a cluster sends while active."""

    def __init__(self, cluster, background: bool = False) -> None:
        """``background=False`` filters out failure-detector pings and
        free-space reports, which otherwise drown protocol traffic."""
        self.cluster = cluster
        self.include_background = background
        self.events: List[TracedMessage] = []
        self._active = False
        cluster.network.tap(self._on_send)

    _BACKGROUND = {
        MessageType.PING, MessageType.PONG, MessageType.FREE_SPACE_REPORT
    }

    def _on_send(self, message: Message) -> None:
        if not self._active:
            return
        if (not self.include_background
                and message.msg_type in self._BACKGROUND):
            return
        self.events.append(TracedMessage(self.cluster.now, message))

    # --- Collection -------------------------------------------------------

    def start(self) -> "MessageTrace":
        self._active = True
        return self

    def stop(self) -> "MessageTrace":
        self._active = False
        return self

    def clear(self) -> "MessageTrace":
        self.events.clear()
        return self

    def __enter__(self) -> "MessageTrace":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # --- Queries -----------------------------------------------------------

    def count(self, msg_type: Optional[MessageType] = None) -> int:
        if msg_type is None:
            return len(self.events)
        return sum(1 for e in self.events if e.message.msg_type is msg_type)

    def between(self, src: int, dst: int) -> List[TracedMessage]:
        return [e for e in self.events
                if e.message.src == src and e.message.dst == dst]

    def by_engine_op(self) -> Dict[str, int]:
        """Counts grouped by the protocol-engine operation each wire
        message belongs to (``grant`` / ``fetch`` / ``update`` /
        ``invalidate`` / ``copyset``); traffic outside the engine's
        wire surface lands under ``other``."""
        from repro.consistency.engine.wire import wire_op

        counts: Dict[str, int] = {}
        for e in self.events:
            op = wire_op(e.message.msg_type) or "other"
            counts[op] = counts.get(op, 0) + 1
        return counts

    # --- Rendering ------------------------------------------------------------

    def render_sequence(self, nodes: Optional[Sequence[int]] = None,
                        width: int = 14) -> str:
        """An ASCII sequence diagram of the captured messages.

        One column per node; each line is one message with an arrow
        from sender to receiver, annotated with the message type —
        read it like the paper's Figure 2.
        """
        if nodes is None:
            seen = set()
            for e in self.events:
                seen.add(e.message.src)
                seen.add(e.message.dst)
            nodes = sorted(seen)
        if not nodes:
            return "(no messages)"
        columns = {node: i for i, node in enumerate(nodes)}
        total = width * len(nodes)

        lines = []
        header = "".join(f"node {node}".center(width) for node in nodes)
        lines.append("time(ms)  " + header)
        lines.append("--------  " + "-" * total)
        for e in self.events:
            src = columns.get(e.message.src)
            dst = columns.get(e.message.dst)
            if src is None or dst is None:
                continue
            row = [" "] * total
            lo = min(src, dst) * width + width // 2
            hi = max(src, dst) * width + width // 2
            for i in range(lo, hi):
                row[i] = "-"
            if dst > src:
                row[hi - 1] = ">"
            else:
                row[lo] = "<"
            text = "".join(row)
            stamp = f"{e.time * 1000:8.3f}"
            lines.append(f"{stamp}  {text}  {e.label}")
        return "\n".join(lines)

    def summary(self) -> str:
        """Counts per message type, most frequent first."""
        counts = {}
        for e in self.events:
            counts[e.label] = counts.get(e.label, 0) + 1
        lines = [f"{count:5d}  {label}" for label, count in
                 sorted(counts.items(), key=lambda kv: -kv[1])]
        return "\n".join(lines) if lines else "(no messages)"
