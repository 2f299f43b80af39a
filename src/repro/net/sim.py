"""Deterministic discrete-event network simulator.

Stands in for the socket layer of the original Khazana prototype.  The
simulator models:

- per-link latency (constant base + per-byte transfer + optional
  jitter drawn from a seeded RNG, so runs stay reproducible),
- message loss probability per link,
- network partitions (bidirectional blackholes between node groups),
- detached nodes (messages to/from a node with no handler are
  dropped, so a stopped daemon's in-flight traffic dies with it).

Topology presets correspond to the environments the paper targets:
``lan`` (the single-cluster prototype), ``wan`` (the slow/intermittent
wide-area links Section 1 assumes), and ``two_cluster`` (a LAN pair
joined by a WAN link, the shape of the planned multi-cluster design).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.clock import EventScheduler
from repro.net.codec import encoded_size
from repro.net.message import Message, MessageType
from repro.net.transport import MessageHandler, Transport

# Latency presets, in virtual seconds.
LAN_LATENCY = 0.0005      # 0.5 ms, a late-90s switched Ethernet
WAN_LATENCY = 0.040       # 40 ms, a wide-area round-trip half
LAN_BANDWIDTH = 12_500_000   # 100 Mbit/s in bytes/sec
WAN_BANDWIDTH = 187_500      # 1.5 Mbit/s (T1) in bytes/sec


@dataclass(frozen=True)
class LinkSpec:
    """Latency/loss model for one directed pair of nodes."""

    base_latency: float = LAN_LATENCY
    bandwidth: float = LAN_BANDWIDTH   # bytes per virtual second
    jitter: float = 0.0                # max uniform extra latency
    loss_probability: float = 0.0

    def delivery_delay(self, size_bytes: int, rng: random.Random) -> float:
        delay = self.base_latency + size_bytes / self.bandwidth
        if self.jitter > 0:
            delay += rng.uniform(0.0, self.jitter)
        return delay


class Topology:
    """Maps node pairs to :class:`LinkSpec`.

    A default link applies to every pair unless overridden.  Cluster
    membership can be declared so that intra-cluster pairs use the LAN
    link and inter-cluster pairs the WAN link.
    """

    def __init__(self, default: Optional[LinkSpec] = None) -> None:
        self.default = default if default is not None else LinkSpec()
        self._overrides: Dict[Tuple[int, int], LinkSpec] = {}
        self._clusters: Dict[int, int] = {}   # node id -> cluster id
        self._intra: LinkSpec = LinkSpec()
        self._inter: LinkSpec = LinkSpec(
            base_latency=WAN_LATENCY, bandwidth=WAN_BANDWIDTH
        )
        self._clustered = False

    @classmethod
    def lan(cls, jitter: float = 0.0, loss: float = 0.0) -> "Topology":
        """All pairs on a local-area link."""
        return cls(
            LinkSpec(
                base_latency=LAN_LATENCY,
                bandwidth=LAN_BANDWIDTH,
                jitter=jitter,
                loss_probability=loss,
            )
        )

    @classmethod
    def wan(cls, jitter: float = 0.0, loss: float = 0.0) -> "Topology":
        """All pairs on a wide-area link."""
        return cls(
            LinkSpec(
                base_latency=WAN_LATENCY,
                bandwidth=WAN_BANDWIDTH,
                jitter=jitter,
                loss_probability=loss,
            )
        )

    @classmethod
    def clustered(
        cls,
        assignment: Dict[int, int],
        intra: Optional[LinkSpec] = None,
        inter: Optional[LinkSpec] = None,
    ) -> "Topology":
        """LAN inside each cluster, WAN between clusters.

        ``assignment`` maps node id -> cluster id.
        """
        topo = cls()
        topo._clustered = True
        topo._clusters = dict(assignment)
        if intra is not None:
            topo._intra = intra
        if inter is not None:
            topo._inter = inter
        return topo

    def set_link(self, a: int, b: int, spec: LinkSpec) -> None:
        """Override the link between ``a`` and ``b`` (both directions)."""
        self._overrides[(a, b)] = spec
        self._overrides[(b, a)] = spec

    def link(self, src: int, dst: int) -> LinkSpec:
        override = self._overrides.get((src, dst))
        if override is not None:
            return override
        if self._clustered:
            same = self._clusters.get(src) == self._clusters.get(dst)
            return self._intra if same else self._inter
        return self.default

    def cluster_of(self, node_id: int) -> int:
        """Cluster id of a node (0 for non-clustered topologies)."""
        return self._clusters.get(node_id, 0)


@dataclass
class NetworkStats:
    """Aggregate traffic counters, used by every benchmark."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: Frames refused because their peer's send buffer was over its
    #: bound (real transports only; the sim has no slow peers).
    messages_shed: int = 0
    #: Inbound frames that failed to parse (real transports only).
    frames_rejected: int = 0
    bytes_sent: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    bytes_by_type: Dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        key = message.msg_type.value
        self.by_type[key] = self.by_type.get(key, 0) + 1
        self.bytes_by_type[key] = self.bytes_by_type.get(key, 0) + size

    def snapshot(self) -> "NetworkStats":
        """A copy, for before/after differencing in benchmarks."""
        clone = NetworkStats(
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            messages_shed=self.messages_shed,
            frames_rejected=self.frames_rejected,
            bytes_sent=self.bytes_sent,
        )
        clone.by_type = dict(self.by_type)
        clone.bytes_by_type = dict(self.bytes_by_type)
        return clone

    def delta_since(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        delta = NetworkStats(
            messages_sent=self.messages_sent - earlier.messages_sent,
            messages_delivered=self.messages_delivered - earlier.messages_delivered,
            messages_dropped=self.messages_dropped - earlier.messages_dropped,
            messages_shed=self.messages_shed - earlier.messages_shed,
            frames_rejected=self.frames_rejected - earlier.frames_rejected,
            bytes_sent=self.bytes_sent - earlier.bytes_sent,
        )
        for key, value in self.by_type.items():
            diff = value - earlier.by_type.get(key, 0)
            if diff:
                delta.by_type[key] = diff
        for key, value in self.bytes_by_type.items():
            diff = value - earlier.bytes_by_type.get(key, 0)
            if diff:
                delta.bytes_by_type[key] = diff
        return delta

    def count(self, msg_type: MessageType) -> int:
        return self.by_type.get(msg_type.value, 0)


#: Folded into every per-link RNG seed.  An int tuple hash is stable
#: across processes (PYTHONHASHSEED only perturbs str/bytes).
_LINK_SALT = 3


class SimNetwork(Transport):
    """The simulated transport connecting all Khazana daemons."""

    def __init__(
        self,
        scheduler: EventScheduler,
        topology: Optional[Topology] = None,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.topology = topology if topology is not None else Topology.lan()
        self.stats = NetworkStats()
        self._seed = seed
        # One RNG stream per directed link, seeded from (seed, src,
        # dst): loss/jitter draws on link A are unaffected by how much
        # traffic (or schedule reordering) link B sees.
        self._link_rngs: Dict[Tuple[int, int], random.Random] = {}
        self._send_counts: Dict[Tuple[str, int, int], int] = {}
        self._handlers: Dict[int, MessageHandler] = {}
        self._partitions: List[Tuple[Set[int], Set[int]]] = []
        self._taps: List[MessageHandler] = []
        self._delivery_taps: List[MessageHandler] = []

    # --- Transport interface -------------------------------------------------

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    def node_ids(self) -> List[int]:
        return sorted(self._handlers)

    def send(self, message: Message) -> None:
        size = encoded_size(message)   # EncodeError leaves nothing counted
        self.stats.record_send(message, size)
        for tap in self._taps:
            tap(message)
        if not self._deliverable(message.src, message.dst):
            self.stats.messages_dropped += 1
            return
        rng = self._link_rng(message.src, message.dst)
        link = self.topology.link(message.src, message.dst)
        if link.loss_probability > 0 and rng.random() < link.loss_probability:
            self.stats.messages_dropped += 1
            return
        delay = link.delivery_delay(size, rng)
        self.scheduler.call_later(
            delay, lambda: self._deliver(message),
            label=self._delivery_label(message),
        )

    def _link_rng(self, src: int, dst: int) -> random.Random:
        rng = self._link_rngs.get((src, dst))
        if rng is None:
            # Explicit integer mix — random.Random rejects tuple seeds.
            rng = random.Random(hash((self._seed, src, dst, _LINK_SALT)))
            self._link_rngs[(src, dst)] = rng
        return rng

    def _delivery_label(self, message: Message) -> str:
        """Stable identity for a delivery event.

        Deterministic across re-runs of one cluster build (request ids
        are per-endpoint counters; the ``#k`` suffix is this network's
        own per-(type, link) occurrence counter), so the schedule
        explorer can key decisions and sleep sets on it.  The global
        ``Message.msg_id`` is deliberately *not* used: that counter
        survives across clusters in one process.
        """
        key = (message.msg_type.value, message.src, message.dst)
        count = self._send_counts.get(key, 0)
        self._send_counts[key] = count + 1
        label = (
            f"deliver:{message.msg_type.value}"
            f":{message.src}->{message.dst}#{count}"
        )
        if message.request_id is not None:
            label += f":r{message.request_id}"
        elif message.reply_to is not None:
            label += f":a{message.reply_to}"
        return label

    # --- Fault injection ------------------------------------------------------

    def partition(self, group_a: Set[int], group_b: Set[int]) -> None:
        """Blackhole all traffic between the two node groups."""
        self._partitions.append((set(group_a), set(group_b)))

    def heal_partitions(self) -> None:
        self._partitions.clear()

    def tap(self, handler: MessageHandler) -> None:
        """Observe every sent message (for tracing and benchmarks)."""
        self._taps.append(handler)

    def tap_delivery(self, handler: MessageHandler) -> None:
        """Observe every *delivered* message, after loss/detach/partition
        filtering — the receive-side counterpart of :meth:`tap`, used
        by the race detector to order events (happens-before)."""
        self._delivery_taps.append(handler)

    # --- Internals -------------------------------------------------------------

    def _deliverable(self, src: int, dst: int) -> bool:
        if src not in self._handlers or dst not in self._handlers:
            return False
        for group_a, group_b in self._partitions:
            if (src in group_a and dst in group_b) or (
                src in group_b and dst in group_a
            ):
                return False
        return True

    def _deliver(self, message: Message) -> None:
        # Re-check at delivery time: a detach or partition that
        # happened while the message was in flight still destroys it.
        if not self._deliverable(message.src, message.dst):
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        for tap in self._delivery_taps:
            tap(message)
        self._handlers[message.dst](message)
