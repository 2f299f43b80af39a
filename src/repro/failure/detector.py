"""Ping-based failure detection.

Khazana needs to know which peers are reachable so that operations can
be "repeatedly tried on all known Khazana nodes" (Section 3.5), so
copysets can shed crashed sharers, and so replica maintenance can
re-replicate under-copied pages.  Each daemon runs a detector that
pings every known peer on a period and declares a peer dead after a
configurable number of consecutive missed pongs.  Recovery (a pong
from a dead peer) is also reported, supporting nodes that "dynamically
enter and leave Khazana" (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.clock import EventHandle, EventScheduler
from repro.net.message import Message, MessageType
from repro.net.rpc import RetryPolicy, RpcEndpoint

#: One quick retransmission per ping; the miss counter provides the
#: real tolerance.
PING_POLICY = RetryPolicy(timeout=0.5, retries=1, backoff=1.0)

DeathListener = Callable[[int], None]
RecoveryListener = Callable[[int], None]


@dataclass
class PeerHealth:
    node_id: int
    alive: bool = True
    consecutive_misses: int = 0
    last_heard: float = 0.0


class FailureDetector:
    """Per-daemon ping/pong failure detector."""

    def __init__(
        self,
        rpc: RpcEndpoint,
        scheduler: EventScheduler,
        peers: List[int],
        period: float = 1.0,
        miss_threshold: int = 3,
    ) -> None:
        self.rpc = rpc
        self.scheduler = scheduler
        self.period = period
        self.miss_threshold = miss_threshold
        self._peers: Dict[int, PeerHealth] = {
            node: PeerHealth(node_id=node) for node in peers
            if node != rpc.node_id
        }
        #: When set, only these peers are actively pinged (ring-
        #: successor-style focused liveness); None pings everyone.
        self._focus: Optional[List[int]] = None
        self._on_death: List[DeathListener] = []
        self._on_recovery: List[RecoveryListener] = []
        self._timer: Optional[EventHandle] = None
        self._running = False
        rpc.on(MessageType.PING, self._handle_ping)

    # --- Lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_round()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # --- Membership -------------------------------------------------------

    def add_peer(self, node_id: int) -> None:
        if node_id != self.rpc.node_id and node_id not in self._peers:
            self._peers[node_id] = PeerHealth(node_id=node_id)

    def set_focus(self, peers: Optional[List[int]]) -> None:
        """Restrict active pinging to ``peers`` (ring-successor-style:
        each member watches only its few ring successors, so liveness
        traffic stays O(1) per member as the system grows).  Deaths of
        unfocused peers arrive through :meth:`declare_dead` — e.g.
        gossiped membership updates.  ``None`` restores all-peer
        pinging."""
        self._focus = None if peers is None else list(peers)

    def declare_dead(self, node_id: int) -> None:
        """Administratively mark a peer dead (clean departure): death
        listeners fire immediately instead of waiting out the pings."""
        peer = self._peers.get(node_id)
        if peer is None or not peer.alive:
            return
        peer.alive = False
        peer.consecutive_misses = self.miss_threshold
        for listener in self._on_death:
            listener(node_id)

    def declare_alive(self, node_id: int) -> None:
        """Administratively mark a peer alive (e.g. a membership join
        or gossip vouched for it): recovery listeners fire immediately
        instead of waiting for this node's own pings — which, under
        focused pinging, may never probe the peer at all."""
        if node_id == self.rpc.node_id:
            return
        peer = self._peers.get(node_id)
        if peer is None:
            self.add_peer(node_id)
            return
        if peer.alive:
            return
        peer.alive = True
        peer.consecutive_misses = 0
        for listener in self._on_recovery:
            listener(node_id)

    def alive_peers(self) -> List[int]:
        return sorted(p.node_id for p in self._peers.values() if p.alive)

    def dead_peers(self) -> List[int]:
        return sorted(p.node_id for p in self._peers.values() if not p.alive)

    def is_alive(self, node_id: int) -> bool:
        if node_id == self.rpc.node_id:
            return True
        peer = self._peers.get(node_id)
        return peer.alive if peer is not None else True

    # --- Listeners ------------------------------------------------------------

    def on_death(self, listener: DeathListener) -> None:
        self._on_death.append(listener)

    def on_recovery(self, listener: RecoveryListener) -> None:
        self._on_recovery.append(listener)

    # --- Internals --------------------------------------------------------------

    def _schedule_round(self) -> None:
        if not self._running:
            return
        self._timer = self.scheduler.call_later(
            self.period, self._round,
            label=f"n{self.rpc.node_id}:failure-detector",
        )

    def _round(self) -> None:
        if not self._running:
            return
        targets = list(self._peers.values())
        if self._focus is not None:
            focus = set(self._focus)
            targets = [peer for peer in targets if peer.node_id in focus]
        for peer in targets:
            future = self.rpc.request(
                peer.node_id, MessageType.PING, {}, policy=PING_POLICY
            )
            future.add_callback(
                lambda f, node=peer.node_id: self._on_ping_done(node, f)
            )
        self._schedule_round()

    def _on_ping_done(self, node_id: int, future) -> None:
        peer = self._peers.get(node_id)
        if peer is None:
            return
        if future.exception() is None:
            peer.consecutive_misses = 0
            peer.last_heard = self.scheduler.now
            if not peer.alive:
                peer.alive = True
                for listener in self._on_recovery:
                    listener(node_id)
            return
        peer.consecutive_misses += 1
        if peer.alive and peer.consecutive_misses >= self.miss_threshold:
            peer.alive = False
            for listener in self._on_death:
                listener(node_id)

    def _handle_ping(self, msg: Message) -> None:
        self.rpc.reply(msg, MessageType.PONG, {})
