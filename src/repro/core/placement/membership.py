"""MembershipService: the live member set behind ring placement.

"Machines can dynamically enter and leave Khazana and
contribute/reclaim local resources" (paper Section 3).  The tiered
chain tolerates churn passively — stale hints NAK and lookups fall
through — but hash placement *computes* homes from the member set, so
the set itself must be an explicit, gossiped protocol object:

- **Seeding**: an initial deployment hands every daemon the same peer
  list at bootstrap, so all rings agree from birth.
- **Join**: a newcomer sends ``MEMBER_JOIN`` to any seed member and
  absorbs the ``MEMBER_WELCOME`` member list; the welcoming node
  broadcasts a ``MEMBER_UPDATE`` so the rest of the ring learns in one
  hop.
- **Leave/death**: liveness comes from the failure detector, focused
  ring-successor-style — each member pings only its ``FOCUS_SUCCESSORS``
  ring successors (cf. succ1/succ2 pinging in Chord-like systems)
  instead of all-to-all, and a member that discovers a death gossips
  ``MEMBER_UPDATE left=[...]`` to everyone.

Every confirmed change flows to the owning
:class:`~repro.core.placement.base.PlacementStrategy` through
``on_membership_change`` so directors republish and re-homing starts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Set

from repro.core.placement.ring import mix64
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout
from repro.net.tasks import Future

if TYPE_CHECKING:
    from repro.core.kernel import NodeKernel
    from repro.core.placement.base import PlacementStrategy

ProtocolGen = Generator[Future, Any, Any]

#: How many ring successors each member pings (succ1/succ2 style).
FOCUS_SUCCESSORS = 2

#: A join announcement retries hard: a newcomer that cannot reach any
#: seed member is simply not in the system yet.
JOIN_POLICY = RetryPolicy(timeout=2.0, retries=3, backoff=1.5)


class MembershipService:
    """Tracks the live member set and runs the join/leave protocol."""

    def __init__(self, kernel: "NodeKernel",
                 placement: "PlacementStrategy") -> None:
        self.kernel = kernel
        self.placement = placement
        self._members: Set[int] = {kernel.node_id}
        #: The ring successors this member is responsible for pinging.
        self._focus: List[int] = []
        self.joins_seen = 0
        self.leaves_seen = 0
        kernel.detector.on_death(self._peer_died)
        kernel.detector.on_recovery(self._peer_recovered)

    # ------------------------------------------------------------------
    # The member view
    # ------------------------------------------------------------------

    def members(self) -> List[int]:
        """All known members (alive or not), this node included."""
        return sorted(self._members)

    def alive_members(self) -> List[int]:
        """Members the failure detector currently believes are up."""
        detector = self.kernel.detector
        return [m for m in sorted(self._members) if detector.is_alive(m)]

    def seed(self, peers: List[int]) -> None:
        """Install the bootstrap member list (initial deployment)."""
        self._members.update(peers)
        self._members.add(self.kernel.node_id)
        self._refocus()

    # ------------------------------------------------------------------
    # Mutation (returns True only on a *new* fact, so gossip terminates)
    # ------------------------------------------------------------------

    def add_member(self, node_id: int) -> bool:
        if node_id in self._members:
            return False
        self._members.add(node_id)
        self.kernel.detector.add_peer(node_id)
        self.joins_seen += 1
        self._refocus()
        return True

    def remove_member(self, node_id: int) -> bool:
        if node_id not in self._members or node_id == self.kernel.node_id:
            return False
        self._members.discard(node_id)
        self.leaves_seen += 1
        self._refocus()
        return True

    # ------------------------------------------------------------------
    # Join protocol (runs on the newcomer)
    # ------------------------------------------------------------------

    def join(self, seed_node: int) -> ProtocolGen:
        """Announce this node to ``seed_node`` and absorb the member
        list from its welcome."""
        kernel = self.kernel
        try:
            reply = yield kernel.rpc.request(
                seed_node, MessageType.MEMBER_JOIN,
                {"node": kernel.node_id}, policy=JOIN_POLICY,
            )
        except (RpcTimeout, RemoteError):
            # Not fatal: the seed list we were bootstrapped with keeps
            # the ring usable; gossip will complete the picture.
            return False
        fresh = [
            m for m in (int(n) for n in reply.payload.get("members", ()))
            if self.add_member(m)
        ]
        if fresh:
            self.placement.on_membership_change(fresh, [])
        return True

    def handle_member_join(self, msg: Message) -> None:
        """A newcomer announced itself: welcome it with the member
        list, then broadcast the join to the rest of the ring."""
        kernel = self.kernel
        node = int(msg.payload["node"])
        fresh = self.add_member(node)
        # A join announcement is proof of life — unstick the detector
        # if it still has the node marked dead from a past crash.
        kernel.detector.declare_alive(node)
        kernel.reply_request(
            msg, MessageType.MEMBER_WELCOME, {"members": self.members()}
        )
        if fresh:
            self._gossip(joined=[node], left=[])
            self.placement.on_membership_change([node], [])

    def handle_member_update(self, msg: Message) -> None:
        """Absorb a gossiped membership delta (no re-forwarding: the
        discovering member broadcast to everyone already)."""
        joined = [
            m for m in (int(n) for n in msg.payload.get("joined", ()))
            if self.add_member(m)
        ]
        for node in joined:
            # A gossiped join vouches for the node's liveness.
            self.kernel.detector.declare_alive(node)
        left = [
            m for m in (int(n) for n in msg.payload.get("left", ()))
            if self.remove_member(m)
        ]
        for node in left:
            # A gossiped leave is as authoritative as a local
            # detection: fire the repair machinery now.
            self.kernel.detector.declare_dead(node)
        if joined or left:
            self.placement.on_membership_change(joined, left)

    # ------------------------------------------------------------------
    # Detector feed
    # ------------------------------------------------------------------

    def _peer_died(self, node_id: int) -> None:
        # Capture responsibility *before* remove_member refocuses: the
        # dead node drops out of the new focus set by construction.
        was_watching = node_id in self._focus
        if not self.remove_member(node_id):
            return
        # Only the responsible pingers broadcast, so an all-at-once
        # clean leave (every detector told directly) costs O(N)
        # gossip messages instead of O(N^2).
        if was_watching:
            self._gossip(joined=[], left=[node_id])
        self.placement.on_membership_change([], [node_id])

    def _peer_recovered(self, node_id: int) -> None:
        was_watching = node_id in self._focus
        if not self.add_member(node_id):
            return
        if was_watching:
            self._gossip(joined=[node_id], left=[])
        # Re-sync both directions: while the link was down this side
        # may have been dropped from the peer's ring too.  The join
        # protocol re-announces us and absorbs the peer's member list.
        self.kernel.spawn(self.join(node_id),
                          label=f"member-rejoin:{node_id}")
        self.placement.on_membership_change([node_id], [])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _gossip(self, joined: List[int], left: List[int]) -> None:
        kernel = self.kernel
        payload = {"joined": list(joined), "left": list(left)}
        for member in self.members():
            if member == kernel.node_id or member in left:
                continue
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.MEMBER_UPDATE,
                    src=kernel.node_id,
                    dst=member,
                    payload=dict(payload),
                )
            )

    def _refocus(self) -> None:
        """Point the failure detector at this member's ring successors.

        Members are ordered by their hashed ring position; each pings
        the next ``FOCUS_SUCCESSORS`` members after itself, so liveness
        cost per member is O(1) however large the ring grows.
        """
        kernel = self.kernel
        ordered = sorted(self._members, key=lambda m: (mix64(m), m))
        if kernel.node_id not in ordered or len(ordered) < 2:
            self._focus = []
            kernel.detector.set_focus(None)
            return
        index = ordered.index(kernel.node_id)
        focus: List[int] = []
        for step in range(1, len(ordered)):
            succ = ordered[(index + step) % len(ordered)]
            if succ == kernel.node_id:
                break
            focus.append(succ)
            if len(focus) >= FOCUS_SUCCESSORS:
                break
        self._focus = focus
        kernel.detector.set_focus(focus)
