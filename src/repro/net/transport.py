"""Abstract transport interface.

The paper states (Section 5) that only Khazana's messaging layer is
system dependent.  Daemons talk to a :class:`Transport`; the simulator
(:mod:`repro.net.sim`) is the reference implementation, and a real
socket transport could be substituted without touching protocol code.
"""

from __future__ import annotations

import abc
from typing import Callable, List

from repro.net.message import Message

MessageHandler = Callable[[Message], None]


class Transport(abc.ABC):
    """Delivers messages between numbered nodes."""

    @abc.abstractmethod
    def attach(self, node_id: int, handler: MessageHandler) -> None:
        """Register ``handler`` to receive messages addressed to
        ``node_id``.  A node must attach before it can send or
        receive."""

    @abc.abstractmethod
    def detach(self, node_id: int) -> None:
        """Remove the node; subsequent messages to it are dropped."""

    @abc.abstractmethod
    def send(self, message: Message) -> None:
        """Queue ``message`` for delivery to ``message.dst``.

        Delivery is asynchronous and unreliable: messages to dead,
        detached, or partitioned nodes vanish silently, exactly like a
        datagram.  Reliability (timeout + retry) belongs to the RPC
        layer above.  The one thing ``send`` raises is
        :class:`~repro.net.codec.EncodeError`, for a message no
        transport could carry, before it is counted or tapped.
        """

    @abc.abstractmethod
    def node_ids(self) -> List[int]:
        """Currently attached node ids, in ascending order."""
