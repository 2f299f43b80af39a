"""Request/response layer over the unreliable transport.

The paper's failure model (Section 3.5): "Khazana operations are
repeatedly tried on all known Khazana nodes until they succeed or
timeout."  This module supplies the mechanics — request ids, response
matching, per-request timeouts, and bounded retransmission — on top of
the datagram-like :class:`~repro.net.transport.Transport`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.net.clock import EventHandle, EventScheduler
from repro.net.message import Message, MessageType
from repro.net.tasks import Future
from repro.net.transport import Transport


class RpcTimeout(Exception):
    """A request exhausted its retransmissions without a response."""

    def __init__(self, message: Message, attempts: int) -> None:
        super().__init__(
            f"no response from node {message.dst} to "
            f"{message.msg_type.value} after {attempts} attempt(s)"
        )
        self.request = message
        self.attempts = attempts


class RemoteError(Exception):
    """The peer answered with a ``MessageType.ERROR`` NAK."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission schedule for one logical request."""

    timeout: float = 0.25          # seconds before first retransmission
    retries: int = 3               # retransmissions after the first send
    backoff: float = 2.0           # multiplier per attempt

    def attempt_timeout(self, attempt: int) -> float:
        return self.timeout * (self.backoff ** attempt)


#: Default policy: ~0.25s, 0.5s, 1s, 2s — bounded at roughly 4 seconds,
#: after which the caller decides whether to try another node.
DEFAULT_POLICY = RetryPolicy()


class _Pending:
    __slots__ = ("future", "message", "policy", "attempt", "timer")

    def __init__(self, future: Future, message: Message, policy: RetryPolicy):
        self.future = future
        self.message = message
        self.policy = policy
        self.attempt = 0
        self.timer: Optional[EventHandle] = None


class RpcEndpoint:
    """Per-node messaging endpoint.

    Dispatches unsolicited messages to a handler registered per message
    type, and matches replies to outstanding requests.  Owned by a
    :class:`~repro.core.kernel.NodeKernel`.
    """

    def __init__(
        self,
        node_id: int,
        transport: Transport,
        scheduler: EventScheduler,
        policy: RetryPolicy = DEFAULT_POLICY,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.scheduler = scheduler
        self.policy = policy
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._handlers: Dict[MessageType, Callable[[Message], None]] = {}
        self._alive = True
        transport.attach(node_id, self._on_message)

    # --- Registration -----------------------------------------------------

    def on(self, msg_type: MessageType, handler: Callable[[Message], None]) -> None:
        """Register the handler for unsolicited messages of a type."""
        self._handlers[msg_type] = handler

    def shutdown(self) -> None:
        """Detach from the transport and fail all outstanding requests."""
        self._alive = False
        self.transport.detach(self.node_id)
        for pending in list(self._pending.values()):
            self._cancel_timer(pending)
            if not pending.future.done:
                pending.future.set_exception(
                    RpcTimeout(pending.message, pending.attempt + 1)
                )
        self._pending.clear()

    # --- Sending ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Fire-and-forget (used for replies and gossip-style hints)."""
        if self._alive:
            self.transport.send(message)

    def request(
        self,
        dst: int,
        msg_type: MessageType,
        payload: Optional[Dict[str, Any]] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> Future:
        """Send a request and return a future for the reply payload.

        The future resolves with the response :class:`Message`; it
        fails with :class:`RemoteError` on a NAK or :class:`RpcTimeout`
        when retransmissions are exhausted.
        """
        message = Message(
            msg_type=msg_type,
            src=self.node_id,
            dst=dst,
            payload=payload or {},
            request_id=next(self._request_ids),
        )
        future = Future(label=f"rpc:{msg_type.value}->{dst}")
        pending = _Pending(future, message, policy or self.policy)
        self._pending[message.request_id] = pending
        self._transmit(pending)
        return future

    def reply(self, request: Message, msg_type: MessageType,
              payload: Optional[Dict[str, Any]] = None) -> None:
        """Answer ``request`` with a response of ``msg_type``."""
        self.send(request.reply(msg_type, payload))

    def reply_error(self, request: Message, code: str, detail: str = "") -> None:
        self.send(request.error_reply(code, detail))

    # --- Internals -----------------------------------------------------------

    def _transmit(self, pending: _Pending) -> None:
        if pending.future.done:
            return
        self.transport.send(pending.message)
        deadline = pending.policy.attempt_timeout(pending.attempt)
        pending.timer = self.scheduler.call_later(
            deadline, lambda: self._on_timeout(pending),
            label=(
                f"rpc-timeout:{pending.message.msg_type.value}"
                f":{pending.message.src}->{pending.message.dst}"
                f":r{pending.message.request_id}"
            ),
        )

    def _on_timeout(self, pending: _Pending) -> None:
        if pending.future.done:
            return
        pending.attempt += 1
        if pending.attempt > pending.policy.retries:
            self._pending.pop(pending.message.request_id, None)
            pending.future.set_exception(
                RpcTimeout(pending.message, pending.attempt)
            )
            return
        self._transmit(pending)

    def _cancel_timer(self, pending: _Pending) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None

    def _on_message(self, message: Message) -> None:
        if message.reply_to is not None:
            pending = self._pending.pop(message.reply_to, None)
            if pending is None:
                return  # duplicate or late reply; drop
            self._cancel_timer(pending)
            if pending.future.done:
                return
            if message.msg_type is MessageType.ERROR:
                pending.future.set_exception(
                    RemoteError(
                        message.payload.get("code", "unknown"),
                        message.payload.get("detail", ""),
                    )
                )
            else:
                pending.future.set_result(message)
            return
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            if message.request_id is not None:
                self.reply_error(message, "unhandled",
                                 f"node {self.node_id} has no handler for "
                                 f"{message.msg_type.value}")
            return
        handler(message)
