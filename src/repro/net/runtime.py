"""The runtime seam: clock + timers + transport + cost model behind
one interface.

The paper claims (Section 5) that only Khazana's messaging layer is
system-dependent.  This module makes that claim structural: everything
a :class:`~repro.core.kernel.NodeKernel` (and therefore the protocol
engine and every consistency manager) needs from "the system" is the
narrow :class:`Runtime` surface below — a monotonic clock, one-shot
timers, a :class:`~repro.net.transport.Transport`, and the cost model:
who pays for work the program only *models* (the 1998 disk of
:mod:`repro.storage.disk`).  On a virtual clock modelled cost is the
only cost there is, so the backend spends it; on a wall clock the work
the node actually did already took its time, and spending the model on
top would bill the operation twice.

Two backends implement it:

- :class:`SimRuntime` wraps the discrete-event
  :class:`~repro.net.clock.EventScheduler` and
  :class:`~repro.net.sim.SimNetwork`.  It adds no events and no
  indirection state of its own, so simulated runs — including the
  schedule explorer and the race detector, which keep driving the raw
  scheduler — stay bit-for-bit identical to the pre-seam behaviour.
  Modelled cost advances virtual time.
- :class:`~repro.net.aio.AsyncioRuntime` drives the same protocol
  code over wall-clock asyncio timers and the real-socket
  :class:`~repro.net.tcp.TcpTransport`.  Modelled cost is not spent.

Everything above this seam is backend-agnostic; lint rule KHZ011
(``repro.analysis.lint``) enforces that no other module reaches for
``time.time``/``asyncio``/``socket`` directly.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Protocol, runtime_checkable

from repro.net.clock import EventScheduler
from repro.net.tasks import Future
from repro.net.transport import Transport


@runtime_checkable
class TimerHandle(Protocol):
    """What a scheduled-callback handle looks like on any backend.

    Mirrors :class:`~repro.net.clock.EventHandle` — the pre-existing
    timer vocabulary of the RPC layer and the failure detector — so
    those modules run unchanged over either backend.
    """

    def cancel(self) -> None: ...

    @property
    def cancelled(self) -> bool: ...

    @property
    def when(self) -> float: ...

    @property
    def label(self) -> str: ...


class Runtime(abc.ABC):
    """Clock, one-shot timers, transport and cost model, for one backend.

    The timer surface is deliberately identical to
    :class:`~repro.net.clock.EventScheduler` (``now`` / ``call_at`` /
    ``call_later`` / ``call_soon`` returning a cancellable handle), so
    code written against a scheduler accepts a runtime and vice versa.
    """

    #: Backend name ("sim" or "asyncio"), for logs and reports.
    name: str = "?"
    #: The messaging backend all daemons on this runtime share.
    transport: Transport

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock monotonic)."""

    @abc.abstractmethod
    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> TimerHandle:
        """Run ``callback`` once at absolute time ``when``."""

    @abc.abstractmethod
    def call_later(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> TimerHandle:
        """Run ``callback`` once, ``delay`` seconds from now."""

    @abc.abstractmethod
    def call_soon(self, callback: Callable[[], None],
                  label: str = "") -> TimerHandle:
        """Run ``callback`` as soon as the backend next dispatches."""

    @abc.abstractmethod
    def charge(self, seconds: float, label: str = "") -> Optional[Future]:
        """Spend ``seconds`` (> 0) of *modelled* cost on this backend.

        The storage hierarchy prices every disk access with a model
        (:func:`repro.storage.disk.access_cost`); whether that price is
        also *time* depends on the clock.  Returns a future the caller
        must wait on before going on, or ``None`` when this backend's
        clock has nothing to add — the caller then continues without
        suspending.
        """

    @property
    def timers(self) -> object:
        """The raw timer object for tools that need the backend itself.

        The sim backend returns its :class:`EventScheduler` (the
        explorer and the sync client driver step it directly); the
        asyncio backend returns the runtime, whose timer surface is
        the same.
        """
        return self

    def node_ids(self) -> List[int]:
        return self.transport.node_ids()


class SimRuntime(Runtime):
    """The discrete-event backend: virtual time over a simulated net.

    A pure delegation shim — scheduling through it produces exactly
    the events (same ``(when, seq)`` order, same labels) that
    scheduling on the wrapped :class:`EventScheduler` would, which is
    what keeps the virtual-time benchmarks bit-identical and the
    schedule explorer's chooser hooks effective.
    """

    name = "sim"

    def __init__(self, scheduler: EventScheduler,
                 transport: Transport) -> None:
        self.scheduler = scheduler
        self.transport = transport

    @property
    def now(self) -> float:
        return self.scheduler.now

    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> TimerHandle:
        return self.scheduler.call_at(when, callback, label=label)

    def call_later(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> TimerHandle:
        return self.scheduler.call_later(delay, callback, label=label)

    def call_soon(self, callback: Callable[[], None],
                  label: str = "") -> TimerHandle:
        return self.scheduler.call_soon(callback, label=label)

    def charge(self, seconds: float, label: str = "") -> Future:
        """Advance virtual time: a future resolving ``seconds`` from now.

        Exactly one ``call_later`` event, under the caller's label —
        the schedule explorer keys recorded decisions on it.
        """
        future = Future(label=f"sleep:{seconds}")
        self.scheduler.call_later(seconds, lambda: future.set_result(None),
                                  label=label)
        return future

    @property
    def timers(self) -> EventScheduler:
        return self.scheduler
