"""The wall-clock backend: asyncio timers driving unchanged protocol code.

`AsyncioRuntime` implements the :class:`~repro.net.runtime.Runtime`
seam over a real event loop.  Protocol tasklets (generators yielding
:class:`~repro.net.tasks.Future`) need nothing from it beyond one-shot
timers and a transport — their futures fire callbacks synchronously in
whatever context resolves them, which under asyncio means inside loop
callbacks and socket-reader tasks.  The whole node therefore stays
single-threaded, exactly like the simulator; concurrency comes from
the loop interleaving I/O, never from threads.

`AsyncioDriver` is the client-side counterpart of
:class:`~repro.core.client.SyncDriver`: it blocks the calling (main)
thread by running the loop until the operation's future resolves, so
:class:`~repro.core.client.KhazanaSession` works unmodified over real
sockets.

This module is one of the two system-dependent runtime modules (the
other is :mod:`repro.net.tcp`); lint rule KHZ011 keeps direct
``asyncio``/``time``/``socket`` use fenced in here.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Optional

from repro.net.runtime import Runtime
from repro.net.tasks import Future
from repro.net.transport import Transport

logger = logging.getLogger(__name__)


class AioTimerHandle:
    """Asyncio-backed timer with the :class:`EventHandle` vocabulary."""

    __slots__ = ("_handle", "_when", "_label", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle | asyncio.Handle,
                 when: float, label: str) -> None:
        self._handle = handle
        self._when = when
        self._label = label
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def when(self) -> float:
        return self._when

    @property
    def label(self) -> str:
        return self._label


class AsyncioRuntime(Runtime):
    """Wall-clock timers + a real transport on one asyncio loop."""

    name = "asyncio"

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                 transport: Optional[Transport] = None) -> None:
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        if transport is not None:
            self.transport = transport

    # --- Runtime timer surface -----------------------------------------

    @property
    def now(self) -> float:
        """Monotonic loop time, in seconds (not epoch time)."""
        return self.loop.time()

    def _guarded(self, callback: Callable[[], None],
                 label: str) -> Callable[[], None]:
        def run() -> None:
            try:
                callback()
            except Exception:
                # Mirror the simulator's stance: one bad callback must
                # not take the node's dispatch loop down with it.
                logger.exception("timer callback %r failed", label)
        return run

    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> AioTimerHandle:
        handle = self.loop.call_at(when, self._guarded(callback, label))
        return AioTimerHandle(handle, when, label)

    def call_later(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> AioTimerHandle:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback, label=label)

    def call_soon(self, callback: Callable[[], None],
                  label: str = "") -> AioTimerHandle:
        handle = self.loop.call_soon(self._guarded(callback, label))
        return AioTimerHandle(handle, self.now, label)

    def charge(self, seconds: float, label: str = "") -> None:
        """Modelled cost is not wall time: nothing to wait for.

        The file write (or RAM copy) the node just performed already
        took what it takes on this clock; a timer for the model's
        price on top would bill the operation twice.
        """
        return None

    # --- Driving the loop ----------------------------------------------

    def run_future(self, future: Future, timeout: Optional[float] = None
                   ) -> Any:
        """Run the loop until ``future`` resolves; return its result.

        The synchronous-client bridge: a protocol future is mirrored
        into an asyncio future, and the loop runs (dispatching socket
        reads and timers, which is what makes progress happen) until
        the mirror fires.  Raises ``TimeoutError`` after ``timeout``
        wall seconds.
        """
        mirror = self.loop.create_future()

        def on_done(done: Future) -> None:
            if mirror.done():
                return
            exc = done.exception()
            if exc is not None:
                mirror.set_exception(exc)
            else:
                mirror.set_result(done.result())

        future.add_callback(on_done)
        waiter = mirror if timeout is None else self._with_deadline(
            mirror, timeout
        )
        return self.loop.run_until_complete(waiter)

    async def _with_deadline(self, mirror: "asyncio.Future[Any]",
                             timeout: float) -> Any:
        try:
            return await asyncio.wait_for(mirror, timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"operation did not complete within {timeout}s of wall time"
            ) from None

    def run_forever(self) -> None:
        """Serve until something calls :meth:`stop` (daemon processes)."""
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def stop(self) -> None:
        self.loop.call_soon(self.loop.stop)

    def close(self) -> None:
        self.loop.close()


class AsyncioDriver:
    """Blocking client driver over an :class:`AsyncioRuntime`.

    Substitutes for :class:`~repro.core.client.SyncDriver` when a
    session's daemon runs on the asyncio backend; ``timeout`` bounds
    every individual operation in wall seconds.
    """

    def __init__(self, runtime: AsyncioRuntime,
                 timeout: Optional[float] = 30.0) -> None:
        self.runtime = runtime
        self.timeout = timeout

    def wait(self, future: Future) -> Any:
        return self.runtime.run_future(future, timeout=self.timeout)
