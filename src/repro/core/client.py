"""Client library: sessions, synchronous wrappers, mapped views.

"Typically an application process (client) interacts with Khazana
through library routines" (paper Section 2).  A
:class:`KhazanaSession` binds an application principal to one daemon
and exposes the paper's operation set — reserve/unreserve,
allocate/free, lock/unlock, read/write, get/set attributes — as plain
synchronous calls (each call drives the simulation until its protocol
task completes).

:class:`MappedRange` approximates the paper's memory-mapped access
style: a locked window of global memory addressed by offsets.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes
from repro.core.errors import KhazanaError, KhazanaTimeout
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.clock import EventScheduler
from repro.net.tasks import Future

#: Backstop against runaway protocols when driving the simulator from
#: a synchronous client call.
MAX_STEPS_PER_CALL = 5_000_000


class SyncDriver:
    """Runs protocol tasks to completion by stepping the scheduler."""

    def __init__(self, scheduler: EventScheduler) -> None:
        self.scheduler = scheduler

    def wait(self, future: Future) -> Any:
        steps = 0
        while not future.done:
            if not self.scheduler.step():
                raise KhazanaError(
                    f"deadlock: {future.label!r} cannot complete and the "
                    "event queue is empty"
                )
            steps += 1
            if steps > MAX_STEPS_PER_CALL:
                raise KhazanaTimeout(
                    f"operation {future.label!r} did not complete within "
                    f"{MAX_STEPS_PER_CALL} simulation events"
                )
        return future.result()


class MappedRange:
    """A locked window of global memory with offset-based access.

    Mimics "mapping parts of global memory to their virtual memory
    space and reading and writing to this mapped section" (Section 2).
    Usable as a context manager; exiting unlocks.
    """

    def __init__(self, session: "KhazanaSession", ctx: LockContext) -> None:
        self._session = session
        self.ctx = ctx

    @property
    def base(self) -> int:
        return self.ctx.range.start

    @property
    def length(self) -> int:
        return self.ctx.range.length

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        if length is None:
            length = self.length - offset
        return self._session.read(self.ctx, self.base + offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self._session.write(self.ctx, self.base + offset, data)

    def unlock(self) -> None:
        self._session.unlock(self.ctx)

    def __enter__(self) -> "MappedRange":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlock()


class KhazanaSession:
    """A client's connection to Khazana through one local daemon."""

    def __init__(self, daemon: Any, driver: SyncDriver,
                 principal: str = "user") -> None:
        self.daemon = daemon
        self.driver = driver
        self.principal = principal

    @property
    def node_id(self) -> int:
        return self.daemon.node_id

    # --- Asynchronous (future-returning) API ------------------------------

    def submit(self, task: Generator, label: str) -> Future:
        """Run a raw protocol generator on this session's daemon."""
        return self.daemon.spawn(task, label=label)

    def reserve_async(self, size: int,
                      attrs: Optional[RegionAttributes] = None) -> Future:
        attrs = attrs if attrs is not None else RegionAttributes()
        return self.submit(
            self.daemon.op_reserve(size, attrs, self.principal), "reserve"
        )

    def lock_async(self, address: int, length: int, mode: LockMode) -> Future:
        return self.submit(
            self.daemon.op_lock(
                AddressRange(address, length), mode, self.principal
            ),
            "lock",
        )

    # --- Synchronous API (the paper's operation set) -----------------------

    def reserve(self, size: int,
                attrs: Optional[RegionAttributes] = None) -> RegionDescriptor:
        """Reserve a region of global address space."""
        return self.driver.wait(self.reserve_async(size, attrs))

    def unreserve(self, rid: int) -> None:
        """Unreserve a region (storage reclaim happens in background)."""
        self.driver.wait(
            self.submit(self.daemon.op_unreserve(rid), "unreserve")
        )

    def allocate(self, rid: int, offset: Optional[int] = None,
                 length: Optional[int] = None) -> None:
        """Allocate physical storage for a region or a subrange of it."""
        subrange = None
        if offset is not None or length is not None:
            if offset is None or length is None:
                raise ValueError("allocate needs both offset and length")
            subrange = AddressRange(rid + offset, length)
        self.driver.wait(
            self.submit(self.daemon.op_allocate(rid, subrange), "allocate")
        )

    def free(self, rid: int, offset: int, length: int) -> None:
        """Free physical storage backing part of a region."""
        self.driver.wait(
            self.submit(
                self.daemon.op_free(rid, AddressRange(rid + offset, length)),
                "free",
            )
        )

    def lock(self, address: int, length: int, mode: LockMode) -> LockContext:
        """Lock a range; returns the lock context for read/write calls."""
        return self.driver.wait(self.lock_async(address, length, mode))

    def unlock(self, ctx: LockContext) -> None:
        """Release a lock context."""
        self.driver.wait(self.submit(self.daemon.op_unlock(ctx), "unlock"))

    def read(self, ctx: LockContext, address: int, length: int) -> bytes:
        """Read bytes under a lock context.

        RAM-resident reads complete synchronously on the daemon's fast
        path; anything else (cold page, probe active, odd arguments)
        submits the full protocol task.
        """
        fast = self.daemon.read_fast(ctx, address, length)
        if fast is not None:
            return fast
        return self.driver.wait(
            self.submit(
                self.daemon.op_read(ctx, AddressRange(address, length)),
                "read",
            )
        )

    def write(self, ctx: LockContext, address: int, data: bytes) -> None:
        """Write bytes under a lock context.

        Mirrors :meth:`read`: writes that only touch RAM-resident (or
        fully overwritten) pages run synchronously, others take the
        protocol path.
        """
        if self.daemon.write_fast(ctx, address, data):
            return
        self.driver.wait(
            self.submit(
                self.daemon.op_write(
                    ctx, AddressRange(address, len(data)), data
                ),
                "write",
            )
        )

    def resize(self, rid: int, new_size: int) -> RegionDescriptor:
        """Grow or shrink a region in place (Section 4.1's alternative
        layout: "resize the region whenever the file size changes")."""
        return self.driver.wait(
            self.submit(
                self.daemon.op_resize_region(rid, new_size), "resize"
            )
        )

    def migrate(self, rid: int, new_home: int) -> RegionDescriptor:
        """Move a region's primary home to another node."""
        return self.driver.wait(
            self.submit(
                self.daemon.op_migrate_region(rid, new_home), "migrate"
            )
        )

    def get_attributes(self, rid: int) -> RegionAttributes:
        """Fetch a region's attributes."""
        return self.driver.wait(
            self.submit(self.daemon.op_get_attributes(rid), "get_attrs")
        )

    def set_attributes(self, rid: int, attrs: RegionAttributes) -> RegionDescriptor:
        """Replace a region's attributes (requires admin rights)."""
        return self.driver.wait(
            self.submit(
                self.daemon.op_set_attributes(rid, attrs, self.principal),
                "set_attrs",
            )
        )

    # --- Convenience ---------------------------------------------------------

    def map(self, address: int, length: int, mode: LockMode) -> MappedRange:
        """Lock a range and return an offset-addressed view of it."""
        return MappedRange(self, self.lock(address, length, mode))

    def read_at(self, address: int, length: int) -> bytes:
        """One-shot locked read of a range (one protocol task)."""
        return self.driver.wait(self.submit(
            self._one_shot(AddressRange(address, length), None), "read_at"
        ))

    def write_at(self, address: int, data: bytes) -> None:
        """One-shot locked write of a range (one protocol task)."""
        self.driver.wait(self.submit(
            self._one_shot(AddressRange(address, len(data)), data), "write_at"
        ))

    def _one_shot(self, target: AddressRange,
                  data: Optional[bytes]) -> Generator:
        """Lock, read (``data`` None) or write, unlock: the caller waits
        once instead of once per step."""
        mode = LockMode.READ if data is None else LockMode.WRITE
        ctx = yield from self.daemon.op_lock(target, mode, self.principal)
        try:
            if data is None:
                return (yield from self.daemon.op_read(ctx, target))
            return (yield from self.daemon.op_write(ctx, target, data))
        finally:
            yield from self.daemon.op_unlock(ctx)
