"""Background retry of release-type operations.

"All errors encountered while acquiring resources (e.g., reserve,
allocate, lock, read, write) are reflected back to the original
client, while errors encountered while releasing resources (unreserve,
deallocate, unlock) are not.  Instead, the Khazana system keeps trying
the operation in the background until it succeeds." (paper Section 3.5)

The queue holds *factories* of protocol generators; each attempt gets
a fresh generator.  Failed attempts are rescheduled with exponential
backoff up to a cap, forever (the paper gives no give-up bound, and
neither do we — a permanently failed release op keeps a queue slot,
visible through :attr:`pending`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List

from repro.net.clock import EventScheduler
from repro.net.tasks import Future

GenFactory = Callable[[], Generator[Future, Any, Any]]

INITIAL_BACKOFF = 0.5
MAX_BACKOFF = 30.0


@dataclass
class _RetryItem:
    factory: GenFactory
    label: str
    attempts: int = 0
    backoff: float = INITIAL_BACKOFF


@dataclass
class RetryStats:
    enqueued: int = 0
    succeeded: int = 0
    failed_attempts: int = 0


class RetryQueue:
    """Retries release-type operations until they succeed."""

    def __init__(
        self,
        scheduler: EventScheduler,
        spawn: Callable[[Generator, str], Future],
    ) -> None:
        self._scheduler = scheduler
        self._spawn = spawn
        self._items: Dict[int, _RetryItem] = {}
        self._next_id = 0
        self.stats = RetryStats()

    @property
    def pending(self) -> int:
        """Operations still awaiting a successful attempt."""
        return len(self._items)

    def labels(self) -> List[str]:
        return sorted(item.label for item in self._items.values())

    def enqueue(self, factory: GenFactory, label: str = "release-op") -> int:
        """Add an operation; the first attempt runs on the next tick."""
        item_id = self._next_id
        self._next_id += 1
        item = _RetryItem(factory=factory, label=label)
        self._items[item_id] = item
        self.stats.enqueued += 1
        self._scheduler.call_soon(lambda: self._attempt(item_id),
                                  label=f"retry-first:{label}")
        return item_id

    def cancel(self, item_id: int) -> bool:
        return self._items.pop(item_id, None) is not None

    def clear(self) -> None:
        """Drop every item; attempts in flight are not rescheduled."""
        self._items.clear()

    def _attempt(self, item_id: int) -> None:
        item = self._items.get(item_id)
        if item is None:
            return
        item.attempts += 1
        outcome = self._spawn(item.factory(), f"retry:{item.label}")
        outcome.add_callback(lambda f: self._on_done(item_id, f))

    def _on_done(self, item_id: int, outcome: Future) -> None:
        item = self._items.get(item_id)
        if item is None:
            return
        if outcome.exception() is None:
            del self._items[item_id]
            self.stats.succeeded += 1
            return
        self.stats.failed_attempts += 1
        delay = item.backoff
        item.backoff = min(item.backoff * 2.0, MAX_BACKOFF)
        self._scheduler.call_later(delay, lambda: self._attempt(item_id),
                                   label=f"retry-backoff:{item.label}")
