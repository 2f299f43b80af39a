"""Consistency manager framework and protocol registry.

The CM sits between the daemon's lock machinery and its peers: "A
Khazana node treats lock requests on an object as indications of
intent to access the object in the specified mode ... It obtains the
local consistency manager's permission before granting such requests.
The CM, in response to such requests, checks if they conflict with
ongoing operations.  If necessary, it delays granting the locks until
the conflict is resolved." (paper Section 3.3)

A CM instance exists per (daemon, protocol).  All methods that may
need remote communication are protocol generators (they yield
Futures and are driven by the daemon's task runner).

Every CM owns a :class:`~repro.consistency.engine.ProtocolEngine`
(``self.engine``): the shared mechanism layer that carries all wire
traffic, home-side transactions, token bookkeeping, and page lists.
Policy modules never touch ``host.rpc`` / ``host.reply_*`` directly
(lint rule KHZ007).
"""

from __future__ import annotations

import abc
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Mapping, Tuple, Type)

from repro.consistency.engine import (
    KeyedMutex,
    LocalPageState,
    PageEvent,
    PageStateMachine,
    ProtocolEngine,
)
from repro.core.errors import ProtocolUnknown
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.tasks import Future

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

ProtocolGen = Generator[Future, Any, Any]

__all__ = [
    "ConsistencyManager",
    "KeyedMutex",
    "LocalPageState",
    "ProtocolGen",
    "available_protocols",
    "create_manager",
    "register_protocol",
]


class ConsistencyManager(abc.ABC):
    """Base class for consistency protocols.

    ``host`` is the hosting node, seen only through the
    :class:`~repro.core.cmhost.CMHost` protocol — the RPC endpoint,
    page directory, lock table, storage hierarchy, and the reply /
    residency / conflict-wait helpers it names.  Subclasses implement
    the client-side path — :meth:`acquire` (one page, in place),
    :meth:`acquire_remote` (the rest of the range, one request per
    home), :meth:`release_many` — and the home/replica-side message
    handlers, reaching the wire only through ``self.engine``.
    """

    #: Registry name; subclasses must override.
    protocol_name = ""

    #: The protocol's page-state transition table: which
    #: :class:`PageEvent` moves a page into which
    #: :class:`LocalPageState`.  Subclasses declare theirs.
    TRANSITIONS: Mapping[PageEvent, LocalPageState] = {}

    def __init__(self, host: "CMHost") -> None:
        self.host = host
        #: Local validity of cached pages under this protocol.
        self.page_state: Dict[int, LocalPageState] = {}
        #: The explicit transition machine over ``page_state``.
        self.pages = PageStateMachine(self.page_state, self.TRANSITIONS,
                                      label=self.protocol_name)
        #: Shared mechanism: wire, home transactions, tokens, page lists.
        self.engine = ProtocolEngine(self)
        #: Remote invalidations deferred because a local lock context
        #: still covers the page; drained by :meth:`notify_unlocked`.
        self._deferred: Dict[int, List[Callable[[], None]]] = {}

    # --- Client-side path: one lock range, any number of pages ---------

    @abc.abstractmethod
    def acquire(
        self,
        desc: RegionDescriptor,
        page_addr: int,
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """Serve one page of a lock range in place, if this node can.

        Runs after local lock-table conflicts on the page have cleared.
        Resolves to True when the page is now resident locally with
        sufficient rights (a valid local copy, a grant this node makes
        as the page's home, a copy read straight from its owner);
        False hands the page to :meth:`acquire_remote`.
        """

    @abc.abstractmethod
    def acquire_remote(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        mode: LockMode,
        ctx: LockContext,
    ) -> ProtocolGen:
        """Acquire the pages :meth:`acquire` could not serve in place:
        one request per home (or peer) carrying them all.  On return
        every page must be resident locally with sufficient rights."""

    def acquire_many(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        mode: LockMode,
        ctx: LockContext,
        note_acquired: Callable[[int], None],
    ) -> ProtocolGen:
        """Acquire every page of a lock range for one context.

        One path for any number of pages (one page is a list of one):
        each page waits out local conflicts and gets :meth:`acquire`;
        the pages it could not serve go to :meth:`acquire_remote`
        together.  ``note_acquired(page)`` is invoked the moment a
        page's acquisition is final: the daemon registers the page in
        its lock table there, and rolls exactly the noted pages back if
        the rest of the range fails (no page stays pinned after a
        partial failure).

        At the region's primary home the in-place work is real —
        grants, local loads — and READ acquisitions of distinct pages
        are mutually independent, so they run through the engine's
        request pipeline instead of awaiting each page serially;
        elsewhere a READ page is served by a local check (or CREW's
        owner read) that is cheaper run in line than spawned.
        Write-intent modes stay strictly serial: write tokens are taken
        in ascending page order, which is what keeps concurrent
        multi-page lockers deadlock-free.
        """
        def acquire_one(page_addr: int) -> ProtocolGen:
            yield from self.host.wait_local_conflicts(page_addr, mode)
            served = yield from self.acquire(desc, page_addr, mode, ctx)
            if served:
                # Pin immediately: an unpinned-but-acquired page would
                # be a victimization candidate while its siblings are
                # still in flight.
                note_acquired(page_addr)
            return served

        remote: List[int] = []
        if (mode is LockMode.READ and len(pages) > 1
                and self.host.node_id == desc.primary_home):
            settled = yield from self.engine.pipeline(
                [acquire_one(page_addr) for page_addr in pages],
                op="acquire-pipeline",
            )
            for page_addr, (ok, value) in zip(pages, settled):
                if not ok:
                    raise value
                if not value:
                    remote.append(page_addr)
        else:
            for page_addr in pages:
                served = yield from acquire_one(page_addr)
                if not served:
                    remote.append(page_addr)
        if remote:
            yield from self.acquire_remote(desc, remote, mode, ctx)
            for page_addr in remote:
                note_acquired(page_addr)

    @abc.abstractmethod
    def release_many(
        self,
        desc: RegionDescriptor,
        pages: List[int],
        ctx: LockContext,
    ) -> ProtocolGen:
        """Protocol work when a context unlocks (push updates, drop
        tokens) for every page it covered, in one request per home.
        Release-type: never raises — a push that cannot land is retried
        in the background (paper 3.5)."""

    def dirty_copies(self, pages: List[int],
                     ctx: LockContext) -> List[Tuple[int, Any]]:
        """``(page, stored copy)`` for each of ``pages`` that ``ctx``
        wrote and this node still stores: what an unlock pushes."""
        stored = [(page_addr, self.host.storage.peek(page_addr))
                  for page_addr in pages if page_addr in ctx.dirty_pages]
        return [(page_addr, page) for page_addr, page in stored
                if page is not None]

    def release(
        self,
        desc: RegionDescriptor,
        page_addr: int,
        ctx: LockContext,
    ) -> ProtocolGen:
        """Release one page of a context: the unit of work the data
        plane hands the background retry queue, page by page, should a
        whole-context :meth:`release_many` fail outright."""
        yield from self.release_many(desc, [page_addr], ctx)

    def evict(
        self, desc: RegionDescriptor, page_addr: int, data: bytes, dirty: bool
    ) -> ProtocolGen:
        """Before the local copy leaves this node entirely: push dirty
        contents home (:meth:`evict_update`) and unregister from the
        copyset."""
        home = desc.primary_home
        if home == self.host.node_id:
            return
        if dirty:
            yield self.engine.request(
                home,
                MessageType.UPDATE_PUSH,
                {"rid": desc.rid,
                 "updates": [self.evict_update(page_addr, data)]},
            )
        self.engine.send(
            home,
            MessageType.SHARER_UNREGISTER,
            {"rid": desc.rid, "page": page_addr},
        )
        self.pages.drop(page_addr)

    def evict_update(self, page_addr: int, data: bytes) -> Dict[str, Any]:
        """The update item an evicting node pushes home."""
        return {"page": page_addr, "data": data, "release_token": False}

    # --- Deferred-conflict machinery ---------------------------------------

    def defer_until_unlocked(self, page_addr: int,
                             action: Callable[[], None]) -> None:
        """Queue ``action`` to run once no local context covers the page
        ("it delays granting the locks until the conflict is
        resolved")."""
        self._deferred.setdefault(page_addr, []).append(action)

    def notify_unlocked(self, page_addr: int) -> None:
        """Called by the daemon whenever a lock context covering
        ``page_addr`` is released; drains deferred actions if the page
        is now free of conflicting contexts."""
        if self.host.lock_table.page_locked(page_addr):
            return
        actions = self._deferred.pop(page_addr, None)
        if not actions:
            return
        for action in actions:
            action()

    # --- Access control -------------------------------------------------------

    def primary_only(self, desc: RegionDescriptor, msg: Message) -> bool:
        """True at the region's primary home; elsewhere NAK the request
        ``not_responsible`` so home failover moves on."""
        if self.host.node_id == desc.primary_home:
            return True
        self.engine.nak(msg, "not_responsible",
                        f"node {self.host.node_id} is not the "
                        f"primary home of region {desc.rid:#x}")
        return False

    def check_remote_access(self, desc: RegionDescriptor, msg: Message,
                            mode: LockMode) -> bool:
        """Home-side ACL enforcement for remote lock/fetch requests.

        The requesting daemon already checked its (possibly stale)
        cached descriptor; the home re-checks against the
        authoritative one — "Khazana checks the region's access
        permissions" (paper 3.2).  NAKs and returns False on denial.
        Requests without a principal (inter-daemon maintenance
        traffic) pass as the system principal.
        """
        from repro.core.security import Right, SYSTEM_PRINCIPAL

        principal = msg.payload.get("principal", SYSTEM_PRINCIPAL)
        needed = Right.WRITE if mode.is_write else Right.READ
        if desc.attrs.acl.allows(principal, needed):
            return True
        self.engine.nak(
            msg, "access_denied",
            f"principal {principal!r} lacks {needed} on region "
            f"{desc.rid:#x}",
        )
        return False

    # --- Home/replica-side message handlers --------------------------------
    # Default implementations NAK; protocols override what they use.

    def handle_lock_request(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.nak(msg, "unhandled", "lock_request")

    def handle_page_fetch(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.nak(msg, "unhandled", "page_fetch")

    def handle_invalidate(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.nak(msg, "unhandled", "invalidate")

    def handle_update(self, desc: RegionDescriptor, msg: Message) -> None:
        self.engine.nak(msg, "unhandled", "update_push")

    def handle_sharer_register(self, desc: RegionDescriptor, msg: Message) -> None:
        entry = self.host.page_directory.ensure(
            msg.payload["page"], desc.rid, homed=True
        )
        # An owner serving a direct read registers the *requester* as
        # the new sharer (Figure 2 steps 7-9); without an explicit
        # field, the sender registers itself.
        entry.record_sharer(int(msg.payload.get("sharer", msg.src)))
        if msg.request_id is not None:
            self.engine.reply(msg, MessageType.UPDATE_ACK, {})

    def handle_sharer_unregister(self, desc: RegionDescriptor, msg: Message) -> None:
        entry = self.host.page_directory.get(msg.payload["page"])
        if entry is not None:
            entry.forget_sharer(msg.src)

    def on_node_failure(self, node_id: int) -> None:
        """A peer was declared dead; drop protocol state involving it:
        by default, every copyset and owner entry naming it."""
        self.host.page_directory.forget_node(node_id)

    # --- Periodic work --------------------------------------------------------

    def tick(self) -> None:
        """Called on the daemon's housekeeping timer (anti-entropy etc.)."""


# --- Protocol registry -----------------------------------------------------

_REGISTRY: Dict[str, Type[ConsistencyManager]] = {}


def register_protocol(cls: Type[ConsistencyManager]) -> Type[ConsistencyManager]:
    """Register a CM class under its ``protocol_name``.

    Usable as a class decorator.  Re-registration under the same name
    replaces the previous class (handy for tests plugging variants).
    """
    if not cls.protocol_name:
        raise ValueError(f"{cls.__name__} must define protocol_name")  # khz: allow-foreign-exception(import-time registration bug in the CM author's code, not a client-facing protocol failure)
    _REGISTRY[cls.protocol_name] = cls
    return cls


def create_manager(name: str, host: Any) -> ConsistencyManager:
    """Instantiate the CM registered under ``name`` for ``host``."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ProtocolUnknown(
            f"no consistency protocol registered under {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        )
    return cls(host)


def available_protocols() -> List[str]:
    return sorted(_REGISTRY)
