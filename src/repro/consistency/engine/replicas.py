"""Shared replica-update install path.

Release, eventual, and mobile all apply pushed updates to replica
sites the same way: never under an open local lock context (defer
until unlocked), re-check recency at apply time, record the new
version/stamp, then store the bytes in a background task.  Only the
recency rule and the bookkeeping differ per protocol, so they arrive
as callbacks.  The home-centred protocols (release, eventual) also
share the whole non-primary side of an ``UPDATE_PUSH``
(:func:`absorb_replica_push`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.region import RegionDescriptor
from repro.net.message import Message

ProtocolGen = Any   # Generator[Future, Any, Any]


def install_replica_update(
    cm: Any,
    desc: RegionDescriptor,
    page_addr: int,
    data: bytes,
    *,
    fresh: Callable[[], bool],
    commit: Callable[[], None],
    require_resident: bool = True,
    op: str = "replica-store",
    on_stored: Optional[Callable[[], None]] = None,
) -> None:
    """Apply a propagated update to the local replica of ``page_addr``.

    ``fresh()`` re-checks recency at apply time (the local copy may
    have advanced while the update waited out a lock context);
    ``commit()`` records the new version/stamp before the store task
    runs; ``on_stored()`` runs after the bytes land.  With
    ``require_resident`` (the home-centred protocols), pages this node
    no longer replicates are ignored.
    """
    host = cm.host

    def apply() -> None:
        if not fresh():
            return   # stale push, already newer locally
        if require_resident and not host.storage.contains(page_addr):
            return   # we no longer replicate this page; ignore
        commit()

        def store() -> ProtocolGen:
            yield from host.store_local_page(
                desc, page_addr, data, dirty=False
            )
            if on_stored is not None:
                on_stored()

        cm.engine.spawn(store(), op)

    if host.lock_table.page_locked(page_addr):
        # Never change a page under an open local context.
        cm.defer_until_unlocked(page_addr, apply)
    else:
        apply()


def absorb_replica_push(
    cm: Any,
    desc: RegionDescriptor,
    msg: Message,
    versions: Dict[int, Any],
    key: Callable[[Dict[str, Any]], Any],
    floor: Any,
    refreshed: Optional[Dict[int, float]] = None,
) -> None:
    """An ``UPDATE_PUSH`` at a node that is not the region's primary.

    A request is a writer's push that reached this node through home
    failover: NAK it so the failover moves on.  A one-way push is the
    home's fan-out: install each update whose ``key(update)`` beats
    ``versions[page]`` (``floor`` when unknown), recording the version
    and, with ``refreshed``, the time.
    """
    if msg.request_id is not None:
        cm.engine.nak(msg, "not_responsible",
                      "update push needs the primary home")
        return

    def absorb(page_addr: int, data: bytes, version: Any) -> None:
        def commit() -> None:
            versions[page_addr] = version
            if refreshed is not None:
                refreshed[page_addr] = cm.host.now

        install_replica_update(
            cm, desc, page_addr, data,
            fresh=lambda: version > versions.get(page_addr, floor),
            commit=commit,
        )

    for update in msg.payload["updates"]:
        if update.get("data") is not None:
            absorb(int(update["page"]), update["data"], key(update))
