"""Shared replica-update install path.

Release, eventual, and mobile all apply pushed updates to replica
sites the same way: never under an open local lock context (defer
until unlocked), re-check the version at apply time, record it on the
page's directory entry, then store the bytes in a background task.
Only the version key and its floor differ per protocol.  The
home-centred protocols (release, eventual) also share the whole
non-primary side of an ``UPDATE_PUSH`` (:func:`absorb_replica_push`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.page_directory import Version
from repro.core.region import RegionDescriptor
from repro.net.message import Message

ProtocolGen = Any   # Generator[Future, Any, Any]


def install_replica_update(
    cm: Any,
    desc: RegionDescriptor,
    page_addr: int,
    data: bytes,
    version: Version,
    floor: Version,
    *,
    require_resident: bool = True,
    op: str = "replica-store",
    src: Optional[int] = None,
    on_stored: Optional[Callable[[], None]] = None,
) -> None:
    """Apply a propagated update to the local replica of ``page_addr``.

    The update lands only if ``version`` beats the page's recorded
    version (``floor`` when it has none), re-checked at apply time: the
    local copy may have advanced while the update waited out a lock
    context.  The version and the time are recorded on the page's
    directory entry (and, given the sender ``src``, reported to the
    probe) before the store task runs; ``on_stored()`` runs after the
    bytes land.  With ``require_resident`` (the home-centred
    protocols), pages this node no longer replicates are ignored.
    """
    host = cm.host

    def apply() -> None:
        if version <= host.page_directory.version_of(page_addr, floor):
            return   # stale push, already newer locally
        if require_resident and not host.storage.contains(page_addr):
            return   # we no longer replicate this page; ignore
        entry = host.page_directory.ensure(
            page_addr, desc.rid, homed=host.node_id in desc.home_nodes)
        entry.version = version
        entry.refreshed_at = host.now
        if src is not None and host.probe.enabled:
            host.probe.remote_update(host.node_id, page_addr, src,
                                     desc.attrs.protocol)

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
    key: Callable[[Dict[str, Any]], Version],
    floor: Version,
) -> None:
    """An ``UPDATE_PUSH`` at a node that is not the region's primary.

    A request is a writer's push that reached this node through home
    failover: NAK it so the failover moves on.  A one-way push is the
    home's fan-out: install each update whose ``key(update)`` beats
    the page's recorded version (``floor`` when it has none).
    """
    if msg.request_id is not None:
        cm.engine.nak(msg, "not_responsible",
                      "update push needs the primary home")
        return
    for update in msg.payload["updates"]:
        if update.get("data") is not None:
            install_replica_update(cm, desc, int(update["page"]),
                                   update["data"], key(update), floor)
