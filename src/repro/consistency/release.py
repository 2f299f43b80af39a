"""Release consistency.

"For example, for the address map tree nodes, we use a release
consistent protocol" (paper Section 3.3, citing Gharachorloo et al.).
In the DSM tradition the authors come from (Munin/TreadMarks):

a *read* lock is satisfied from any local replica, however stale; a
*write* lock acquires a per-page write token from the home node (which
also supplies the latest contents, so writers serialize); a
*write-shared* lock takes no token — concurrent writers keep a twin
and push byte-range diffs at release, which the home merges.  At
*release*, dirty data goes to the home, which bumps the page version
and propagates the update to every registered replica site (3.3);
updates arriving under an open local context are deferred until that
context is released.

The write tokens live in the engine's
:class:`~repro.consistency.engine.CopysetLedger` (probe ordering +
conservation invariant); twins/diffs in :mod:`repro.consistency.diffs`.
"""

from __future__ import annotations

import logging

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.consistency.diffs import TwinStore, apply_diff, compute_diff
from repro.consistency.engine import PageEvent, install_replica_update
from repro.consistency.manager import (
    ConsistencyManager,
    LocalPageState,
    ProtocolGen,
    register_protocol,
)
from repro.core.errors import KhazanaError
from repro.core.locks import LockContext, LockMode
from repro.core.region import RegionDescriptor
from repro.net.message import Message, MessageType
from repro.net.rpc import RetryPolicy

if TYPE_CHECKING:
    from repro.core.cmhost import CMHost

TOKEN_POLICY = RetryPolicy(timeout=10.0, retries=2, backoff=1.5)

logger = logging.getLogger(__name__)

__all__ = ["ReleaseManager", "TOKEN_POLICY", "apply_diff", "compute_diff"]


@register_protocol
class ReleaseManager(ConsistencyManager):
    """Consistency manager implementing release consistency."""

    protocol_name = "release"

    #: Replicas are SHARED (stale reads allowed); the write token is
    #: EXCLUSIVE.  Pushed updates refresh replicas, never invalidate.
    TRANSITIONS = {
        PageEvent.READ_FILL: LocalPageState.SHARED,
        PageEvent.WRITE_GRANT: LocalPageState.EXCLUSIVE,
    }

    def __init__(self, host: "CMHost") -> None:
        super().__init__(host)
        self._versions: Dict[int, int] = {}   # page -> version (home: authoritative)
        self._twins = TwinStore()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def acquire(self, desc: RegionDescriptor, page_addr: int,
                mode: LockMode, ctx: LockContext) -> ProtocolGen:
        """In place: any local replica satisfies a read; the primary
        home takes its own write token; a write-shared lock twins a
        copy it already holds (the home always does)."""
        home = self.host.node_id == desc.primary_home
        if mode is LockMode.READ:
            if self.host.storage.contains(page_addr):
                return True   # any replica satisfies a read acquire
            if not home:
                return False
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is None:
                raise KhazanaError(
                    f"home lost page {page_addr:#x} of region {desc.rid:#x}"
                )
            return True
        if mode is LockMode.WRITE:
            if not home:
                return False
            yield self.engine.ledger.acquire(page_addr)
            data = yield from self.host.local_page_bytes(desc, page_addr)
            if data is None:
                self.engine.ledger.abort(page_addr)
                raise KhazanaError(f"home lost page {page_addr:#x}")
            self.engine.ledger.grant(page_addr, self.host.node_id)
            self.pages.fire(page_addr, PageEvent.WRITE_GRANT)
            return True
        # WRITE_SHARED: no token; remember a twin for diffing.
        if not (home or self.host.storage.contains(page_addr)):
            return False
        yield from self._twin(desc, page_addr, ctx)
        return True

    def acquire_remote(self, desc: RegionDescriptor, pages: List[int],
                       mode: LockMode, ctx: LockContext) -> ProtocolGen:
        """One request to the home: WRITE takes every page's token
        (the home grants all or none, so a denial leaves nothing to
        roll back remotely); READ and WRITE_SHARED fetch replicas."""
        if mode is LockMode.WRITE:
            reply = yield from self._home_request(
                desc, MessageType.LOCK_REQUEST,
                {"rid": desc.rid, "pages": list(pages),
                 "mode": LockMode.WRITE.value, "principal": ctx.principal},
            )
            yield from self._install_items(desc, reply,
                                           PageEvent.WRITE_GRANT)
            return
        reply = yield from self._home_request(
            desc, MessageType.PAGE_FETCH,
            {"rid": desc.rid, "pages": list(pages), "register": True,
             "principal": ctx.principal},
        )
        yield from self._install_items(desc, reply, PageEvent.READ_FILL)
        if mode is LockMode.WRITE_SHARED:
            for page_addr in pages:
                yield from self._twin(desc, page_addr, ctx)

    def _twin(self, desc: RegionDescriptor, page_addr: int,
              ctx: LockContext) -> ProtocolGen:
        data = yield from self.host.local_page_bytes(desc, page_addr)
        if data is None:
            raise KhazanaError(
                f"page {page_addr:#x} vanished during write-shared acquire"
            )
        self._twins.remember(ctx.ctx_id, page_addr, data)

    def _install_items(self, desc: RegionDescriptor, reply: Message,
                       event: PageEvent) -> ProtocolGen:
        """Store home-served pages locally and record their versions,
        then surface the reply's first per-page error."""
        for item in reply.payload["pages"]:
            page_addr = int(item["page"])
            yield from self.host.store_local_page(desc, page_addr,
                                                  item["data"], dirty=False)
            self._versions[page_addr] = item.get("version", 0)
            self.pages.fire(page_addr, event)
            entry = self.host.page_directory.ensure(page_addr, desc.rid,
                                                    homed=False)
            entry.allocated = True
        self.engine.raise_batch_errors(reply)

    def _home_request(self, desc: RegionDescriptor, msg_type: MessageType,
                      payload: Dict[str, Any]) -> ProtocolGen:
        return (yield from self.engine.request_home(
            desc, msg_type, payload, policy=TOKEN_POLICY,
            fail="no home node of region {rid:#x} answered: {error}",
        ))

    def release_many(self, desc: RegionDescriptor, pages: List[int],
                     ctx: LockContext) -> ProtocolGen:
        """Push dirty data and token releases to the primary home in
        one request; the home applies its own pages in place."""
        updates = []
        for page_addr in pages:
            update = self._release_update(desc, page_addr, ctx)
            if update is not None:
                updates.append(update)
        if not updates:
            return
        me = self.host.node_id
        if me != desc.primary_home:
            yield from self.engine.batch.push_updates(
                desc, updates, self._push_home, "release-token"
            )
            return
        settled = yield from self.engine.pipeline(
            [self._apply_pushed(desc, update, me) for update in updates],
            op="release-pipeline",
        )
        for update, (ok, _error) in zip(updates, settled):
            if not ok:
                # A token release must not be lost (3.5).
                logger.warning(
                    "node %d: home-local release of page %#x failed; "
                    "retrying in the background", me, update["page"],
                )
                self.host.retry_queue.enqueue(
                    lambda update=update: self._apply_pushed(desc, update,
                                                             me),
                    label=f"release-token:{update['page']:#x}",
                )

    def _push_home(self, desc: RegionDescriptor,
                   updates: List[Dict[str, Any]]) -> ProtocolGen:
        yield from self._home_request(
            desc, MessageType.UPDATE_PUSH,
            {"rid": desc.rid, "updates": updates},
        )

    def _release_update(self, desc: RegionDescriptor, page_addr: int,
                        ctx: LockContext) -> Optional[Dict[str, Any]]:
        """The per-page entry of an update push, or None."""
        if ctx.mode is LockMode.WRITE_SHARED:
            return self._twins.diff_update(self.host.storage, ctx.ctx_id,
                                           page_addr)
        self._twins.pop(ctx.ctx_id, page_addr)
        if ctx.mode is not LockMode.WRITE:
            return None
        update: Dict[str, Any] = {"page": page_addr, "release_token": True}
        if page_addr in ctx.dirty_pages:
            page = self.host.storage.peek(page_addr)
            if page is not None:
                update["data"] = page.data
        return update

    # ------------------------------------------------------------------
    # Home side
    # ------------------------------------------------------------------

    def _version_of(self, page_addr: int) -> Dict[str, Any]:
        return {"version": self._versions.get(page_addr, 0)}

    def handle_lock_request(self, desc: RegionDescriptor, msg: Message) -> None:
        if not self._primary_only(desc, msg):
            return
        if not self.check_remote_access(desc, msg, LockMode.WRITE):
            return
        # Ascending order everywhere → concurrent grants cannot
        # deadlock on each other's tokens.
        pages = sorted(int(p) for p in msg.payload["pages"])
        self.engine.serve_token_grants(desc, msg, pages, self._version_of,
                                       "grant")

    def handle_page_fetch(self, desc: RegionDescriptor, msg: Message) -> None:
        if not self.check_remote_access(desc, msg, LockMode.READ):
            return
        self.engine.batch.serve_fetch(desc, msg, self._version_of)

    def _primary_only(self, desc: RegionDescriptor, msg: Message) -> bool:
        if self.host.node_id == desc.primary_home:
            return True
        self.engine.nak(msg, "not_responsible", "not primary home")
        return False

    def _apply_pushed(self, desc: RegionDescriptor, update: Dict[str, Any],
                      writer: int) -> ProtocolGen:
        """One pushed update at the home, plus its token release."""
        page_addr = int(update["page"])
        yield from self._apply_update_at_home(
            desc, page_addr, diff=update.get("diff"),
            data=update.get("data"), writer=writer,
        )
        if update.get("release_token"):
            self.engine.ledger.release(page_addr, writer)

    def handle_update(self, desc: RegionDescriptor, msg: Message) -> None:
        updates = msg.payload["updates"]
        if self.host.node_id == desc.primary_home:
            def apply() -> ProtocolGen:
                for update in updates:
                    yield from self._apply_pushed(desc, update, msg.src)
                self.engine.reply(msg, MessageType.UPDATE_ACK, {})

            self.engine.spawn_handler(msg, apply(), "apply")
            return
        if msg.request_id is not None:
            # A writer's push landed here through the ordered
            # request_home failover while this node is not the primary.
            # Applying it as a replica update would drop the version
            # and leave the writer hanging for a reply; nak so the
            # failover moves on (or surfaces the real outage).
            self.engine.nak(msg, "not_responsible",
                            "update push needs the primary home")
            return
        # Replica side: a propagated (one-way) update from the home.
        for update in updates:
            self._apply_replica_update(desc, update)

    def _apply_update_at_home(
        self, desc: RegionDescriptor, page_addr: int,
        diff: Optional[List[Tuple[int, bytes]]],
        data: Optional[bytes], writer: int,
    ) -> ProtocolGen:
        if data is None and diff is not None:
            base = yield from self.host.local_page_bytes(desc, page_addr)
            if base is None:
                base = b"\x00" * desc.page_size
            data = apply_diff(base, [(int(o), bytes(d)) for o, d in diff])
        if data is None:
            return
        if writer == self.host.node_id and diff is None:
            # A home-local WRITE release carries the page op_write just
            # stored (and wrote through) here: do not write it twice.
            self.host.storage.mark_clean(page_addr)
        else:
            yield from self.host.store_local_page(desc, page_addr, data,
                                                  dirty=False)
        version = self._versions.get(page_addr, 0) + 1
        self._versions[page_addr] = version
        entry = self.host.page_directory.ensure(page_addr, desc.rid, homed=True)
        entry.allocated = True
        entry.version = version
        # Propagate to every replica site except the writer (one-way;
        # replicas that miss an update catch up at their next fetch).
        self.engine.fanout_update(
            entry,
            {"rid": desc.rid, "updates": [
                {"page": page_addr, "data": data, "version": version}]},
            exclude=(writer,),
        )

    def _apply_replica_update(self, desc: RegionDescriptor,
                              update: Dict[str, Any]) -> None:
        page_addr = int(update["page"])
        data = update.get("data")
        version = update.get("version", 0)
        if data is None:
            return

        def commit() -> None:
            self._versions[page_addr] = version

        install_replica_update(
            self, desc, page_addr, data,
            fresh=lambda: version > self._versions.get(page_addr, -1),
            commit=commit,
            op="replica-store",
        )

    def on_node_failure(self, node_id: int) -> None:
        self.host.page_directory.forget_node(node_id)
