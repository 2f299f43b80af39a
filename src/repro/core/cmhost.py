"""The CMHost contract: the node surface consistency managers may use.

The paper treats consistency managers as plug-in modules: "Program
modules called Consistency Managers (CMs) run at each of the replica
sites and cooperate to implement the required level of consistency
among the replicas" (Section 3.3), and "plugging in new protocols or
consistency managers is only a matter of registering them with
Khazana" (Section 5).  Plugging in stays cheap only while the surface
a CM programs against is narrow and named — this module *is* that
surface.

A :class:`~repro.core.kernel.NodeKernel` implements this protocol;
:class:`~repro.consistency.manager.ConsistencyManager` subclasses
receive their host typed as :class:`CMHost` and must not reach past
it.  Lint rule KHZ006 enforces the complement: outside ``repro/core``
no code may touch a ``_``-private attribute of a daemon/kernel/host
object.  Within the consistency layer the surface narrows once more:
KHZ007 forbids protocol *policy* modules from calling ``host.rpc`` or
``host.reply_*`` themselves — every wire interaction goes through a
:class:`~repro.consistency.engine.wire.ProtocolEngine` primitive, so
only the engine package uses this protocol's messaging rows directly.

The surface, by concern:

===================  ======================================================
identity/config      ``node_id``, ``config``, ``runtime``, ``now``,
                     ``probe``
messaging            ``rpc``, ``reply_request``, ``reply_error``
coherence state      ``page_directory``, ``lock_table``, ``storage``
page residency       ``local_page_bytes``, ``store_local_page``,
                     ``drop_local_page``
lock mediation       ``wait_local_conflicts``
task plumbing        ``spawn``, ``spawn_handler``, ``sleep``
failure handling     ``retry_queue``
===================  ======================================================
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Generator,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.net.tasks import Future

if TYPE_CHECKING:
    from repro.core.kernel import DaemonConfig
    from repro.core.locks import LockMode, LockTable
    from repro.core.page_directory import PageDirectory
    from repro.core.region import RegionDescriptor
    from repro.failure.retry import RetryQueue
    from repro.net.runtime import Runtime
    from repro.net.message import Message, MessageType
    from repro.net.rpc import RpcEndpoint
    from repro.storage.hierarchy import StorageHierarchy

ProtocolGen = Generator[Future, Any, Any]


@runtime_checkable
class CMHost(Protocol):
    """What a consistency manager's hosting node looks like."""

    # --- Identity and configuration ------------------------------------
    node_id: int
    config: "DaemonConfig"
    #: The backend seam (clock/timers/transport/cost model); CM policy
    #: code never schedules on it directly (KHZ008) — it reads the
    #: clock via :attr:`now` and sleeps via :meth:`sleep`; modelled
    #: storage cost is spent for it by the page-residency methods.
    runtime: "Runtime"
    #: Race-detector probe (``NULL_PROBE`` when detection is off);
    #: call sites guard on ``probe.enabled``.
    probe: Any

    @property
    def now(self) -> float:
        """The node's clock (virtual or wall seconds, per backend)."""
        ...

    # --- Messaging -------------------------------------------------------
    rpc: "RpcEndpoint"

    def reply_request(self, msg: "Message", msg_type: "MessageType",
                      payload: Optional[dict] = None) -> None:
        """Send (and cache, for duplicate suppression) a reply."""
        ...

    def reply_error(self, msg: "Message", code: str, detail: str = "") -> None:
        """NAK a request with a wire-codable error."""
        ...

    # --- Placement -------------------------------------------------------
    def home_order(self, desc: "RegionDescriptor") -> list:
        """Candidate order for ordered home failover: the placement
        strategy's view of where the region's home is (or moved to),
        starting from the descriptor's own home list."""
        ...

    # --- Coherence state -------------------------------------------------
    page_directory: "PageDirectory"
    lock_table: "LockTable"
    storage: "StorageHierarchy"

    # --- Page residency --------------------------------------------------
    def local_page_bytes(self, desc: "RegionDescriptor",
                         page_addr: int) -> ProtocolGen:
        """Bytes of a locally stored page (None when not resident)."""
        ...

    def store_local_page(self, desc: "RegionDescriptor", page_addr: int,
                         data: bytes, dirty: bool) -> ProtocolGen:
        """Cache page bytes locally, charging modelled I/O cost."""
        ...

    def drop_local_page(self, page_addr: int) -> None:
        """Discard the local copy of a page."""
        ...

    # --- Lock mediation --------------------------------------------------
    def wait_local_conflicts(self, page_addr: int,
                             mode: "LockMode") -> ProtocolGen:
        """Block until no live local context conflicts with ``mode``."""
        ...

    # --- Task plumbing ---------------------------------------------------
    def spawn(self, task: ProtocolGen, label: str = "task") -> Future:
        ...

    def spawn_handler(self, msg: "Message", task: ProtocolGen,
                      label: str = "handler") -> None:
        ...

    def sleep(self, seconds: float) -> Future:
        """A future resolving after ``seconds`` on the runtime clock."""
        ...

    # --- Failure handling ------------------------------------------------
    retry_queue: "RetryQueue"
