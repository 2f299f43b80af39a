"""The Khazana daemon: one peer of the distributed service.

"The Khazana service is implemented by a dynamically changing set of
cooperating daemon processes running on some (not necessarily all)
machines of a potentially wide-area network.  Note that there is no
notion of a 'server' in a Khazana system — all Khazana nodes are peers
that cooperate to provide the illusion of a unified resource."
(paper Section 2)

:class:`KhazanaDaemon` is the client-facing facade over the layered
node built by :class:`~repro.core.kernel.NodeKernel`:

- :class:`~repro.core.placement.PlacementStrategy` — region location
  (Section 3.2's chain: directory → cluster manager → address-map
  walk → cluster walk, or a rendezvous-hashed ring),
- :class:`~repro.core.space.SpaceService` — region lifecycle and
  address-space management (Section 3.1),
- :class:`~repro.core.dataplane.DataPlane` — lock/read/write and
  local page residency (Sections 3.3-3.4),
- :class:`~repro.core.router.MessageRouter` — wire dispatch through
  an interceptor chain (dedup, latency stats, trace, probes).

Consistency managers see the node only through the
:class:`~repro.core.cmhost.CMHost` protocol the kernel implements.
Client operations are implemented as protocol generators (see
:mod:`repro.net.tasks`); this facade simply routes each paper
Section 2 operation to the owning service.
"""

from __future__ import annotations

import logging

from typing import Any, Optional

from repro.core.address_map import SYSTEM_RID
from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes
from repro.core.kernel import (
    DaemonConfig,
    DaemonStats,
    NodeKernel,
    OpLatency,
    ProtocolGen,
)
from repro.core.locks import LockContext, LockMode
from repro.core.placement.base import LOOKUP_POLICY
from repro.core.region import RegionDescriptor
from repro.core.security import SYSTEM_PRINCIPAL

logger = logging.getLogger(__name__)

__all__ = [
    "DaemonConfig",
    "DaemonStats",
    "KhazanaDaemon",
    "LOOKUP_POLICY",
    "NodeKernel",
    "OpLatency",
    "ProtocolGen",
    "SYSTEM_RID",
]


class KhazanaDaemon(NodeKernel):
    """One Khazana peer: the paper's client API over the node services."""

    # --- Region location (paper Section 3.2) ---------------------------

    def locate_region(self, address: int,
                      skip_directory: bool = False) -> ProtocolGen:
        return self.location.locate_region(address,
                                           skip_directory=skip_directory)

    # --- Region lifecycle (paper Section 2's API) ----------------------

    def op_reserve(
        self,
        size: int,
        attrs: RegionAttributes,
        principal: str = SYSTEM_PRINCIPAL,
    ) -> ProtocolGen:
        return self.space.op_reserve(size, attrs, principal=principal)

    def op_unreserve(self, rid: int) -> ProtocolGen:
        return self.space.op_unreserve(rid)

    def op_allocate(self, rid: int,
                    subrange: Optional[AddressRange] = None) -> ProtocolGen:
        return self.space.op_allocate(rid, subrange)

    def op_free(self, rid: int, subrange: AddressRange) -> ProtocolGen:
        return self.space.op_free(rid, subrange)

    def op_resize_region(self, rid: int, new_size: int) -> ProtocolGen:
        return self.space.op_resize_region(rid, new_size)

    def op_migrate_region(self, rid: int, new_primary: int) -> ProtocolGen:
        return self.space.op_migrate_region(rid, new_primary)

    def migrate_region_local(self, desc: RegionDescriptor,
                             new_primary: int) -> ProtocolGen:
        return self.space.migrate_region_local(desc, new_primary)

    def push_region_to(self, desc: RegionDescriptor,
                       target: int) -> ProtocolGen:
        return self.space.push_region_to(desc, target)

    def op_get_attributes(self, rid: int) -> ProtocolGen:
        return self.space.op_get_attributes(rid)

    def op_set_attributes(self, rid: int, attrs: RegionAttributes,
                          principal: str = SYSTEM_PRINCIPAL) -> ProtocolGen:
        return self.space.op_set_attributes(rid, attrs, principal=principal)

    # --- Data plane (lock / read / write) ------------------------------

    def op_lock(
        self,
        target: AddressRange,
        mode: LockMode,
        principal: str = SYSTEM_PRINCIPAL,
    ) -> ProtocolGen:
        return self.data.op_lock(target, mode, principal=principal)

    def op_unlock(self, ctx: LockContext) -> ProtocolGen:
        return self.data.op_unlock(ctx)

    def op_read(self, ctx: LockContext, target: AddressRange) -> ProtocolGen:
        return self.data.op_read(ctx, target)

    def read_fast(self, ctx: LockContext, address: int, length: int) -> Any:
        """Synchronous read when every page is RAM-resident, else None."""
        return self.data.try_read_fast(ctx, address, length)

    def write_fast(self, ctx: LockContext, address: int, data: bytes) -> bool:
        """Synchronous write fast path; False means submit op_write."""
        return self.data.try_write_fast(ctx, address, data)

    def op_write(self, ctx: LockContext, target: AddressRange,
                 data: bytes) -> ProtocolGen:
        return self.data.op_write(ctx, target, data)
