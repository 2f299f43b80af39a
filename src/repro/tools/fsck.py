"""fsck for Khazana: verify the store's global invariants.

Checks performed against a (quiesced) cluster:

1. **Map partition** — the address-map tree's entries are disjoint,
   sorted, and jointly cover the entire 128-bit space; the tree is
   balanced: every page is reached once, every node's entries
   partition exactly its parent entry's range, and every leaf entry
   sits at one depth (:attr:`FsckReport.map_depth`).
2. **Reservation agreement** — every RESERVED map entry's home list
   names at least one node that actually homes the region, and every
   homed region appears in the map.
3. **Descriptor sanity** — homed descriptors are internally consistent
   (alignment, home membership) and agree across home nodes on the
   newest version.
4. **Copyset accuracy** — for CREW pages, every node listed in a home's
   copyset actually holds a copy (stale hints here cost correctness,
   unlike the lookup caches).
5. **Storage accounting** — every level's used-byte counter matches
   the sum of its resident pages.

With ``strict=True`` the pass additionally runs the quiesced-state
invariants from :mod:`repro.analysis.invariants` — pin balance,
replica floors, and directory/store agreement — which assume no lock
contexts are open and background repair has converged.

Run via :func:`check_cluster`; returns an :class:`FsckReport` whose
``ok`` property is the overall verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.analysis import invariants
from repro.core.address_map import (
    ROOT_PAGE,
    SYSTEM_RID,
    EntryState,
    MapNode,
)
from repro.core.addressing import MAX_ADDRESS, AddressRange


@dataclass
class FsckReport:
    """Findings from one fsck pass."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    checked_map_entries: int = 0
    checked_regions: int = 0
    checked_pages: int = 0
    #: Levels below the root at which every leaf entry sits.
    map_depth: Optional[int] = None
    #: Tree pages the root's bump allocator has handed out, and those
    #: the walk reached (informational: copy-on-split never reclaims
    #: a split page).
    map_pages_allocated: Optional[int] = None
    map_pages_reachable: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def render(self) -> str:
        lines = [
            f"fsck: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s); "
            f"{self.checked_map_entries} map entries "
            f"(depth {self.map_depth}), {self.map_pages_reachable} of "
            f"{self.map_pages_allocated} tree pages reachable, "
            f"{self.checked_regions} regions, "
            f"{self.checked_pages} pages checked"
        ]
        lines.extend(f"  ERROR: {e}" for e in self.errors)
        lines.extend(f"  warn:  {w}" for w in self.warnings)
        return "\n".join(lines)


def check_cluster(cluster, strict: bool = False) -> FsckReport:
    """Run every invariant check against ``cluster``.

    ``strict`` adds the quiesced-state invariants (pin balance,
    replica floors, directory/store agreement, token conservation);
    only use it when no lock contexts are open and repair has had
    time to converge.
    """
    report = FsckReport()
    entries = check_map_partition(cluster, report)
    _check_reservations(cluster, entries, report)
    _check_descriptors(cluster, report)
    _check_copysets(cluster, report)
    _check_storage_accounting(cluster, report)
    if strict:
        _check_strict_invariants(cluster, report)
    return report


def _check_strict_invariants(cluster, report: FsckReport) -> None:
    live = [
        cluster.daemon(node) for node in cluster.node_ids()
        if cluster.daemon(node).alive
    ]
    for problem in invariants.check_pin_balance(live):
        report.error(f"strict: {problem}")
    for problem in invariants.check_replica_floor(live):
        report.error(f"strict: {problem}")
    for problem in invariants.check_directory_store_agreement(live):
        report.error(f"strict: {problem}")
    for problem in invariants.check_token_ledgers(live):
        report.error(f"strict: {problem}")


def check_map_partition(cluster, report: FsckReport) -> List[Any]:
    """Walk the address-map tree directly from the bootstrap node's
    storage (fsck inspects state; it must not mutate it) and return its
    leaf entries.  Every page must be reached once, every node's
    entries must partition exactly the range its parent entry gives it
    (the root's is the whole space), and every leaf entry must sit at
    one depth."""
    bootstrap = cluster.daemon(0)
    entries: List[Any] = []
    depths: Set[int] = set()
    seen: Set[int] = set()

    def walk(page_addr: int, covers: AddressRange, depth: int) -> None:
        page = bootstrap.storage.peek(page_addr)
        if page_addr in seen or page is None:
            report.error(f"map page {page_addr:#x} is " + (
                "reached twice" if page_addr in seen else "missing"))
            return
        seen.add(page_addr)
        node = MapNode.decode(page.data)
        if page_addr == ROOT_PAGE and node.next_free_page is not None:
            report.map_pages_allocated = node.next_free_page // len(page.data)
        position = covers.start
        for entry in node.entries:
            if entry.range.start != position:
                break
            position = entry.range.end
        if position != covers.end:
            report.error(
                f"map page {page_addr:#x} does not partition exactly "
                f"[{covers.start:#x}, {covers.end:#x}) (breaks at "
                f"{position:#x})"
            )
        for entry in node.entries:
            if entry.state is EntryState.SUBTREE:
                walk(entry.child_page, entry.range, depth + 1)
            else:
                entries.append(entry)
                depths.add(depth)

    walk(ROOT_PAGE, AddressRange.from_bounds(0, MAX_ADDRESS + 1), 0)
    if len(depths) > 1:
        report.error(f"map leaves sit at depths {sorted(depths)}, not one")
    report.map_depth = max(depths, default=None)
    report.map_pages_reachable = len(seen)
    report.checked_map_entries = len(entries)
    return entries


def _check_reservations(cluster, entries: List[Any],
                        report: FsckReport) -> None:
    reserved = {
        e.range.start: e for e in entries if e.state is EntryState.RESERVED
    }
    homed_anywhere = {}
    for node in cluster.node_ids():
        for rid, desc in cluster.daemon(node).homed_regions.items():
            homed_anywhere.setdefault(rid, set()).add(node)

    for rid, entry in reserved.items():
        if rid == SYSTEM_RID:
            continue
        report.checked_regions += 1
        homes_alive = [
            n for n in entry.home_nodes
            if n in cluster.node_ids() and cluster.daemon(n).alive
        ]
        actual = homed_anywhere.get(rid, set())
        if not actual:
            report.warn(
                f"region {rid:#x} is in the map (homes {entry.home_nodes}) "
                "but no live node homes it"
            )
        elif not (set(entry.home_nodes) & actual):
            # The map may lag after failover/migration: stale but fixable.
            report.warn(
                f"region {rid:#x}: map homes {entry.home_nodes} disjoint "
                f"from actual homes {sorted(actual)} (stale map entry)"
            )

    for rid in homed_anywhere:
        if rid != SYSTEM_RID and rid not in reserved:
            report.error(
                f"region {rid:#x} is homed on {sorted(homed_anywhere[rid])} "
                "but missing from the address map"
            )


def _check_descriptors(cluster, report: FsckReport) -> None:
    by_rid = {}
    for node in cluster.node_ids():
        for rid, desc in cluster.daemon(node).homed_regions.items():
            by_rid.setdefault(rid, []).append((node, desc))
    for rid, copies in by_rid.items():
        newest = max(desc.version for _n, desc in copies)
        for node, desc in copies:
            if node not in desc.home_nodes:
                report.error(
                    f"node {node} homes region {rid:#x} but is not in its "
                    f"own descriptor's home list {desc.home_nodes}"
                )
            if desc.range.start % desc.attrs.page_size != 0:
                report.error(f"region {rid:#x} misaligned at node {node}")
            if desc.version < newest:
                report.warn(
                    f"node {node} holds version {desc.version} of region "
                    f"{rid:#x}; newest seen is {newest}"
                )


def _check_copysets(cluster, report: FsckReport) -> None:
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        for entry in daemon.page_directory.homed_entries():
            if entry.rid == SYSTEM_RID:
                continue
            report.checked_pages += 1
            for sharer in entry.sharers:
                if sharer == node and entry.allocated:
                    # The home's own copy may be a lazily materialised
                    # zero page; it can always produce it.
                    continue
                if sharer not in cluster.node_ids():
                    report.error(
                        f"page {entry.address:#x}: copyset names unknown "
                        f"node {sharer}"
                    )
                    continue
                peer = cluster.daemon(sharer)
                if not peer.alive:
                    continue   # detector will scrub it; not an error
                if not peer.storage.contains(entry.address):
                    report.error(
                        f"page {entry.address:#x}: home {node} lists node "
                        f"{sharer} as sharer but it holds no copy"
                    )


def _check_storage_accounting(cluster, report: FsckReport) -> None:
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        for name, level in (("memory", daemon.storage.memory),
                            ("disk", daemon.storage.disk)):
            actual = 0
            for address in level.addresses():
                page = (level.peek(address) if hasattr(level, "peek")
                        else level.get(address))
                if page is not None:
                    actual += page.size
            if actual != level.used_bytes():
                report.error(
                    f"node {node} {name}: used_bytes()="
                    f"{level.used_bytes()} but pages total {actual}"
                )
            if level.used_bytes() > level.capacity_bytes:
                report.error(
                    f"node {node} {name}: over capacity "
                    f"({level.used_bytes()} > {level.capacity_bytes})"
                )
