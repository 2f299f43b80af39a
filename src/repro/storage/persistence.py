"""Metadata persistence for daemon restart.

Khazana stores data on "local storage, both volatile (RAM) and
persistent (disk)" (Section 1), and the page directory "maintains
persistent information about pages homed locally" (Section 3.4).  A
daemon configured with a spill directory therefore journals, alongside
its file-backed page store:

- the descriptors of regions it homes (``regions.json``), and
- the authoritative page-directory entries for pages homed locally
  (``pagedir.json``), each with its ``(counter, writer)`` version pair
  — the page's one version, so a restarted home keeps counting where
  it stopped instead of reissuing versions its replicas already hold.

After a crash, a restarted daemon reloads both and serves its homed
regions again.  Recovery is deliberately conservative about coherence
state: the restarted home assumes ownership of every homed page and an
empty remote copyset — remote caches from before the crash are treated
as lost, and their nodes will simply re-fetch (stale hints are already
tolerated everywhere else in the system).  Writes that were still
owner-side-only at crash time are lost, the same window the CREW
write-back design has (see crew.py).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.core.page_directory import PageDirectory, PageEntry
from repro.core.region import RegionDescriptor

REGIONS_FILE = "regions.json"
PAGEDIR_FILE = "pagedir.json"


class MetadataJournal:
    """Durable record of a daemon's homed regions and pages."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    # --- Writing ---------------------------------------------------------

    def save_regions(self, homed: Dict[int, RegionDescriptor]) -> None:
        self._atomic_write(
            REGIONS_FILE,
            {"regions": [desc.to_wire() for desc in homed.values()]},
        )

    def save_page_entries(self, directory: PageDirectory) -> None:
        entries = [
            {
                "address": entry.address,
                "rid": entry.rid,
                "allocated": entry.allocated,
                "version": entry.version,
            }
            for entry in directory.homed_entries()
        ]
        self._atomic_write(PAGEDIR_FILE, {"pages": entries})

    def _atomic_write(self, name: str, doc: Dict[str, Any]) -> None:
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    # --- Reading ----------------------------------------------------------

    def load_regions(self) -> List[RegionDescriptor]:
        doc = self._read(REGIONS_FILE)
        if doc is None:
            return []
        return [RegionDescriptor.from_wire(raw) for raw in doc["regions"]]

    def load_page_entries(self, node_id: int) -> List[PageEntry]:
        """Rebuild homed entries with conservative coherence state:
        this node owns every homed page and nobody else caches it."""
        doc = self._read(PAGEDIR_FILE)
        if doc is None:
            return []
        entries = []
        for raw in doc["pages"]:
            entry = PageEntry(
                address=int(raw["address"]),
                rid=int(raw["rid"]),
                homed=True,
                owner=node_id,
                allocated=bool(raw["allocated"]),
                version=raw["version"] and tuple(raw["version"]),
            )
            entry.record_sharer(node_id)
            entries.append(entry)
        return entries

    def _read(self, name: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.directory, name)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
