"""Per-protocol counters for engine-mediated work.

One :class:`EngineCounters` lives on every :class:`ProtocolEngine`
(one per daemon × protocol).  ``tools/inspect.py`` renders them next
to the latency report so operators can see how much protocol traffic
carried more than one page, was retried per page, or rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class EngineCounters:
    #: Home-side request transactions spawned through the engine.
    home_transactions: int = 0
    #: Requests sent on behalf of the policy carrying more than one
    #: page (a multi-page lock range's one request per home).
    batch_fanouts: int = 0
    #: Pages handed to the background per-page retry after an unlock
    #: push could not reach its home.
    per_page_fallbacks: int = 0
    #: Multi-page acquires unwound by the data plane after a partial
    #: failure (no page stays pinned).
    rollbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "home_transactions": self.home_transactions,
            "batch_fanouts": self.batch_fanouts,
            "per_page_fallbacks": self.per_page_fallbacks,
            "rollbacks": self.rollbacks,
        }
