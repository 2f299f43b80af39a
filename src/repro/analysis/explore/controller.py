"""ScheduleController: the bridge from strategy to simulation.

Installs itself as the :class:`~repro.net.clock.EventScheduler`'s
``chooser`` so that whenever two or more *message deliveries* are
eligible within the choice horizon, the active strategy — not heap
order — decides which lands first.  Every such decision (the chosen
label, the full window, any fault injected) is recorded; the decision
list *is* the schedule, and feeding it back through a
``ReplayStrategy`` reproduces the run deterministically.

Faults are applied at decision points only, from a bounded budget:

- ``loss``      — the chosen delivery is cancelled (message dropped),
- ``crash``     — the destination node of the chosen delivery crashes
  (:meth:`~repro.api.Cluster.crash`: its kernel stops),
- ``partition`` — the chosen delivery's link is cut both ways.

Windows with fewer than two deliveries (pure timers, a single
in-flight message) are not decision points: the earliest event runs,
exactly as in an uncontrolled simulation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore.strategies import FaultAllowance, Strategy

#: Default eligibility horizon: events within 2ms of the earliest
#: pending event count as concurrent.  Wide enough to cover the sim
#: network's jittered one-hop latencies, narrow enough that causally
#: ordered request/reply pairs stay ordered.
DEFAULT_HORIZON = 0.002

_DELIVER_RE = re.compile(r"^deliver:([A-Za-z0-9_.-]+):(\d+)->(\d+)#")


def delivery_dst(label: str) -> Optional[int]:
    """Destination node of a delivery label, None for non-deliveries."""
    match = _DELIVER_RE.match(label)
    return int(match.group(3)) if match else None


def delivery_link(label: str) -> Optional[Tuple[int, int]]:
    """(src, dst) of a delivery label, None for non-deliveries."""
    match = _DELIVER_RE.match(label)
    return (int(match.group(2)), int(match.group(3))) if match else None


@dataclass
class Decision:
    """One recorded choice at a decision point."""

    index: int                 # decision sequence number
    label: str                 # label of the chosen event
    window: List[str]          # labels of every eligible delivery
    fault: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "index": self.index,
            "label": self.label,
            "window": list(self.window),
        }
        if self.fault is not None:
            data["fault"] = self.fault
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Decision":
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            window=[str(l) for l in data["window"]],
            fault=data.get("fault"),
        )


@dataclass(frozen=True)
class FaultBudget:
    """Per-run ceiling on injected faults."""

    loss: int = 0
    crash: int = 0
    partition: int = 0

    def allowance(self) -> FaultAllowance:
        return FaultAllowance(self.loss, self.crash, self.partition)


class ScheduleController:
    """Drives one run's delivery choices through a strategy."""

    def __init__(
        self,
        cluster: Any,
        strategy: Strategy,
        horizon: float = DEFAULT_HORIZON,
        faults: FaultBudget = FaultBudget(),
    ) -> None:
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.strategy = strategy
        self.decisions: List[Decision] = []
        self._allowance = faults.allowance()
        self.scheduler.chooser = self._choose
        self.scheduler.choice_horizon = horizon

    def uninstall(self) -> None:
        self.scheduler.chooser = None
        self.scheduler.choice_horizon = 0.0

    # -- chooser ---------------------------------------------------------

    def _choose(self, window: Sequence[Any]) -> Any:
        deliveries = [
            event for event in window
            if event.label.startswith("deliver:")
        ]
        if len(deliveries) < 2:
            return window[0]
        labels = [event.label for event in deliveries]
        choice = self.strategy.choose(
            len(self.decisions), labels, self._allowance
        )
        index = max(0, min(choice.index, len(deliveries) - 1))
        chosen = deliveries[index]
        fault = self._apply_fault(choice.fault, chosen)
        self.decisions.append(
            Decision(
                index=len(self.decisions),
                label=chosen.label,
                window=labels,
                fault=fault,
            )
        )
        return chosen

    def _apply_fault(self, fault: Optional[Dict[str, Any]],
                     chosen: Any) -> Optional[Dict[str, Any]]:
        if fault is None:
            return None
        kind = str(fault.get("kind", ""))
        if not self._allowance.allows(kind):
            return None
        link = delivery_link(chosen.label)
        if link is None:
            return None
        src, dst = link
        if kind == "loss":
            chosen.cancelled = True       # delivered-into-the-void
            applied = {"kind": "loss"}
        elif kind == "crash":
            node = int(fault.get("node", dst))
            self.cluster.crash(node)
            applied = {"kind": "crash", "node": node}
        elif kind == "partition":
            self.cluster.partition({src}, {dst})
            applied = {"kind": "partition", "src": src, "dst": dst}
        else:
            return None
        self._allowance.spend(kind)
        return applied
