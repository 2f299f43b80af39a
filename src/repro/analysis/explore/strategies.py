"""Schedule-choice strategies for the explorer.

A strategy answers one question, repeatedly: *given these concurrently
eligible message deliveries, which goes first — and does a fault fire
here?*  The controller asks it once per decision point (a window with
two or more deliveries); everything else about the run is the stock
simulation.

Three families, per the usual model-checking trade-off:

- :class:`DFSStrategy` — exhaustive depth-first enumeration with
  sleep-set partial-order reduction.  Complete but exponential; meant
  for small (<= 3 node) configurations.
- :class:`RandomStrategy` — PCT-inspired randomized priorities per
  destination node with occasional priority change points.  Scales to
  any configuration; probabilistic guarantees only.
- :class:`DelayBoundingStrategy` — randomized runs that deviate from
  the default schedule at most ``bound`` times.  Cheap coverage of
  "almost normal" schedules, where many real bugs live.

:class:`ReplayStrategy` re-applies a recorded decision list and is the
basis of deterministic replay and shrinking.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Set


class Choice(NamedTuple):
    """One strategy decision: which window index, and an optional
    fault (``{"kind": "loss"|"crash"|"partition", ...}``)."""

    index: int
    fault: Optional[Dict[str, object]] = None


class Strategy:
    """Base chooser. Subclasses override :meth:`choose`."""

    name = "default"

    def begin_run(self, run_index: int) -> bool:
        """Prepare for run ``run_index``; False when exhausted."""
        return True

    def choose(self, step: int, labels: Sequence[str],
               budget: "FaultAllowance") -> Choice:
        raise NotImplementedError

    def end_run(self) -> None:
        """Run finished; advance internal state (e.g. DFS backtrack)."""


class FaultAllowance:
    """Remaining fault budget for one run (decremented by the
    controller as faults actually fire)."""

    def __init__(self, loss: int = 0, crash: int = 0,
                 partition: int = 0) -> None:
        self.loss = loss
        self.crash = crash
        self.partition = partition

    def allows(self, kind: str) -> bool:
        return getattr(self, kind, 0) > 0

    def spend(self, kind: str) -> None:
        setattr(self, kind, getattr(self, kind) - 1)


class ReplayStrategy(Strategy):
    """Re-apply a recorded decision list, default past its end."""

    name = "replay"

    def __init__(self, decisions: Sequence["Decision"]) -> None:
        from repro.analysis.explore.controller import Decision  # cycle guard
        self.decisions: List[Decision] = list(decisions)
        self.divergences: List[str] = []

    def choose(self, step: int, labels: Sequence[str],
               budget: FaultAllowance) -> Choice:
        if step >= len(self.decisions):
            return Choice(0)
        decision = self.decisions[step]
        if list(labels) != list(decision.window):
            self.divergences.append(
                f"step {decision.index}: recorded window "
                f"{decision.window} but saw {list(labels)}"
            )
        index = decision.window.index(decision.label) \
            if decision.label in labels else 0
        return Choice(index, decision.fault)


def independent(label_a: str, label_b: str) -> bool:
    """Sleep-set independence heuristic: deliveries into *different*
    destination nodes commute (each node is single-threaded, so only
    same-destination arrival order is observable there)."""
    from repro.analysis.explore.controller import delivery_dst

    dst_a = delivery_dst(label_a)
    dst_b = delivery_dst(label_b)
    return dst_a is not None and dst_b is not None and dst_a != dst_b


class _DfsNode:
    __slots__ = ("window", "chosen", "sleep")

    def __init__(self, window: List[str], chosen: int,
                 sleep: Set[str]) -> None:
        self.window = window
        self.chosen = chosen
        self.sleep = sleep


class DFSStrategy(Strategy):
    """Exhaustive DFS over delivery orders with sleep sets.

    The decision tree is rebuilt by re-running from the start with a
    recorded prefix (stateless search).  After each run the deepest
    node advances to its next non-slept alternative; a choice just
    explored enters the sleep sets of later siblings, and sleep sets
    propagate down across independent choices, pruning commuting
    interleavings.
    """

    name = "dfs"

    def __init__(self) -> None:
        self._path: List[_DfsNode] = []
        self._exhausted = False
        self.runs = 0

    def begin_run(self, run_index: int) -> bool:
        self.runs = run_index
        return not self._exhausted

    def choose(self, step: int, labels: Sequence[str],
               budget: FaultAllowance) -> Choice:
        window = list(labels)
        if step < len(self._path):
            node = self._path[step]
            if node.window == window:
                return Choice(node.chosen)
            # The prefix replay diverged (can happen when an earlier
            # choice changes which messages exist later): drop the
            # now-stale subtree and explore fresh from here.
            del self._path[step:]
        sleep: Set[str] = set()
        if self._path:
            parent = self._path[-1]
            chosen_label = parent.window[parent.chosen]
            sleep = {
                label for label in parent.sleep
                if independent(label, chosen_label)
            }
        chosen = 0
        for index, label in enumerate(window):
            if label not in sleep:
                chosen = index
                break
        self._path.append(_DfsNode(window, chosen, sleep))
        return Choice(chosen)

    def end_run(self) -> None:
        while self._path:
            node = self._path[-1]
            node.sleep.add(node.window[node.chosen])
            advanced = False
            for index in range(node.chosen + 1, len(node.window)):
                if node.window[index] not in node.sleep:
                    node.chosen = index
                    advanced = True
                    break
            if advanced:
                return
            self._path.pop()
        self._exhausted = True

    @property
    def exhausted(self) -> bool:
        return self._exhausted


class RandomStrategy(Strategy):
    """PCT-inspired randomized priorities per destination node.

    Each run draws a random priority for every destination node on
    first sight and always delivers to the highest-priority node;
    with probability ``change_prob`` the winner's priority is redrawn
    after the choice (a priority change point).  Run 0 is the pure
    default schedule, so the unperturbed path is always in the set.
    At each decision, every fault kind the budget still allows (loss,
    then crash, then partition) fires with ``fault_prob``; a kind the
    budget does not allow draws nothing, so a fault-free run makes
    exactly the choices it would without faults.
    """

    name = "random"

    def __init__(self, seed: int, change_prob: float = 0.1,
                 fault_prob: float = 0.15) -> None:
        self.seed = seed
        self.change_prob = change_prob
        self.fault_prob = fault_prob
        self._rng = random.Random(seed)
        self._priorities: Dict[int, float] = {}
        self._run = 0

    def begin_run(self, run_index: int) -> bool:
        self._run = run_index
        self._rng = random.Random((self.seed << 20) ^ run_index)
        self._priorities = {}
        return True

    def choose(self, step: int, labels: Sequence[str],
               budget: FaultAllowance) -> Choice:
        from repro.analysis.explore.controller import delivery_dst

        if self._run == 0:
            return Choice(0)
        best_index = 0
        best_priority = -1.0
        for index, label in enumerate(labels):
            dst = delivery_dst(label)
            if dst is None:
                continue
            priority = self._priorities.setdefault(dst, self._rng.random())
            if priority > best_priority:
                best_priority = priority
                best_index = index
        if self._rng.random() < self.change_prob:
            dst = delivery_dst(labels[best_index])
            if dst is not None:
                self._priorities[dst] = self._rng.random()
        for kind in ("loss", "crash", "partition"):
            if budget.allows(kind) and self._rng.random() < self.fault_prob:
                return Choice(best_index, {"kind": kind})
        return Choice(best_index)


class DelayBoundingStrategy(Strategy):
    """Randomized runs with at most ``bound`` deviations each.

    A deviation delays the default (earliest) delivery by picking the
    next one instead.  Run 0 is the pure default schedule.
    """

    name = "delay"

    def __init__(self, seed: int, bound: int = 2,
                 delay_prob: float = 0.25) -> None:
        self.seed = seed
        self.bound = bound
        self.delay_prob = delay_prob
        self._rng = random.Random(seed)
        self._run = 0
        self._deviations = 0

    def begin_run(self, run_index: int) -> bool:
        self._run = run_index
        self._rng = random.Random((self.seed << 20) ^ run_index)
        self._deviations = 0
        return True

    def choose(self, step: int, labels: Sequence[str],
               budget: FaultAllowance) -> Choice:
        if (self._run == 0 or self._deviations >= self.bound
                or self._rng.random() >= self.delay_prob):
            return Choice(0)
        self._deviations += 1
        return Choice(min(1, len(labels) - 1))
