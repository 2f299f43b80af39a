"""The explorer proper: run, detect, shrink, replay.

Each *run* builds a fresh cluster from the same seed (the simulation
is deterministic given seed + decision list), installs a
:class:`~repro.analysis.explore.controller.ScheduleController`, and
executes one scenario.  After every scheduled event the run is checked
against the shared race detector (``repro.analysis.races``) and the
step-safe token-conservation invariant; the first violation aborts the
run and its decision list becomes a *schedule file* — a JSON artifact
that replays the exact interleaving deterministically:

    python -m repro.analysis.explore --replay schedule.json

Violating schedules are shrunk greedily before being reported: drop
faults, reset choices to the default (earliest) delivery, trim the
tail — keeping each simplification only if the same violation rule
still reproduces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore.controller import (
    DEFAULT_HORIZON,
    Decision,
    FaultBudget,
    ScheduleController,
)
from repro.analysis.explore.points import CoverageMap
from repro.analysis.explore.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioFailure,
)
from repro.analysis.explore.strategies import ReplayStrategy, Strategy
from repro.analysis.invariants import check_token_ledgers
from repro.analysis.races import Violation
from repro.api import create_cluster
from repro.consistency.engine import ledger as ledger_mod
from repro.core.kernel import DaemonConfig

log = logging.getLogger("repro.analysis.explore")

SCHEDULE_VERSION = 1

#: Cap on extra runs spent simplifying one violating schedule.
SHRINK_TRIALS = 200


class ScheduleViolation(BaseException):
    """Raised by the per-step observer to abort a violating run.

    Derives from ``BaseException`` so no protocol- or scenario-level
    ``except Exception`` can swallow it on the way out.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.render())
        self.violation = violation


@dataclass
class RunOutcome:
    """What one controlled run produced."""

    decisions: List[Decision]
    violation: Optional[Violation] = None
    error: Optional[str] = None   # scenario crashed in a non-assert way

    @property
    def clean(self) -> bool:
        return self.violation is None and self.error is None


@dataclass
class ExploreConfig:
    protocol: str
    scenario: str
    seed: int = 0
    num_nodes: int = 3
    #: Placement backend under test ("tiered" or "ring"); the ring
    #: brings its membership/re-homing machinery into the explored
    #: schedule space.
    placement: str = "tiered"
    horizon: float = DEFAULT_HORIZON
    faults: FaultBudget = field(default_factory=FaultBudget)
    #: Names from ``repro.consistency.engine.ledger.KNOWN_MUTATIONS``
    #: to re-introduce for this exploration (mutation proof).
    mutations: Tuple[str, ...] = ()


@dataclass
class ExploreResult:
    config: ExploreConfig
    runs: int
    schedule: Optional[Dict[str, Any]] = None   # first violating schedule
    decision_points: int = 0   # max decision depth seen

    @property
    def clean(self) -> bool:
        return self.schedule is None


class Explorer:
    """Drives one (protocol, scenario) pair through many schedules."""

    def __init__(self, config: ExploreConfig,
                 coverage: Optional[CoverageMap] = None) -> None:
        if config.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {config.scenario!r}")
        self.config = config
        self.coverage = coverage
        self.scenario: Scenario = SCENARIOS[config.scenario]

    # -- single run ------------------------------------------------------

    def run_once(self, strategy: Strategy) -> RunOutcome:
        config = self.config
        cluster = create_cluster(
            max(config.num_nodes, self.scenario.min_nodes),
            seed=config.seed,
            config=DaemonConfig(detect_races=True,
                                placement=config.placement),
            **self.scenario.cluster_kwargs,
        )
        controller = ScheduleController(
            cluster, strategy,
            horizon=config.horizon, faults=config.faults,
        )
        detector = cluster.race_detector
        seen = len(detector.violations)
        if self.coverage is not None:
            for daemon in cluster.daemons.values():
                daemon.runner.yield_observer = self.coverage.observe

        def observe(event: Any) -> None:
            if len(detector.violations) > seen:
                raise ScheduleViolation(detector.violations[seen])
            alive = [
                daemon for daemon in cluster.daemons.values()
                if daemon.alive
            ]
            problems = check_token_ledgers(alive)
            if problems:
                raise ScheduleViolation(
                    Violation(rule="token-conservation", detail=problems[0])
                )

        cluster.scheduler.observer = observe
        ledger_mod.ACTIVE_MUTATIONS.update(config.mutations)
        violation: Optional[Violation] = None
        error: Optional[str] = None
        try:
            self.scenario.run(cluster, config.protocol)
            if not self.scenario.crashes:
                final = detector.final_check()
                if len(final) > seen:
                    violation = final[seen]
        except ScheduleViolation as caught:
            violation = caught.violation
        except ScenarioFailure as caught:
            violation = Violation(rule="scenario-failure",
                                  detail=str(caught))
        except AssertionError as caught:
            violation = Violation(rule="scenario-failure",
                                  detail=str(caught))
        except Exception as caught:   # khz: allow-broad-except(explorer: a perturbed schedule may surface any protocol error; it is the finding, not a bug in the harness)
            error = f"{type(caught).__name__}: {caught}"
            log.debug("scenario error under exploration", exc_info=True)
        finally:
            ledger_mod.ACTIVE_MUTATIONS.difference_update(config.mutations)
            cluster.scheduler.observer = None
            controller.uninstall()
        return RunOutcome(
            decisions=list(controller.decisions),
            violation=violation,
            error=error,
        )

    # -- exploration loop ------------------------------------------------

    def explore(self, strategy: Strategy, budget: int) -> ExploreResult:
        """Run up to ``budget`` schedules; stop at the first violation
        (shrunk) or when the strategy exhausts the space."""
        result = ExploreResult(config=self.config, runs=0)
        for run_index in range(budget):
            if not strategy.begin_run(run_index):
                break   # DFS exhausted the schedule space
            outcome = self.run_once(strategy)
            strategy.end_run()
            result.runs += 1
            result.decision_points = max(
                result.decision_points, len(outcome.decisions)
            )
            if outcome.error is not None:
                log.warning("run %d errored (not counted as violation):"
                            " %s", run_index, outcome.error)
            if outcome.violation is not None:
                decisions = self._shrink(
                    outcome.decisions, outcome.violation.rule
                )
                result.schedule = self.schedule_dict(
                    decisions, outcome.violation, strategy
                )
                break
        return result

    def replay(self, decisions: Sequence[Decision]) -> RunOutcome:
        """Deterministically re-run one recorded schedule."""
        return self.run_once(ReplayStrategy(decisions))

    # -- schedule files --------------------------------------------------

    def schedule_dict(self, decisions: Sequence[Decision],
                      violation: Violation,
                      strategy: Strategy) -> Dict[str, Any]:
        config = self.config
        return {
            "version": SCHEDULE_VERSION,
            "protocol": config.protocol,
            "scenario": config.scenario,
            "seed": config.seed,
            "num_nodes": max(config.num_nodes, self.scenario.min_nodes),
            "placement": config.placement,
            "horizon": config.horizon,
            "mutations": list(config.mutations),
            "strategy": strategy.name,
            "violation": {
                "rule": violation.rule,
                "detail": violation.detail,
            },
            "decisions": [decision.to_json() for decision in decisions],
        }

    # -- shrinking -------------------------------------------------------

    def _reproduces(self, decisions: List[Decision], rule: str) -> bool:
        outcome = self.replay(decisions)
        return (outcome.violation is not None
                and outcome.violation.rule == rule)

    def _shrink(self, decisions: List[Decision],
                rule: str) -> List[Decision]:
        """Greedy simplification: drop faults, default each choice,
        trim the tail — keep a step only if the violation survives."""
        best = list(decisions)
        trials = 0
        changed = True
        while changed and trials < SHRINK_TRIALS:
            changed = False
            # Pass 1: remove injected faults.
            for position, decision in enumerate(best):
                if decision.fault is None:
                    continue
                trial = list(best)
                trial[position] = Decision(
                    decision.index, decision.label,
                    list(decision.window), fault=None,
                )
                trials += 1
                if self._reproduces(trial, rule):
                    best = trial
                    changed = True
            # Pass 2: reset non-default choices to the earliest
            # delivery (window[0] is always the default schedule).
            for position, decision in enumerate(best):
                if decision.label == decision.window[0]:
                    continue
                trial = list(best)
                trial[position] = Decision(
                    decision.index, decision.window[0],
                    list(decision.window), fault=decision.fault,
                )
                trials += 1
                if self._reproduces(trial, rule):
                    best = trial
                    changed = True
                if trials >= SHRINK_TRIALS:
                    break
        # Pass 3: a trailing run of default no-fault decisions is dead
        # weight — replay treats past-the-end steps as default anyway.
        while best and best[-1].fault is None \
                and best[-1].label == best[-1].window[0]:
            best.pop()
        return best
