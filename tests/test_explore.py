"""Tests for the schedule-space explorer (repro.analysis.explore)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.explore.controller import (
    Decision,
    FaultBudget,
    delivery_dst,
    delivery_link,
)
from repro.analysis.explore.points import (
    KIND_DELEGATE,
    KIND_SPAWN,
    KIND_TIMER,
    KIND_YIELD,
    CoverageMap,
    InterleavePoint,
    extract_points,
    instrumentation_map,
    normalize_path,
)
from repro.analysis.explore.runner import ExploreConfig, Explorer
from repro.analysis.explore.scenarios import PROTOCOLS, SCENARIOS
from repro.analysis.explore.strategies import (
    Choice,
    DFSStrategy,
    DelayBoundingStrategy,
    FaultAllowance,
    RandomStrategy,
    ReplayStrategy,
    independent,
)
from repro.analysis.lint import SourceFile


def _window(*links):
    """Labels for a window of deliveries over (src, dst) pairs."""
    return [
        f"deliver:lock_request:{src}->{dst}#{i}"
        for i, (src, dst) in enumerate(links)
    ]


class TestLabels:
    def test_delivery_dst_and_link(self):
        label = "deliver:lock_reply:2->0#7:r14"
        assert delivery_dst(label) == 0
        assert delivery_link(label) == (2, 0)

    def test_non_delivery_labels_opaque(self):
        assert delivery_dst("timer:retry") is None
        assert delivery_link("n1:cm-tick") is None

    def test_independence_is_destination_based(self):
        a, b, c = _window((1, 0), (2, 0), (1, 2))
        assert not independent(a, b)   # same destination: ordered
        assert independent(a, c)       # different destinations commute
        assert not independent(a, "timer:x")


class TestPoints:
    SOURCE = (
        "def handler(self, msg):\n"
        "    self.engine.spawn_handler(msg, serve(), 'op')\n"
        "    self.scheduler.call_later(1.0, tick)\n"
        "\n"
        "def serve():\n"
        "    reply = yield request()\n"
        "    data = yield from fetch(reply)\n"
        "    return data\n"
        "\n"
        "def stub():\n"
        "    return\n"
        "    yield  # pragma: no cover - generator form required\n"
    )

    def _points(self, path="src/repro/consistency/fixture.py"):
        return extract_points([SourceFile.parse(path, self.SOURCE)])

    def test_extracts_all_kinds(self):
        kinds = sorted(p.kind for p in self._points())
        assert kinds == sorted(
            [KIND_SPAWN, KIND_TIMER, KIND_YIELD, KIND_DELEGATE]
        )

    def test_no_cover_pragma_excludes_dead_yield(self):
        yields = [p for p in self._points() if p.kind == KIND_YIELD]
        assert len(yields) == 1
        assert yields[0].func == "serve"

    def test_paths_normalized_to_package(self):
        assert all(
            p.path == "repro/consistency/fixture.py"
            for p in self._points()
        )
        assert normalize_path("/abs/src/repro/net/sim.py") == (
            "repro/net/sim.py"
        )

    def test_instrumentation_map_counts(self):
        payload = instrumentation_map(self._points())
        assert payload["counts"] == {
            KIND_SPAWN: 1, KIND_TIMER: 1, KIND_YIELD: 1, KIND_DELEGATE: 1
        }
        assert all("line" in p for p in payload["points"])

    def test_coverage_map_separates_delegates(self):
        coverage = CoverageMap(self._points())
        assert len(coverage.points) == 1
        assert len(coverage.delegates) == 1
        # A suspension observed on the bare-yield line counts as a hit;
        # one on the delegation line is tallied separately.
        coverage.observe("src/repro/consistency/fixture.py", 6, "t")
        coverage.observe("src/repro/consistency/fixture.py", 7, "t")
        report = coverage.report()
        assert (report.hit, report.total) == (1, 1)
        assert (report.delegate_hit, report.delegate_total) == (1, 1)
        assert report.missing == []
        assert "100.0%" in report.render()

    def test_coverage_scope_excludes_other_layers(self):
        coverage = CoverageMap(self._points("src/repro/net/fixture.py"))
        assert coverage.points == []


class TestDFSStrategy:
    def test_first_run_is_default_schedule(self):
        dfs = DFSStrategy()
        assert dfs.begin_run(0)
        window = _window((1, 0), (2, 0))
        assert dfs.choose(0, window, FaultAllowance()) == Choice(0)

    def test_backtracks_through_alternatives_then_exhausts(self):
        dfs = DFSStrategy()
        window = _window((1, 0), (2, 0))   # dependent: both into node 0
        seen = []
        for run in range(4):
            if not dfs.begin_run(run):
                break
            seen.append(dfs.choose(0, list(window), FaultAllowance()).index)
            dfs.end_run()
        assert seen == [0, 1]
        assert dfs.exhausted

    def test_sleep_sets_prune_commuting_pairs(self):
        # Two deliveries into different nodes commute: after exploring
        # (a, b), the sleep set suppresses the mirrored (b, a) order.
        a, b = _window((1, 0), (1, 2))

        def run(dfs):
            first = dfs.choose(0, [a, b], FaultAllowance()).index
            rest = [a, b][:first] + [a, b][first + 1:]
            second = dfs.choose(1, rest, FaultAllowance()).index
            return (first, second)

        dfs = DFSStrategy()
        orders = []
        for run_index in range(4):
            if not dfs.begin_run(run_index):
                break
            orders.append(run(dfs))
            dfs.end_run()
        assert len(orders) < 4   # strictly fewer runs than the full tree

    def test_prefix_divergence_discards_stale_subtree(self):
        dfs = DFSStrategy()
        dfs.begin_run(0)
        dfs.choose(0, _window((1, 0), (2, 0)), FaultAllowance())
        dfs.end_run()
        dfs.begin_run(1)
        # Same step, different window: the stale node must not replay.
        choice = dfs.choose(0, _window((2, 0), (1, 0)), FaultAllowance())
        assert choice == Choice(0)


class TestRandomizedStrategies:
    def test_run_zero_is_pure_default(self):
        for strategy in (RandomStrategy(7), DelayBoundingStrategy(7)):
            strategy.begin_run(0)
            window = _window((1, 0), (2, 1), (0, 2))
            for step in range(5):
                assert strategy.choose(
                    step, window, FaultAllowance()
                ) == Choice(0)

    def test_random_runs_are_seed_deterministic(self):
        window = _window((1, 0), (2, 1), (0, 2))

        def trace(seed):
            strategy = RandomStrategy(seed)
            strategy.begin_run(3)
            return [
                strategy.choose(step, window, FaultAllowance()).index
                for step in range(20)
            ]

        assert trace(5) == trace(5)

    def test_loss_fault_respects_budget(self):
        strategy = RandomStrategy(1, fault_prob=1.0)
        strategy.begin_run(1)
        window = _window((1, 0), (2, 1))
        empty = FaultAllowance()          # no budget: never a fault
        assert strategy.choose(0, window, empty).fault is None
        funded = FaultAllowance(loss=1)
        assert strategy.choose(1, window, funded).fault == {"kind": "loss"}

    def test_random_proposes_each_budgeted_kind(self):
        strategy = RandomStrategy(1, fault_prob=1.0)
        strategy.begin_run(1)
        window = _window((1, 0), (2, 1))
        for kind in ("crash", "partition"):
            funded = FaultAllowance(**{kind: 1})
            assert strategy.choose(0, window, funded).fault == {"kind": kind}

    def test_cli_crash_budget_crashes_a_node(self, monkeypatch, capsys):
        """``--crash 1`` spends its budget: the CLI's random strategy
        proposes crashes, so some run stops a kernel."""
        from repro.analysis.explore.__main__ import main
        from repro.api import Cluster

        crashes = []
        real_crash = Cluster.crash

        def counting_crash(self, node):
            crashes.append(node)
            real_crash(self, node)

        monkeypatch.setattr(Cluster, "crash", counting_crash)
        assert main(["--protocol", "crew", "--scenario", "single_page",
                     "--nodes", "3", "--budget", "25", "--seed", "0",
                     "--crash", "1"]) == 0
        assert crashes

    def test_delay_bound_caps_deviations(self):
        strategy = DelayBoundingStrategy(2, bound=1, delay_prob=1.0)
        strategy.begin_run(1)
        window = _window((1, 0), (2, 0))
        picks = [
            strategy.choose(step, window, FaultAllowance()).index
            for step in range(4)
        ]
        assert picks[0] == 1          # one deviation...
        assert picks[1:] == [0, 0, 0]  # ...then default for the run


class TestReplayStrategy:
    def test_replays_recorded_indices_and_defaults_past_end(self):
        window = _window((1, 0), (2, 0))
        decisions = [Decision(0, window[1], list(window))]
        strategy = ReplayStrategy(decisions)
        assert strategy.choose(0, window, FaultAllowance()).index == 1
        assert strategy.choose(1, window, FaultAllowance()) == Choice(0)
        assert strategy.divergences == []

    def test_window_mismatch_recorded_not_fatal(self):
        decisions = [Decision(0, "deliver:x:9->9#0", ["deliver:x:9->9#0"])]
        strategy = ReplayStrategy(decisions)
        choice = strategy.choose(0, _window((1, 0)), FaultAllowance())
        assert choice.index == 0
        assert strategy.divergences


class TestDecisionJson:
    def test_round_trip(self):
        decision = Decision(
            3, "deliver:a:1->0#2", ["deliver:a:1->0#2", "deliver:b:2->0#0"],
            fault={"kind": "loss"},
        )
        assert Decision.from_json(decision.to_json()) == decision


class TestExplorer:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            Explorer(ExploreConfig(protocol="crew", scenario="nope"))

    def test_matrix_is_complete(self):
        assert set(PROTOCOLS) == {"crew", "release", "eventual", "mobile"}
        assert len(SCENARIOS) >= 5

    def test_default_schedule_single_page_clean(self):
        explorer = Explorer(
            ExploreConfig(protocol="crew", scenario="single_page",
                          num_nodes=2)
        )
        result = explorer.explore(RandomStrategy(0), budget=1)
        assert result.clean
        assert result.runs == 1

    def test_perturbed_schedules_stay_clean(self):
        explorer = Explorer(
            ExploreConfig(protocol="release", scenario="single_page",
                          num_nodes=2)
        )
        result = explorer.explore(RandomStrategy(0), budget=3)
        assert result.clean
        assert result.decision_points > 0

    def test_coverage_observed_during_runs(self):
        source = SourceFile.parse(
            "src/repro/consistency/release.py",
            open("src/repro/consistency/release.py").read(),
        )
        coverage = CoverageMap(extract_points([source]))
        explorer = Explorer(
            ExploreConfig(protocol="release", scenario="single_page",
                          num_nodes=2),
            coverage=coverage,
        )
        assert explorer.explore(RandomStrategy(0), budget=1).clean
        assert coverage.report().hit > 0


class TestMutationProof:
    """The acceptance gate: a re-introduced historical bug is caught
    within budget, the shrunk schedule file replays deterministically."""

    def _explore(self):
        explorer = Explorer(
            ExploreConfig(
                protocol="release", scenario="conflicting_writers",
                num_nodes=2, mutations=("early-mutex-release",),
            )
        )
        result = explorer.explore(RandomStrategy(0), budget=2000)
        return explorer, result

    def test_early_mutex_release_caught_and_replayable(self):
        explorer, result = self._explore()
        assert result.schedule is not None, (
            "mutation survived the schedule budget"
        )
        schedule = result.schedule
        assert schedule["violation"]["rule"] == "token-conservation"
        assert schedule["mutations"] == ["early-mutex-release"]
        json.dumps(schedule)   # must be a writable artifact

        decisions = [Decision.from_json(d) for d in schedule["decisions"]]
        for _ in range(2):     # deterministic: replays twice identically
            outcome = explorer.replay(decisions)
            assert outcome.violation is not None
            assert outcome.violation.rule == "token-conservation"

    def test_unmutated_run_is_clean_in_same_budget(self):
        explorer = Explorer(
            ExploreConfig(protocol="release", scenario="conflicting_writers",
                          num_nodes=2)
        )
        assert explorer.explore(RandomStrategy(0), budget=3).clean


class TestFaultInjection:
    def test_budgeted_loss_does_not_break_single_page(self):
        explorer = Explorer(
            ExploreConfig(protocol="crew", scenario="single_page",
                          num_nodes=2, faults=FaultBudget(loss=1))
        )
        result = explorer.explore(
            RandomStrategy(0, fault_prob=0.5), budget=3
        )
        assert result.clean


class TestRingExploration:
    """The ring placement backend under the explorer: reordered
    schedules and budgeted crash/partition faults stay green."""

    def test_perturbed_ring_schedules_stay_clean(self):
        explorer = Explorer(
            ExploreConfig(protocol="crew", scenario="single_page",
                          num_nodes=2, placement="ring")
        )
        result = explorer.explore(RandomStrategy(0), budget=3)
        assert result.clean
        assert result.decision_points > 0

    def test_ring_survives_crash_and_partition_budgets(self):
        explorer = Explorer(
            ExploreConfig(protocol="release", scenario="single_page",
                          num_nodes=3, placement="ring",
                          faults=FaultBudget(crash=1, partition=1))
        )
        result = explorer.explore(RandomStrategy(0), budget=4)
        assert result.clean

    def test_schedule_dict_records_placement(self):
        from repro.analysis.races import Violation

        explorer = Explorer(
            ExploreConfig(protocol="crew", scenario="single_page",
                          num_nodes=2, placement="ring")
        )
        schedule = explorer.schedule_dict(
            [], Violation(rule="x", detail="y"), RandomStrategy(0)
        )
        assert schedule["placement"] == "ring"
