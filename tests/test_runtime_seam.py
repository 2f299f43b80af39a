"""Tests for the runtime seam (repro.net.runtime / repro.net.aio).

The seam's contract is behavioural: code written against the
:class:`~repro.net.clock.EventScheduler` timer vocabulary must run
unchanged over a :class:`~repro.net.runtime.Runtime`, and the sim
backend must be a *pure* delegation shim — same events, same order,
same labels as scheduling on the raw scheduler.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import create_cluster
from repro.core.attributes import ConsistencyLevel
from repro.core.client import KhazanaSession
from repro.core.kernel import DaemonConfig
from repro.fs.filesystem import KhazanaFileSystem
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.net.clock import EventScheduler
from repro.net.runtime import Runtime, SimRuntime, TimerHandle
from repro.net.sim import SimNetwork
from repro.net.tasks import Future
from repro.storage.disk import access_cost
from repro.tools import fsck
from repro.tools.cluster import (
    SnapshotCluster,
    build_node,
    node_config,
    snapshot_node,
)


def _sim_runtime():
    scheduler = EventScheduler()
    return SimRuntime(scheduler, SimNetwork(scheduler)), scheduler


class TestSimRuntime:
    def test_is_a_runtime(self):
        runtime, _ = _sim_runtime()
        assert isinstance(runtime, Runtime)
        assert runtime.name == "sim"

    def test_clock_delegates(self):
        runtime, scheduler = _sim_runtime()
        assert runtime.now == scheduler.now
        scheduler.call_later(2.5, lambda: None, label="advance")
        scheduler.run_until_idle()
        assert runtime.now == pytest.approx(scheduler.now)

    def test_scheduling_lands_on_the_wrapped_scheduler(self):
        runtime, scheduler = _sim_runtime()
        fired = []
        runtime.call_later(1.0, lambda: fired.append("later"), label="a")
        runtime.call_at(0.5, lambda: fired.append("at"), label="b")
        runtime.call_soon(lambda: fired.append("soon"), label="c")
        scheduler.run_until_idle()
        assert fired == ["soon", "at", "later"]

    def test_handles_satisfy_the_seam_vocabulary(self):
        runtime, scheduler = _sim_runtime()
        handle = runtime.call_later(1.0, lambda: None, label="victim")
        assert isinstance(handle, TimerHandle)
        assert handle.label == "victim"
        assert handle.when == pytest.approx(1.0)
        handle.cancel()
        assert handle.cancelled
        fired = []
        runtime.call_later(2.0, lambda: fired.append(True), label="live")
        scheduler.run_until_idle()
        assert fired == [True]


class TestAsyncioRuntime:
    def test_timer_fires_and_run_future_returns(self):
        runtime = AsyncioRuntime()
        try:
            future = Future(label="t")
            runtime.call_later(0.01, lambda: future.set_result(42),
                               label="fire")
            assert runtime.run_future(future, timeout=5.0) == 42
        finally:
            runtime.close()

    def test_cancelled_timer_does_not_fire(self):
        runtime = AsyncioRuntime()
        try:
            fired = []
            victim = runtime.call_later(0.01, lambda: fired.append(True),
                                        label="victim")
            victim.cancel()
            assert victim.cancelled
            future = Future(label="t")
            runtime.call_later(0.05, lambda: future.set_result(None),
                               label="fence")
            runtime.run_future(future, timeout=5.0)
            assert fired == []
        finally:
            runtime.close()

    def test_run_future_propagates_exceptions(self):
        runtime = AsyncioRuntime()
        try:
            future = Future(label="t")
            runtime.call_later(
                0.01,
                lambda: future.set_exception(RuntimeError("boom")),
                label="fire",
            )
            with pytest.raises(RuntimeError, match="boom"):
                runtime.run_future(future, timeout=5.0)
        finally:
            runtime.close()

    def test_run_future_times_out_in_wall_time(self):
        runtime = AsyncioRuntime()
        try:
            with pytest.raises(TimeoutError):
                runtime.run_future(Future(label="never"), timeout=0.05)
        finally:
            runtime.close()

    def test_bad_timer_callback_does_not_kill_the_loop(self):
        runtime = AsyncioRuntime()
        try:
            def explode() -> None:
                raise RuntimeError("poisoned timer")

            runtime.call_later(0.0, explode, label="poison")
            future = Future(label="t")
            runtime.call_later(0.02, lambda: future.set_result("alive"),
                               label="fence")
            assert runtime.run_future(future, timeout=5.0) == "alive"
        finally:
            runtime.close()

    def test_driver_blocks_until_resolution(self):
        runtime = AsyncioRuntime()
        try:
            driver = AsyncioDriver(runtime, timeout=5.0)
            future = Future(label="t")
            runtime.call_later(0.01, lambda: future.set_result("done"),
                               label="fire")
            assert driver.wait(future) == "done"
        finally:
            runtime.close()

    def test_negative_delay_is_rejected(self):
        runtime = AsyncioRuntime()
        try:
            with pytest.raises(ValueError):
                runtime.call_later(-0.1, lambda: None, label="bad")
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# The cost model: who spends the storage layer's modelled I/O price
# ---------------------------------------------------------------------------

def _durable_config(spill_dir) -> DaemonConfig:
    """The launcher's deployment config, durable: every homed page
    writes through, so plain region writes pay modelled disk cost."""
    return dataclasses.replace(node_config(), spill_dir=str(spill_dir))


def _spy_cost(storage, name, costs):
    """Record the modelled cost ``storage.<name>`` returns."""
    inner = getattr(storage, name)

    def spy(*args):
        result = inner(*args)
        costs.append(result[1] if isinstance(result, tuple) else result)
        return result

    setattr(storage, name, spy)


class TestSimSpendsModelledCost:
    """On the virtual clock a modelled disk access *is* time: exactly
    the returned cost, as one ``n{id}:sleep`` event — the label the
    schedule explorer's recorded decisions are keyed on."""

    @pytest.fixture()
    def homed_page(self, tmp_path):
        cluster = create_cluster(num_nodes=1,
                                 config=_durable_config(tmp_path))
        session = cluster.client(node=0)
        desc = session.reserve(4096)
        session.allocate(desc.rid)
        session.write_at(desc.rid, b"on disk")
        cluster.run(1.0)
        fired = []
        cluster.scheduler.observer = lambda event: fired.append(event.label)
        yield cluster, cluster.daemon(0), desc, fired
        cluster.shutdown()

    def test_disk_hit_advances_now_by_the_returned_cost(self, homed_page):
        cluster, daemon, desc, fired = homed_page
        daemon.storage.memory.remove(desc.rid)   # leave only the disk copy
        costs = []
        _spy_cost(daemon.storage, "load", costs)
        before = daemon.now
        data = cluster.driver.wait(
            daemon.spawn(daemon.local_page_bytes(desc, desc.rid)))
        assert bytes(data[:7]) == b"on disk"
        assert costs == [access_cost(4096)]
        assert daemon.now == before + costs[0]
        assert fired == ["n0:sleep"]

    def test_home_write_through_advances_now_by_the_returned_cost(
            self, homed_page):
        cluster, daemon, desc, fired = homed_page
        costs = []
        _spy_cost(daemon.storage, "write_through", costs)
        before = daemon.now
        cluster.driver.wait(daemon.spawn(daemon.store_local_page(
            desc, desc.rid, b"\x01" * 4096, dirty=True)))
        assert costs == [access_cost(4096)]
        assert daemon.now == before + costs[0]
        assert fired == ["n0:sleep"]


class _LabelRecordingRuntime(AsyncioRuntime):
    """An asyncio runtime that notes every timer label it is asked for."""

    def __init__(self, loop, labels) -> None:
        super().__init__(loop)
        self.labels = labels

    def call_later(self, delay, callback, label=""):
        self.labels.append(label)
        return super().call_later(delay, callback, label=label)


def _kfs_sequence(sessions):
    """create → overwrite → read → unlink through two mounts; returns
    what an application can observe."""
    first = KhazanaFileSystem.format(sessions[0],
                                     consistency=ConsistencyLevel.STRICT)
    second = KhazanaFileSystem.mount(sessions[1], first.superblock_addr)
    with first.create("/kept") as handle:
        handle.write(b"k" * 6000)
    with first.create("/doomed") as handle:
        handle.write(b"d" * 100)
    with second.open("/kept", "w") as handle:
        handle.write(b"overwritten " * 700)
    with first.open("/kept") as handle:
        kept = handle.read()
    second.unlink("/doomed")
    return {"kept": kept, "first": sorted(first.listdir("/")),
            "second": sorted(second.listdir("/"))}


class TestAsyncioSpendsNothing:
    """On the wall clock the file write the daemon just did already
    took its time: same outcome as the sim, cost accounted, no timer."""

    def test_durable_kfs_matches_the_sim_without_sleeping(self, tmp_path):
        sim = create_cluster(num_nodes=2,
                             config=_durable_config(tmp_path / "sim"))
        expected = _kfs_sequence([sim.client(node=0), sim.client(node=1)])
        sim.run(2.0)
        assert expected["kept"] == b"overwritten " * 700
        assert expected["first"] == expected["second"] == ["kept"]
        sim_fsck = fsck.check_cluster(sim)
        sim.shutdown()

        labels, runtimes, daemons, book = [], [], [], {}
        loop = None
        for node in (0, 1):
            runtime = _LabelRecordingRuntime(loop, labels)
            loop = runtime.loop
            _, daemon = build_node(node, book, runtime=runtime,
                                   config=_durable_config(tmp_path / "tcp"))
            runtimes.append(runtime)
            daemons.append(daemon)
        try:
            for daemon in daemons:
                daemon.bootstrap_system_region(peers=[0, 1])
            sessions = [
                KhazanaSession(daemon, AsyncioDriver(runtime, timeout=30.0))
                for runtime, daemon in zip(runtimes, daemons)]
            started = runtimes[0].now
            observed = _kfs_sequence(sessions)
            wall = runtimes[0].now - started
            idle = Future(label="drain")   # release-type teardown settles
            runtimes[0].call_later(0.5, lambda: idle.set_result(None))
            runtimes[0].run_future(idle, timeout=5.0)
            tcp_fsck = fsck.check_cluster(
                SnapshotCluster([snapshot_node(d) for d in daemons]))
            modelled = sum(d.storage.stats.simulated_io_seconds
                           for d in daemons)
        finally:
            for daemon in daemons:
                daemon.stop()

            async def shutdown():
                for daemon in daemons:
                    await daemon.network.aclose()

            loop.run_until_complete(shutdown())
            loop.close()

        assert observed == expected
        assert tcp_fsck.errors == sim_fsck.errors == []
        assert modelled > 0
        assert not [label for label in labels if label.endswith(":sleep")]
        assert wall < modelled


class TestCostModelIsPartOfTheSeam:
    def test_runtime_without_charge_cannot_be_built(self):
        class Forgetful(Runtime):
            now = 0.0

            def call_at(self, when, callback, label=""): ...
            def call_later(self, delay, callback, label=""): ...
            def call_soon(self, callback, label=""): ...

        with pytest.raises(TypeError, match="charge"):
            Forgetful()

    def test_asyncio_charge_is_not_a_future(self):
        runtime = AsyncioRuntime()
        try:
            assert runtime.charge(0.0104, label="n0:sleep") is None
        finally:
            runtime.close()

    def test_sim_charge_is_one_labelled_event(self):
        runtime, scheduler = _sim_runtime()
        fired = []
        scheduler.observer = lambda event: fired.append(
            (event.label, event.when))
        charged = runtime.charge(0.25, label="n3:sleep")
        assert not charged.done
        scheduler.run_until_idle()
        assert charged.done
        assert fired == [("n3:sleep", 0.25)]
