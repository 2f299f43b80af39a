"""Cross-protocol conformance matrix.

Every consistency manager rides the same protocol engine
(``repro.consistency.engine``); this suite runs one scenario matrix —
single-page read/write, multi-page batch cycles, conflicting writers,
node failure mid-acquire, unlock-after-close — across all four
registered protocols and pins down where their guarantees agree
(client-side lock discipline, home failover, convergence) and where
they deliberately differ (token protocols serialize writers,
availability-first protocols do not).
"""

import pytest

from repro.api import create_cluster
from repro.consistency.engine.state import add_trace_hook, remove_trace_hook
from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.errors import InvalidLockContext
from repro.core.locks import LockMode

PROTOCOLS = ["crew", "release", "eventual", "mobile"]

#: (state_before, event) pairs observed per protocol while the matrix
#: runs; the KHZ204 coverage gate at the bottom of this file diffs it
#: against the statically extracted automaton edge lists.
EXERCISED = {}


@pytest.fixture(scope="module", autouse=True)
def _trace_automata():
    def hook(label, before, event, after):
        if label:
            EXERCISED.setdefault(label, set()).add(
                (before.name, event.name)
            )

    add_trace_hook(hook)
    yield
    remove_trace_hook(hook)

#: Protocols whose write grant is a globally exclusive token: a second
#: writer blocks until the first releases.  The availability-first
#: protocols (bounded staleness, epidemic) never block a writer.
SERIALIZED = {"crew", "release"}

PAGE = 4096


def make_region(cluster, protocol, size=PAGE, node=1, min_replicas=1):
    kz = cluster.client(node=node)
    desc = kz.reserve(
        size,
        RegionAttributes(
            consistency_protocol=protocol, min_replicas=min_replicas
        ),
    )
    kz.allocate(desc.rid)
    return kz, desc


def locked_write(session, desc, payload, length=PAGE):
    """Protocol generator: full lock-write-unlock cycle on the daemon."""
    daemon = session.daemon
    target = AddressRange(desc.rid, length)

    def task():
        ctx = yield from daemon.data.op_lock(target, LockMode.WRITE,
                                        session.principal)
        yield from daemon.data.op_write(
            ctx, AddressRange(desc.rid, len(payload)), payload
        )
        yield from daemon.data.op_unlock(ctx)

    return task()


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestSinglePage:
    def test_read_your_writes(self, cluster, protocol):
        kz, desc = make_region(cluster, protocol)
        kz.write_at(desc.rid, b"local")
        assert kz.read_at(desc.rid, 5) == b"local"

    def test_remote_read_sees_released_write(self, cluster, protocol):
        kz, desc = make_region(cluster, protocol)
        kz.write_at(desc.rid, b"published")
        cluster.run(2.0)   # weak protocols: let the push/gossip land
        assert cluster.client(node=3).read_at(desc.rid, 9) == b"published"


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestMultiPageBatch:
    PAGES = 4
    SIZE = PAGES * PAGE

    def test_remote_multi_page_cycle_converges(self, cluster, protocol):
        kz1, desc = make_region(cluster, protocol, size=self.SIZE)
        kz1.write_at(desc.rid, b"a" * self.SIZE)
        cluster.run(2.0)

        kz3 = cluster.client(node=3)
        ctx = kz3.lock(desc.rid, self.SIZE, LockMode.WRITE)
        assert kz3.read(ctx, desc.rid, self.SIZE) == b"a" * self.SIZE
        kz3.write(ctx, desc.rid, b"b" * self.SIZE)
        kz3.unlock(ctx)
        assert kz3.read_at(desc.rid, self.SIZE) == b"b" * self.SIZE

        cluster.run(4.0)   # write-back / anti-entropy rounds
        assert cluster.client(node=0).read_at(desc.rid, 4) == b"bbbb"


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestConflictingWriters:
    def test_second_writer_blocks_iff_token_protocol(self, cluster, protocol):
        kz1, desc = make_region(cluster, protocol)
        kz1.write_at(desc.rid, b"base")
        kz3 = cluster.client(node=3)
        kz3.read_at(desc.rid, 4)   # node 3 holds a replica

        ctx = kz1.lock(desc.rid, PAGE, LockMode.WRITE)
        future = kz3.submit(locked_write(kz3, desc, b"from-3"), "bg-write")
        cluster.run(2.0)

        if protocol in SERIALIZED:
            # Exclusive token: writer 3 waits for writer 1's release.
            assert not future.done
        else:
            # Availability first: writer 3 proceeds against its replica.
            assert future.done and future.exception() is None
        kz1.write(ctx, desc.rid, b"from-1")
        kz1.unlock(ctx)
        cluster.run(30.0)
        assert future.done and future.exception() is None
        if protocol in SERIALIZED:
            # Writer 3 was granted after writer 1 released: last write
            # wins everywhere, and both cycles completed cleanly.
            assert kz3.read_at(desc.rid, 6) == b"from-3"


#: Protocols that replicate released writes to every home node, so a
#: failover read still sees the payload.  Release and eventual push
#: updates to the primary home only; their failover grant serves the
#: secondary's (possibly untouched) copy — availability over recency.
DURABLE_ON_FAILOVER = {"crew", "mobile"}


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestNodeFailureMidAcquire:
    def test_acquire_fails_over_to_secondary_home(self, big_cluster,
                                                  protocol):
        cluster = big_cluster
        kz1, desc = make_region(cluster, protocol, min_replicas=2)
        writer = cluster.client(node=3)
        writer.write_at(desc.rid, b"durable")
        cluster.run(2.0)   # write-back reaches the home(s)
        assert len(desc.home_nodes) >= 2

        cluster.crash(desc.home_nodes[0])
        # No failure-detection grace period: the very next acquire must
        # time out on the dead primary and fail over mid-transaction.
        # Every protocol's engine completes the acquire on a survivor.
        data = cluster.client(node=5).read_at(desc.rid, 7)
        if protocol in DURABLE_ON_FAILOVER:
            assert data == b"durable"
        else:
            assert len(data) == 7


# --- The same matrix over the hash ring, with mid-scenario churn ------------
#
# Every scenario above assumed a fixed member set.  Under the ring
# placement a node can join mid-scenario: directors move, regions
# re-home, and the protocols must neither lose writes nor deadlock.
# Each scenario calls ``churn()`` at its most inconvenient point.


def _ring_cluster(num_nodes):
    return create_cluster(num_nodes=num_nodes,
                          config=DaemonConfig(placement="ring"))


def _scenario_single_page(cluster, protocol, churn):
    kz, desc = make_region(cluster, protocol)
    kz.write_at(desc.rid, b"published")
    churn()   # the write's home may re-home before the remote read
    cluster.run(2.0)
    assert cluster.client(node=3).read_at(desc.rid, 9) == b"published"


def _scenario_multi_page_batch(cluster, protocol, churn):
    size = 4 * PAGE
    kz1, desc = make_region(cluster, protocol, size=size)
    kz1.write_at(desc.rid, b"a" * size)
    churn()   # between publish and the remote batch cycle
    kz3 = cluster.client(node=3)
    ctx = kz3.lock(desc.rid, size, LockMode.WRITE)
    assert kz3.read(ctx, desc.rid, size) == b"a" * size
    kz3.write(ctx, desc.rid, b"b" * size)
    kz3.unlock(ctx)
    cluster.run(4.0)
    assert cluster.client(node=0).read_at(desc.rid, 4) == b"bbbb"


def _scenario_conflicting_writers(cluster, protocol, churn):
    kz1, desc = make_region(cluster, protocol)
    kz1.write_at(desc.rid, b"base")
    kz3 = cluster.client(node=3)
    kz3.read_at(desc.rid, 4)
    ctx = kz1.lock(desc.rid, PAGE, LockMode.WRITE)
    future = kz3.submit(locked_write(kz3, desc, b"from-3"), "bg-write")
    churn()   # membership changes while a writer holds the token
    cluster.run(2.0)
    if protocol in SERIALIZED:
        assert not future.done
    kz1.write(ctx, desc.rid, b"from-1")
    kz1.unlock(ctx)
    cluster.run(30.0)
    assert future.done and future.exception() is None


def _scenario_failure_mid_acquire(cluster, protocol, churn):
    kz1, desc = make_region(cluster, protocol, min_replicas=2)
    cluster.client(node=3).write_at(desc.rid, b"durable")
    cluster.run(2.0)
    churn()   # re-homing may be mid-flight when the primary dies
    primary = next(
        node for node in cluster.node_ids()
        if (d := cluster.daemon(node).homed_regions.get(desc.rid))
        is not None and d.primary_home == node
    )
    cluster.crash(primary)
    reader = 5 if primary != 5 else 4
    assert len(cluster.client(node=reader).read_at(desc.rid, 7)) == 7


def _scenario_unlock_after_close(cluster, protocol, churn):
    kz, desc = make_region(cluster, protocol)
    ctx = kz.lock(desc.rid, PAGE, LockMode.READ)
    churn()   # an open context straddles the membership change
    kz.unlock(ctx)
    with pytest.raises(InvalidLockContext):
        kz.unlock(ctx)


RING_CHURN_SCENARIOS = {
    "single_page": (4, _scenario_single_page),
    "multi_page_batch": (4, _scenario_multi_page_batch),
    "conflicting_writers": (4, _scenario_conflicting_writers),
    "failure_mid_acquire": (8, _scenario_failure_mid_acquire),
    "unlock_after_close": (4, _scenario_unlock_after_close),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(RING_CHURN_SCENARIOS))
class TestRingChurnMatrix:
    def test_scenario_survives_mid_run_join(self, scenario, protocol):
        num_nodes, run_scenario = RING_CHURN_SCENARIOS[scenario]
        cluster = _ring_cluster(num_nodes)
        before = len(cluster.node_ids())

        def churn():
            cluster.add_node()
            cluster.run(1.0)   # join gossip in flight, not settled

        run_scenario(cluster, protocol, churn)
        assert len(cluster.node_ids()) == before + 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestUnlockAfterClose:
    def test_double_unlock_raises(self, cluster, protocol):
        kz, desc = make_region(cluster, protocol)
        ctx = kz.lock(desc.rid, PAGE, LockMode.READ)
        kz.unlock(ctx)
        with pytest.raises(InvalidLockContext):
            kz.unlock(ctx)

    def test_closed_context_rejects_io(self, cluster, protocol):
        kz, desc = make_region(cluster, protocol)
        ctx = kz.lock(desc.rid, PAGE, LockMode.WRITE)
        kz.write(ctx, desc.rid, b"ok")
        kz.unlock(ctx)
        with pytest.raises(InvalidLockContext):
            kz.read(ctx, desc.rid, 2)  # khz: allow-stale-context(conformance: stale handles must raise under every protocol)


class TestAutomatonCoverage:
    """KHZ204 gate: the matrix above must exercise the declared edges.

    Runs last (pytest executes this file in order): by now EXERCISED
    holds every (state, event) pair the scenarios drove through each
    protocol's PageStateMachine.  The static side of the diff is the
    verifier's extracted edge list — the same models
    ``python -m repro.analysis.protocol`` checks — so a transition
    added to a TRANSITIONS table without a conformance scenario fails
    here with a ready-to-paste test skeleton.
    """

    THRESHOLD = 0.9

    def _models(self):
        from repro.analysis import sources
        from repro.analysis.flow.callgraph import CallGraph
        from repro.analysis.protocol.model import extract_models

        files = sources.collect(["src/repro/consistency/"])
        return extract_models(CallGraph(files))

    def test_matrix_covers_declared_edges(self):
        from repro.analysis.protocol.coverage import (
            edge_report,
            total_coverage,
            uncovered_skeletons,
        )

        models = self._models()
        assert {m.protocol for m in models} == set(PROTOCOLS)
        report = edge_report(models, EXERCISED)
        coverage = total_coverage(report)
        skeletons = uncovered_skeletons(models, EXERCISED)
        assert coverage >= self.THRESHOLD, (
            f"conformance matrix exercises {coverage:.0%} of the "
            f"declared automaton edges (gate: {self.THRESHOLD:.0%}); "
            "add scenarios for the uncovered edges:\n\n"
            + "\n".join(skeletons)
        )

    def test_observed_edges_stay_inside_the_model(self):
        # The dynamic trace is the automaton's ground truth: any
        # (protocol, event) pair the engine fired must be declared.
        models = {m.protocol: m for m in self._models()}
        for protocol, seen in sorted(EXERCISED.items()):
            declared = set(models[protocol].declared_events)
            fired = {event for _state, event in seen}
            assert fired <= declared, (
                f"{protocol} fired undeclared events "
                f"{sorted(fired - declared)}"
            )
