"""Tests for the dynamic race/invariant detector (repro.analysis.races)."""

from __future__ import annotations

from repro.analysis.races import RaceDetector, Violation
from repro.api import create_cluster
from repro.core.addressing import AddressRange
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockContext, LockMode


def _racing_cluster(num_nodes: int = 3):
    return create_cluster(
        num_nodes=num_nodes, config=DaemonConfig(detect_races=True)
    )


class TestWiring:
    def test_detector_shared_by_cluster(self):
        cluster = _racing_cluster()
        assert cluster.race_detector is not None
        assert cluster.race_detector.enabled
        for node in cluster.node_ids():
            assert cluster.daemon(node).probe is cluster.race_detector
            assert cluster.daemon(node).lock_table.probe is (
                cluster.race_detector
            )

    def test_detection_off_by_default(self):
        cluster = create_cluster(num_nodes=2)
        assert cluster.race_detector is None
        assert not cluster.daemon(0).probe.enabled


class TestCleanRuns:
    def test_crew_workload_is_clean(self):
        cluster = _racing_cluster()
        kz1, kz2 = cluster.client(1), cluster.client(2)
        desc = kz1.reserve(4 * 4096)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"hello")
        assert kz2.read_at(desc.rid, 5) == b"hello"
        kz2.write_at(desc.rid, b"world")
        assert kz1.read_at(desc.rid, 5) == b"world"
        assert cluster.race_detector.violations == []
        assert "no violations" in cluster.race_detector.report()

    def test_release_tokens_conserved(self):
        cluster = _racing_cluster()
        kz1, kz2 = cluster.client(1), cluster.client(2)
        attrs = RegionAttributes(consistency_level=ConsistencyLevel.RELEASE)
        desc = kz1.reserve(4 * 4096, attrs)
        kz1.allocate(desc.rid)
        for round_no in range(3):
            kz1.write_at(desc.rid, bytes([round_no]) * 64)
            kz2.write_at(desc.rid, bytes([round_no + 100]) * 64)
        cluster.run(1.0)
        detector = cluster.race_detector
        assert detector.violations == []
        # Quiesced: every granted token was returned.
        assert not any(
            v.rule == "token-conservation" for v in detector.final_check()
        )

    def test_eventual_concurrent_writes_are_observed_not_flagged(self):
        cluster = _racing_cluster()
        kz1, kz2 = cluster.client(1), cluster.client(2)
        attrs = RegionAttributes(consistency_level=ConsistencyLevel.EVENTUAL)
        desc = kz1.reserve(4096, attrs)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"a" * 16)
        kz2.write_at(desc.rid, b"b" * 16)
        cluster.run(1.0)
        assert not any(
            v.rule == "concurrent-writes"
            for v in cluster.race_detector.violations
        )


class TestSeededRaces:
    def test_crew_double_writer_is_caught(self):
        cluster = _racing_cluster()
        kz1 = cluster.client(1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        ctx1 = kz1.lock(desc.rid, 4096, LockMode.WRITE)
        # Bypass the consistency protocol: hand node 2's lock table a
        # second WRITE context on the same page, exactly what a buggy
        # CM that forgot to invalidate would do.
        rogue = LockContext(
            rid=desc.rid, range=AddressRange(desc.rid, 4096),
            mode=LockMode.WRITE, node_id=2, principal="rogue",
        )
        cluster.daemon(2).lock_table.register(rogue, [desc.rid])

        detector = cluster.race_detector
        flagged = [v for v in detector.violations
                   if v.rule == "crew-double-writer"]
        assert flagged, detector.report()
        violation = flagged[0]
        assert desc.rid in violation.pages
        assert set(violation.nodes) == {1, 2}
        report = detector.report()
        assert "crew-double-writer" in report
        assert "violation(s)" in report

        cluster.daemon(2).lock_table.release(rogue, [desc.rid])
        kz1.unlock(ctx1)

    def test_token_double_grant_is_caught(self):
        detector = RaceDetector()
        detector.token_granted(0, 0x1000, 1)
        detector.token_granted(0, 0x1000, 2)
        assert any(v.rule == "token-conservation"
                   for v in detector.violations)

    def test_token_release_by_non_holder_is_caught(self):
        detector = RaceDetector()
        detector.token_granted(0, 0x1000, 1)
        detector.token_released(0, 0x1000, 2)
        flagged = [v for v in detector.violations
                   if v.rule == "token-conservation"]
        assert flagged and "held by node 1" in flagged[0].detail

    def test_token_release_never_granted_is_caught(self):
        detector = RaceDetector()
        detector.token_released(0, 0x2000, 3)
        assert any("never granted" in v.detail for v in detector.violations)

    def test_outstanding_token_surfaces_in_final_check(self):
        detector = RaceDetector()
        detector.token_granted(0, 0x3000, 4)
        violations = detector.final_check()
        assert any(v.rule == "token-conservation"
                   and "still held" in v.detail for v in violations)

    def test_stale_context_access_is_caught(self):
        detector = RaceDetector()
        ctx = LockContext(
            rid=0x5000, range=AddressRange(0x5000, 4096),
            mode=LockMode.READ, node_id=0, principal="t",
        )
        detector.lock_registered(ctx, [0x5000])
        detector.lock_released(ctx, [0x5000])
        ctx.closed = True
        detector.page_read(0, ctx, [0x5000], "crew")
        assert any(v.rule == "stale-context" for v in detector.violations)

    def test_unbalanced_release_is_caught(self):
        detector = RaceDetector()
        ctx = LockContext(
            rid=0x6000, range=AddressRange(0x6000, 4096),
            mode=LockMode.READ, node_id=1, principal="t",
        )
        detector.lock_released(ctx, [0x6000])
        assert any(v.rule == "pin-balance" for v in detector.violations)


class TestViolationReports:
    def test_render_includes_pages_nodes_history(self):
        violation = Violation(
            rule="crew-double-writer", detail="two writers",
            pages=(0x4000,), nodes=(1, 2),
            history=("lock_request 1->0 (msg 7)",),
        )
        text = violation.render()
        assert "crew-double-writer" in text
        assert "0x4000" in text
        assert "nodes: 1, 2" in text
        assert "lock_request 1->0" in text

    def test_assert_clean_raises_with_report(self):
        import pytest

        detector = RaceDetector()
        detector.token_released(0, 0x2000, 3)
        with pytest.raises(AssertionError, match="token-conservation"):
            detector.assert_clean()
