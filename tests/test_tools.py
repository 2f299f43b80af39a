"""Tests for the fsck checker and inspection tools — and, through
them, whole-cluster invariant checks after a battery of operations."""

import pytest

from repro.api import create_cluster
from repro.core.address_map import (
    MAX_ENTRIES,
    ROOT_PAGE,
    SYSTEM_REGION,
    EntryState,
    MapEntry,
    MapNode,
)
from repro.core.addressing import DEFAULT_PAGE_SIZE, MAX_ADDRESS, AddressRange
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.storage.store import StoredPage
from repro.tools import (
    check_cluster,
    cluster_summary,
    engine_report,
    latency_report,
    placement_report,
    region_report,
    storage_report,
)


def exercised_cluster():
    """A cluster that has done a bit of everything."""
    cluster = create_cluster(num_nodes=4)
    kz1 = cluster.client(node=1)
    descs = []
    for level in ConsistencyLevel:
        desc = kz1.reserve(
            8192, RegionAttributes(consistency_level=level)
        )
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"fsck-me")
        descs.append(desc)
    cluster.client(node=3).read_at(descs[0].rid, 7)
    cluster.client(node=2).write_at(descs[0].rid, b"updated")
    kz1.unreserve(descs[-1].rid)
    cluster.run(5.0)
    return cluster, descs


class TestFsck:
    def test_clean_cluster_passes(self):
        cluster, _descs = exercised_cluster()
        report = check_cluster(cluster)
        assert report.ok, report.render()
        assert report.checked_map_entries > 0
        assert report.checked_regions >= 2
        assert report.checked_pages >= 2

    def test_fresh_cluster_passes(self, cluster):
        report = check_cluster(cluster)
        assert report.ok, report.render()

    def test_detects_phantom_sharer(self):
        cluster, descs = exercised_cluster()
        entry = cluster.daemon(1).page_directory.get(descs[0].rid)
        entry.record_sharer(0)   # node 0 holds no copy: corruption
        report = check_cluster(cluster)
        assert not report.ok
        assert any("sharer" in e for e in report.errors)

    def test_detects_unmapped_homed_region(self):
        cluster, descs = exercised_cluster()
        daemon = cluster.daemon(1)
        ghost = descs[0].with_homes((1,))
        object.__setattr__(ghost, "range",
                           type(ghost.range)(0x900000000000, 4096))
        daemon.homed_regions[0x900000000000] = ghost
        report = check_cluster(cluster)
        assert not report.ok
        assert any("missing from the address map" in e
                   for e in report.errors)

    def test_detects_storage_miscount(self):
        cluster, _descs = exercised_cluster()
        cluster.daemon(2).storage.memory._used += 1   # corrupt counter
        report = check_cluster(cluster)
        assert not report.ok
        assert any("used_bytes" in e for e in report.errors)

    def test_survives_migration_and_failover(self):
        cluster = create_cluster(num_nodes=6)
        kz = cluster.client(node=1)
        desc = kz.reserve(4096, RegionAttributes(min_replicas=2))
        kz.allocate(desc.rid)
        kz.write_at(desc.rid, b"x")
        kz.migrate(desc.rid, 4)
        cluster.run(3.0)
        report = check_cluster(cluster)
        # Migration may leave stale map homes (warning), never errors.
        assert report.ok, report.render()

    def test_report_renders(self):
        cluster, _ = exercised_cluster()
        text = check_cluster(cluster).render()
        assert "fsck:" in text and "map entries" in text

    def test_strict_mode_passes_on_quiesced_cluster(self):
        cluster, _descs = exercised_cluster()
        report = check_cluster(cluster, strict=True)
        assert report.ok, report.render()

    def test_strict_mode_detects_unreachable_stored_page(self):
        cluster, descs = exercised_cluster()
        daemon = cluster.daemon(2)
        # A stored page with no page-directory entry can never be
        # invalidated or written back: strict-only corruption.
        daemon.page_directory.drop(descs[0].rid)
        report = check_cluster(cluster, strict=True)
        assert any("no page-directory entry" in e for e in report.errors)
        # The same cluster passes the non-strict checks.
        assert check_cluster(cluster).ok


class TestFsckMapShape:
    """fsck checks the address-map tree's shape, not just its leaves."""

    SPLIT = 0x2000000
    LEFT, RIGHT = 0x100000, 0x101000   # unused system-region pages

    @staticmethod
    def install(cluster, pages):
        storage = cluster.daemon(0).storage
        for page_addr, entries in pages.items():
            storage.store(StoredPage(page_addr, MapNode(entries).encode(
                DEFAULT_PAGE_SIZE)))

    @staticmethod
    def entry(start, end, state, *data):
        return MapEntry(AddressRange.from_bounds(start, end), state, data)

    def test_grown_map_is_balanced_and_reports_its_depth(self):
        cluster = create_cluster(num_nodes=2)
        kz = cluster.client(node=1)
        for _ in range(2 * MAX_ENTRIES):
            kz.reserve(4096)
        cluster.run(2.0)
        report = check_cluster(cluster)
        assert report.ok, report.render()
        assert report.map_depth == 1
        assert "(depth 1)" in report.render()

    def test_overlapping_children_are_flagged(self, cluster):
        e, end = self.entry, MAX_ADDRESS + 1
        self.install(cluster, {
            ROOT_PAGE: [e(0, self.SPLIT, EntryState.SUBTREE, self.LEFT),
                        e(self.SPLIT, end, EntryState.SUBTREE, self.RIGHT)],
            # The left child reaches past its parent entry's range.
            self.LEFT: [e(0, SYSTEM_REGION.end, EntryState.RESERVED, 0),
                        e(SYSTEM_REGION.end, self.SPLIT + 0x1000,
                          EntryState.FREE)],
            self.RIGHT: [e(self.SPLIT, end, EntryState.FREE)],
        })
        report = check_cluster(cluster)
        assert any(f"map page {self.LEFT:#x} does not partition" in error
                   for error in report.errors), report.render()

    def test_page_reached_twice_is_flagged(self, cluster):
        e, end = self.entry, MAX_ADDRESS + 1
        self.install(cluster, {
            ROOT_PAGE: [e(0, self.SPLIT, EntryState.SUBTREE, self.LEFT),
                        e(self.SPLIT, end, EntryState.SUBTREE, self.LEFT)],
            self.LEFT: [e(0, SYSTEM_REGION.end, EntryState.RESERVED, 0),
                        e(SYSTEM_REGION.end, self.SPLIT, EntryState.FREE)],
        })
        report = check_cluster(cluster)
        assert f"map page {self.LEFT:#x} is reached twice" in report.errors

    def test_unbalanced_tree_is_flagged(self, cluster):
        e, end = self.entry, MAX_ADDRESS + 1
        self.install(cluster, {
            ROOT_PAGE: [e(0, SYSTEM_REGION.end, EntryState.RESERVED, 0),
                        e(SYSTEM_REGION.end, end, EntryState.SUBTREE,
                          self.LEFT)],
            self.LEFT: [e(SYSTEM_REGION.end, end, EntryState.FREE)],
        })
        report = check_cluster(cluster)
        assert report.errors == ["map leaves sit at depths [0, 1], not one"]


class TestInspect:
    def test_cluster_summary(self):
        cluster, descs = exercised_cluster()
        summary = cluster_summary(cluster)
        assert summary["nodes"] == 4
        rids = {r["rid"] for r in summary["regions"]}
        assert descs[0].rid in rids
        assert descs[-1].rid not in rids   # unreserved region gone
        first = next(r for r in summary["regions"]
                     if r["rid"] == descs[0].rid)
        assert first["primary_home"] == 1
        assert 1 in first["cached_on"]

    def test_region_report_shows_copysets(self):
        cluster, descs = exercised_cluster()
        report = region_report(cluster, descs[0].rid)
        assert 1 in report["homes"]
        pages = report["pages"]
        assert descs[0].rid in pages
        # Node 2 wrote last, so the home's entry says node 2 owns it.
        assert pages[descs[0].rid][1]["owner"] == 2

    def test_latency_report(self):
        cluster, _ = exercised_cluster()
        rows = latency_report(cluster)
        assert len(rows) == 4
        # Node 1 homes the regions, so it answered remote requests.
        node1 = next(r for r in rows if r["node"] == 1)
        assert node1["ops"], "home node should have replied to requests"
        for op, rec in node1["ops"].items():
            assert rec["count"] > 0
            assert 0.0 <= rec["mean"] <= rec["max"]
        # The summary aggregate agrees on total counts per op.
        summary = cluster_summary(cluster)
        totals = {}
        for row in rows:
            for op, rec in row["ops"].items():
                totals[op] = totals.get(op, 0) + rec["count"]
        assert {op: rec["count"]
                for op, rec in summary["op_latency"].items()} == totals

    def test_storage_report(self):
        cluster, _ = exercised_cluster()
        rows = storage_report(cluster)
        assert len(rows) == 4
        node1 = next(r for r in rows if r["node"] == 1)
        assert node1["ram_used"] > 0
        assert node1["ram_used"] <= node1["ram_capacity"]

    def test_engine_report(self):
        cluster, _ = exercised_cluster()
        rows = engine_report(cluster)
        assert len(rows) == 4
        node1 = next(r for r in rows if r["node"] == 1)
        # Node 1 homes regions under every consistency level, so its
        # engines served home transactions.
        assert set(node1["protocols"]) >= {"crew", "release", "eventual"}
        assert all(
            set(counters) == {"home_transactions", "batch_fanouts",
                              "per_page_fallbacks", "rollbacks"}
            for counters in node1["protocols"].values()
        )
        total_home = sum(
            counters["home_transactions"]
            for row in rows
            for counters in row["protocols"].values()
        )
        assert total_home > 0


class TestPlacementReport:
    def test_summary_aggregates_tier_hit_rates(self):
        cluster, _ = exercised_cluster()
        summary = cluster_summary(cluster)
        assert summary["placement"] == "tiered"
        tiers = summary["lookup_tiers"]
        assert tiers.get("directory", 0) >= 1
        rates = summary["tier_hit_rates"]
        assert set(rates) == set(tiers)
        assert abs(sum(rates.values()) - 1.0) < 1e-9
        assert all(0.0 < r <= 1.0 for r in rates.values())

    def test_tiered_rows_name_the_manager(self):
        cluster, _ = exercised_cluster()
        report = placement_report(cluster)
        assert report["strategy"] == "tiered"
        assert set(report["nodes"]) == set(cluster.node_ids())
        assert report["nodes"][1]["manager_node"] == 0
        # Node 1 reserved every region, so it primary-homes them all.
        assert report["primary_homes"][1] >= 1
        # No ring, no spread.
        assert "ring_spread" not in report

    def test_ring_rows_show_membership_and_spread(self):
        from repro.core.kernel import DaemonConfig

        cluster = create_cluster(
            num_nodes=4, config=DaemonConfig(placement="ring")
        )
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"ring")
        cluster.client(node=3).read_at(desc.rid, 4)
        cluster.run(2.0)
        report = placement_report(cluster)
        assert report["strategy"] == "ring"
        assert report["alive_members"] == [0, 1, 2, 3]
        spread = report["ring_spread"]
        assert set(spread) == {0, 1, 2, 3}
        assert sum(spread.values()) > 0
        mean = sum(spread.values()) / len(spread)
        assert all(0.5 * mean <= n <= 1.6 * mean
                   for n in spread.values())
        # The ring tier shows up in the summary's aggregate rates.
        summary = cluster_summary(cluster)
        assert summary["placement"] == "ring"
        assert summary["lookup_tiers"].get("ring", 0) >= 1


class TestTokenLedgerInvariant:
    def test_leaked_grant_is_flagged(self):
        from repro.analysis.invariants import check_token_ledgers

        cluster, descs = exercised_cluster()
        daemons = [cluster.daemon(n) for n in cluster.node_ids()]
        assert check_token_ledgers(daemons) == []
        # Corrupt one ledger: record a holder without its mutex held.
        cm = cluster.daemon(1).consistency_manager("release")
        cm.engine.ledger._holders[descs[1].rid] = 3
        problems = check_token_ledgers(daemons)
        assert len(problems) == 1
        assert "mutex is not held" in problems[0]
        # fsck --strict surfaces the same corruption.
        report = check_cluster(cluster, strict=True)
        assert any("token" in e for e in report.errors)


class TestProtocolReport:
    def test_static_report_needs_no_cluster(self):
        from repro.tools import protocol_report

        doc = protocol_report()
        assert doc["findings"] == []
        assert sorted(doc["protocols"]) == [
            "crew", "eventual", "mobile", "release"
        ]
        crew = doc["protocols"]["crew"]
        assert crew["class"] == "CrewManager"
        assert crew["states"][0] == "INVALID"
        assert ["WRITE_GRANT", "EXCLUSIVE"] in crew["event_edges"]
        for invariant in crew["invariants"].values():
            assert invariant["proved"]
            assert invariant["trace"][0].startswith("KHZ202 proved")
