"""Tests for the placement seam (repro/core/placement).

The tiered chain's behaviour is pinned by test_location.py; here the
seam itself is exercised — strategy selection, the shared surface —
plus the hash-ring backend: rendezvous math every node must agree on,
O(1) lookups over the live member set, the membership join/leave
protocol, and live re-homing when the ring changes under traffic.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import create_cluster
from repro.core.kernel import DaemonConfig
from repro.core.errors import RegionNotFound
from repro.core.placement import (
    HashRingPlacement,
    TieredPlacement,
    create_placement,
)
from repro.core.placement.membership import FOCUS_SUCCESSORS
from repro.core.placement.ring import (
    BUCKET_BYTES,
    DirectorTable,
    bucket_of,
    director_of,
    mix64,
    rank_members,
    rendezvous_weight,
)


def ring_config(**overrides) -> DaemonConfig:
    return DaemonConfig(placement="ring", **overrides)


@pytest.fixture
def ring_cluster():
    return create_cluster(num_nodes=4, config=ring_config())


def reserve_on(cluster, node, size=4096, payload=b"ring data"):
    kz = cluster.client(node=node)
    desc = kz.reserve(size)
    kz.allocate(desc.rid)
    kz.write_at(desc.rid, payload)
    return desc


# ---------------------------------------------------------------------------
# Rendezvous math: every node must compute the same answers
# ---------------------------------------------------------------------------

class TestRingMath:
    def test_mix64_ignores_pythonhashseed(self):
        """Ring positions come from a fixed mixer, not Python's hash():
        two processes with different PYTHONHASHSEED must agree."""
        src = str(Path(repro.__file__).resolve().parents[1])
        script = ("from repro.core.placement.ring import mix64;"
                  "print(mix64(0xDEADBEEF), mix64(0), mix64(1))")
        seen = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            seen.add(subprocess.check_output(
                [sys.executable, "-c", script], env=env
            ).strip())
        assert len(seen) == 1

    def test_rank_is_order_independent(self):
        members = [3, 17, 4, 9, 0]
        baseline = rank_members(7, members)
        assert rank_members(7, list(reversed(members))) == baseline
        assert rank_members(7, sorted(members)) == baseline
        assert sorted(baseline) == sorted(members)

    def test_director_is_top_ranked(self):
        members = list(range(12))
        for bucket in range(64):
            assert director_of(bucket, members) == (
                rank_members(bucket, members)[0]
            )

    def test_distinct_members_get_distinct_weights(self):
        weights = {rendezvous_weight(5, m) for m in range(100)}
        assert len(weights) == 100

    def test_bucket_of_is_granular(self):
        assert bucket_of(0) == 0
        assert bucket_of(BUCKET_BYTES - 1) == 0
        assert bucket_of(BUCKET_BYTES) == 1


class TestDirectorTable:
    def test_matches_direct_computation(self):
        members = [2, 5, 11, 19]
        table = DirectorTable(256, members)
        for bucket in range(256):
            assert table.director(bucket) == director_of(bucket, members)

    def test_join_moves_roughly_fair_share(self):
        """Rendezvous property: a join steals ~buckets/(n+1) buckets,
        all of them to the newcomer."""
        table = DirectorTable(4096, range(16))
        moved = table.join(16)
        expected = 4096 / 17
        assert expected * 0.5 <= len(moved) <= expected * 1.6
        assert all(table.director(b) == 16 for b in moved)

    def test_leave_moves_only_departed_buckets(self):
        members = list(range(8))
        table = DirectorTable(1024, members)
        before = {b: table.director(b) for b in range(1024)}
        departed = 3
        moved = table.leave(departed)
        assert set(moved) == {b for b, d in before.items() if d == departed}
        survivors = [m for m in members if m != departed]
        for bucket in range(1024):
            assert table.director(bucket) == director_of(bucket, survivors)

    def test_spread_is_balanced(self):
        table = DirectorTable(4096, range(16))
        spread = table.spread()
        mean = 4096 / 16
        assert all(0.5 * mean <= count <= 1.6 * mean
                   for count in spread.values()), spread

    def test_rejoin_restores_prior_assignment(self):
        table = DirectorTable(512, range(6))
        before = [table.director(b) for b in range(512)]
        table.leave(4)
        table.join(4)
        assert [table.director(b) for b in range(512)] == before


# ---------------------------------------------------------------------------
# The seam: strategy selection and the shared surface
# ---------------------------------------------------------------------------

class TestSeam:
    def test_default_strategy_is_tiered(self, cluster):
        for node in cluster.node_ids():
            daemon = cluster.daemon(node)
            assert isinstance(daemon.placement, TieredPlacement)
            assert daemon.membership is None

    def test_ring_strategy_selected_by_config(self, ring_cluster):
        for node in ring_cluster.node_ids():
            daemon = ring_cluster.daemon(node)
            assert isinstance(daemon.placement, HashRingPlacement)
            assert daemon.membership is not None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            create_cluster(num_nodes=2,
                           config=DaemonConfig(placement="bogus"))

    def test_factory_matches_kernel(self, cluster):
        daemon = cluster.daemon(0)
        built = create_placement(daemon)
        assert type(built) is type(daemon.placement)

    def test_manager_node_still_reported(self, cluster):
        assert cluster.daemon(1).cluster_manager_node == 0

    def test_report_names_strategy(self, cluster, ring_cluster):
        assert cluster.daemon(0).placement.report()["strategy"] == "tiered"
        assert ring_cluster.daemon(0).placement.report()["strategy"] == "ring"


# ---------------------------------------------------------------------------
# Ring placement end to end (simulated cluster)
# ---------------------------------------------------------------------------

class TestRingLookup:
    def test_cross_node_read_uses_ring_tier(self, ring_cluster):
        desc = reserve_on(ring_cluster, node=1)
        reader = next(n for n in ring_cluster.node_ids()
                      if n not in desc.home_nodes)
        kz = ring_cluster.client(node=reader)
        assert kz.read_at(desc.rid, 9) == b"ring data"
        tiers = ring_cluster.daemon(reader).stats.lookup_tiers
        assert tiers.get("ring", 0) >= 1
        assert tiers.get("cluster", 0) == 0

    def test_director_is_primary_home(self, ring_cluster):
        desc = reserve_on(ring_cluster, node=2)
        members = ring_cluster.daemon(2).membership.alive_members()
        director = director_of(bucket_of(desc.range.start), members)
        assert desc.home_nodes[0] == director

    def test_second_lookup_hits_local_directory(self, ring_cluster):
        desc = reserve_on(ring_cluster, node=1)
        reader = next(n for n in ring_cluster.node_ids()
                      if n not in desc.home_nodes)
        kz = ring_cluster.client(node=reader)
        kz.read_at(desc.rid, 4)
        before = dict(ring_cluster.daemon(reader).stats.lookup_tiers)
        kz.read_at(desc.rid, 4)
        after = ring_cluster.daemon(reader).stats.lookup_tiers
        assert after.get("directory", 0) > before.get("directory", 0)

    def test_many_regions_resolve_from_every_node(self, ring_cluster):
        descs = [reserve_on(ring_cluster, node=1,
                            payload=f"r{i}".encode().ljust(4, b"."))
                 for i in range(8)]
        ring_cluster.run(1.0)
        for node in ring_cluster.node_ids():
            kz = ring_cluster.client(node=node)
            for i, desc in enumerate(descs):
                expected = f"r{i}".encode().ljust(4, b".")
                assert kz.read_at(desc.rid, 4) == expected

    def test_unknown_address_still_fails_cleanly(self, ring_cluster):
        kz = ring_cluster.client(node=2)
        with pytest.raises(RegionNotFound):
            kz.read_at(0x7777777770000, 4)

    def test_ring_tier_recorded_in_stats_enum(self, ring_cluster):
        desc = reserve_on(ring_cluster, node=1)
        reader = next(n for n in ring_cluster.node_ids()
                      if n not in desc.home_nodes)
        ring_cluster.client(node=reader).read_at(desc.rid, 4)
        tiers = ring_cluster.daemon(reader).stats.lookup_tiers
        assert set(tiers) <= {"directory", "ring", "map", "walk"}


class TestMembership:
    def test_bootstrap_seeds_full_member_set(self, ring_cluster):
        for node in ring_cluster.node_ids():
            membership = ring_cluster.daemon(node).membership
            assert membership.members() == [0, 1, 2, 3]

    def test_join_gossip_reaches_every_member(self, ring_cluster):
        fresh = ring_cluster.add_node()
        ring_cluster.run(2.0)
        for node in ring_cluster.node_ids():
            membership = ring_cluster.daemon(node).membership
            assert fresh.node_id in membership.members(), node

    def test_newcomer_learns_existing_members(self, ring_cluster):
        fresh = ring_cluster.add_node()
        ring_cluster.run(2.0)
        assert fresh.membership.members() == [0, 1, 2, 3, fresh.node_id]

    def test_clean_leave_removes_member_everywhere(self, ring_cluster):
        ring_cluster.run(1.0)
        ring_cluster.remove_node(3)
        ring_cluster.run(2.0)
        for node in ring_cluster.node_ids():
            assert 3 not in ring_cluster.daemon(node).membership.members()

    def test_focus_pinging_is_bounded(self, ring_cluster):
        """Each member pings only its ring successors, so liveness
        cost stays O(1) per member as the ring grows."""
        for _ in range(3):
            ring_cluster.add_node()
        ring_cluster.run(2.0)
        for node in ring_cluster.node_ids():
            membership = ring_cluster.daemon(node).membership
            assert 0 < len(membership._focus) <= FOCUS_SUCCESSORS

    def test_crash_detected_and_gossiped(self, ring_cluster):
        ring_cluster.run(1.0)
        ring_cluster.crash(2)
        ring_cluster.run(15.0)   # ping rounds + death gossip
        for node in (0, 1, 3):
            membership = ring_cluster.daemon(node).membership
            assert 2 not in membership.alive_members()

    def test_new_node_reads_existing_data(self, ring_cluster):
        desc = reserve_on(ring_cluster, node=1, payload=b"pre-join")
        fresh = ring_cluster.add_node()
        ring_cluster.run(2.0)
        kz = ring_cluster.client(node=fresh.node_id)
        assert kz.read_at(desc.rid, 8) == b"pre-join"


class TestRehoming:
    def test_join_rehomes_regions_to_new_director(self):
        """A join moves ~regions/nodes regions onto the newcomer, live
        (paper Section 3: machines dynamically enter and contribute
        resources)."""
        cluster = create_cluster(num_nodes=3, config=ring_config())
        descs = [reserve_on(cluster, node=1, size=BUCKET_BYTES,
                            payload=f"v{i}".encode().ljust(4, b"."))
                 for i in range(12)]
        cluster.run(1.0)
        fresh = cluster.add_node()
        cluster.run(20.0)   # join gossip + re-home migrations
        members = fresh.membership.alive_members()
        moved = 0
        for desc in descs:
            director = director_of(bucket_of(desc.range.start), members)
            if director != fresh.node_id:
                continue
            moved += 1
            promoted = fresh.homed_regions.get(desc.rid)
            assert promoted is not None, (
                f"region {desc.rid:#x} should have re-homed onto "
                f"node {fresh.node_id}"
            )
            assert promoted.primary_home == fresh.node_id
        assert moved >= 1   # 12 regions over 4 members: newcomer wins some
        # Data survives the moves and resolves from everywhere.
        for i, desc in enumerate(descs):
            expected = f"v{i}".encode().ljust(4, b".")
            assert cluster.client(node=0).read_at(desc.rid, 4) == expected

    def test_rehome_counter_visible_in_report(self):
        cluster = create_cluster(num_nodes=3, config=ring_config())
        for i in range(12):
            reserve_on(cluster, node=1, size=BUCKET_BYTES)
        cluster.run(1.0)
        cluster.add_node()
        cluster.run(20.0)
        proposed = sum(
            cluster.daemon(n).placement.report()["rehomes_proposed"]
            for n in cluster.node_ids()
        )
        assert proposed >= 1

    def test_stale_client_follows_region_after_rehome(self):
        """The ordered request_home failover: a client whose cached
        descriptor predates a re-home is redirected by the old home's
        NAK to the new director instead of failing."""
        cluster = create_cluster(num_nodes=3, config=ring_config())
        descs = [reserve_on(cluster, node=1, size=BUCKET_BYTES,
                            payload=f"s{i}".encode().ljust(4, b"."))
                 for i in range(12)]
        reader = 2
        kz = cluster.client(node=reader)
        for desc in descs:
            kz.read_at(desc.rid, 4)   # warm (soon-stale) descriptors
        fresh = cluster.add_node()
        cluster.run(20.0)   # re-homes complete; reader caches go stale
        for i, desc in enumerate(descs):
            expected = f"s{i}".encode().ljust(4, b".")
            assert kz.read_at(desc.rid, 4) == expected
