"""Message-count pin over the conformance matrix and the control plane.

Runs the five conformance scenarios (tests/test_protocol_conformance)
for all four protocols, and six region-lifecycle scenarios (migrate,
resize both ways, set attributes, replica repair, auto-migration), on
the simulator under both placement backends, and compares the total
number of messages each run sends against a literal table.  Message counts are protocol behaviour: a
change that only reshapes payloads moves bytes, never counts, so a
cell that drifts is a behaviour change to explain, not a new baseline.
"""

import itertools

import pytest

from repro.api import create_cluster
from repro.core import region
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.migration import MIN_SAMPLES
from tests.test_protocol_conformance import PROTOCOLS, RING_CHURN_SCENARIOS

#: (placement, scenario, protocol) -> total messages sent.
MESSAGES_SENT = {
    ("tiered", "conflicting_writers", "crew"): 821,
    ("tiered", "conflicting_writers", "release"): 820,
    ("tiered", "conflicting_writers", "eventual"): 819,
    ("tiered", "conflicting_writers", "mobile"): 884,
    ("tiered", "failure_mid_acquire", "crew"): 4862,
    ("tiered", "failure_mid_acquire", "release"): 4860,
    ("tiered", "failure_mid_acquire", "eventual"): 835,
    ("tiered", "failure_mid_acquire", "mobile"): 561,
    ("tiered", "multi_page_batch", "crew"): 121,
    ("tiered", "multi_page_batch", "release"): 119,
    ("tiered", "multi_page_batch", "eventual"): 120,
    ("tiered", "multi_page_batch", "mobile"): 150,
    ("tiered", "single_page", "crew"): 60,
    ("tiered", "single_page", "release"): 60,
    ("tiered", "single_page", "eventual"): 60,
    ("tiered", "single_page", "mobile"): 60,
    ("tiered", "unlock_after_close", "crew"): 6,
    ("tiered", "unlock_after_close", "release"): 6,
    ("tiered", "unlock_after_close", "eventual"): 6,
    ("tiered", "unlock_after_close", "mobile"): 6,
    ("ring", "conflicting_writers", "crew"): 711,
    ("ring", "conflicting_writers", "release"): 710,
    ("ring", "conflicting_writers", "eventual"): 709,
    ("ring", "conflicting_writers", "mobile"): 777,
    ("ring", "failure_mid_acquire", "crew"): 1812,
    ("ring", "failure_mid_acquire", "release"): 1810,
    ("ring", "failure_mid_acquire", "eventual"): 457,
    ("ring", "failure_mid_acquire", "mobile"): 399,
    ("ring", "multi_page_batch", "crew"): 127,
    ("ring", "multi_page_batch", "release"): 125,
    ("ring", "multi_page_batch", "eventual"): 126,
    ("ring", "multi_page_batch", "mobile"): 156,
    ("ring", "single_page", "crew"): 77,
    ("ring", "single_page", "release"): 77,
    ("ring", "single_page", "eventual"): 77,
    ("ring", "single_page", "mobile"): 77,
    ("ring", "unlock_after_close", "crew"): 29,
    ("ring", "unlock_after_close", "release"): 29,
    ("ring", "unlock_after_close", "eventual"): 29,
    ("ring", "unlock_after_close", "mobile"): 29,
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(RING_CHURN_SCENARIOS))
@pytest.mark.parametrize("placement", ["tiered", "ring"])
def test_messages_sent_match_the_pin(placement, scenario, protocol,
                                    monkeypatch):
    # Descriptor versions come from a process-wide counter and ride the
    # wire as varints: restart it so a run's byte sizes — hence its
    # virtual timing and heartbeat count — do not depend on how many
    # regions earlier tests in this process created.
    monkeypatch.setattr(region, "_version_counter", itertools.count(1))
    num_nodes, run_scenario = RING_CHURN_SCENARIOS[scenario]
    cluster = create_cluster(num_nodes=num_nodes,
                             config=DaemonConfig(placement=placement))

    def churn():
        # Tiered runs keep a fixed member set; ring runs join a node
        # mid-scenario exactly as the conformance churn matrix does.
        if placement == "ring":
            cluster.add_node()
            cluster.run(1.0)

    run_scenario(cluster, protocol, churn)
    assert cluster.stats.messages_sent == \
        MESSAGES_SENT[(placement, scenario, protocol)]


# --- Control plane ---------------------------------------------------------
#
# The region-lifecycle paths that publish a descriptor or move a
# region's pages: each scenario runs one such operation on a two-home
# region (so the publish reaches a peer) and counts every message sent.

PAGE = 4096


def _replicated_region(cluster, pages=2, **attrs):
    kz = cluster.client(node=1)
    desc = kz.reserve(pages * PAGE, RegionAttributes(**attrs))
    kz.allocate(desc.rid)
    kz.write_at(desc.rid, b"pinned")
    return kz, desc


def _cp_migrate(cluster):
    _kz, desc = _replicated_region(cluster, min_replicas=2)
    cluster.client(node=2).migrate(desc.rid, 3)
    cluster.run(2.0)


def _cp_resize_grow(cluster):
    kz, desc = _replicated_region(cluster, min_replicas=2)
    kz.resize(desc.rid, 4 * PAGE)
    cluster.run(2.0)


def _cp_resize_shrink(cluster):
    kz, desc = _replicated_region(cluster, pages=4, min_replicas=2)
    kz.resize(desc.rid, PAGE)
    cluster.run(2.0)


def _cp_set_attributes(cluster):
    kz, desc = _replicated_region(cluster, min_replicas=2)
    kz.set_attributes(desc.rid, RegionAttributes(min_replicas=2))
    cluster.run(2.0)


def _cp_replica_repair(cluster):
    # The primary dies; the survivor is promoted and recruits a node.
    _kz, desc = _replicated_region(cluster, min_replicas=2)
    cluster.run(2.0)
    cluster.crash(desc.primary_home)
    cluster.run(20.0)


def _cp_auto_migration(cluster):
    _kz, desc = _replicated_region(cluster)
    heavy = cluster.client(node=3)
    for i in range(MIN_SAMPLES + 6):
        heavy.write_at(desc.rid, b"w%d" % i)
        cluster.run(0.2)
    cluster.run(5.0)


#: scenario -> (nodes, run, DaemonConfig overrides).
CONTROL_PLANE_SCENARIOS = {
    "migrate": (4, _cp_migrate, {}),
    "resize_grow": (4, _cp_resize_grow, {}),
    "resize_shrink": (4, _cp_resize_shrink, {}),
    "set_attributes": (4, _cp_set_attributes, {}),
    "replica_repair": (6, _cp_replica_repair, {}),
    "auto_migration": (4, _cp_auto_migration,
                       {"enable_auto_migration": True}),
}

#: (placement, scenario) -> total messages sent.
CONTROL_PLANE_MESSAGES_SENT = {
    ("tiered", "migrate"): 75,
    ("tiered", "resize_grow"): 68,
    ("tiered", "resize_shrink"): 68,
    ("tiered", "set_attributes"): 63,
    ("tiered", "replica_repair"): 1134,
    ("tiered", "auto_migration"): 254,
    ("ring", "migrate"): 56,
    ("ring", "resize_grow"): 49,
    ("ring", "resize_shrink"): 49,
    ("ring", "set_attributes"): 45,
    ("ring", "replica_repair"): 473,
    ("ring", "auto_migration"): 181,
}


@pytest.mark.parametrize("scenario", sorted(CONTROL_PLANE_SCENARIOS))
@pytest.mark.parametrize("placement", ["tiered", "ring"])
def test_control_plane_messages_sent_match_the_pin(placement, scenario,
                                                   monkeypatch):
    monkeypatch.setattr(region, "_version_counter", itertools.count(1))
    num_nodes, run_scenario, overrides = CONTROL_PLANE_SCENARIOS[scenario]
    cluster = create_cluster(
        num_nodes=num_nodes,
        config=DaemonConfig(placement=placement, **overrides))
    run_scenario(cluster)
    assert cluster.stats.messages_sent == \
        CONTROL_PLANE_MESSAGES_SENT[(placement, scenario)]
