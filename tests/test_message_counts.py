"""Message-count pin over the conformance matrix.

Runs the five conformance scenarios (tests/test_protocol_conformance)
for all four protocols on the simulator, under both placement
backends, and compares the total number of messages each run sends
against a literal table.  Message counts are protocol behaviour: a
change that only reshapes payloads moves bytes, never counts, so a
cell that drifts is a behaviour change to explain, not a new baseline.
"""

import itertools

import pytest

from repro.api import create_cluster
from repro.core import region
from repro.core.daemon import DaemonConfig
from tests.test_protocol_conformance import PROTOCOLS, RING_CHURN_SCENARIOS

#: (placement, scenario, protocol) -> total messages sent.
MESSAGES_SENT = {
    ("tiered", "conflicting_writers", "crew"): 823,
    ("tiered", "conflicting_writers", "release"): 822,
    ("tiered", "conflicting_writers", "eventual"): 821,
    ("tiered", "conflicting_writers", "mobile"): 886,
    ("tiered", "failure_mid_acquire", "crew"): 5573,
    ("tiered", "failure_mid_acquire", "release"): 5571,
    ("tiered", "failure_mid_acquire", "eventual"): 922,
    ("tiered", "failure_mid_acquire", "mobile"): 601,
    ("tiered", "multi_page_batch", "crew"): 123,
    ("tiered", "multi_page_batch", "release"): 121,
    ("tiered", "multi_page_batch", "eventual"): 125,
    ("tiered", "multi_page_batch", "mobile"): 152,
    ("tiered", "single_page", "crew"): 62,
    ("tiered", "single_page", "release"): 62,
    ("tiered", "single_page", "eventual"): 62,
    ("tiered", "single_page", "mobile"): 62,
    ("tiered", "unlock_after_close", "crew"): 8,
    ("tiered", "unlock_after_close", "release"): 8,
    ("tiered", "unlock_after_close", "eventual"): 8,
    ("tiered", "unlock_after_close", "mobile"): 8,
    ("ring", "conflicting_writers", "crew"): 713,
    ("ring", "conflicting_writers", "release"): 712,
    ("ring", "conflicting_writers", "eventual"): 711,
    ("ring", "conflicting_writers", "mobile"): 779,
    ("ring", "failure_mid_acquire", "crew"): 2463,
    ("ring", "failure_mid_acquire", "release"): 2461,
    ("ring", "failure_mid_acquire", "eventual"): 517,
    ("ring", "failure_mid_acquire", "mobile"): 438,
    ("ring", "multi_page_batch", "crew"): 129,
    ("ring", "multi_page_batch", "release"): 127,
    ("ring", "multi_page_batch", "eventual"): 131,
    ("ring", "multi_page_batch", "mobile"): 158,
    ("ring", "single_page", "crew"): 79,
    ("ring", "single_page", "release"): 79,
    ("ring", "single_page", "eventual"): 79,
    ("ring", "single_page", "mobile"): 79,
    ("ring", "unlock_after_close", "crew"): 31,
    ("ring", "unlock_after_close", "release"): 31,
    ("ring", "unlock_after_close", "eventual"): 31,
    ("ring", "unlock_after_close", "mobile"): 31,
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
