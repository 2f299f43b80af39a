"""Shared fixtures for the Khazana test suite.

Setting ``KHAZANA_DETECT_RACES=1`` in the environment runs every
fixture-built cluster with the dynamic race detector enabled
(``DaemonConfig.detect_races``) and fails any test whose cluster
recorded a violation — the CI "consistency pass with the detector on".
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.api import Cluster, create_cluster
from repro.core.kernel import DaemonConfig

DETECT_RACES = os.environ.get("KHAZANA_DETECT_RACES", "") not in ("", "0")


def _make_cluster(**kwargs) -> Cluster:
    if DETECT_RACES:
        config = kwargs.pop("config", None) or DaemonConfig()
        kwargs["config"] = replace(config, detect_races=True)
    return create_cluster(**kwargs)


@pytest.fixture
def _race_check():
    """Yields a list the cluster fixtures append to; violations found
    by any attached detector fail the test at teardown."""
    clusters: list = []
    yield clusters
    if not DETECT_RACES:
        return
    problems = []
    for cluster in clusters:
        detector = cluster.race_detector
        if detector is not None and detector.violations:
            # Live violations only: final_check() is skipped because
            # crash/partition tests legitimately leave pins behind.
            problems.extend(v.render() for v in detector.violations)
    assert not problems, "race detector flagged:\n" + "\n".join(problems)


@pytest.fixture
def cluster(_race_check) -> Cluster:
    """A 4-node LAN cluster (node 0 is cluster manager + bootstrap)."""
    built = _make_cluster(num_nodes=4)
    _race_check.append(built)
    return built


@pytest.fixture
def big_cluster(_race_check) -> Cluster:
    """An 8-node LAN cluster for replication/failure tests."""
    built = _make_cluster(num_nodes=8)
    _race_check.append(built)
    return built


@pytest.fixture
def wan_cluster(_race_check) -> Cluster:
    """A 4-node WAN cluster."""
    built = _make_cluster(num_nodes=4, topology="wan")
    _race_check.append(built)
    return built


@pytest.fixture
def quiet_cluster(_race_check) -> Cluster:
    """A 4-node cluster without background failure handling, for tests
    that count messages exactly."""
    config = DaemonConfig(enable_failure_handling=False)
    built = _make_cluster(num_nodes=4, config=config)
    _race_check.append(built)
    return built
