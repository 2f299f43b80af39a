"""Experiment A1 — ablation of the location-hint tiers.

Section 3.5 argues the first two lookup tiers exist to reduce
dependence on (and traffic to) the address-map tree: "the local region
directory is searched first and then the cluster manager is queried,
before an address map tree search is started".

We run one uniform read workload with each tier knocked out:

- full:       region directory + cluster hints + map
- no-hints:   cluster-manager tier disabled
- tiny-dir:   region directory shrunk to one entry
- neither:    both degradations at once

Expected shape: every removed tier pushes lookups deeper and raises
messages per operation, with "neither" strictly worst.
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.bench.workloads import (
    AccessPattern,
    WorkloadSpec,
    make_regions,
    run_access_workload,
)
from repro.core.kernel import DaemonConfig

REGIONS = 32
OPS = 160

CONFIGS = {
    "full": DaemonConfig(),
    "no-hints": DaemonConfig(use_cluster_hints=False),
    "tiny-dir": DaemonConfig(region_directory_capacity=1),
    "neither": DaemonConfig(use_cluster_hints=False,
                            region_directory_capacity=1),
}


def _run(config):
    cluster = create_cluster(num_nodes=4, config=config)
    owner = cluster.client(node=1)
    regions = make_regions(owner, REGIONS)
    for region in regions:
        owner.write_at(region.rid, b"seed")
    cluster.run(2.0)
    reader = cluster.client(node=3)
    daemon = cluster.daemon(3)
    daemon.stats.lookup_tiers.clear()
    before = cluster.stats.snapshot()
    spec = WorkloadSpec(operations=OPS, write_fraction=0.0,
                        pattern=AccessPattern.UNIFORM, seed=3)
    result = run_access_workload(cluster, reader, regions, spec)
    delta = cluster.stats.delta_since(before)
    background = sum(
        delta.by_type.get(t, 0)
        for t in ("ping", "pong", "free_space_report")
    )
    return {
        "tiers": dict(daemon.stats.lookup_tiers),
        "msgs_per_op": (delta.messages_sent - background) / OPS,
        "mean_ms": result.latency.mean() * 1000,
        "errors": result.errors,
    }


def test_tier_ablation(once):
    def run():
        return {name: _run(config) for name, config in CONFIGS.items()}

    results = once(run)

    table = Table(
        f"A1: knocking out lookup tiers ({OPS} uniform reads over "
        f"{REGIONS} regions)",
        ["variant", "directory", "cluster", "map", "msgs/op", "mean ms"],
    )
    for name, r in results.items():
        table.add(name, r["tiers"].get("directory", 0),
                  r["tiers"].get("cluster", 0), r["tiers"].get("map", 0),
                  r["msgs_per_op"], r["mean_ms"])
    table.show()

    for r in results.values():
        assert r["errors"] == 0   # every variant still works

    full = results["full"]
    no_hints = results["no-hints"]
    tiny = results["tiny-dir"]
    neither = results["neither"]

    # Shape 1: the full chain is the cheapest configuration.
    assert full["msgs_per_op"] <= no_hints["msgs_per_op"] + 1e-9
    assert full["msgs_per_op"] <= tiny["msgs_per_op"] + 1e-9
    # Shape 2: losing both tiers is strictly the worst.
    assert neither["msgs_per_op"] > full["msgs_per_op"]
    assert neither["msgs_per_op"] >= max(no_hints["msgs_per_op"],
                                         tiny["msgs_per_op"]) - 1e-9
    # Shape 3: without hints, directory misses go to the map tier.
    assert no_hints["tiers"].get("cluster", 0) == 0
    assert neither["tiers"].get("map", 0) > full["tiers"].get("map", 0)
