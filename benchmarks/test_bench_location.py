"""Experiment C1 — the three-tier location chain (paper Section 3.2).

Claim: "To avoid expensive remote lookups, Khazana maintains a cache
of recently used region descriptors ... a node next queries its local
cluster manager ... Only if this search fails does it search the
address map tree."  Under a skewed (Zipf) workload the local region
directory should absorb almost all lookups; uniform access over many
regions pushes more lookups to the deeper, costlier tiers.
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.bench.workloads import WorkloadSpec, AccessPattern, make_regions, run_access_workload
from repro.core.kernel import DaemonConfig

REGIONS = 48
OPS = 240


def _run_pattern(pattern, directory_capacity=1024):
    config = DaemonConfig(region_directory_capacity=directory_capacity)
    cluster = create_cluster(num_nodes=4, config=config)
    owner = cluster.client(node=1)
    regions = make_regions(owner, REGIONS)
    for region in regions:
        owner.write_at(region.rid, b"seed")
    cluster.run(2.0)   # hints propagate to the cluster manager

    reader = cluster.client(node=3)
    daemon = cluster.daemon(3)
    daemon.stats.lookup_tiers.clear()
    before = cluster.stats.snapshot()
    spec = WorkloadSpec(operations=OPS, write_fraction=0.0,
                        pattern=pattern, zipf_skew=1.1, seed=11)
    result = run_access_workload(cluster, reader, regions, spec)
    delta = cluster.stats.delta_since(before)
    tiers = dict(daemon.stats.lookup_tiers)
    return result, tiers, delta


def test_location_tiers_zipf_vs_uniform(once):
    def run():
        return {
            "zipf": _run_pattern(AccessPattern.ZIPF),
            "uniform": _run_pattern(AccessPattern.UNIFORM),
            "uniform_tiny_dir": _run_pattern(
                AccessPattern.UNIFORM, directory_capacity=8
            ),
        }

    outcomes = once(run)

    table = Table(
        f"C1: location-tier usage, {OPS} reads over {REGIONS} regions "
        "(reader on node 3)",
        ["workload", "directory", "cluster", "map", "walk",
         "msgs/op", "mean ms"],
    )
    for name, (result, tiers, delta) in outcomes.items():
        table.add(
            name,
            tiers.get("directory", 0),
            tiers.get("cluster", 0),
            tiers.get("map", 0),
            tiers.get("walk", 0),
            delta.messages_sent / result.operations,
            result.latency.mean() * 1000,
        )
    table.show()

    zipf_tiers = outcomes["zipf"][1]
    uniform_tiers = outcomes["uniform"][1]
    tiny_tiers = outcomes["uniform_tiny_dir"][1]

    # Shape 1: the region directory absorbs the bulk of a skewed
    # workload's lookups.
    total_zipf = sum(zipf_tiers.values())
    assert zipf_tiers.get("directory", 0) / total_zipf > 0.6

    # Shape 2: the cluster-manager tier catches directory misses
    # before any address-map walk happens.
    assert uniform_tiers.get("cluster", 0) >= uniform_tiers.get("map", 0)

    # Shape 3: shrinking the directory pushes lookups down the chain.
    assert tiny_tiers.get("directory", 0) < uniform_tiers.get("directory", 0) \
        or tiny_tiers.get("cluster", 0) > uniform_tiers.get("cluster", 0)

    # Shape 4: the deeper the lookups go, the more messages per op.
    zipf_msgs = outcomes["zipf"][2].messages_sent
    tiny_msgs = outcomes["uniform_tiny_dir"][2].messages_sent
    assert tiny_msgs > zipf_msgs
