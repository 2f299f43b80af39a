"""Experiment C5 — the local storage hierarchy (paper Section 3.4).

Claim: node-local storage is a cache of global data; RAM victimizes
to disk, and the hierarchy keeps the hot working set in the fastest
level.  We run a Zipf workload over a working set larger than RAM and
report RAM hit rate, victimizations, and mean latency for three RAM
sizes.  Expected shape: bigger RAM → higher RAM hit rate → lower mean
latency; tiny RAM still works (the disk level absorbs the overflow),
it is just slower.
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.bench.workloads import WorkloadSpec, make_regions, run_access_workload
from repro.core.kernel import DaemonConfig

REGIONS = 96          # 96 pages of working set
OPS = 400
RAM_SIZES = (16, 48, 256)   # pages


def _run(ram_pages):
    config = DaemonConfig(
        memory_bytes=ram_pages * 4096,
        disk_bytes=4096 * 4096,
    )
    cluster = create_cluster(num_nodes=2, config=config)
    # All regions homed at node 0 (the remote side); node 1 caches.
    owner = cluster.client(node=0)
    regions = make_regions(owner, REGIONS)
    for region in regions:
        owner.write_at(region.rid, b"data")
    reader = cluster.client(node=1)
    daemon = cluster.daemon(1)

    spec = WorkloadSpec(operations=OPS, write_fraction=0.0,
                        zipf_skew=1.0, seed=42)
    stats_before = (daemon.storage.stats.ram_hits,
                    daemon.storage.stats.disk_hits,
                    daemon.storage.stats.misses)
    result = run_access_workload(cluster, reader, regions, spec)
    s = daemon.storage.stats
    ram_hits = s.ram_hits - stats_before[0]
    disk_hits = s.disk_hits - stats_before[1]
    misses = s.misses - stats_before[2]
    total = max(1, ram_hits + disk_hits + misses)
    return {
        "ram_rate": ram_hits / total,
        "disk_hits": disk_hits,
        "misses": misses,
        "victimized": s.victimized_to_disk,
        "mean_ms": result.latency.mean() * 1000,
        "errors": result.errors,
    }


def test_storage_hierarchy_hot_set(once):
    def run():
        return {ram: _run(ram) for ram in RAM_SIZES}

    results = once(run)

    table = Table(
        f"C5: Zipf(1.0) over {REGIONS}-page working set, {OPS} reads "
        "(remote homes)",
        ["RAM pages", "RAM hit rate", "disk hits", "remote misses",
         "victimized", "mean ms/op"],
    )
    for ram, r in results.items():
        table.add(ram, f"{r['ram_rate']:.0%}", r["disk_hits"],
                  r["misses"], r["victimized"], r["mean_ms"])
    table.show()

    for r in results.values():
        assert r["errors"] == 0

    small, medium, large = (results[r] for r in RAM_SIZES)
    # Shape 1: RAM hit rate rises with RAM size.
    assert small["ram_rate"] < medium["ram_rate"] < large["ram_rate"]
    # Shape 2: a RAM larger than the working set victimizes ~nothing
    # and hits ~always.
    assert large["victimized"] == 0
    assert large["ram_rate"] > 0.9
    # Shape 3: tiny RAM spills to disk but still serves the workload.
    assert small["victimized"] > 0
    assert small["disk_hits"] > 0
    # Shape 4: latency tracks the hit rate.
    assert large["mean_ms"] <= small["mean_ms"]
