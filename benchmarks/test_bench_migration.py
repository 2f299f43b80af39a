"""Experiment A3 — ablation: load-aware home migration.

The paper's conclusion lists "resource- and load-aware migration and
replication policies" as the next step beyond the prototype.  This
experiment measures what the policy is worth: a region created on one
node but used almost exclusively by another keeps paying remote
coherence costs unless its home follows the work.

Setup: node 1 creates a region; node 3 then performs a long stream of
writes and reads against it, with auto-migration off vs on.  Expected
shape: with migration enabled the region moves to node 3 early in the
stream, after which operations are local — cutting both messages and
latency for the remainder.
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.core.kernel import DaemonConfig

OPS = 200


def _run(auto_migration):
    config = DaemonConfig(enable_auto_migration=auto_migration)
    cluster = create_cluster(num_nodes=4, config=config)
    creator = cluster.client(node=1)
    region = creator.reserve(4096)
    creator.allocate(region.rid)
    creator.write_at(region.rid, b"created-at-1")

    heavy = cluster.client(node=3)
    before = cluster.stats.snapshot()
    start = cluster.now
    for i in range(OPS):
        if i % 2 == 0:
            heavy.write_at(region.rid, f"update-{i:03d}".encode())
        else:
            heavy.read_at(region.rid, 10)
        cluster.run(0.05)   # let housekeeping (and the advisor) breathe
    elapsed = cluster.now - start
    delta = cluster.stats.delta_since(before)
    background = sum(
        delta.by_type.get(t, 0)
        for t in ("ping", "pong", "free_space_report")
    )
    final_home = None
    for node in cluster.node_ids():
        if region.rid in cluster.daemon(node).homed_regions:
            desc = cluster.daemon(node).homed_regions[region.rid]
            if desc.primary_home == node:
                final_home = node
    return {
        "msgs_per_op": (delta.messages_sent - background) / OPS,
        "ms_per_op": 1000 * elapsed / OPS,
        "final_home": final_home,
    }


def test_migration_follows_the_work(once):
    def run():
        return {
            "static home": _run(auto_migration=False),
            "auto-migration": _run(auto_migration=True),
        }

    results = once(run)

    table = Table(
        f"A3: node-3-dominated workload ({OPS} ops) on a node-1 region",
        ["policy", "msgs/op", "ms/op", "final primary home"],
    )
    for name, r in results.items():
        table.add(name, r["msgs_per_op"], r["ms_per_op"],
                  str(r["final_home"]))
    table.show()

    static, auto = results["static home"], results["auto-migration"]
    # Shape 1: the region actually moved to the heavy user.
    assert static["final_home"] == 1
    assert auto["final_home"] == 3
    # Shape 2: following the work saves messages per operation.
    assert auto["msgs_per_op"] < static["msgs_per_op"]