"""Experiment K1 — where a KFS op's messages go (the control plane).

The end-to-end benchmark's ``kfs_mix`` (bench_e2e/workloads.py: two
mounts of one KFS, 60 % read, 25 % stat, 8 % overwrite, 4 % create,
3 % unlink) runs on the simulator with the benchmark's own op stream
(seed 1) and node layout: daemons 0 and 1, client nodes 2 and 3.  It
runs without the durable journal, which only moves virtual time (and
with it which of two racing hints lands first, a fraction of a message
per op).  A ``Transport.tap`` charges every protocol message
to the KFS op in flight when it is sent, by message type, and splits it
between the system region (the address map, paper Section 3.1: a
request naming region 0 or a ``MAP_MUTATE`` shipped to the map's
home, and the reply to it) and everything else.
A wrapped ``SyncDriver.wait`` counts the protocol tasks each op waits
for (on TCP, each is one ``AsyncioRuntime.run_future`` crossing); a
session call whose task finished inside ``spawn`` never reaches it.

Claims checked as shapes: an overwrite costs about the same late in the
run as early (the map walk stays logarithmic in the regions ever
reserved); an overwrite rewrites its blocks in place, so it stays far
below a create (no unreserve-then-reserve of the same number of
blocks); a map mutation is one round trip to the map's home, so a
create (an inode and its blocks, each reserved) stays near its ~18
msgs/op; the whole mix stays near its ~2.9 msgs/op; and a read served
from the node's own RAM does not wait on the driver, so reads and the
mix stay near their ~0.64 and ~0.98 driver waits/op.
Background work an op leaves behind is charged to whichever op is in
flight when it runs.
"""

import os
import sys
from collections import Counter

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.core.address_map import SYSTEM_RID
from repro.net.message import MessageType
from repro.tools.cluster import node_config

BENCH_E2E = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench_e2e")
if BENCH_E2E not in sys.path:
    sys.path.insert(0, BENCH_E2E)

import workloads  # noqa: E402  (bench_e2e: the kfs_mix definition)

WINDOWS = 3
WINDOW_OPS = 1000
KINDS = ("read", "stat", "overwrite", "create", "unlink")
#: The sim twin's exclusions: the benchmark's control plane and
#: free-space housekeeping are not protocol traffic.
IGNORED = {"app_request", "app_reply", "free_space_report"}


def _census():
    workload = workloads.KfsMix()
    sim = create_cluster(num_nodes=4, config=node_config())
    sessions = [sim.client(node=2 + i, principal="bench") for i in range(2)]
    state = workload.setup(sessions)
    sim.run(1.5)   # let set-up's background work land before counting

    current = ["", 0]
    sent = Counter()     # (kind, window, msg type, map?) -> messages
    done = Counter()     # (kind, window) -> ops
    requests = {}        # (src, request_id) -> request named the map

    def tap(message):
        if message.msg_type.value in IGNORED:
            return
        if message.reply_to is not None:
            on_map = requests.pop((message.dst, message.reply_to), False)
        else:
            on_map = (message.payload.get("rid") == SYSTEM_RID
                      or message.msg_type is MessageType.MAP_MUTATE)
            if message.request_id is not None:
                requests[(message.src, message.request_id)] = on_map
        sent[(current[0], current[1], message.msg_type.value, on_map)] += 1

    sim.network.tap(tap)
    waits = Counter()    # kind -> driver waits
    wait = sim.driver.wait

    def counting_wait(future):
        waits[current[0]] += 1
        return wait(future)

    sim.driver.wait = counting_wait
    ops = workload.stream(1).ensure(WINDOWS * WINDOW_OPS)
    failed = 0
    for index, op in enumerate(ops[:WINDOWS * WINDOW_OPS]):
        current[:] = [KINDS[op[1]], index // WINDOW_OPS]
        done[tuple(current)] += 1
        prepared = workload.prepare(state, op, index)
        result = workload.execute(state, prepared)
        failed += not workload.check(state, prepared, result)
    sim.run(1.5)   # and the run's own, so no protocol task is left open
    return sent, done, waits, failed


def test_kfs_message_census(once):
    sent, done, waits, failed = once(_census)
    ops = {kind: sum(n for (k, _w), n in done.items() if k == kind)
           for kind in KINDS}
    total_ops = sum(ops.values())

    def per_op(kind, window=None, on_map=None, msg_type=None):
        messages = sum(
            n for (k, w, t, m), n in sent.items()
            if k == kind and window in (None, w) and on_map in (None, m)
            and msg_type in (None, t))
        count = ops[kind] if window is None else done[(kind, window)]
        return messages / max(count, 1)

    summary = Table(
        f"K1: kfs_mix message census on the sim ({total_ops} ops, seed 1; "
        "msgs/op by KFS op kind)",
        ["op kind", "ops", "msgs/op", "map msgs/op", "other msgs/op",
         "driver waits/op"]
        + [f"ops {w * WINDOW_OPS}-{(w + 1) * WINDOW_OPS}"
           for w in range(WINDOWS)],
    )
    for kind in KINDS:
        summary.add(kind, ops[kind], per_op(kind), per_op(kind, on_map=True),
                    per_op(kind, on_map=False), waits[kind] / ops[kind],
                    *(per_op(kind, window=w) for w in range(WINDOWS)))
    all_msgs = sum(sent.values())
    map_msgs = sum(n for key, n in sent.items() if key[3])
    summary.add("all", total_ops, all_msgs / total_ops,
                map_msgs / total_ops, (all_msgs - map_msgs) / total_ops,
                sum(waits[kind] for kind in KINDS) / total_ops,
                *(sum(n for key, n in sent.items() if key[1] == w)
                  / WINDOW_OPS for w in range(WINDOWS)))
    summary.show()

    by_type = Table(
        "K1b: kfs_mix msgs/op by KFS op kind x message type "
        "(map = the address map's system region)",
        ["op kind", "message type", "map", "other"],
    )
    for kind in KINDS:
        for msg_type in sorted({t for (k, _w, t, _m) in sent if k == kind}):
            by_type.add(kind, msg_type,
                        per_op(kind, on_map=True, msg_type=msg_type),
                        per_op(kind, on_map=False, msg_type=msg_type))
    by_type.show()

    assert failed == 0
    # Shape 1: an overwrite late in the run costs what it cost early
    # (the unbalanced map grew 171 -> 367 msgs/op over these windows).
    first, last = per_op("overwrite", 0), per_op("overwrite", WINDOWS - 1)
    assert last <= 1.2 * first, (first, last)
    # Shape 2: an overwrite rewrites its blocks in place instead of
    # unreserving them and reserving as many again (41.9 msgs/op when
    # it did).
    assert per_op("overwrite") <= 15
    # Shape 3: a map mutation is one MAP_MUTATE round trip to the
    # map's home, not a remote walk of token and push traffic (41.6
    # msgs/op per create when it was).
    assert per_op("create") <= 20
    # Shape 4: the control plane no longer dominates the mix (4.57
    # msgs/op with the remote walk).
    assert all_msgs / total_ops <= 3.2
    # Shape 5: only a task still pending after ``spawn`` waits on the
    # driver (3.73 waits/op per read and 3.98 over the mix when every
    # session call did).
    assert waits["read"] / ops["read"] <= 0.75
    assert sum(waits[kind] for kind in KINDS) / total_ops <= 1.12
