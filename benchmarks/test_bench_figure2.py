"""Experiment F2 — Figure 2: the lock-and-fetch protocol trace.

Figure 2 enumerates 13 steps to service a <lock, fetch> pair for page
p at Node A when Node B owns the page: (1-3) obtain the region
descriptor, possibly via an address-map lookup; (4) page-directory
lookup; (5-6) the CM requests credentials from its peer; (7-9) Node
B's CM directs its daemon to supply a copy of p; (10-11) ownership and
lock grant; (12-13) the locked copy is supplied from local storage.

This benchmark replays that exact scenario and checks the wire trace
against the figure: a descriptor-location phase, a single CM
credential exchange carrying the page data, and *zero* messages on a
warm re-acquire (steps 12-13 are purely local once the copy exists).
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.core.locks import LockMode
from repro.net.message import MessageType

LOCATION_TYPES = {
    MessageType.CM_HINT_QUERY, MessageType.CM_HINT_REPLY,
    MessageType.DESCRIPTOR_FETCH, MessageType.DESCRIPTOR_REPLY,
    MessageType.REGION_LOOKUP, MessageType.REGION_LOOKUP_REPLY,
    MessageType.PAGE_FETCH, MessageType.PAGE_DATA,
}
CREDENTIAL_TYPES = {MessageType.LOCK_REQUEST, MessageType.LOCK_REPLY}


def test_figure2_lock_fetch_trace(once):
    table = Table("F2: Figure 2 cold lock+fetch from node A (3), "
                  "owner B (1)", ["phase", "messages", "types"])

    def run():
        cluster = create_cluster(num_nodes=5)
        owner = cluster.client(node=1)   # Node B
        region = owner.reserve(4096)
        owner.allocate(region.rid)
        owner.write_at(region.rid, b"page p")
        cluster.run(1.0)

        trace = []
        cluster.network.tap(lambda m: trace.append(m))

        # Node A performs the cold <lock, fetch>.
        requester = cluster.client(node=3)
        ctx = requester.lock(region.rid, 4096, LockMode.READ)
        data = requester.read(ctx, region.rid, 6)
        requester.unlock(ctx)
        cold = list(trace)

        # Warm re-acquire: steps 1-4 hit local caches, 5-13 are local.
        trace.clear()
        ctx = requester.lock(region.rid, 4096, LockMode.READ)
        requester.read(ctx, region.rid, 6)
        requester.unlock(ctx)
        warm = list(trace)
        return data, cold, warm

    data, cold, warm = once(run)

    location = [m for m in cold if m.msg_type in LOCATION_TYPES]
    credentials = [m for m in cold if m.msg_type in CREDENTIAL_TYPES]
    table.add("steps 1-4: locate descriptor", len(location),
              sorted({m.msg_type.value for m in location}))
    table.add("steps 5-11: CM credentials + copy of p", len(credentials),
              sorted({m.msg_type.value for m in credentials}))
    table.add("steps 12-13 (local supply)", 0, "[]")
    table.add("warm re-acquire", len(warm),
              sorted({m.msg_type.value for m in warm}))
    table.show()

    assert data == b"page p"
    # The descriptor-location phase happened (steps 1-3).
    assert location, "expected a descriptor-location exchange"
    # Exactly one credential round-trip to the peer CM (steps 5-11).
    requests = [m for m in credentials
                if m.msg_type is MessageType.LOCK_REQUEST]
    replies = [m for m in credentials
               if m.msg_type is MessageType.LOCK_REPLY]
    assert len(requests) == 1 and len(replies) == 1
    # The reply carried the copy of p (steps 7-9 fold data into it).
    [granted] = replies[0].payload["pages"]
    assert granted["data"] is not None
    # Warm acquire is satisfied from local storage: no messages at all.
    assert warm == []
