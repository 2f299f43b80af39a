"""Experiment B1 — multi-page protocol operations.

A 64-page lock/read/write/unlock cycle from a node across a WAN link
to the region's single remote home.  Every page request is a list, so
the whole range costs one RPC per (home node, message kind); the same
64 pages locked, read, written and unlocked one page at a time cost a
lock and an unlock round-trip per page (~128 request RPCs) — the
O(pages) -> O(home nodes) drop of locking a range.  Bandwidth is
identical (the same page bytes move either way); what one request per
home removes is the per-page envelope and, above all, the serial WAN
latencies.
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.net.message import REPLY_TYPES

PAGES = 64
PAGE = 4096
SIZE = PAGES * PAGE

_REPLY_KEYS = {msg_type.value for msg_type in REPLY_TYPES}


def request_count(delta) -> int:
    """Request (non-reply) messages in a NetworkStats delta."""
    return sum(
        count for key, count in delta.by_type.items()
        if key not in _REPLY_KEYS
    )


def run_cycle(one_page_at_a_time: bool):
    """64 pages written under WRITE locks over a WAN: one range-wide
    lock/read/write/unlock cycle, or one cycle per page."""
    config = DaemonConfig(
        enable_failure_handling=False,   # no PING noise in the counts
    )
    cluster = create_cluster(num_nodes=2, topology="wan", config=config)
    owner = cluster.client(node=0)
    region = owner.reserve(
        SIZE, RegionAttributes(consistency_level=ConsistencyLevel.RELEASE)
    )
    owner.allocate(region.rid)
    cluster.run(1.0)

    kz = cluster.client(node=1)
    before = cluster.stats.snapshot()
    start = cluster.now
    spans = ([(region.rid + i * PAGE, PAGE) for i in range(PAGES)]
             if one_page_at_a_time else [(region.rid, SIZE)])
    for address, length in spans:
        ctx = kz.lock(address, length, LockMode.WRITE)
        kz.read(ctx, address, length)
        kz.write(ctx, address, b"b" * length)
        kz.unlock(ctx)
    elapsed = cluster.now - start
    delta = cluster.stats.delta_since(before)
    return request_count(delta), elapsed, delta


def test_batching_wan_cycle(once):
    table = Table(
        f"B1: {PAGES}-page WAN lock/read/write/unlock vs one remote home",
        ["metric", "per-page", "batched"],
    )

    def run():
        unbatched = run_cycle(one_page_at_a_time=True)
        batched = run_cycle(one_page_at_a_time=False)
        return unbatched, batched

    (unbatched, batched) = once(run)
    un_requests, un_elapsed, un_delta = unbatched
    b_requests, b_elapsed, b_delta = batched

    table.add("request RPCs", un_requests, b_requests)
    table.add("virtual seconds", f"{un_elapsed:.2f}", f"{b_elapsed:.2f}")
    table.add("messages sent", un_delta.messages_sent, b_delta.messages_sent)
    table.add("bytes sent", un_delta.bytes_sent, b_delta.bytes_sent)
    table.show()

    # O(pages) -> O(home nodes): the whole-range cycle fits in a
    # handful of RPCs where page-at-a-time needs one per page per phase.
    assert b_requests <= 6
    assert un_requests >= 100
    # Removing ~2*PAGES serial WAN latencies must show up as time.
    assert b_elapsed < un_elapsed
