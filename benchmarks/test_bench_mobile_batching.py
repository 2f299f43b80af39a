"""Experiment B2 — multi-page ops under the mobile protocol.

A 32-page lock/read/write/unlock cycle against a mobile (epidemic)
region whose only other replica lives across a WAN link.  One page at
a time, each cycle costs a PAGE_FETCH round-trip and gossips one
UPDATE_PUSH per peer; the whole range is one PAGE_FETCH carrying every
missing page to the first reachable peer and one UPDATE_PUSH per peer
carrying every dirty page — the same O(pages) -> O(peers) drop the
home-directory protocols get, with no consistency cost (gossip is
best-effort either way).
"""

from repro.api import create_cluster
from repro.bench.metrics import Table
from repro.core.attributes import RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.net.message import REPLY_TYPES

PAGES = 32
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
    """32 pages written under WRITE locks over a WAN: one range-wide
    lock/read/write/unlock cycle, or one cycle per page."""
    config = DaemonConfig(
        enable_failure_handling=False,   # no PING noise in the counts
    )
    cluster = create_cluster(num_nodes=2, topology="wan", config=config)
    owner = cluster.client(node=0)
    region = owner.reserve(
        SIZE, RegionAttributes(consistency_protocol="mobile")
    )
    owner.allocate(region.rid)
    owner.write_at(region.rid, b"a" * SIZE)
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


def test_mobile_batching_wan_cycle(once):
    table = Table(
        f"B2: {PAGES}-page WAN mobile lock/read/write/unlock cycle",
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

    # Acceptance: locking the whole range may only improve on locking
    # page by page — strictly fewer request RPCs, never more.
    assert b_requests < un_requests
    # O(pages) fetches + O(pages * peers) gossip collapse to one
    # fetch plus one gossip push per peer.
    assert b_requests <= 4
    assert un_requests >= PAGES
    assert b_elapsed <= un_elapsed
