"""Hot-path microbenchmarks — real CPU/allocation cost per operation.

Unlike every other experiment here, this one measures *wall-clock*
cost, not virtual-time cost: ops/sec and tracemalloc allocation peaks
of the client read/write/lock fast paths (see docs/performance.md).
Quick mode keeps it cheap enough for the suite; the full run is
``python -m repro.bench.hotpath`` and its output is tracked in
``BENCH_hotpath.json``, gated by the CI bench-smoke job.
"""

from repro.bench.hotpath import check_regressions, render, run_suite
from repro.bench.metrics import Table


def test_hotpath_suite(once):
    doc = once(lambda: run_suite(quick=True))

    table = Table(
        "Hot-path microbenchmarks (quick mode, wall-clock)",
        ["benchmark", "ops/sec", "alloc peak/op", "retained/op"],
    )
    for name, r in doc["benchmarks"].items():
        table.add(
            name,
            f"{r['ops_per_sec']:.0f}",
            f"{r['alloc_peak_per_op_bytes']}B",
            f"{r['alloc_retained_per_op_bytes']}B",
        )
    table.show()
    print(render(doc))

    results = doc["benchmarks"]
    assert set(results) == {
        "cached_read", "cold_read", "write_diff", "lock_unlock", "batch_64",
        "codec_page_list",
    }
    for name, r in results.items():
        assert r["ops_per_sec"] > 0, name
        assert r["alloc_peak_per_op_bytes"] >= 0, name

    # The zero-copy fast path's signature: a cached read of a resident
    # 4 KiB page allocates far less than one page of transient memory,
    # and it is *much* faster than a cycle that takes the protocol
    # machinery (shape assertion, not a timing one: both numbers come
    # from the same process on the same machine).
    assert results["cached_read"]["alloc_peak_per_op_bytes"] < 1024
    assert (results["cached_read"]["ops_per_sec"]
            > 5 * results["lock_unlock"]["ops_per_sec"])

    # The committed baseline doc and a fresh run agree on shape: a
    # run checked against itself never reports a regression.
    assert check_regressions(doc, doc) == []
