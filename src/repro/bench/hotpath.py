"""Hot-path microbenchmarks: per-operation CPU and allocation cost.

Every other benchmark in this repository counts *virtual-time* costs —
messages, bytes, simulated seconds.  This suite measures the real cost
of executing one client operation: wall-clock throughput (ops/sec) and
transient allocation footprint (``tracemalloc`` peak) of the
``op_read`` / ``op_write`` / ``op_lock`` fast paths.  Results are
written to ``BENCH_hotpath.json`` so each PR leaves a visible perf
trajectory, and ``python -m repro.bench.hotpath --check`` gates CI on
regressions against the committed baseline.

Methodology (see docs/performance.md):

- ops/sec is measured with ``time.perf_counter`` over a fixed
  iteration count, with tracemalloc *off* (it slows allocation ~4x);
- allocation cost is measured separately as the tracemalloc peak of a
  single representative operation after warmup — a machine-independent
  number (it counts bytes allocated, not seconds);
- a pure-Python calibration loop is timed on the same machine so the
  CI regression gate can compare *normalized* throughput across
  hardware: ``ops_per_sec / calibration_ops_per_sec`` is stable where
  raw ops/sec is not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import create_cluster
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.kernel import DaemonConfig
from repro.core.locks import LockMode
from repro.net.codec import decode, encode
from repro.net.message import Message, MessageType

PAGE = 4096
BATCH_PAGES = 64

#: Iterations per benchmark: (full, quick).
ITERATIONS: Dict[str, Tuple[int, int]] = {
    "cached_read": (20000, 2000),
    "cold_read": (512, 128),
    "write_diff": (2000, 300),
    "lock_unlock": (5000, 800),
    "batch_64": (60, 12),
    "codec_page_list": (2000, 400),
}

#: Throughput may drop to this fraction of the baseline (normalized by
#: the calibration loop) before --check fails.
OPS_TOLERANCE = 0.70
#: Allocation peaks may grow by this factor before --check fails.
ALLOC_TOLERANCE = 1.30


def _calibrate() -> float:
    """Ops/sec of a fixed pure-Python loop, for cross-machine scaling."""
    def unit() -> int:
        total = 0
        for i in range(200):
            total += i * 3 // 2
        return total

    unit()
    count = 2000
    start = time.perf_counter()
    for _ in range(count):
        unit()
    elapsed = time.perf_counter() - start
    return count / elapsed if elapsed > 0 else 0.0


def _measure(op: Callable[[], Any], iterations: int) -> Dict[str, float]:
    """Time ``iterations`` calls of ``op``, then trace one call."""
    # Warmup: fill caches, fault in code paths.
    for _ in range(min(10, iterations)):
        op()
    gc.collect()
    start = time.perf_counter()
    for _ in range(iterations):
        op()
    elapsed = time.perf_counter() - start
    ops_per_sec = iterations / elapsed if elapsed > 0 else 0.0

    # Allocation footprint of one op, measured in isolation: the
    # tracemalloc peak above the pre-op baseline counts every
    # transient buffer the op allocates (page copies show up here).
    gc.collect()
    tracemalloc.start()
    op()   # fault in tracemalloc-side allocations once
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    op()
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "ops_per_sec": round(ops_per_sec, 1),
        "iterations": iterations,
        "alloc_peak_per_op_bytes": peak - before,
        "alloc_retained_per_op_bytes": after - before,
    }


def _lan_cluster(num_nodes: int = 2):
    config = DaemonConfig(enable_failure_handling=False)
    return create_cluster(num_nodes=num_nodes, topology="lan", config=config)


def _make_region(cluster, session, pages: int,
                 level: ConsistencyLevel = ConsistencyLevel.RELEASE):
    region = session.reserve(
        pages * PAGE, RegionAttributes(consistency_level=level)
    )
    session.allocate(region.rid)
    cluster.run(1.0)
    return region


# --- The five microbenchmarks -----------------------------------------------


def bench_cached_read(iterations: int) -> Dict[str, float]:
    """Read one RAM-resident page under an open lock context."""
    cluster = _lan_cluster()
    kz = cluster.client(node=0)
    region = _make_region(cluster, kz, pages=4)
    ctx = kz.lock(region.rid, PAGE, LockMode.READ)
    kz.read(ctx, region.rid, PAGE)   # fault the page in

    def op() -> bytes:
        return kz.read(ctx, region.rid, PAGE)

    try:
        return _measure(op, iterations)
    finally:
        kz.unlock(ctx)


def bench_cold_read(iterations: int) -> Dict[str, float]:
    """Lock/read/unlock of a page this node has never cached."""
    cluster = _lan_cluster()
    owner = cluster.client(node=0)
    region = _make_region(cluster, owner, pages=iterations + 16)
    kz = cluster.client(node=1)
    next_page = iter(range(iterations + 16))

    def op() -> bytes:
        addr = region.rid + next(next_page) * PAGE
        ctx = kz.lock(addr, PAGE, LockMode.READ)
        try:
            return kz.read(ctx, addr, PAGE)
        finally:
            kz.unlock(ctx)

    return _measure(op, iterations)


def bench_write_diff(iterations: int) -> Dict[str, float]:
    """Write-shared cycle: twin, partial write, diff push at release."""
    cluster = _lan_cluster()
    owner = cluster.client(node=0)
    region = _make_region(cluster, owner, pages=4)
    kz = cluster.client(node=1)
    payload = b"x" * 64

    def op() -> None:
        ctx = kz.lock(region.rid, PAGE, LockMode.WRITE_SHARED)
        kz.write(ctx, region.rid + 128, payload)
        kz.unlock(ctx)

    return _measure(op, iterations)


def bench_lock_unlock(iterations: int) -> Dict[str, float]:
    """Read lock/unlock cycle on a locally resident page."""
    cluster = _lan_cluster()
    kz = cluster.client(node=0)
    region = _make_region(cluster, kz, pages=4)
    ctx = kz.lock(region.rid, PAGE, LockMode.READ)
    kz.read(ctx, region.rid, PAGE)
    kz.unlock(ctx)

    def op() -> None:
        inner = kz.lock(region.rid, PAGE, LockMode.READ)
        kz.unlock(inner)

    return _measure(op, iterations)


def bench_batch_64(iterations: int) -> Dict[str, float]:
    """64-page lock/read/write/unlock WRITE cycle from a remote node."""
    cluster = _lan_cluster()
    owner = cluster.client(node=0)
    region = _make_region(cluster, owner, pages=BATCH_PAGES)
    kz = cluster.client(node=1)
    size = BATCH_PAGES * PAGE
    blob = b"b" * size

    def op() -> None:
        ctx = kz.lock(region.rid, size, LockMode.WRITE)
        kz.read(ctx, region.rid, size)
        kz.write(ctx, region.rid, blob)
        kz.unlock(ctx)

    return _measure(op, iterations)


def bench_codec_page_list(iterations: int) -> Dict[str, float]:
    """Encode plus decode of a 16-page LOCK_REPLY and a 16-update
    UPDATE_PUSH: the codec's cost per page list, no cluster."""
    base = (1 << 100) + (7 << 64)
    pages = [memoryview(bytes([i]) * PAGE) for i in range(16)]
    messages = [
        Message(MessageType.LOCK_REPLY, src=1, dst=2, payload={
            "pages": [{"page": base + i * PAGE, "data": data,
                       "version": 1000 + i} for i, data in enumerate(pages)],
            "errors": []}, request_id=123456, reply_to=99),
        Message(MessageType.UPDATE_PUSH, src=1, dst=2, payload={
            "rid": base,
            "updates": [{"page": base + i * PAGE, "release_token": True,
                         "data": data} for i, data in enumerate(pages)]},
            request_id=123457),
    ]

    def op() -> None:
        for message in messages:
            decode(encode(message))

    return _measure(op, iterations)


BENCHMARKS: Dict[str, Callable[[int], Dict[str, float]]] = {
    "cached_read": bench_cached_read,
    "cold_read": bench_cold_read,
    "write_diff": bench_write_diff,
    "lock_unlock": bench_lock_unlock,
    "batch_64": bench_batch_64,
    "codec_page_list": bench_codec_page_list,
}


def run_suite(quick: bool = False,
              only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the suite; returns the BENCH_hotpath.json document."""
    results: Dict[str, Any] = {}
    for name, bench in BENCHMARKS.items():
        if only and name not in only:
            continue
        full, fast = ITERATIONS[name]
        results[name] = bench(fast if quick else full)
    return {
        "suite": "hotpath",
        "quick": quick,
        "calibration_ops_per_sec": round(_calibrate(), 1),
        "benchmarks": results,
    }


def check_regressions(baseline: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Failures of ``measured`` against the committed ``baseline``.

    Throughput compares *normalized* ops/sec (scaled by each run's
    calibration loop) so the gate holds across machines; allocation
    peaks are byte counts and compare directly.
    """
    failures: List[str] = []
    base_cal = baseline.get("calibration_ops_per_sec") or 1.0
    meas_cal = measured.get("calibration_ops_per_sec") or 1.0
    for name, base in baseline.get("benchmarks", {}).items():
        got = measured.get("benchmarks", {}).get(name)
        if got is None:
            failures.append(f"{name}: missing from measured run")
            continue
        base_norm = base["ops_per_sec"] / base_cal
        got_norm = got["ops_per_sec"] / meas_cal
        if base_norm > 0 and got_norm < base_norm * OPS_TOLERANCE:
            failures.append(
                f"{name}: normalized throughput {got_norm:.4f} fell below "
                f"{OPS_TOLERANCE:.0%} of baseline {base_norm:.4f}"
            )
        base_alloc = base.get("alloc_peak_per_op_bytes", 0)
        got_alloc = got.get("alloc_peak_per_op_bytes", 0)
        if base_alloc > 0 and got_alloc > base_alloc * ALLOC_TOLERANCE:
            failures.append(
                f"{name}: alloc peak {got_alloc}B exceeds "
                f"{ALLOC_TOLERANCE:.0%} of baseline {base_alloc}B"
            )
    return failures


def render(doc: Dict[str, Any]) -> str:
    lines = [
        f"hotpath suite (quick={doc['quick']}, "
        f"calibration={doc['calibration_ops_per_sec']:.0f} units/s)",
        f"{'benchmark':<16} {'ops/sec':>12} {'alloc peak/op':>14} "
        f"{'retained/op':>12}",
    ]
    for name, r in doc["benchmarks"].items():
        lines.append(
            f"{name:<16} {r['ops_per_sec']:>12.0f} "
            f"{r['alloc_peak_per_op_bytes']:>13}B "
            f"{r['alloc_retained_per_op_bytes']:>11}B"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Khazana hot-path microbenchmarks"
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke mode)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=sorted(BENCHMARKS),
                        help="run a subset of benchmarks")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write results JSON to PATH")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail (exit 1) on regression vs BASELINE json")
    args = parser.parse_args(argv)

    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

    doc = run_suite(quick=args.quick, only=args.only)
    print(render(doc))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.abspath(args.output)}")

    if baseline is not None:
        failures = check_regressions(baseline, doc)
        if failures:
            print("REGRESSIONS vs baseline:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("no regressions vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
