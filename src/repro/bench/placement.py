"""Placement benchmarks: ring math cost, churn re-homing, lookup RPCs.

PR 9's pluggable placement seam claims three things worth numbers:

- **ring_rank** — a rendezvous lookup through the incremental
  :class:`~repro.core.placement.ring.DirectorTable` is cheap enough to
  sit on the hot path (wall-clock directs/sec, measured like
  ``repro.bench.hotpath``);
- **churn_rehome** — one join or leave on a ring of 100+ members over
  a million regions moves only ~``regions / members`` of them (the
  rendezvous minimal-disruption property), and membership events stay
  O(regions) rather than O(regions × members);
- **lookup_msgs** — locating a region under the ring costs a flat
  number of messages per operation regardless of churn, head-to-head
  against the tiered chain on the same simulated workload.

Results are written to ``BENCH_placement.json``; ``--check`` gates CI
(the ``placement-smoke`` job) on regressions against the committed
baseline.  Wall-clock numbers are normalized by the same pure-Python
calibration loop the hotpath suite uses, so the gate holds across
machines; balance ratios and simulated message counts are
deterministic and compare directly.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import create_cluster
from repro.bench.hotpath import _calibrate
from repro.core.kernel import DaemonConfig
from repro.core.placement.ring import BUCKET_BYTES, DirectorTable

#: Per-benchmark size parameters: (full, quick).
RANK_LOOKUPS: Tuple[int, int] = (200_000, 20_000)
CHURN_MEMBERS: Tuple[int, int] = (128, 16)
CHURN_REGIONS: Tuple[int, int] = (1 << 20, 20_000)
CHURN_EVENTS: Tuple[int, int] = (12, 6)

#: The simulated lookup head-to-head runs identically in quick and
#: full mode (virtual-time message counts are deterministic), so the
#: quick CI run compares exactly against the committed full baseline.
LOOKUP_NODES = 4
LOOKUP_REGIONS = 8
LOOKUP_READS_PER_REGION = 3

#: Wall-clock throughput may drop to this fraction of the baseline
#: (normalized) before --check fails.
OPS_TOLERANCE = 0.60
#: Deterministic ratios (balance, msgs/op) may grow by this factor.
RATIO_TOLERANCE = 1.25
#: A single membership event may move at most this multiple of the
#: fair share ``ceil(regions / members)`` — the paper-level claim,
#: gated absolutely, not just relative to the baseline.
FAIR_SHARE_CEILING = 1.6


def bench_ring_rank(quick: bool) -> Dict[str, Any]:
    """Wall-clock cost of bucket→director lookups and one join."""
    lookups = RANK_LOOKUPS[quick]
    members = CHURN_MEMBERS[quick]
    buckets = 1 << 14
    table = DirectorTable(buckets, range(members))
    start = time.perf_counter()
    for i in range(lookups):
        table.director(i % buckets)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    table.join(members + 7)
    join_elapsed = time.perf_counter() - start
    return {
        "lookups": lookups,
        "directs_per_sec": round(lookups / elapsed if elapsed else 0.0, 1),
        "join_buckets_per_sec": round(
            buckets / join_elapsed if join_elapsed else 0.0, 1
        ),
    }


def bench_churn_rehome(quick: bool) -> Dict[str, Any]:
    """Joins and leaves over a large ring: what fraction moves?

    Each region occupies one ``BUCKET_BYTES`` bucket (how the ring
    cluster reserves them), so bucket moves ARE region re-homes.  The
    fair share for an event is ``ceil(regions / members_after)``; the
    rendezvous property says no event should move much more than that.
    """
    members = CHURN_MEMBERS[quick]
    regions = CHURN_REGIONS[quick]
    events = CHURN_EVENTS[quick]
    table = DirectorTable(regions, range(members))
    ratios: List[float] = []
    moved_total = 0
    start = time.perf_counter()
    next_member = members
    for event in range(events):
        if event % 2 == 0:
            moved = table.join(next_member)
            next_member += 1
        else:
            # Retire the longest-serving member still on the ring.
            moved = table.leave(table.members[0])
        fair = -(-regions // len(table.members))
        ratios.append(len(moved) / fair)
        moved_total += len(moved)
    elapsed = time.perf_counter() - start
    spread = table.spread()
    mean_spread = sum(spread.values()) / len(spread)
    return {
        "members": members,
        "regions": regions,
        "events": events,
        "max_moved_over_fair": round(max(ratios), 4),
        "mean_moved_over_fair": round(sum(ratios) / len(ratios), 4),
        "moved_total": moved_total,
        "events_per_sec": round(events / elapsed if elapsed else 0.0, 3),
        "spread_max_over_mean": round(
            max(spread.values()) / mean_spread, 4
        ),
    }


def _lookup_cluster(placement: str):
    config = DaemonConfig(placement=placement,
                          region_directory_capacity=1)
    return create_cluster(num_nodes=LOOKUP_NODES, topology="lan",
                          config=config)


def _msgs_per_op(cluster, descs) -> float:
    kz = cluster.client(node=LOOKUP_NODES - 1)
    before = cluster.stats.messages_sent
    for _ in range(LOOKUP_READS_PER_REGION):
        for desc in descs:
            kz.read_at(desc.rid, 4)
    ops = LOOKUP_READS_PER_REGION * len(descs)
    return (cluster.stats.messages_sent - before) / ops


def bench_lookup_msgs(quick: bool) -> Dict[str, Any]:
    """Messages per remote read, tiered vs ring, before/after churn.

    ``region_directory_capacity=1`` keeps the reader's local directory
    cold (it thrashes across ``LOOKUP_REGIONS`` regions), so every
    read exercises the *remote* location path — the part the two
    strategies implement differently.  Regions are reserved a bucket
    apart so ring directors spread across the membership.
    """
    del quick   # deterministic virtual-time run; one size fits both
    results: Dict[str, Any] = {}
    for placement in ("tiered", "ring"):
        cluster = _lookup_cluster(placement)
        kz1 = cluster.client(node=1)
        descs = []
        for _ in range(LOOKUP_REGIONS):
            desc = kz1.reserve(BUCKET_BYTES)
            kz1.allocate(desc.rid)
            kz1.write_at(desc.rid, b"bench")
            descs.append(desc)
        cluster.run(5.0)
        results[f"{placement}_msgs_per_op"] = round(
            _msgs_per_op(cluster, descs), 3
        )
        if placement == "ring":
            cluster.add_node()
            cluster.run(20.0)   # join gossip + re-homing settles
            results["ring_msgs_per_op_after_churn"] = round(
                _msgs_per_op(cluster, descs), 3
            )
    return results


BENCHMARKS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "ring_rank": bench_ring_rank,
    "churn_rehome": bench_churn_rehome,
    "lookup_msgs": bench_lookup_msgs,
}


def run_suite(quick: bool = False,
              only: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the suite; returns the BENCH_placement.json document."""
    results: Dict[str, Any] = {}
    for name, bench in BENCHMARKS.items():
        if only and name not in only:
            continue
        results[name] = bench(quick)
    return {
        "suite": "placement",
        "quick": quick,
        "calibration_ops_per_sec": round(_calibrate(), 1),
        "benchmarks": results,
    }


def check_regressions(baseline: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Failures of ``measured`` against the committed ``baseline``."""
    failures: List[str] = []
    base_cal = baseline.get("calibration_ops_per_sec") or 1.0
    meas_cal = measured.get("calibration_ops_per_sec") or 1.0
    base = baseline.get("benchmarks", {})
    got = measured.get("benchmarks", {})

    rank_base, rank_got = base.get("ring_rank"), got.get("ring_rank")
    if rank_base and rank_got:
        base_norm = rank_base["directs_per_sec"] / base_cal
        got_norm = rank_got["directs_per_sec"] / meas_cal
        if base_norm > 0 and got_norm < base_norm * OPS_TOLERANCE:
            failures.append(
                f"ring_rank: normalized directs/sec {got_norm:.4f} fell "
                f"below {OPS_TOLERANCE:.0%} of baseline {base_norm:.4f}"
            )

    churn_got = got.get("churn_rehome")
    if churn_got:
        if churn_got["max_moved_over_fair"] > FAIR_SHARE_CEILING:
            failures.append(
                f"churn_rehome: an event moved "
                f"{churn_got['max_moved_over_fair']:.2f}x the fair "
                f"share (ceiling {FAIR_SHARE_CEILING:.2f}x)"
            )
        churn_base = base.get("churn_rehome")
        if churn_base and (
            churn_got["spread_max_over_mean"]
            > churn_base["spread_max_over_mean"] * RATIO_TOLERANCE
        ):
            failures.append(
                "churn_rehome: ownership spread "
                f"{churn_got['spread_max_over_mean']:.3f} exceeds "
                f"{RATIO_TOLERANCE:.0%} of baseline "
                f"{churn_base['spread_max_over_mean']:.3f}"
            )

    msgs_base, msgs_got = base.get("lookup_msgs"), got.get("lookup_msgs")
    if msgs_got:
        flat_ceiling = msgs_got["ring_msgs_per_op"] * 1.5
        if msgs_got["ring_msgs_per_op_after_churn"] > flat_ceiling:
            failures.append(
                "lookup_msgs: ring msgs/op rose from "
                f"{msgs_got['ring_msgs_per_op']:.3f} to "
                f"{msgs_got['ring_msgs_per_op_after_churn']:.3f} under "
                "churn (not flat)"
            )
    if msgs_base and msgs_got:
        for key in ("tiered_msgs_per_op", "ring_msgs_per_op",
                    "ring_msgs_per_op_after_churn"):
            if msgs_got[key] > msgs_base[key] * RATIO_TOLERANCE:
                failures.append(
                    f"lookup_msgs: {key} {msgs_got[key]:.3f} exceeds "
                    f"{RATIO_TOLERANCE:.0%} of baseline "
                    f"{msgs_base[key]:.3f}"
                )
    return failures


def render(doc: Dict[str, Any]) -> str:
    lines = [
        f"placement suite (quick={doc['quick']}, "
        f"calibration={doc['calibration_ops_per_sec']:.0f} units/s)"
    ]
    for name, r in doc["benchmarks"].items():
        body = ", ".join(f"{k}={v}" for k, v in r.items())
        lines.append(f"  {name}: {body}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Khazana placement benchmarks"
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke mode)")
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
