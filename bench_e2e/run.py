#!/usr/bin/env python3
"""Khazana end-to-end benchmark — the one command.

    python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload against a fresh 2-daemon TCP cluster and prints, as
the last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Human-readable detail (slice
spread, sample counts, the SHA-256 of the op sequence, why a metric is
null) goes to the lines before it.  Exit status is non-zero when a
correctness check fails.

    python3 bench_e2e/run.py                 # all four workloads, both runs
    python3 bench_e2e/run.py --smoke         # the same, in under 30 s

See README.md in this directory for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("read_cached", "write_sharing", "release_bulk", "kfs_mix")
RUN_SECONDS = 15
SMOKE_SECONDS = 0.5
SMOKE_SHRINK = 50

#: (name, unit, better, bound).  A bound is three times the widest
#: spread (IQR / median over 10 seeds) the metric showed on any workload
#: on the seed commit, rounded up to 0.05, at least ISSUE 11's default
#: 0.10 and at most the contract's 0.25; README.md has the spreads.
#: ``kfs_mix`` — ~280 ops per window, 86 % of it modelled sleep — and
#: the noise of a shared 2-vCPU VM set every bound above 0.10.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("read_lat_p50_us", "us", "lower", 0.25),
    ("write_lat_p50_us", "us", "lower", 0.25),
    ("lat_p90_us", "us", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
]


def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``, generated so it cannot drift from the code."""
    _import_path()
    import layer_metrics
    import workloads

    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WORKLOADS[name].why}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _probes in layer_metrics.CATALOGUE],
    }


def _import_path() -> None:
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process — and with it every child it spawns — to one CPU.

    With one op in flight exactly one of the three processes is runnable
    at any instant, so a second core adds no throughput; what it adds is
    the scheduler's choice of where to wake each process, which was the
    largest run-to-run noise we measured (write_sharing ops/s, IQR /
    median over ten seeds: 13.9 % unpinned, 2.5-4.1 % pinned).  The highest-numbered CPU of
    the affinity mask is used: CPU 0 is where a small VM takes most of
    its interrupts.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None   # not Linux, or not permitted: run unpinned
    return cpu


def _terminate(signum: int, _frame: Any) -> None:
    # Unwind through every ``with``/``finally``: children die, the work
    # directory goes.
    raise SystemExit(128 + signum)


def run_one(args: argparse.Namespace) -> int:
    _import_path()
    import runner
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        shrink=SMOKE_SHRINK if args.smoke else 1)
    cpu = pin_to_one_cpu()
    setups = 1 if args.smoke else runner.SETUPS
    print(f"# {workload.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, 1 op in flight, "
          f"{workload.clients} client node(s), 2 daemon processes, "
          f"all pinned to CPU {cpu}", flush=True)
    if args.trace:
        result = runner.traced_run(workload, args.seed, args.seconds)
        metrics = result["metrics"]
    else:
        result = runner.untraced_run(workload, args.seed, args.seconds,
                                     setups=setups)
        metrics = {name: {"value": result["numbers"][name], "unit": unit}
                   for name, unit, _better, _bound in END_TO_END}
    info = result["info"]
    print(f"# ops sha256 (first {info['ops_hashed']}): {info['ops_sha256']}")
    for key, value in info.items():
        if key not in ("ops_sha256", "ops_hashed", "null_reasons"):
            print(f"# {key}: {_show(value)}")
    for name, reason in sorted(info.get("null_reasons", {}).items()):
        print(f"# null {name}: {reason}")
    for name, body in metrics.items():
        print(f"{name:46s} {_show(body['value']):>16s} {body['unit']}")
    for problem in result["problems"]:
        print(f"# PROBLEM: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _show(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, dict):
        return json.dumps({k: v for k, v in sorted(value.items())})
    if isinstance(value, list):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process so
    no run inherits another's wrappers, caches or heap."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            status |= subprocess.call(cmd)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Khazana end-to-end benchmark (see bench_e2e/README.md)")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {RUN_SECONDS}; "
                             f"{SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"warm-up and initial data / {SMOKE_SHRINK}, "
                             "one set-up, short window")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench_e2e: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.write_manifest:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(RUN_SECONDS)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
