"""The closed loop, the two kinds of run, and the simulator twin.

Closed loop, exactly one op in flight: Khazana clients are library
callers that wait for each reply, and on a 2-core box more in-flight ops
would measure the scheduler, not the program.  The generator process is
single-threaded; with two client nodes the issuing one is drawn from the
seeded stream.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

import attribution
import layer_metrics
import opgen
import probes
import stats
import tracing
from cluster import (NUM_DAEMONS, BenchCluster, make_work_dir,
                     remove_work_dir)
from daemon_main import deployment_config, process_usage
from repro.tools import fsck
from repro.tools.cluster import SnapshotCluster
from workloads import Workload

clock = time.perf_counter_ns

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: shares of ``--seconds`` a traced run spends on its untraced reference
#: segment and on its traced segment (the issue's "first fifth").
REFERENCE_SHARE = 0.3
TRACED_SHARE = 0.2
#: Wall (TCP) / virtual (simulator) seconds of idling before and after
#: the traced window.  Release-type work — unreserve, address-map
#: release, frees — runs in the background after its op returns (0.8
#: virtual s at most on kfs_mix); idling on both sides makes the window
#: count exactly the messages its own ops caused, on both backends.
QUIESCE_S = 1.5
#: a run this broken is not worth 30 s of timeout per further op
MAX_FAILED_OPS = 20
#: Real msgs/op must match the simulator twin this closely.  The slack
#: in whole messages is for windows of a few ops (smoke runs): which
#: node holds a replica of an address-map page depends on whether a
#: one-way hint beat a lookup, so a fan-out more or less is timing, not
#: protocol.
SIM_TOLERANCE = 0.02
SIM_SLACK_MESSAGES = 3
CHUNK = 4096


class OpLog:
    """Start/end clock of every op of one phase, and what went wrong."""

    def __init__(self) -> None:
        self.first = 0
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.failed = 0
        self.errors: List[str] = []

    def __len__(self) -> int:
        return len(self.starts)

    def note(self, index: int, op: opgen.Op, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {index} {op}: {what}")
        if self.failed > MAX_FAILED_OPS:
            raise RuntimeError(
                f"more than {MAX_FAILED_OPS} failed ops; first: "
                + " | ".join(self.errors))


class Tally:
    """The result line's attempted / failed, and every problem seen."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: List[str] = []

    def count(self, *logs: OpLog) -> None:
        for log in logs:
            self.attempted += len(log)
            self.failed += log.failed
            self.problems += log.errors

    def result(self, **rest: Any) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, **rest}


def input_info(workload: Workload, stream: opgen.OpStream) -> Dict[str, Any]:
    return {"ops_sha256": opgen.fingerprint(stream, workload.nominal_ops),
            "ops_hashed": workload.nominal_ops}


def run_ops(workload: Workload, state: Any, stream: opgen.OpStream,
            first: int, log: OpLog, count: Optional[int] = None,
            seconds: Optional[float] = None) -> int:
    """Run ops ``first..`` until ``count`` are done or ``seconds`` have
    passed; returns the index of the next op.  Only ``execute`` — calls
    into the program — sits between the two clock reads."""
    prepare, execute, check = (workload.prepare, workload.execute,
                               workload.check)
    starts, ends = log.starts, log.ends
    log.first = first
    ops = stream.ensure(first + (count or CHUNK))
    stop = first + count if count is not None else None
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    index = first
    while True:
        if index >= len(ops):
            ops = stream.ensure(index + CHUNK)
        op = ops[index]
        prepared = prepare(state, op, index)
        t0 = clock()
        try:
            result = execute(state, prepared)
            t1 = clock()
            if not check(state, prepared, result):
                log.note(index, op, "wrong bytes")
        except Exception:   # noqa: BLE001 - counted, reported, loop goes on
            t1 = clock()
            log.note(index, op, traceback.format_exc(limit=3).strip()
                     .replace("\n", " / "))
        starts.append(t0)
        ends.append(t1)
        index += 1
        if stop is not None and index >= stop:
            return index
        if deadline is not None and t1 >= deadline:
            return index


@contextlib.contextmanager
def warmed_cluster(workload: Workload, stream: opgen.OpStream,
                   recorder: Optional[tracing.Recorder] = None
                   ) -> Iterator[Tuple[BenchCluster, Any, OpLog, float]]:
    """spawn -> READY -> bootstrap -> regions/files -> warm-up prefix.
    Yields (cluster, workload state, warm-up log, set-up seconds)."""
    t0 = clock()
    with BenchCluster(workload.clients, durable=workload.durable,
                      recorder=recorder) as cluster:
        state = workload.setup(cluster.sessions)
        warm = OpLog()
        run_ops(workload, state, stream, 0, warm, count=workload.warmup_ops)
        yield cluster, state, warm, (clock() - t0) / 1e9


def closing_checks(workload: Workload, cluster: BenchCluster,
                   state: Any) -> List[str]:
    """Model-vs-store at the end, then fsck over every node's state."""
    cluster.settle(0.2)   # let one-way updates and background frees land
    problems = list(workload.final_check(state))
    report = fsck.check_cluster(SnapshotCluster(cluster.snapshots()))
    problems += [f"fsck: {error}" for error in report.errors]
    return problems


def latency_metrics(workload: Workload, stream: opgen.OpStream,
                    log: OpLog) -> Dict[str, Any]:
    ops = stream.ops[log.first:log.first + len(log)]
    latencies = [(end - start) / 1e3
                 for start, end in zip(log.starts, log.ends)]
    mutating = [workload.mutating(op) for op in ops]
    everything = sorted(latencies)
    reads = sorted(l for l, m in zip(latencies, mutating) if not m)
    writes = sorted(l for l, m in zip(latencies, mutating) if m)
    rates = stats.slice_rates(log.starts, log.ends)
    return {
        "ops": len(log), "read_ops": len(reads), "write_ops": len(writes),
        "ops_per_s": len(log) / ((log.ends[-1] - log.starts[0]) / 1e9),
        "slice_ops_per_s_min": min(rates),
        "slice_ops_per_s_median": statistics.median(rates),
        "slice_ops_per_s_max": max(rates),
        "lat_mean_us": mean_latency_us(log, len(log)),
        "lat_p50_us": stats.percentile(everything, 0.50),
        "lat_p90_us": stats.percentile(everything, 0.90),
        "lat_p99_us": stats.percentile(everything, 0.99),
        # a smoke window can miss one class entirely
        "read_lat_p50_us": stats.percentile(reads or everything, 0.50),
        "write_lat_p50_us": stats.percentile(writes or everything, 0.50),
    }


def mean_latency_us(log: OpLog, count: int) -> float:
    """Mean latency of the first ``count`` ops of a phase."""
    return sum(end - start for start, end in
               zip(log.starts[:count], log.ends[:count])) / count / 1e3


def measure(workload: Workload, cluster: BenchCluster, state: Any,
            stream: opgen.OpStream, seconds: float) -> Tuple[OpLog, Dict]:
    """One measured window with CPU accounted over exactly that window."""
    gc.collect()
    before = cluster.daemon_usage() + [process_usage()]
    log = OpLog()
    run_ops(workload, state, stream, workload.warmup_ops, log,
            seconds=seconds)
    after = cluster.daemon_usage() + [process_usage()]
    cpu_s = sum(b["cpu_s"] - a["cpu_s"] for a, b in zip(before, after))
    return log, {
        "cpu_us_per_op": 1e6 * cpu_s / len(log),
        "peak_rss_mib": sum(u["max_rss_kib"] for u in after) / 1024,
    }


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end run
# ---------------------------------------------------------------------------

def untraced_run(workload: Workload, seed: int, seconds: float,
                 setups: int = SETUPS) -> Dict[str, Any]:
    stream = workload.stream(seed)
    info = input_info(workload, stream)
    setup_samples: List[float] = []
    tally = Tally()
    for attempt in range(setups):
        with warmed_cluster(workload, stream) as (cluster, state, warm,
                                                  setup_s):
            setup_samples.append(setup_s)
            tally.count(warm)
            if attempt < setups - 1:
                continue
            log, usage = measure(workload, cluster, state, stream, seconds)
            tally.count(log)
            tally.problems += closing_checks(workload, cluster, state)
    numbers = latency_metrics(workload, stream, log)
    numbers.update(usage)
    numbers["setup_s"] = statistics.median(setup_samples)
    info.update(numbers)
    info["setup_samples_s"] = setup_samples
    info["stale_reads"] = getattr(state, "stale_reads", 0)
    return tally.result(numbers=numbers, info=info)


# ---------------------------------------------------------------------------
# The simulator twin
# ---------------------------------------------------------------------------

def sim_twin(workload: Workload, seed: int, first: int,
             count: int) -> Dict[str, Any]:
    """The same op sequence over ``create_cluster``: protocol messages
    and virtual time per op over ops ``first..first+count``."""
    from repro.api import create_cluster   # only the traced run needs it

    stream = workload.stream(seed)
    spill = make_work_dir("sim-") if workload.durable else None
    try:
        sim = create_cluster(num_nodes=2 + workload.clients,
                             config=deployment_config(spill))
        sessions = [sim.client(node=2 + i, principal="bench")
                    for i in range(workload.clients)]
        state = workload.setup(sessions)
        warm = OpLog()
        if first:
            run_ops(workload, state, stream, 0, warm, count=first)
        ignored = (layer_metrics.CONTROL_TYPES
                   | layer_metrics.HOUSEKEEPING_TYPES)
        messages = [0]

        def tap(message: Any) -> None:
            if message.msg_type.value not in ignored:
                messages[0] += 1

        sim.run(QUIESCE_S)
        sim.network.tap(tap)
        virtual0 = sim.now
        log = OpLog()
        run_ops(workload, state, stream, first, log, count=count)
        virtual_s = sim.now - virtual0
        sim.run(QUIESCE_S)
        return {
            "consistency.sim_msgs_per_op": messages[0] / count,
            "consistency.sim_virtual_ms_per_op": 1e3 * virtual_s / count,
            "failed": warm.failed + log.failed,
            "problems": warm.errors + log.errors,
        }
    finally:
        if spill is not None:
            remove_work_dir(spill)


# ---------------------------------------------------------------------------
# --trace 1: the layer run
# ---------------------------------------------------------------------------

def traced_run(workload: Workload, seed: int, seconds: float
               ) -> Dict[str, Any]:
    stream = workload.stream(seed)
    info = input_info(workload, stream)
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    tally = Tally()

    def probe(name: str, fn: Any, *args: Any) -> None:
        try:
            values[name] = fn(*args)
        except Exception as error:   # noqa: BLE001 - a probe never fails a run
            values[name] = None
            reasons[name] = f"{type(error).__name__}: {error}"

    # 1. Untraced reference on a cluster no wrapper has touched.
    with warmed_cluster(workload, stream) as (cluster, state, warm, _s):
        log, _usage = measure(workload, cluster, state, stream,
                              seconds * REFERENCE_SHARE)
        probe("net.rpc.ping_rtt_us", probes.ping_rtt_us, cluster)
        tally.count(warm, log)
    reference_log = log
    reference = latency_metrics(workload, stream, log)
    values["lat_p50_us"] = reference["lat_p50_us"]
    values["lat_p99_us"] = reference["lat_p99_us"]

    # 2. The traced segment: same sequence, wrappers in all 3 processes.
    recorder = tracing.Recorder("generator")
    tracing.install(recorder)
    try:
        with warmed_cluster(workload, stream, recorder) as (
                cluster, state, warm, _s):
            cluster.settle(QUIESCE_S)
            cluster.set_daemon_tracing(True)
            recorder.enabled = True
            log = OpLog()
            run_ops(workload, state, stream, workload.warmup_ops, log,
                    seconds=seconds * TRACED_SHARE)
            cluster.settle(QUIESCE_S)
            recorder.enabled = False
            cluster.set_daemon_tracing(False)
            tally.count(warm, log)
            tally.problems += closing_checks(workload, cluster, state)
            dumps = cluster.stop_daemons()
            if len(dumps) != NUM_DAEMONS:
                raise RuntimeError("a daemon did not write its span dump")
    finally:
        recorder.uninstall()
    traced = latency_metrics(workload, stream, log)
    n_ops = len(log)

    # 3. Join, attribute, compute.
    joined = attribution.attribute(recorder.export(), dumps,
                                   list(zip(log.starts, log.ends)))
    values.update(layer_metrics.compute(joined, n_ops))
    # Means over the ops both segments ran (same sequence, same start):
    # the identity is about the mean, and on the 50/50 workloads the
    # overall median is not a steady number.
    shared = min(n_ops, len(reference_log))
    values["trace.overhead_frac"] = (
        mean_latency_us(log, shared) / mean_latency_us(reference_log, shared)
        - 1.0)
    missing: Dict[str, str] = dict(recorder.missing)
    for dump in dumps:
        missing.update(dump["missing"])

    # 4. Twin and floors.  A twin that cannot be built any more (the
    # simulator's API moved) nulls its two metrics; one that runs and
    # disagrees fails the run.
    try:
        twin = sim_twin(workload, seed, workload.warmup_ops, n_ops)
    except Exception as error:   # noqa: BLE001 - reported as null + reason
        for name in ("consistency.sim_msgs_per_op",
                     "consistency.sim_virtual_ms_per_op"):
            reasons[name] = f"sim twin: {type(error).__name__}: {error}"
    else:
        tally.failed += twin.pop("failed")
        tally.problems += [f"sim twin: {p}" for p in twin.pop("problems")]
        values.update(twin)
        real = values["consistency.msgs_per_op"]
        sim = twin["consistency.sim_msgs_per_op"]
        if real is not None and abs(real - sim) * n_ops > max(
                SIM_TOLERANCE * sim * n_ops, SIM_SLACK_MESSAGES):
            tally.problems.append(
                f"protocol oracle: {real:.4f} msgs/op over TCP, {sim:.4f} "
                f"on the simulator twin (tolerance {SIM_TOLERANCE:.0%})")
    probe("net.tcp.echo_rtt_us", probes.echo_rtt_us)
    probe("storage.probe_us_per_page", probes.storage_probe_us_per_page)

    metrics, null_reasons = layer_metrics.finalize(values, missing)
    null_reasons.update(reasons)
    info.update({
        "traced_ops": n_ops, "reference_ops": reference["ops"],
        "reference_lat_p50_us": reference["lat_p50_us"],
        "reference_lat_mean_us": reference["lat_mean_us"],
        "traced_lat_p50_us": traced["lat_p50_us"],
        "traced_lat_mean_us": traced["lat_mean_us"],
        "layers_ns": joined["layers"], "total_ns": joined["total_ns"],
        "null_reasons": null_reasons,
    })
    return tally.result(metrics=metrics, info=info)
