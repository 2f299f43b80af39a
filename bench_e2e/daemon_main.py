"""Benchmark-owned daemon entry: one Khazana daemon process on loopback TCP.

Built on ``repro.tools.cluster.build_node`` (the same construction the
repo's own launcher uses) with the launcher's failure-handling-off
config, plus a control plane of this benchmark's own on ``APP_REQUEST``:

- ``ping``      -> ``{"node": id}`` (readiness, and the RPC RTT floor)
- ``snapshot``  -> ``tools.cluster.snapshot_node`` (fsck input)
- ``usage``     -> user+sys CPU seconds and max RSS (``getrusage``)
- ``trace``     -> switch span recording on/off (``{"on": bool}``)
- ``shutdown``  -> stop the loop; spans are written out on the way down

The parent holds this process's stdin open; EOF on it (the parent died
on any path) stops the daemon, so no run leaves an orphan behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import resource
import sys
from typing import Any, Dict, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def _bootstrap_path() -> None:
    """Make ``repro`` and the benchmark's own modules importable."""
    src = os.path.join(os.path.dirname(HERE), "src")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_book(spec: str) -> Dict[int, Tuple[str, int]]:
    """``port,port,...`` -> loopback address book (entry i = node i)."""
    return {
        node: ("127.0.0.1", int(port))
        for node, port in enumerate(spec.split(","))
    }


def deployment_config(spill_dir: Optional[str]) -> Any:
    """The one ``DaemonConfig`` of every node of a run — daemons, client
    nodes and the simulator twin: the launcher's localhost config
    (failure handling off, node 0 = manager and bootstrap, tiered
    placement), durable when ``spill_dir`` is given."""
    from repro.tools.cluster import node_config

    config = node_config()
    if spill_dir:
        config = dataclasses.replace(config, spill_dir=spill_dir)
    return config


def process_usage() -> Dict[str, float]:
    """CPU and memory of this process, as the ``usage`` op reports it."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kib": float(usage.ru_maxrss),
    }


def register_bench_control(daemon: Any, runtime: Any,
                           recorder: Optional[Any]) -> None:
    """Install this benchmark's control plane on ``APP_REQUEST``."""
    from repro.net.message import MessageType
    from repro.tools.cluster import snapshot_node

    def handle(msg: Any) -> None:
        op = msg.payload.get("control")
        if op == "ping":
            body: Dict[str, Any] = {"node": daemon.node_id}
        elif op == "snapshot":
            body = {"snapshot": snapshot_node(daemon)}
        elif op == "usage":
            body = process_usage()
        elif op == "trace":
            if recorder is not None:
                recorder.enabled = bool(msg.payload.get("on"))
            body = {"tracing": recorder is not None and recorder.enabled}
        elif op == "shutdown":
            body = {}
            # Let the reply frame flush before tearing the loop down.
            runtime.call_later(0.05, runtime.stop, label="bench-shutdown")
        else:
            daemon.rpc.reply_error(msg, "bad_control", repr(op))
            return
        daemon.rpc.reply(msg, MessageType.APP_REPLY, body)

    daemon.rpc.on(MessageType.APP_REQUEST, handle)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--ports", required=True,
                        help="comma-separated ports; entry i is node i")
    parser.add_argument("--spill-dir", default="",
                        help="durable deployment: journal + file-backed disk")
    parser.add_argument("--trace-out", default="",
                        help="record layer spans and dump them here on exit")
    args = parser.parse_args(argv)

    _bootstrap_path()
    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder(process=f"daemon{args.node}")
        tracing.install(recorder)

    from repro.tools.cluster import build_node

    book = parse_book(args.ports)
    runtime, daemon = build_node(args.node, book,
                                 config=deployment_config(args.spill_dir))
    if recorder is not None:
        recorder.attach_transport(daemon.network)
    daemon.bootstrap_system_region(peers=sorted(book))
    register_bench_control(daemon, runtime, recorder)

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            runtime.loop.remove_reader(sys.stdin.fileno())
            runtime.stop()

    runtime.loop.add_reader(sys.stdin.fileno(), on_stdin)
    print("READY", flush=True)
    try:
        runtime.run_forever()
    finally:
        daemon.stop()
        runtime.loop.run_until_complete(daemon.network.aclose())
        runtime.close()
        if recorder is not None:
            recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
