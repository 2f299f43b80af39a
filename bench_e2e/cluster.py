"""The deployment under test: 2 daemon processes + in-process client nodes.

Node 0 is the bootstrap node (address-map home, cluster manager), node 1
a plain daemon; both are child processes running ``daemon_main.py`` over
loopback TCP.  Nodes 2.. are *client nodes* hosted in the generator
process on one shared asyncio loop, each with its own ``TcpTransport``
(so even client-to-client traffic crosses a socket); applications drive
them through ``KhazanaSession`` exactly as ``repro.tools.cluster``'s
client does.

Everything a run creates lives under one work directory inside the
checkout; :meth:`BenchCluster.close` — reached on every exit path through
``with`` — shuts the children down (kill as the last resort), waits for
them, and removes the directory.
"""

from __future__ import annotations

import asyncio
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import tracing
from daemon_main import deployment_config
from repro.core.client import KhazanaSession
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.net.message import MessageType
from repro.net.rpc import RetryPolicy
from repro.tools.cluster import build_node, snapshot_node

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DAEMON_MAIN = os.path.join(HERE, "daemon_main.py")

NUM_DAEMONS = 2
#: Scratch space of all runs; listed in the root .gitignore.
WORK_ROOT = os.path.join(ROOT, ".bench_e2e_work")
#: Wall-clock bound on any single client operation.
OP_TIMEOUT_S = 30.0
#: Patient policy for control traffic (a snapshot can be a large frame).
CONTROL_POLICY = RetryPolicy(timeout=2.0, retries=3)
SPAWN_ATTEMPTS = 3
READY_TIMEOUT_S = 30.0


def free_ports(count: int) -> List[int]:
    """``count`` distinct loopback ports the kernel reports free.

    All probe sockets stay open until every port is chosen, so the list
    has no duplicates; a port stolen between this probe and the child's
    ``bind`` fails that child's READY handshake and the spawn retries.
    """
    probes = []
    try:
        for _ in range(count):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind(("127.0.0.1", 0))
            probes.append(probe)
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


def make_work_dir(prefix: str) -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)   # succeeds only once no run is using it
    except OSError:
        pass


class BenchCluster:
    """Two daemon processes plus ``clients`` in-process client nodes."""

    def __init__(self, clients: int, durable: bool = False,
                 recorder: Optional[Any] = None) -> None:
        self.clients = clients
        self.recorder = recorder
        self.procs: List[subprocess.Popen] = []
        self.runtime: Optional[AsyncioRuntime] = None
        self.nodes: List[Any] = []          # in-process client daemons
        self.sessions: List[KhazanaSession] = []
        self.work_dir = make_work_dir("run-")
        self.spill_dir = (os.path.join(self.work_dir, "spill")
                          if durable else None)
        self.trace_paths: List[str] = []

    # --- lifecycle -----------------------------------------------------

    def __enter__(self) -> "BenchCluster":
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _start(self) -> None:
        total = NUM_DAEMONS + self.clients
        for _ in range(SPAWN_ATTEMPTS):
            ports = free_ports(total)
            self._spawn(ports)
            if self._await_ready():
                break
            self._reap(grace=0.0)
        else:
            raise RuntimeError(
                f"daemons did not come up in {SPAWN_ATTEMPTS} attempts")
        book: Dict[int, Tuple[str, int]] = {
            node: ("127.0.0.1", port) for node, port in enumerate(ports)}
        config = deployment_config(self.spill_dir)
        for index in range(self.clients):
            # the first client node creates the loop, the rest share it
            shared = (AsyncioRuntime(self.runtime.loop)
                      if self.runtime is not None else None)
            runtime, node = build_node(NUM_DAEMONS + index, book,
                                       runtime=shared, config=config)
            if self.runtime is None:
                self.runtime = runtime
            if self.recorder is not None:
                self.recorder.attach_transport(node.network)
            node.bootstrap_system_region(peers=sorted(book))
            self.nodes.append(node)
            self.sessions.append(KhazanaSession(
                node, AsyncioDriver(runtime, timeout=OP_TIMEOUT_S),
                principal="bench"))
        for peer in range(NUM_DAEMONS):
            self.control(peer, "ping")

    def _spawn(self, ports: List[int]) -> None:
        self.trace_paths = []
        for node in range(NUM_DAEMONS):
            cmd = [sys.executable, DAEMON_MAIN, "--node", str(node),
                   "--ports", ",".join(str(port) for port in ports)]
            if self.spill_dir is not None:
                cmd += ["--spill-dir", self.spill_dir]
            if self.recorder is not None:
                path = os.path.join(self.work_dir, f"spans-node{node}.pickle")
                self.trace_paths.append(path)
                cmd += ["--trace-out", path]
            self.procs.append(subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT))

    def _await_ready(self) -> bool:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for proc in self.procs:
            assert proc.stdout is not None
            wait = max(0.0, deadline - time.monotonic())
            if not select.select([proc.stdout], [], [], wait)[0]:
                return False
            if proc.stdout.readline().strip() != b"READY":
                return False
        return True

    def close(self) -> None:
        """Stop every process and remove the work directory."""
        try:
            self.stop_daemons()
            self._close_clients()
        finally:
            self._reap(grace=0.0)   # whatever an error above left running
            remove_work_dir(self.work_dir)

    def stop_daemons(self) -> List[Dict[str, Any]]:
        """Orderly daemon shutdown; returns the span dumps the daemons
        wrote on their way down (none unless a recorder was given)."""
        for peer, proc in enumerate(self.procs):
            if proc.poll() is None and self.nodes:
                try:
                    self.control(peer, "shutdown", timeout=5.0)
                except Exception:   # noqa: BLE001 - _reap kills it instead
                    pass
        self._reap(grace=10.0)
        dumps = [tracing.load_dump(path) for path in self.trace_paths
                 if os.path.exists(path)]
        self.trace_paths = []
        return dumps

    def _reap(self, grace: float) -> None:
        """Wait ``grace`` seconds for the children, then kill."""
        deadline = time.monotonic() + grace
        for proc in self.procs:
            if proc.stdin:
                proc.stdin.close()   # EOF also tells the child to stop
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout:
                proc.stdout.close()
        self.procs = []

    def _close_clients(self) -> None:
        if self.runtime is None:
            return
        loop = self.runtime.loop
        for node in self.nodes:
            node.stop()
        for node in self.nodes:
            loop.run_until_complete(node.network.aclose())
        loop.close()
        self.nodes, self.sessions, self.runtime = [], [], None

    # --- control plane ---------------------------------------------------

    def control(self, peer: int, op: str, timeout: float = 20.0,
                **fields: Any) -> Dict[str, Any]:
        assert self.runtime is not None
        reply = self.runtime.run_future(
            self.nodes[0].rpc.request(
                peer, MessageType.APP_REQUEST, {"control": op, **fields},
                policy=CONTROL_POLICY),
            timeout=timeout,
        )
        return reply.payload

    def daemon_usage(self) -> List[Dict[str, float]]:
        return [self.control(peer, "usage") for peer in range(NUM_DAEMONS)]

    def set_daemon_tracing(self, on: bool) -> None:
        for peer in range(NUM_DAEMONS):
            self.control(peer, "trace", on=on)

    def snapshots(self) -> List[Dict[str, Any]]:
        """fsck input: every daemon's and every client node's state."""
        remote = [self.control(peer, "snapshot")["snapshot"]
                  for peer in range(NUM_DAEMONS)]
        return remote + [snapshot_node(node) for node in self.nodes]

    def settle(self, seconds: float) -> None:
        """Run the client loop so one-way and background traffic drains."""
        assert self.runtime is not None
        self.runtime.loop.run_until_complete(asyncio.sleep(seconds))
