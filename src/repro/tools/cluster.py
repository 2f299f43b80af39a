"""Real-process cluster launcher: ``python -m repro.tools.cluster``.

Boots N Khazana daemon processes on localhost TCP (the
:class:`~repro.net.tcp.TcpTransport` over the
:class:`~repro.net.aio.AsyncioRuntime`), then drives a client workload
against them from the launcher process — the closest this repo gets to
the paper's deployment shape of "cooperating daemon processes running
on some machines of a potentially wide-area network" (Section 2).

The smoke workload reserves one region per requested consistency
protocol, migrates its home onto daemon 0 (so every lock/read/write
crosses a process boundary), runs read-your-writes cycles, then runs
the standard :mod:`repro.tools.fsck` pass over state snapshots pulled
from every daemon via ``APP_REQUEST`` control messages.

Modes:

- orchestrator (default): spawn daemons, run the workload, fsck,
  shut everything down; exit 0 iff the workload verified and fsck is
  clean.
- ``--serve --node I``: host daemon I (used for the spawned children;
  rarely invoked by hand).
- ``--peers host:port,...``: a multi-machine address book.  Each
  machine hosting daemon I runs ``--serve --node I --peers <spec>``
  with the identical spec; the machine running without ``--serve``
  becomes the client (the spec's final entry) and drives the same
  workload/fsck pass over the wide-area deployment.
"""

from __future__ import annotations

import argparse
import logging
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.addressing import DEFAULT_PAGE_SIZE
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.client import KhazanaSession
from repro.core.kernel import DaemonConfig, NodeKernel
from repro.core.locks import LockMode
from repro.core.region import RegionDescriptor
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.net.message import MessageType
from repro.net.rpc import RetryPolicy
from repro.net.tcp import TcpTransport
from repro.storage.store import StoredPage
from repro.tools import fsck

logger = logging.getLogger(__name__)

#: Protocols the smoke workload exercises by default.
DEFAULT_WORKLOAD = "crew,release"

#: protocol name -> the client-facing level that selects it.
_LEVELS = {
    "crew": ConsistencyLevel.STRICT,
    "release": ConsistencyLevel.RELEASE,
    "eventual": ConsistencyLevel.EVENTUAL,
    "mobile": ConsistencyLevel.STRICT,
}


def address_book(num_daemons: int, base_port: int) -> Dict[int, Tuple[str, int]]:
    """Localhost addresses for daemons 0..N-1 plus the client (node N)."""
    return {
        node: ("127.0.0.1", base_port + node)
        for node in range(num_daemons + 1)
    }


def parse_peers(spec: str) -> Dict[int, Tuple[str, int]]:
    """Parse ``host:port,host:port,...`` into an address book.

    Entry *i* addresses daemon *i*; the final entry addresses the
    client node — the multi-machine replacement for the localhost
    book of :func:`address_book`.  Every participating process must be
    handed the identical spec.
    """
    entries = [entry.strip() for entry in spec.split(",") if entry.strip()]
    if len(entries) < 2:
        raise ValueError(
            "--peers needs at least two host:port entries "
            "(one daemon plus the client)"
        )
    book: Dict[int, Tuple[str, int]] = {}
    for node, entry in enumerate(entries):
        host, sep, port = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"bad --peers entry {entry!r}: want host:port"
            )
        try:
            book[node] = (host, int(port))
        except ValueError:
            raise ValueError(f"bad --peers port in {entry!r}") from None
    return book


def resolve_book(args: argparse.Namespace) -> Dict[int, Tuple[str, int]]:
    """The address book this invocation runs against: ``--peers`` when
    given, otherwise the localhost book."""
    if getattr(args, "peers", None):
        return parse_peers(args.peers)
    return address_book(args.nodes, args.base_port)


def default_base_port() -> int:
    """A per-process default to keep parallel CI runs off each other."""
    return 20000 + (os.getpid() % 20000)


def node_config() -> DaemonConfig:
    """Daemon tunables for the localhost deployment.

    Failure detection stays off: the launcher owns the membership for
    its whole (short) life, and wall-clock ping timers firing into a
    half-started cluster would only add noise to the smoke signal.
    """
    return DaemonConfig(
        enable_failure_handling=False,
        cluster_manager_node=0,
        bootstrap_node=0,
    )


def build_node(
    node_id: int,
    book: Dict[int, Tuple[str, int]],
    runtime: Optional[AsyncioRuntime] = None,
    config: Optional[DaemonConfig] = None,
) -> Tuple[AsyncioRuntime, NodeKernel]:
    """One daemon on the asyncio backend, listening on its book entry.

    With ``runtime`` given, the daemon joins that runtime's loop (the
    in-process bench/tests host several daemons on one loop, each with
    its own transport); otherwise a fresh loop is created.
    """
    if runtime is None:
        runtime = AsyncioRuntime()
    transport = TcpTransport(book, runtime.loop)
    runtime.transport = transport
    runtime.loop.run_until_complete(transport.listen(node_id))
    daemon = NodeKernel(
        node_id, runtime, config=config if config is not None
        else node_config()
    )
    return runtime, daemon


# ---------------------------------------------------------------------------
# State snapshots: fsck over processes
# ---------------------------------------------------------------------------
#
# fsck inspects a quiesced cluster through a narrow duck type —
# daemon(n) / node_ids() / network.is_crashed(n) plus each daemon's
# homed_regions, page_directory.homed_entries() and storage levels.
# Each daemon process serialises exactly that surface into a plain
# dict; the launcher reassembles the dicts into a SnapshotCluster and
# runs the *unchanged* fsck pass over it.

def snapshot_node(daemon: NodeKernel) -> Dict[str, Any]:
    """This daemon's fsck-relevant state as a wire-encodable dict
    (an ``APP_REPLY`` payload: string keys only, so pages travel as
    ``[address, data]`` pairs)."""

    def level_snapshot(level: Any) -> Dict[str, Any]:
        pages = []
        for address in level.addresses():
            page = (level.peek(address) if hasattr(level, "peek")
                    else level.get(address))
            if page is not None:
                pages.append([address, bytes(page.data)])
        return {"used": level.used_bytes(),
                "capacity": level.capacity_bytes,
                "pages": pages}

    return {
        "node": daemon.node_id,
        "regions": [desc.to_wire() for desc in
                    daemon.homed_regions.values()],
        "entries": [
            {
                "address": entry.address,
                "rid": entry.rid,
                "sharers": sorted(entry.sharers),
                "allocated": entry.allocated,
            }
            for entry in daemon.page_directory.homed_entries()
        ],
        "storage": {
            "memory": level_snapshot(daemon.storage.memory),
            "disk": level_snapshot(daemon.storage.disk),
        },
    }


class _SnapshotEntry:
    def __init__(self, raw: Dict[str, Any]) -> None:
        self.address = raw["address"]
        self.rid = raw["rid"]
        self.sharers = set(raw["sharers"])
        self.allocated = raw["allocated"]


class _SnapshotLevel:
    def __init__(self, raw: Dict[str, Any]) -> None:
        self._used = raw["used"]
        self.capacity_bytes = raw["capacity"]
        self._pages = {
            address: StoredPage(address, data, dirty=False)
            for address, data in raw["pages"]
        }

    def addresses(self) -> List[int]:
        return list(self._pages)

    def peek(self, address: int) -> Optional[StoredPage]:
        return self._pages.get(address)

    def used_bytes(self) -> int:
        return self._used


class _SnapshotStorage:
    def __init__(self, raw: Dict[str, Any]) -> None:
        self.memory = _SnapshotLevel(raw["memory"])
        self.disk = _SnapshotLevel(raw["disk"])

    def peek(self, address: int) -> Optional[StoredPage]:
        page = self.memory.peek(address)
        return page if page is not None else self.disk.peek(address)

    def contains(self, address: int) -> bool:
        return self.peek(address) is not None


class _SnapshotDirectory:
    def __init__(self, entries: List[_SnapshotEntry]) -> None:
        self._entries = entries

    def homed_entries(self) -> List[_SnapshotEntry]:
        return list(self._entries)


class _SnapshotDaemon:
    def __init__(self, raw: Dict[str, Any]) -> None:
        self.node_id = raw["node"]
        self.homed_regions = {
            desc.rid: desc
            for desc in (RegionDescriptor.from_wire(wire)
                         for wire in raw["regions"])
        }
        self.page_directory = _SnapshotDirectory(
            [_SnapshotEntry(entry) for entry in raw["entries"]]
        )
        self.storage = _SnapshotStorage(raw["storage"])


class _NoFailures:
    @staticmethod
    def is_crashed(node_id: int) -> bool:
        return False


class SnapshotCluster:
    """The cluster duck type fsck expects, over per-node snapshots."""

    def __init__(self, snapshots: List[Dict[str, Any]]) -> None:
        self._daemons = {
            raw["node"]: _SnapshotDaemon(raw) for raw in snapshots
        }
        self.network = _NoFailures()

    def node_ids(self) -> List[int]:
        return sorted(self._daemons)

    def daemon(self, node: int) -> _SnapshotDaemon:
        return self._daemons[node]


# ---------------------------------------------------------------------------
# Daemon process (--serve)
# ---------------------------------------------------------------------------

def register_control(daemon: NodeKernel, runtime: AsyncioRuntime) -> None:
    """Wire the launcher's control plane onto ``APP_REQUEST``."""

    def handle(msg) -> None:
        op = msg.payload.get("control")
        if op == "ping":
            daemon.rpc.reply(msg, MessageType.APP_REPLY,
                             {"node": daemon.node_id})
        elif op == "snapshot":
            daemon.rpc.reply(msg, MessageType.APP_REPLY,
                             {"snapshot": snapshot_node(daemon)})
        elif op == "shutdown":
            daemon.rpc.reply(msg, MessageType.APP_REPLY, {})
            # Let the reply frame flush before tearing the loop down.
            runtime.call_later(0.05, runtime.stop, label="shutdown")
        else:
            daemon.rpc.reply_error(msg, "bad_control", repr(op))

    daemon.rpc.on(MessageType.APP_REQUEST, handle)


def serve(args: argparse.Namespace) -> int:
    book = resolve_book(args)
    num_daemons = len(book) - 1
    runtime, daemon = build_node(args.node, book)
    daemon.bootstrap_system_region(peers=list(range(num_daemons + 1)))
    register_control(daemon, runtime)
    print("READY", flush=True)
    try:
        runtime.run_forever()
    finally:
        daemon.stop()
        runtime.loop.run_until_complete(daemon.network.aclose())
        runtime.close()
    return 0


# ---------------------------------------------------------------------------
# Client driver (runs inside the orchestrator process)
# ---------------------------------------------------------------------------

#: Patient per-request policy for control traffic while daemons come up.
_CONTROL_POLICY = RetryPolicy(timeout=0.5, retries=4)


def _control(runtime: AsyncioRuntime, daemon: NodeKernel, peer: int,
             op: str, timeout: float = 20.0) -> Dict[str, Any]:
    reply = runtime.run_future(
        daemon.rpc.request(peer, MessageType.APP_REQUEST, {"control": op},
                           policy=_CONTROL_POLICY),
        timeout=timeout,
    )
    return reply.payload


def run_workload(session: KhazanaSession, protocol: str, home_node: int,
                 pages: int = 4, ops: int = 8) -> Dict[str, Any]:
    """Reserve/allocate a region homed on ``home_node`` and hammer it.

    Every cycle write-locks a page, writes a distinct value, unlocks,
    then read-locks and verifies — read-your-writes through the real
    wire, since the home (and therefore CREW lock mediation and
    release write-backs) lives in another process.
    """
    attrs = RegionAttributes(
        consistency_level=_LEVELS[protocol],
        consistency_protocol=protocol,
        page_size=DEFAULT_PAGE_SIZE,
    )
    # Migrate before allocating so the pages materialise at their final
    # home: allocation records the allocating node as a sharer, and a
    # later migration would leave the home granting data-less tokens to
    # a "sharer" whose lazily-zero copy never existed (same edge on the
    # sim backend).
    desc = session.reserve(pages * DEFAULT_PAGE_SIZE, attrs)
    if home_node not in desc.home_nodes:
        desc = session.migrate(desc.rid, home_node)
    session.allocate(desc.rid)
    base = desc.range.start
    verified = 0
    for i in range(ops):
        address = base + (i % pages) * DEFAULT_PAGE_SIZE
        value = f"{protocol}:{i}".encode().ljust(64, b".")
        ctx = session.lock(address, DEFAULT_PAGE_SIZE, LockMode.WRITE)
        session.write(ctx, address, value)
        session.unlock(ctx)
        ctx = session.lock(address, DEFAULT_PAGE_SIZE, LockMode.READ)
        got = session.read(ctx, address, len(value))
        session.unlock(ctx)
        if bytes(got) != value:
            raise RuntimeError(
                f"{protocol}: read back {got!r}, expected {value!r}"
            )
        verified += 1
    return {"protocol": protocol, "rid": desc.rid, "ops": verified}


def run_client(args: argparse.Namespace) -> int:
    book = resolve_book(args)
    num_daemons = len(book) - 1
    client_node = num_daemons
    runtime, daemon = build_node(client_node, book)
    driver = AsyncioDriver(runtime, timeout=args.op_timeout)
    session = KhazanaSession(daemon, driver, principal="cluster-smoke")
    daemon.bootstrap_system_region(peers=list(range(num_daemons + 1)))

    failures = 0
    try:
        for peer in range(num_daemons):
            _control(runtime, daemon, peer, "ping")
        print(f"cluster: {num_daemons} daemon(s) answering", flush=True)

        for protocol in args.workload.split(","):
            outcome = run_workload(
                session, protocol.strip(), home_node=0,
                pages=args.pages, ops=args.ops,
            )
            print(
                f"workload {outcome['protocol']}: {outcome['ops']} "
                f"read-your-writes cycles verified "
                f"(region {outcome['rid']:#x})",
                flush=True,
            )

        snapshots = [
            _control(runtime, daemon, peer, "snapshot")["snapshot"]
            for peer in range(num_daemons)
        ]
        snapshots.append(snapshot_node(daemon))
        report = fsck.check_cluster(SnapshotCluster(snapshots))
        print(report.render(), flush=True)
        if not report.ok:
            failures += 1

        sent = daemon.network.stats
        print(
            f"client traffic: {sent.messages_sent} sent / "
            f"{sent.bytes_sent} bytes over TCP",
            flush=True,
        )
    except Exception:
        logger.exception("cluster workload failed")
        failures += 1
    finally:
        for peer in range(num_daemons):
            try:
                _control(runtime, daemon, peer, "shutdown", timeout=5.0)
            except Exception:
                logger.warning("daemon %d did not acknowledge shutdown",
                               peer)
        daemon.stop()
        runtime.loop.run_until_complete(daemon.network.aclose())
        runtime.close()
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def _spawn_daemons(args: argparse.Namespace) -> List[subprocess.Popen]:
    procs = []
    for node in range(args.nodes):
        procs.append(subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.cluster",
                "--serve", "--node", str(node),
                "--nodes", str(args.nodes),
                "--base-port", str(args.base_port),
            ],
            stdout=subprocess.PIPE,
            text=True,
        ))
    return procs


def _await_ready(procs: List[subprocess.Popen]) -> None:
    for node, proc in enumerate(procs):
        line = proc.stdout.readline().strip() if proc.stdout else ""
        if line != "READY":
            raise RuntimeError(
                f"daemon {node} failed to start (said {line!r}); "
                "is the port range free?"
            )


def _reap(procs: List[subprocess.Popen], grace: float = 5.0) -> None:
    deadline = time.monotonic() + grace
    for proc in procs:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        if proc.stdout:
            proc.stdout.close()


def orchestrate(args: argparse.Namespace) -> int:
    print(
        f"launching {args.nodes} daemon(s) on 127.0.0.1 "
        f"ports {args.base_port}..{args.base_port + args.nodes}",
        flush=True,
    )
    procs = _spawn_daemons(args)
    try:
        _await_ready(procs)
        status = run_client(args)
    except Exception:
        logger.exception("cluster orchestration failed")
        status = 1
    finally:
        _reap(procs)
    print("cluster smoke:", "OK" if status == 0 else "FAILED", flush=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.cluster",
        description="Boot a localhost Khazana cluster over real TCP "
                    "and run a read/write/lock smoke workload.",
    )
    parser.add_argument("--nodes", type=int, default=3,
                        help="daemon process count (default 3)")
    parser.add_argument("--base-port", type=int,
                        default=default_base_port(),
                        help="first TCP port (daemon i uses base+i; "
                             "the client uses base+N)")
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        help="comma-separated consistency protocols "
                             f"(default {DEFAULT_WORKLOAD!r})")
    parser.add_argument("--ops", type=int, default=8,
                        help="read-your-writes cycles per protocol")
    parser.add_argument("--pages", type=int, default=4,
                        help="pages per workload region")
    parser.add_argument("--op-timeout", type=float, default=30.0,
                        help="wall-clock bound per client operation")
    parser.add_argument("--peers", default=None,
                        help="comma-separated host:port address book: one "
                             "entry per daemon plus a final entry for the "
                             "client.  Replaces the localhost book; each "
                             "daemon machine runs --serve --node I with the "
                             "identical spec, and the machine running "
                             "without --serve drives the workload")
    parser.add_argument("--serve", action="store_true",
                        help="host one daemon process (used by the "
                             "orchestrator's children, or by hand on each "
                             "machine of a --peers deployment)")
    parser.add_argument("--node", type=int, default=0,
                        help="internal: which daemon to host")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    for protocol in args.workload.split(","):
        if protocol.strip() not in _LEVELS:
            parser.error(f"unknown protocol {protocol!r}")
    if args.peers:
        try:
            parse_peers(args.peers)
        except ValueError as error:
            parser.error(str(error))
    if args.serve:
        return serve(args)
    if args.peers:
        # Multi-machine mode: the daemons were started elsewhere with
        # --serve --peers; this process only drives the workload.
        return run_client(args)
    return orchestrate(args)


if __name__ == "__main__":
    raise SystemExit(main())
