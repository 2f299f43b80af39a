"""Floors and isolated probes reported next to the layer metrics.

Each returns a number, or ``None`` with the reason recorded by the
caller — a probe that cannot run never fails the benchmark.
"""

from __future__ import annotations

import asyncio
import os
import struct
import subprocess
import sys
import time
from typing import Any, List

import stats
from cluster import NUM_DAEMONS, free_ports

HERE = os.path.dirname(os.path.abspath(__file__))
PREFIX = struct.Struct("<I")
ECHO_FRAMES = 2000
ECHO_BODY = b"\xc5" * 64          # about one small protocol frame
PING_COUNT = 400
PROBE_PAGES, PROBE_RAM_PAGES = 1024, 256


def echo_rtt_us() -> float:
    """Median round trip of a 64-byte frame to ``echo_child.py``."""
    port = free_ports(1)[0]
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "echo_child.py"), str(port)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        if child.stdout.readline().strip() != b"READY":
            raise RuntimeError("echo child did not start")

        async def client() -> List[int]:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            frame = PREFIX.pack(len(ECHO_BODY)) + ECHO_BODY
            samples = []
            for _ in range(ECHO_FRAMES):
                t0 = time.perf_counter_ns()
                writer.write(frame)
                await writer.drain()
                prefix = await reader.readexactly(PREFIX.size)
                await reader.readexactly(PREFIX.unpack(prefix)[0])
                samples.append(time.perf_counter_ns() - t0)
            writer.close()
            await writer.wait_closed()
            return samples

        samples = sorted(asyncio.run(client())[ECHO_FRAMES // 10:])
        return stats.percentile(samples, 0.5) / 1e3
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


def ping_rtt_us(cluster: Any) -> float:
    """Median control-plane ping: a full RPC (request future, codec or
    pickle frame, router-less handler, reply) with no protocol work."""
    samples = []
    for index in range(PING_COUNT):
        t0 = time.perf_counter_ns()
        cluster.control(index % NUM_DAEMONS, "ping")
        samples.append(time.perf_counter_ns() - t0)
    return stats.percentile(sorted(samples[PING_COUNT // 10:]), 0.5) / 1e3


def storage_probe_us_per_page() -> float:
    """1 024 pages streamed through a 256-page hierarchy: store each
    once (every store past the 256th victimizes), then load each once
    (every load is a disk hit that victimizes again).  Real time per
    page access; the modelled cost is returned, never slept."""
    from repro.storage.disk import DiskStore
    from repro.storage.hierarchy import StorageHierarchy
    from repro.storage.memory import MemoryStore
    from repro.storage.store import StoredPage

    page = 4096
    hierarchy = StorageHierarchy(
        memory=MemoryStore(PROBE_RAM_PAGES * page),
        disk=DiskStore(4 * PROBE_PAGES * page))
    data = b"\x5a" * page
    t0 = time.perf_counter_ns()
    for index in range(PROBE_PAGES):
        hierarchy.store(StoredPage(index * page, data, dirty=True))
    for index in range(PROBE_PAGES):
        if hierarchy.load(index * page)[0] is None:
            raise RuntimeError("storage probe lost a page")
    return (time.perf_counter_ns() - t0) / (2 * PROBE_PAGES) / 1e3
