"""Workload generators.

Seeded synthetic workloads standing in for the application traffic the
paper's motivating services would generate (file servers, web caches,
directory services) — the substitution recorded in DESIGN.md for the
absence of 1998 production traces.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api import Cluster
from repro.bench.metrics import LatencyRecorder
from repro.core.attributes import RegionAttributes
from repro.core.client import KhazanaSession
from repro.core.errors import KhazanaError
from repro.core.region import RegionDescriptor


class ZipfGenerator:
    """Seeded Zipf-distributed index generator over ``n`` items.

    Uses an inverse-CDF table; ``skew`` of 0 degenerates to uniform.
    """

    def __init__(self, n: int, skew: float = 0.99, seed: int = 0) -> None:
        if n < 1:
            raise ValueError(f"need at least one item, got {n}")
        self.n = n
        self.skew = skew
        self._rng = random.Random(seed)
        weights = [1.0 / (i ** skew) if skew > 0 else 1.0
                   for i in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def next(self) -> int:
        """Next index in [0, n)."""
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def sample(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]


class AccessPattern(str, enum.Enum):
    UNIFORM = "uniform"
    ZIPF = "zipf"
    SEQUENTIAL = "sequential"


@dataclass
class WorkloadSpec:
    """A read/write access workload over a set of regions."""

    operations: int = 200
    write_fraction: float = 0.1
    pattern: AccessPattern = AccessPattern.ZIPF
    zipf_skew: float = 0.99
    io_size: int = 128          # bytes touched per operation
    seed: int = 0


@dataclass
class WorkloadResult:
    """Outcome of one workload run on one session."""

    reads: int = 0
    writes: int = 0
    errors: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def operations(self) -> int:
        return self.reads + self.writes


def make_regions(
    session: KhazanaSession,
    count: int,
    size: int = 4096,
    attrs: Optional[RegionAttributes] = None,
) -> List[RegionDescriptor]:
    """Reserve+allocate ``count`` regions from one session."""
    regions = []
    for _ in range(count):
        desc = session.reserve(size, attrs)
        session.allocate(desc.rid)
        regions.append(desc)
    return regions


def run_access_workload(
    cluster: Cluster,
    session: KhazanaSession,
    regions: Sequence[RegionDescriptor],
    spec: WorkloadSpec,
) -> WorkloadResult:
    """Run the spec'd operation mix; returns latency/count results.

    Latency is virtual seconds per operation (lock + access + unlock),
    exactly the client-visible cost a Khazana application sees.
    """
    result = WorkloadResult()
    rng = random.Random(spec.seed)
    zipf = ZipfGenerator(len(regions), spec.zipf_skew, seed=spec.seed + 1)
    sequential = 0
    for op_index in range(spec.operations):
        if spec.pattern is AccessPattern.UNIFORM:
            region = regions[rng.randrange(len(regions))]
        elif spec.pattern is AccessPattern.ZIPF:
            region = regions[zipf.next()]
        else:
            region = regions[sequential % len(regions)]
            sequential += 1
        is_write = rng.random() < spec.write_fraction
        size = min(spec.io_size, region.range.length)
        start = cluster.now
        try:
            if is_write:
                payload = bytes(
                    (op_index + i) % 256 for i in range(size)
                )
                session.write_at(region.rid, payload)
                result.writes += 1
            else:
                session.read_at(region.rid, size)
                result.reads += 1
        except KhazanaError:
            result.errors += 1
            continue
        result.latency.record(cluster.now - start)
    return result
