"""Seeded op generators — the only source of the benchmark's inputs.

The program under test receives nothing but these generated ops.  Each
stream is an unbounded deterministic function of ``(workload, seed)``:
a time-bounded run executes a prefix of it, and the SHA-256 of a fixed
prefix (:func:`fingerprint`) is printed with every result so two commits
provably ran the same inputs.

Deliberately self-contained: its own Zipf table, its own shuffle, only
``random.Random(seed).random()`` as the entropy source (that method's
output is pinned by CPython's documentation), and no import of
``repro.bench.workloads``, which later PRs may change.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Callable, List, Sequence, Tuple

Op = Tuple[int, ...]

ZIPF_EXPONENT = 0.99


class Entropy:
    """Uniform draws built only on ``Random.random()``."""

    def __init__(self, seed: int, salt: str) -> None:
        self._random = random.Random(f"{salt}:{seed}").random

    def unit(self) -> float:
        return self._random()

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        return min(int(self._random() * n), n - 1)

    def shuffled(self, items: Sequence) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


class Zipf:
    """Zipf(``exponent``) over ``n`` items; rank -> item is a seeded
    permutation, so the hot items land anywhere in the address range."""

    def __init__(self, n: int, entropy: Entropy,
                 exponent: float = ZIPF_EXPONENT) -> None:
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** exponent
            self._cumulative.append(total)
        self._total = total
        self._items = entropy.shuffled(range(n))
        self._entropy = entropy

    def draw(self) -> int:
        rank = bisect.bisect_right(self._cumulative,
                                   self._entropy.unit() * self._total)
        return self._items[min(rank, len(self._items) - 1)]


class OpStream:
    """An unbounded op sequence, materialised on demand."""

    def __init__(self, produce: Callable[[], Op]) -> None:
        self._produce = produce
        self.ops: List[Op] = []

    def ensure(self, count: int) -> List[Op]:
        """Materialise at least ``count`` ops; returns the backing list."""
        ops, produce = self.ops, self._produce
        while len(ops) < count:
            ops.append(produce())
        return ops


def fingerprint(stream: OpStream, count: int) -> str:
    """SHA-256 over the first ``count`` ops of ``stream``."""
    ops = stream.ensure(count)[:count]
    text = ";".join(",".join(map(str, op)) for op in ops)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Page workloads: (client, page, slot, is_write)
# ---------------------------------------------------------------------------

def page_ops(seed: int, salt: str, clients: int, pages: int, slots: int,
             write_frac: float) -> OpStream:
    """Zipf page choice, uniform 128-byte slot, seeded client and mode."""
    entropy = Entropy(seed, salt)
    zipf = Zipf(pages, entropy)

    def produce() -> Op:
        return (entropy.below(clients), zipf.draw(), entropy.below(slots),
                int(entropy.unit() < write_frac))

    return OpStream(produce)


# ---------------------------------------------------------------------------
# Bulk workload: (client, span, is_write)
# ---------------------------------------------------------------------------

def span_ops(seed: int, salt: str, clients: int, spans: int,
             write_frac: float) -> OpStream:
    entropy = Entropy(seed, salt)

    def produce() -> Op:
        return (entropy.below(clients), entropy.below(spans),
                int(entropy.unit() < write_frac))

    return OpStream(produce)


# ---------------------------------------------------------------------------
# File-system workload: (mount, kind, file_id, size)
# ---------------------------------------------------------------------------

FS_READ, FS_STAT, FS_OVERWRITE, FS_CREATE, FS_UNLINK = range(5)
#: Ops per block of 100, in kind order: the issue's 60/25/8/4/3 mix.
FS_MIX = (60, 25, 8, 4, 3)
FS_BLOCK = sum(FS_MIX)
FS_MIN_BYTES, FS_MAX_BYTES = 100, 9000


def _balanced(entropy: Entropy, values: int, count: int) -> list:
    """``count`` draws from ``range(values)``, as even as possible."""
    pool = list(range(values)) * (count // values + 1)
    return entropy.shuffled(pool)[:count]


#: A KFS file block is 4 KiB and every block is its own region, so an
#: op's cost is a step function of its size.  Block counts of the 12
#: written sizes per 100 ops, alternating between consecutive blocks of
#: ops: uniform 100-9 000 B would give 5.4 / 5.5 / 1.1 on average.
FS_FILE_BLOCK = 4096
FS_SIZE_CLASSES = ((6, 5, 1), (5, 6, 1))


def fs_block(entropy: Entropy, mounts: int,
             parity: int = 0) -> List[Tuple[int, int, int]]:
    """One block of 100 ``(mount, kind, size)`` in issue order.

    The mix is *stratified*, not drawn op by op.  A mutating op costs
    ~300x a read here (modelled-disk sleeps), and a measured window
    holds only a few dozen of them: drawn independently, their count,
    their sizes and their mounts would swing every metric of a run by
    more than any regression bound.  So each block holds exactly the
    issue's counts, the 15 mutating ops sit at evenly spaced positions
    (any window of k ops holds 0.15 k of them, give or take one), the
    12 written sizes hold a fixed number of 1-, 2- and 3-block files
    (uniform within each class), and the mounts are balanced within the
    mutating and the non-mutating ops.  Which kind, size and mount
    lands where is seeded.
    """
    mutating = sum(FS_MIX[FS_OVERWRITE:])
    slots = {int((k + 0.5) * FS_BLOCK / mutating) for k in range(mutating)}
    heavy = entropy.shuffled(
        [kind for kind in (FS_OVERWRITE, FS_CREATE, FS_UNLINK)
         for _ in range(FS_MIX[kind])])
    light = entropy.shuffled(
        [kind for kind in (FS_READ, FS_STAT) for _ in range(FS_MIX[kind])])
    sizes = []
    for blocks, count in enumerate(FS_SIZE_CLASSES[parity % 2], start=1):
        low = max(FS_MIN_BYTES, (blocks - 1) * FS_FILE_BLOCK + 1)
        high = min(FS_MAX_BYTES, blocks * FS_FILE_BLOCK)
        sizes += [low + entropy.below(high - low + 1) for _ in range(count)]
    sizes = entropy.shuffled(sizes)
    heavy_mounts = _balanced(entropy, mounts, mutating)
    light_mounts = _balanced(entropy, mounts, FS_BLOCK - mutating)
    block = []
    for position in range(FS_BLOCK):
        if position in slots:
            kind, mount = heavy.pop(), heavy_mounts.pop()
        else:
            kind, mount = light.pop(), light_mounts.pop()
        size = sizes.pop() if kind in (FS_OVERWRITE, FS_CREATE) else 0
        block.append((mount, kind, size))
    return block


def fs_ops(seed: int, salt: str, mounts: int, initial_files: int) -> OpStream:
    """The KFS mix over a namespace the generator tracks itself.

    Files are named by integer id; ``live`` mirrors the directory the
    ops will have produced, so reads/stats/overwrites/unlinks always
    name an existing file and no op is expected to fail.
    """
    entropy = Entropy(seed, salt)
    live = list(range(initial_files))
    state = {"next_id": initial_files, "block": [], "blocks": 0}

    def produce() -> Op:
        if not state["block"]:
            state["block"] = fs_block(entropy, mounts, state["blocks"])[::-1]
            state["blocks"] += 1
        mount, kind, size = state["block"].pop()
        if kind == FS_CREATE:
            file_id = state["next_id"]
            state["next_id"] += 1
            live.append(file_id)
        else:
            position = entropy.below(len(live))
            file_id = live[position]
            if kind == FS_UNLINK:
                live[position] = live[-1]
                live.pop()
        return (mount, kind, file_id, size)

    return OpStream(produce)
