"""The four workloads: set-up, one op, and the model every read is
checked against.

A workload drives a list of ``KhazanaSession`` objects (node 2, and node
3 for the two-client workloads) and never cares which backend is under
them — the same code runs the multi-process TCP deployment and its
simulator twin, which is what makes ``consistency.msgs_per_op`` a
like-for-like comparison.

Per op the runner calls :meth:`prepare` (build arguments and payload,
untimed), :meth:`execute` (only program calls — this is the timed
window) and :meth:`check` (compare with the model, untimed).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple, Type

import opgen
from repro.core.addressing import DEFAULT_PAGE_SIZE as PAGE
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.locks import LockMode
from repro.fs.filesystem import KhazanaFileSystem

SLOT = 128                      # bytes per small read/write
SLOTS_PER_PAGE = PAGE // SLOT
ZERO_SLOT = b"\x00" * SLOT

#: Every op count in ISSUE.md is scaled by this one factor: the driver's
#: contract measures for ``--seconds`` (15 s here) instead of the issue's
#: fixed ~30 s sequences.  It sizes the warm-up prefix (10 % of the
#: scaled count) and the fingerprinted input prefix.
SCALE = 1 / 3


def make_region(session: Any, protocol: str, level: ConsistencyLevel,
                pages: int, home: int) -> Any:
    """Reserve, re-home, then allocate, so pages materialise at ``home``
    (the order ``repro.tools.cluster.run_workload`` documents)."""
    desc = session.reserve(pages * PAGE, RegionAttributes(
        consistency_level=level, consistency_protocol=protocol,
        page_size=PAGE))
    if home not in desc.home_nodes:
        desc = session.migrate(desc.rid, home)
    session.allocate(desc.rid)
    return desc


class Workload:
    name = ""
    why = ""
    clients = 1
    durable = False
    #: ISSUE.md's op count; scaled by SCALE below.
    issue_ops = 0

    def __init__(self, shrink: int = 1) -> None:
        #: ``--smoke`` divides warm-up and initial data by this.
        self.shrink = shrink

    @property
    def nominal_ops(self) -> int:
        return max(10, int(self.issue_ops * SCALE))

    @property
    def warmup_ops(self) -> int:
        return max(1, self.nominal_ops // 10 // self.shrink)

    def stream(self, seed: int) -> opgen.OpStream:
        raise NotImplementedError

    def setup(self, sessions: List[Any]) -> Any:
        raise NotImplementedError

    def mutating(self, op: opgen.Op) -> bool:
        raise NotImplementedError

    def prepare(self, state: Any, op: opgen.Op, index: int) -> Any:
        raise NotImplementedError

    def execute(self, state: Any, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, prepared: Any, result: Any) -> bool:
        raise NotImplementedError

    def final_check(self, state: Any) -> List[str]:
        """End-of-run checks; returns human-readable failures."""
        return []


# ---------------------------------------------------------------------------
# read_cached / write_sharing: small CREW reads and writes
# ---------------------------------------------------------------------------

class _PageState:
    def __init__(self, sessions: List[Any], page_addrs: List[int]) -> None:
        self.sessions = sessions
        self.page_addrs = page_addrs
        #: (page, slot) -> index of the op that last wrote it
        self.model: Dict[Tuple[int, int], int] = {}


def slot_payload(index: int) -> bytes:
    """128 bytes that name the op that wrote them (never all zero)."""
    return struct.pack("<Q", index + 1) * (SLOT // 8)


class PageWorkload(Workload):
    """Two CREW regions, one homed on each daemon; Zipf page choice;
    every op is one lock / 128-byte access / unlock cycle."""

    pages_per_region = 0
    write_frac = 0.0

    def stream(self, seed: int) -> opgen.OpStream:
        return opgen.page_ops(seed, self.name, self.clients,
                              2 * self.pages_per_region, SLOTS_PER_PAGE,
                              self.write_frac)

    def setup(self, sessions: List[Any]) -> _PageState:
        page_addrs: List[int] = []
        for home in (0, 1):
            desc = make_region(sessions[0], "crew", ConsistencyLevel.STRICT,
                               self.pages_per_region, home)
            page_addrs += [desc.range.start + i * PAGE
                           for i in range(self.pages_per_region)]
        return _PageState(sessions, page_addrs)

    def mutating(self, op: opgen.Op) -> bool:
        return bool(op[3])

    def prepare(self, state: _PageState, op: opgen.Op, index: int) -> Any:
        client, page, slot, is_write = op
        address = state.page_addrs[page] + slot * SLOT
        payload = slot_payload(index) if is_write else None
        return (state.sessions[client], address, payload, (page, slot), index)

    def execute(self, state: _PageState, prepared: Any) -> Any:
        session, address, payload, _key, _index = prepared
        if payload is not None:
            ctx = session.lock(address, SLOT, LockMode.WRITE)
            session.write(ctx, address, payload)
            session.unlock(ctx)
            return None
        ctx = session.lock(address, SLOT, LockMode.READ)
        data = session.read(ctx, address, SLOT)
        session.unlock(ctx)
        return data

    def check(self, state: _PageState, prepared: Any, result: Any) -> bool:
        _session, _address, payload, key, index = prepared
        if payload is not None:
            state.model[key] = index
            return True
        wrote = state.model.get(key)
        expected = ZERO_SLOT if wrote is None else slot_payload(wrote)
        return bytes(result) == expected

    def final_check(self, state: _PageState) -> List[str]:
        """Every written slot, read back through every client."""
        failures = []
        for session in state.sessions:
            for (page, slot), wrote in state.model.items():
                address = state.page_addrs[page] + slot * SLOT
                if bytes(session.read_at(address, SLOT)) != slot_payload(wrote):
                    failures.append(
                        f"node {session.node_id}: page {page} slot {slot} "
                        f"lost write of op {wrote}")
        return failures


class ReadCached(PageWorkload):
    name = "read_cached"
    why = ("one client, 128 pages < its 256-page RAM level, 95% reads: "
           "ops are served by the local path and the wire is idle; the "
           "bypass workload for wire/codec changes")
    clients = 1
    issue_ops = 150_000
    pages_per_region = 64
    write_frac = 0.05


class WriteSharing(PageWorkload):
    name = "write_sharing"
    why = ("two clients, 16 hot pages, 50% writes: nearly every op moves "
           "a token or invalidates the other copy; small frames, "
           "round-trip bound, storage idle")
    clients = 2
    issue_ops = 45_000
    pages_per_region = 8
    write_frac = 0.5


# ---------------------------------------------------------------------------
# release_bulk: 64 KiB spans under release consistency
# ---------------------------------------------------------------------------

SPAN_PAGES = 16
SPAN_BYTES = SPAN_PAGES * PAGE
_PAGE_STAMP = struct.Struct("<II")


def span_payload(index: int) -> bytes:
    """64 KiB in which every page names (op index, page-in-span), so a
    write changes every page and a read can tell which write it sees."""
    return b"".join(page_payload(index, page) for page in range(SPAN_PAGES))


def page_payload(index: int, page: int) -> bytes:
    # index + 1: op 0's page 0 must not look like a never-written page
    return _PAGE_STAMP.pack(index + 1, page) * (PAGE // _PAGE_STAMP.size)


class _SpanState:
    def __init__(self, sessions: List[Any], span_addrs: List[int]) -> None:
        self.sessions = sessions
        self.span_addrs = span_addrs
        #: span -> index of the op that last wrote it / of all that did
        self.newest: Dict[int, int] = {}
        self.written: Dict[int, set] = {}
        #: (client, span, page) -> newest write that client must see
        self.floor: Dict[Tuple[int, int, int], int] = {}
        self.stale_reads = 0


class ReleaseBulk(Workload):
    """Two RELEASE regions of 32 pages; each op locks one aligned
    16-page span and overwrites it all (``lock(WRITE)``: tokens and
    current pages in one ``TOKEN_ACQUIRE_BATCH``, whole pages back in
    one ``UPDATE_PUSH_BATCH``; ``WRITE_SHARED`` runs 12x slower through
    the pure-Python diff, see README) or reads it all.

    Release consistency lets a read lock be served by a local replica
    that the home's one-way update has not reached yet, so the model is
    the protocol's contract, not "the last write": per page a read must
    return *some* write of that span, never older than what this client
    itself wrote or already saw (read-your-writes, monotonic reads).
    Reads that lag the newest write are counted, not failed; the final
    check (after the wire drains) requires every client to see it.
    """

    name = "release_bulk"
    why = ("the same wire and CM layers, used in few large frames: the "
           "*_BATCH path, diffs and copies; bytes-bound where "
           "write_sharing is round-trip bound")
    clients = 2
    issue_ops = 20_000
    region_pages = 32
    write_frac = 0.5

    def stream(self, seed: int) -> opgen.OpStream:
        spans = 2 * self.region_pages // SPAN_PAGES
        return opgen.span_ops(seed, self.name, self.clients, spans,
                              self.write_frac)

    def setup(self, sessions: List[Any]) -> _SpanState:
        span_addrs: List[int] = []
        for home in (0, 1):
            desc = make_region(sessions[0], "release",
                               ConsistencyLevel.RELEASE,
                               self.region_pages, home)
            span_addrs += [desc.range.start + s * SPAN_BYTES
                           for s in range(self.region_pages // SPAN_PAGES)]
        return _SpanState(sessions, span_addrs)

    def mutating(self, op: opgen.Op) -> bool:
        return bool(op[2])

    def prepare(self, state: _SpanState, op: opgen.Op, index: int) -> Any:
        client, span, is_write = op
        payload = span_payload(index) if is_write else None
        return (state.sessions[client], state.span_addrs[span], payload,
                client, span, index)

    def execute(self, state: _SpanState, prepared: Any) -> Any:
        session, address, payload = prepared[:3]
        if payload is not None:
            ctx = session.lock(address, SPAN_BYTES, LockMode.WRITE)
            session.write(ctx, address, payload)
            session.unlock(ctx)
            return None
        ctx = session.lock(address, SPAN_BYTES, LockMode.READ)
        data = session.read(ctx, address, SPAN_BYTES)
        session.unlock(ctx)
        return data

    def check(self, state: _SpanState, prepared: Any, result: Any) -> bool:
        _session, _address, payload, client, span, index = prepared
        if payload is not None:
            state.newest[span] = index
            state.written.setdefault(span, set()).add(index)
            for page in range(SPAN_PAGES):
                state.floor[(client, span, page)] = index
            return True
        return self._legal_read(state, client, span, bytes(result))

    @staticmethod
    def _legal_read(state: _SpanState, client: int, span: int,
                    data: bytes) -> bool:
        if len(data) != SPAN_BYTES:
            return False
        writes = state.written.get(span, ())
        newest = state.newest.get(span)
        stale = False
        for page in range(SPAN_PAGES):
            raw = data[page * PAGE:(page + 1) * PAGE]
            floor = state.floor.get((client, span, page))
            if raw == b"\x00" * PAGE:
                if floor is not None:
                    return False       # lost a write this client saw
                stale = stale or newest is not None
                continue
            seen = _PAGE_STAMP.unpack_from(raw)[0] - 1
            if seen not in writes or raw != page_payload(seen, page):
                return False           # not the payload of any write
            if floor is not None and seen < floor:
                return False           # older than this client knew
            state.floor[(client, span, page)] = seen
            stale = stale or seen != newest
        state.stale_reads += stale
        return True

    def final_check(self, state: _SpanState) -> List[str]:
        failures = []
        for session in state.sessions:
            for span, newest in state.newest.items():
                data = bytes(session.read_at(state.span_addrs[span],
                                             SPAN_BYTES))
                if data != span_payload(newest):
                    failures.append(
                        f"node {session.node_id}: span {span} does not "
                        f"hold its newest write (op {newest})")
        return failures


# ---------------------------------------------------------------------------
# kfs_mix: the paper's section 4.1 file system on a durable deployment
# ---------------------------------------------------------------------------

INITIAL_FILES = 32
INITIAL_BYTES = 6000
BENCH_DIR = "/bench"


def file_bytes(stamp: int, size: int) -> bytes:
    """``size`` bytes that name the op (or initial file) that wrote them."""
    unit = struct.pack("<I", stamp & 0xFFFFFFFF)
    return (unit * (size // 4 + 1))[:size]


def file_path(file_id: int) -> str:
    return f"{BENCH_DIR}/f{file_id:05d}"


class _FsState:
    def __init__(self, mounts: List[KhazanaFileSystem]) -> None:
        self.mounts = mounts
        #: file id -> (stamp, size) of its current contents
        self.model: Dict[int, Tuple[int, int]] = {}


class KfsMix(Workload):
    """Two mounts of one KFS; 32 files of 6 000 B in one directory;
    60 % whole-file read, 25 % stat, 8 % overwrite (100-9 000 B),
    4 % create + first write, 3 % unlink."""

    name = "kfs_mix"
    why = ("the only workload where the control plane (reserve/allocate, "
           "address map, placement), pickled cold message types, storage "
           "write-through and the metadata journal do the work")
    clients = 2
    durable = True
    issue_ops = 1_300

    @property
    def initial_files(self) -> int:
        return max(4, INITIAL_FILES // self.shrink)

    def stream(self, seed: int) -> opgen.OpStream:
        return opgen.fs_ops(seed, self.name, self.clients,
                            self.initial_files)

    def setup(self, sessions: List[Any]) -> _FsState:
        first = KhazanaFileSystem.format(sessions[0],
                                         consistency=ConsistencyLevel.STRICT)
        mounts = [first] + [
            KhazanaFileSystem.mount(session, first.superblock_addr)
            for session in sessions[1:]]
        first.mkdir(BENCH_DIR)
        state = _FsState(mounts)
        for file_id in range(self.initial_files):
            stamp = -1 - file_id
            with first.create(file_path(file_id)) as handle:
                handle.write(file_bytes(stamp, INITIAL_BYTES))
            state.model[file_id] = (stamp, INITIAL_BYTES)
        return state

    def mutating(self, op: opgen.Op) -> bool:
        return op[1] >= opgen.FS_OVERWRITE

    def prepare(self, state: _FsState, op: opgen.Op, index: int) -> Any:
        mount, kind, file_id, size = op
        data = (file_bytes(index, size)
                if kind in (opgen.FS_OVERWRITE, opgen.FS_CREATE) else None)
        return (state.mounts[mount], kind, file_path(file_id), data,
                file_id, index)

    def execute(self, state: _FsState, prepared: Any) -> Any:
        fs, kind, path, data = prepared[:4]
        if kind == opgen.FS_READ:
            with fs.open(path) as handle:
                return handle.read()
        if kind == opgen.FS_STAT:
            return fs.stat(path).size
        if kind == opgen.FS_OVERWRITE:
            with fs.open(path, "w") as handle:
                handle.write(data)
        elif kind == opgen.FS_CREATE:
            with fs.create(path) as handle:
                handle.write(data)
        else:
            fs.unlink(path)
        return None

    def check(self, state: _FsState, prepared: Any, result: Any) -> bool:
        _fs, kind, _path, data, file_id, index = prepared
        if kind == opgen.FS_READ:
            stamp, size = state.model[file_id]
            return bytes(result) == file_bytes(stamp, size)
        if kind == opgen.FS_STAT:
            return result == state.model[file_id][1]
        if kind == opgen.FS_UNLINK:
            del state.model[file_id]
        else:
            state.model[file_id] = (index, len(data))
        return True

    def final_check(self, state: _FsState) -> List[str]:
        failures = []
        expected = sorted(file_path(f).rsplit("/", 1)[1]
                          for f in state.model)
        for number, fs in enumerate(state.mounts):
            listed = fs.listdir(BENCH_DIR)
            if listed != expected:
                failures.append(
                    f"mount {number}: directory lists {len(listed)} names, "
                    f"model has {len(expected)}")
            for file_id, (stamp, size) in state.model.items():
                with fs.open(file_path(file_id)) as handle:
                    if bytes(handle.read()) != file_bytes(stamp, size):
                        failures.append(
                            f"mount {number}: {file_path(file_id)} differs "
                            "from its last write")
        return failures


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (ReadCached, WriteSharing, ReleaseBulk, KfsMix)
}
