"""Span recording from outside the program.

The benchmark may not edit ``src/``; the layer numbers therefore come
from wrappers installed *around* each layer's public functions, in all
three processes.  Every wrapper

- resolves its target by dotted name when :func:`install` runs; a
  symbol that a later refactor removed is noted in
  ``Recorder.missing`` (probe -> reason) and the metrics that depend on
  it report ``null`` — a missing probe never fails a run;
- appends one tuple to an in-memory list and does nothing else while
  the benchmark is measuring (spans are written out at shutdown);
- is a pass-through while ``Recorder.enabled`` is false, so set-up and
  warm-up leave no spans behind.

Span kinds:

- *sync spans* ``(name, t0_ns, t1_ns, extra)`` around plain calls.
  A generator-based protocol function is recorded as one sync span per
  *resumption* (``send`` -> next ``yield``), so a span never covers time
  its code spent suspended and the spans of one process nest strictly,
  like a call stack.  ``extra`` carries ``FIRST``/``LAST`` flags for
  generator segments and a per-probe count otherwise (bytes, modelled
  cost, hit/miss).
- *intervals* ``(kind, t0_ns, t1_ns, extra)`` for waits that do span a
  suspension: an RPC from call to reply-future resolution, a modelled
  disk sleep from ``kernel.sleep`` to its timer.
- *wire events* from ``Transport.tap`` (sender) and
  ``Transport.tap_delivery`` (receiver).

All clocks are ``time.perf_counter_ns`` — CLOCK_MONOTONIC, shared by the
processes of one machine — so the three dumps join without skew.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter_ns

#: ``extra`` flags of a generator segment.
FIRST = 1   # the call's first resumption
LAST = 2    # the generator finished (returned or raised) in this segment

Span = Tuple[str, int, int, Any]


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.enabled = False
        self.spans: List[Span] = []
        self.intervals: List[Span] = []
        #: (t_ns, src, dst, msg_id, type, request_id, reply_to)
        self.sends: List[tuple] = []
        #: (t_ns, src, dst, msg_id)
        self.deliveries: List[tuple] = []
        #: probe name -> why it could not be installed
        self.missing: Dict[str, str] = {}
        #: (owner, attribute, original) of everything :func:`install` patched
        self.patched: List[Tuple[Any, str, Any]] = []

    # --- wire taps ---------------------------------------------------

    def attach_transport(self, transport: Any) -> None:
        """Count and time messages through the transport's own taps."""
        sends, deliveries = self.sends, self.deliveries

        def on_send(message: Any) -> None:
            if self.enabled:
                sends.append((clock(), message.src, message.dst,
                              message.msg_id, message.msg_type.value,
                              message.request_id, message.reply_to))

        def on_delivery(message: Any) -> None:
            if self.enabled:
                deliveries.append((clock(), message.src, message.dst,
                                   message.msg_id))

        for tap_name, handler in (("tap", on_send),
                                  ("tap_delivery", on_delivery)):
            tap = getattr(transport, tap_name, None)
            if tap is None:
                self.missing[f"transport.{tap_name}"] = (
                    f"{type(transport).__name__} has no {tap_name}()"
                )
            else:
                tap(handler)

    # --- output --------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        return {
            "process": self.process,
            "spans": self.spans,
            "intervals": self.intervals,
            "sends": self.sends,
            "deliveries": self.deliveries,
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(self.export(), fh, protocol=4)
        os.replace(tmp, path)

    def uninstall(self) -> None:
        """Put every patched attribute back (tests, and the untraced
        reference segment of a traced run)."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


def load_dump(path: str) -> Dict[str, Any]:
    # Only ever reads files this benchmark's own daemons wrote.
    with open(path, "rb") as fh:
        return pickle.load(fh)


# ---------------------------------------------------------------------------
# Wrapper factories
# ---------------------------------------------------------------------------

def sync_wrapper(rec: Recorder, name: str, fn: Callable,
                 extra: Optional[Callable[[Any, tuple], Any]] = None
                 ) -> Callable:
    """Record one sync span per call of ``fn``."""
    spans = rec.spans

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return fn(*args, **kwargs)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.append((name, t0, clock(), None))
            raise
        t1 = clock()
        spans.append((name, t0, t1,
                      extra(result, args) if extra is not None else None))
        return result

    wrapper.__wrapped__ = fn   # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def segments(rec: Recorder, name: str, gen: Any) -> Any:
    """Drive ``gen``, recording one sync span per resumption."""
    spans = rec.spans
    flags = FIRST
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        t0 = clock()
        try:
            if error is not None:
                thrown, error = error, None
                waited = gen.throw(thrown)
            else:
                waited = gen.send(value)
        except StopIteration as stop:
            spans.append((name, t0, clock(), flags | LAST))
            return stop.value
        except BaseException:
            spans.append((name, t0, clock(), flags | LAST))
            raise
        spans.append((name, t0, clock(), flags))
        flags = 0
        try:
            value = yield waited
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:   # forwarded into gen above
            error, value = thrown, None


def gen_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap a generator function; each resumption becomes a sync span."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        gen = fn(*args, **kwargs)
        if not rec.enabled or not isinstance(gen, types.GeneratorType):
            return gen
        return segments(rec, name, gen)

    wrapper.__wrapped__ = fn   # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# ---------------------------------------------------------------------------
# Probe table
# ---------------------------------------------------------------------------

#: (span-name prefix, module, class or "" for module level, attributes, kind)
#: kind "sync"/"gen" use the factories above; the rest are special-cased
#: in :func:`install`.  Span names are ``<prefix>.<attribute>``.
PROBES: List[Tuple[str, str, str, Tuple[str, ...], str]] = [
    ("core.client", "repro.core.client", "KhazanaSession",
     ("lock", "unlock", "read", "write", "reserve", "unreserve",
      "allocate", "free", "migrate"), "sync"),
    ("net.aio", "repro.net.aio", "AsyncioRuntime", ("run_future",), "sync"),
    ("core.dataplane", "repro.core.dataplane", "DataPlane",
     ("op_lock", "op_unlock", "op_read", "op_write"), "gen"),
    ("core.dataplane", "repro.core.dataplane", "DataPlane",
     ("try_read_fast", "try_write_fast"), "fast"),
    ("consistency.client", "repro.consistency.manager", "ConsistencyManager",
     ("acquire", "acquire_many", "release", "release_many"), "gen-tree"),
    ("consistency.home", "repro.core.router", "MessageRouter",
     ("cm_dispatch",), "handler-factory"),
    ("core.control.home", "repro.core.router", "MessageRouter",
     ("register",), "register"),
    ("home", "repro.core.kernel", "NodeKernel",
     ("spawn_handler",), "spawn-handler"),
    ("core.router", "repro.core.router", "MessageRouter",
     ("dispatch",), "sync"),
    ("net.rpc", "repro.net.rpc", "RpcEndpoint", ("request",), "request"),
    ("net.rpc", "repro.net.rpc", "RpcEndpoint", ("reply", "send"), "sync"),
    ("net.rpc", "repro.net.tcp", "TcpTransport", ("attach",), "attach"),
    ("net.frame", "repro.net.frame", "", ("encode_frame",), "encode"),
    ("net.frame", "repro.net.frame", "", ("decode_body",), "decode"),
    ("storage", "repro.storage.hierarchy", "StorageHierarchy",
     ("load",), "load"),
    ("storage", "repro.storage.hierarchy", "StorageHierarchy",
     ("load_resident",), "load-resident"),
    ("storage", "repro.storage.hierarchy", "StorageHierarchy",
     ("store", "write_through"), "cost"),
    ("storage.disk", "repro.storage.disk", "DiskStore", ("put",), "sync"),
    ("storage.persistence", "repro.storage.disk", "FileBackedDiskStore",
     ("put",), "page-bytes"),
    ("storage.persistence", "repro.storage.persistence", "MetadataJournal",
     ("save_regions", "save_page_entries"), "journal"),
    ("storage", "repro.core.kernel", "NodeKernel", ("sleep",), "sleep"),
    ("core.space", "repro.core.space", "SpaceService",
     ("op_reserve", "op_allocate", "op_free", "op_unreserve"), "gen"),
    ("core.placement", "repro.core.placement.base", "PlacementStrategy",
     ("locate_region",), "gen-tree"),
    ("fs", "repro.fs.filesystem", "KhazanaFileSystem",
     ("create", "open", "stat", "unlink", "listdir", "mkdir", "exists"),
     "sync"),
    ("fs", "repro.fs.file", "KFile",
     ("read", "write", "pread", "pwrite", "truncate"), "sync"),
]

#: ``MetadataJournal`` method -> module constant naming the file it writes.
_JOURNAL_FILES = {"save_regions": "REGIONS_FILE",
                  "save_page_entries": "PAGEDIR_FILE"}


def _subclass_tree(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _definers(owners: List[Any], attr: str) -> List[Any]:
    """The classes (or module) whose own namespace defines ``attr``."""
    found: List[Any] = []
    for owner in owners:
        scopes = owner.__mro__ if isinstance(owner, type) else (owner,)
        for scope in scopes:
            if attr in vars(scope):
                if scope not in found:
                    found.append(scope)
                break
    return found


def install(rec: Recorder, probes: Optional[list] = None) -> None:
    """Install every probe that still resolves; note the rest."""
    for prefix, module_name, class_name, attrs, kind in (
            PROBES if probes is None else probes):
        where = f"{module_name}.{class_name}".rstrip(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
        except (ImportError, AttributeError) as error:
            for attr in attrs:
                rec.missing[f"{prefix}.{attr}"] = f"{where}: {error}"
            continue
        if kind == "gen-tree":
            # Subclasses override these; import the packages that
            # register them, then wrap every definition in the tree.
            for package in ("repro.consistency", "repro.core.placement"):
                try:
                    importlib.import_module(package)
                except ImportError:
                    pass
            owners = _subclass_tree(owner)
        else:
            owners = [owner]
        for attr in attrs:
            name = f"{prefix}.{attr}"
            targets = _definers(owners, attr)
            if not targets:
                rec.missing[name] = f"{where} has no attribute {attr!r}"
                continue
            for target in targets:
                original = vars(target)[attr]
                if getattr(original, "__isabstractmethod__", False):
                    continue
                wrapped = _make_wrapper(rec, kind, name, original, module)
                rec.patched.append((target, attr, original))
                setattr(target, attr, wrapped)


#: probe kind -> what a plain sync span stores in ``extra``, computed
#: from (result, args) after the span's end clock was read.
_EXTRAS: Dict[str, Optional[Callable[[Any, tuple], Any]]] = {
    "sync": None,
    # 1 when the fast path served the call, 0 when it fell back (None /
    # False is the documented "take the slow path")
    "fast": lambda result, _a: int(result is not None
                                   and result is not False),
    # modelled seconds, or -1.0 for a miss
    "load": lambda result, _a: (float(result[1]) if result[0] is not None
                                else -1.0),
    "load-resident": lambda result, _a: 0.0 if result is not None else -1.0,
    "cost": lambda result, _a: float(result),
    "page-bytes": lambda _r, args: int(args[1].size),
}


def _make_wrapper(rec: Recorder, kind: str, name: str, fn: Callable,
                  module: Any) -> Callable:
    spans, intervals = rec.spans, rec.intervals
    if kind in ("gen", "gen-tree"):
        return gen_wrapper(rec, name, fn)
    if kind in _EXTRAS:
        return sync_wrapper(rec, name, fn, _EXTRAS[kind])
    if kind == "journal":
        file_name = getattr(module, _JOURNAL_FILES[name.rsplit(".", 1)[1]],
                            None)

        def journal_bytes(_result: Any, args: tuple) -> Optional[int]:
            if file_name is None:
                return None
            try:
                return os.path.getsize(
                    os.path.join(args[0].directory, file_name))
            except (OSError, AttributeError):
                return None

        return sync_wrapper(rec, name, fn, journal_bytes)
    if kind in ("encode", "decode"):
        tag = getattr(module, "PICKLE_TAG", None)
        pickled_name = name + ".pickled"
        tag_at = 4 if kind == "encode" else 0   # frame = prefix + body
        grow = 0 if kind == "encode" else 4

        def frame_wrapper(data: Any) -> Any:
            if not rec.enabled:
                return fn(data)
            t0 = clock()
            result = fn(data)
            t1 = clock()
            raw = result if kind == "encode" else data
            spans.append((
                pickled_name if tag is not None and raw[tag_at] == tag
                else name, t0, t1, len(raw) + grow))
            return result

        return frame_wrapper
    if kind == "request":
        def request(self: Any, *args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(self, *args, **kwargs)
            t0 = clock()
            future = fn(self, *args, **kwargs)
            spans.append((name, t0, clock(), None))
            add_callback = getattr(future, "add_callback", None)
            if add_callback is not None:
                # Registered before the caller parks on the future, so
                # it fires before the waiter resumes.
                add_callback(lambda _f: intervals.append(
                    ("net.rpc.wait", t0, clock(), None)))
            return future

        return request
    if kind == "sleep":
        def sleep(self: Any, seconds: float) -> Any:
            future = fn(self, seconds)
            if rec.enabled and seconds > 0:
                t0 = clock()
                future.add_callback(lambda _f: intervals.append(
                    ("storage.sleep", t0, clock(), float(seconds))))
            return future

        return sleep
    if kind == "attach":
        def attach(self: Any, node_id: int, handler: Callable) -> Any:
            return fn(self, node_id,
                      sync_wrapper(rec, "net.rpc.deliver", handler))

        return attach
    if kind == "handler-factory":
        def cm_dispatch(self: Any, *args: Any, **kwargs: Any) -> Any:
            return sync_wrapper(rec, "consistency.home.handler",
                                fn(self, *args, **kwargs))

        return cm_dispatch
    if kind == "register":
        def register(self: Any, msg_type: Any, handler: Callable,
                     *args: Any, **kwargs: Any) -> Any:
            is_cm = kwargs.get("cm", args[1] if len(args) > 1 else False)
            if not is_cm:   # cm handlers are wrapped by cm_dispatch
                handler = sync_wrapper(rec, "core.control.home.handler",
                                       handler)
            return fn(self, msg_type, handler, *args, **kwargs)

        return register
    if kind == "spawn-handler":
        def spawn_handler(self: Any, msg: Any, task: Any,
                          *args: Any, **kwargs: Any) -> Any:
            if rec.enabled and isinstance(task, types.GeneratorType):
                try:
                    is_cm = self.router.routes[msg.msg_type].cm
                except (AttributeError, KeyError):
                    is_cm = False
                task = segments(
                    rec, "consistency.home.task" if is_cm
                    else "core.control.home.task", task)
            return fn(self, msg, task, *args, **kwargs)

        return spawn_handler
    raise ValueError(f"unknown probe kind {kind!r}")
