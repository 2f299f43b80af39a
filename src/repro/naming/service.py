"""The name service implementation.

Layout: every directory context ("/", "/org", "/org/eng", ...) is one
4 KiB Khazana region holding a JSON document with two maps — ``bindings``
(leaf name -> attribute dict) and ``children`` (context name -> region
address of the child context).  The service handle is just the root
context's Khazana address, so any node can attach to an existing
directory tree the same way a KFS mount works from a superblock.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.client import KhazanaSession
from repro.core.locks import LockMode
from repro.storage.store import unpad

CONTEXT_SIZE = 4096
MAGIC = "KNS1"


class NamingError(Exception):
    """Errors raised by the name service."""


class NameNotFound(NamingError):
    """The requested name is not bound."""


def _split(name: str) -> List[str]:
    if not name.startswith("/"):
        raise NamingError(f"name {name!r} must be absolute")
    parts = [p for p in name.split("/") if p]
    if not parts:
        raise NamingError("the root context itself cannot be bound")
    for part in parts:
        if len(part) > 128:
            raise NamingError(f"name component {part!r} too long")
    return parts


def _encode(doc: Dict[str, Any]) -> bytes:
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(blob) > CONTEXT_SIZE:
        raise NamingError(
            f"directory context overflow ({len(blob)} bytes); "
            "split entries across sub-contexts"
        )
    return blob + b"\x00" * (CONTEXT_SIZE - len(blob))


def _decode(data: bytes) -> Dict[str, Any]:
    blob = unpad(data)
    if not blob:
        return {"magic": MAGIC, "bindings": {}, "children": {}}
    doc = json.loads(blob.decode("utf-8"))
    if doc.get("magic") != MAGIC:
        raise NamingError("not a name-service context")
    return doc


class NameService:
    """One client's handle on a distributed directory tree."""

    def __init__(self, session: KhazanaSession, root_addr: int,
                 consistency: ConsistencyLevel) -> None:
        self.session = session
        self.root_addr = root_addr
        self.consistency = consistency

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        session: KhazanaSession,
        consistency: ConsistencyLevel = ConsistencyLevel.EVENTUAL,
        replicas: int = 1,
    ) -> "NameService":
        """Create a new directory tree; returns an attached service."""
        service = cls(session, 0, consistency)
        service._replicas = replicas
        root = service._new_context()
        service.root_addr = root
        return service

    @classmethod
    def attach(cls, session: KhazanaSession, root_addr: int) -> "NameService":
        """Attach to an existing tree by its root address."""
        doc = _decode(session.read_at(root_addr, CONTEXT_SIZE))
        service = cls(
            session, root_addr,
            ConsistencyLevel(doc.get("consistency", "eventual")),
        )
        service._replicas = int(doc.get("replicas", 1))
        return service

    _replicas = 1

    def _new_context(self) -> int:
        region = self.session.reserve(
            CONTEXT_SIZE,
            RegionAttributes(
                consistency_level=self.consistency,
                min_replicas=self._replicas,
            ),
        )
        self.session.allocate(region.rid)
        self.session.write_at(
            region.rid,
            _encode({
                "magic": MAGIC,
                "bindings": {},
                "children": {},
                "consistency": self.consistency.value,
                "replicas": self._replicas,
            }),
        )
        return region.rid

    # ------------------------------------------------------------------
    # Context access
    # ------------------------------------------------------------------

    def _read_context(self, addr: int) -> Dict[str, Any]:
        return _decode(self.session.read_at(addr, CONTEXT_SIZE))

    def _update_context(self, addr: int, mutate) -> Any:
        """Read-modify-write one context under a single write lock."""
        ctx = self.session.lock(addr, CONTEXT_SIZE, LockMode.WRITE)
        try:
            doc = _decode(self.session.read(ctx, addr, CONTEXT_SIZE))
            result = mutate(doc)
            self.session.write(ctx, addr, _encode(doc))
            return result
        finally:
            self.session.unlock(ctx)

    def _resolve_context(self, parts: List[str],
                         create_missing: bool) -> int:
        """Walk to the context holding the last component's binding."""
        addr = self.root_addr
        for part in parts[:-1]:
            doc = self._read_context(addr)
            child = doc["children"].get(part)
            if child is None:
                if not create_missing:
                    raise NameNotFound(
                        f"context {part!r} does not exist"
                    )
                child_addr = self._new_context()

                def link(doc: Dict[str, Any]) -> int:
                    existing = doc["children"].get(part)
                    if existing is not None:
                        return int(existing)   # raced another creator
                    doc["children"][part] = child_addr
                    return child_addr

                child = self._update_context(addr, link)
                if child != child_addr:
                    # Lost the race: release the orphan context.
                    self.session.unreserve(child_addr)
            addr = int(child)
        return addr

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def bind(self, name: str, attributes: Dict[str, Any],
             replace: bool = False) -> None:
        """Bind ``name`` to an attribute dictionary.

        Intermediate contexts are created on demand (like `mkdir -p`).
        Without ``replace``, binding an existing name raises.
        """
        parts = _split(name)
        context = self._resolve_context(parts, create_missing=True)
        leaf = parts[-1]

        def mutate(doc: Dict[str, Any]) -> None:
            if not replace and leaf in doc["bindings"]:
                raise NamingError(f"name {name!r} is already bound")
            if leaf in doc["children"]:
                raise NamingError(f"{name!r} is a context, not a binding")
            doc["bindings"][leaf] = attributes

        self._update_context(context, mutate)

    def rebind(self, name: str, attributes: Dict[str, Any]) -> None:
        """Bind, replacing any existing binding."""
        self.bind(name, attributes, replace=True)

    def lookup(self, name: str) -> Dict[str, Any]:
        """Resolve a name to its attributes."""
        parts = _split(name)
        context = self._resolve_context(parts, create_missing=False)
        doc = self._read_context(context)
        attrs = doc["bindings"].get(parts[-1])
        if attrs is None:
            raise NameNotFound(f"name {name!r} is not bound")
        return attrs

    def unbind(self, name: str) -> None:
        """Remove a binding."""
        parts = _split(name)
        context = self._resolve_context(parts, create_missing=False)
        leaf = parts[-1]

        def mutate(doc: Dict[str, Any]) -> None:
            if leaf not in doc["bindings"]:
                raise NameNotFound(f"name {name!r} is not bound")
            del doc["bindings"][leaf]

        self._update_context(context, mutate)

    def list(self, context_name: str = "/") -> Tuple[List[str], List[str]]:
        """Names bound in a context: (bindings, sub-contexts)."""
        if context_name == "/":
            addr = self.root_addr
        else:
            parts = _split(context_name)
            parent = self._resolve_context(parts, create_missing=False)
            doc = self._read_context(parent)
            child = doc["children"].get(parts[-1])
            if child is None:
                raise NameNotFound(
                    f"context {context_name!r} does not exist"
                )
            addr = int(child)
        doc = self._read_context(addr)
        return sorted(doc["bindings"]), sorted(doc["children"])

    def exists(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except NamingError:
            return False
