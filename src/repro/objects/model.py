"""Object model for the Section 4.2 runtime.

A distributed object is a subclass of :class:`KhazanaObject` whose
methods take the object's mutable ``state`` dict as their first
argument.  Methods are assumed to mutate state unless marked
``@readonly``; the runtime maps this to Khazana lock modes ("ensuring
that the appropriate locking and data access operations are inserted
(transparently) into the object code").
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from repro.storage.store import unpad


class ObjectError(Exception):
    """Errors raised by the object runtime."""


def readonly(method: Callable) -> Callable:
    """Mark a method as non-mutating: the runtime will take a READ
    lock and skip the write-back."""
    method._khazana_readonly = True
    return method


def is_readonly(method: Callable) -> bool:
    return bool(getattr(method, "_khazana_readonly", False))


class KhazanaObject:
    """Base class for objects stored in Khazana.

    Subclasses define ``initial_state()`` plus ordinary methods::

        class Counter(KhazanaObject):
            @staticmethod
            def initial_state():
                return {"count": 0}

            def increment(self, state, amount=1):
                state["count"] += amount
                return state["count"]

            @readonly
            def value(self, state):
                return state["count"]

    The class body holds *behaviour only*; all state lives in the
    ``state`` dict that Khazana replicates and keeps consistent.
    """

    #: Approximate serialized state budget; the runtime reserves a
    #: region of this many bytes (rounded up to a page).
    state_budget = 4096

    @staticmethod
    def initial_state() -> Dict[str, Any]:
        """Initial state for a fresh instance; override in subclasses."""
        return {}


def encode_state(state: Dict[str, Any], size: int) -> bytes:
    """Serialize object state into its region, NUL-padded."""
    blob = json.dumps(state, separators=(",", ":")).encode("utf-8")
    if len(blob) > size:
        raise ObjectError(
            f"object state needs {len(blob)} bytes; region holds {size}. "
            "Raise the class's state_budget."
        )
    return blob + b"\x00" * (size - len(blob))


def decode_state(data: bytes) -> Dict[str, Any]:
    blob = unpad(data)
    if not blob:
        return {}
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ObjectError(f"corrupt object state: {error}") from error
