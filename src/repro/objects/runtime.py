"""The object runtime.

Each participating node hosts one :class:`ObjectRuntime` bound to a
Khazana session.  The runtime:

- **exports** objects: reserves a region sized by the class's
  ``state_budget``, stores the serialized state plus a small header
  (class name, reference count);
- **invokes** methods: either locally (lock → read state → run method
  → write back → unlock, so Khazana's consistency management does all
  the replica work), or remotely by RPC to a runtime on a node where
  the object is already physically instantiated — chosen per call by
  the :class:`InvocationPolicy`, using location information exported
  from Khazana (paper Section 4.2);
- maintains **reference counts** in the object header, releasing the
  region when the count reaches zero (the "more powerful semantics"
  the paper assigns to the object veneer, not to Khazana).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple, Type

from repro.core.addressing import DEFAULT_PAGE_SIZE, AddressRange
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.client import KhazanaSession
from repro.core.errors import KhazanaError
from repro.core.locks import LockMode
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout
from repro.net.tasks import Future
from repro.objects.model import (
    KhazanaObject,
    ObjectError,
    decode_state,
    encode_state,
    is_readonly,
)
from repro.objects.registry import class_name_of, resolve_class

ProtocolGen = Generator[Future, Any, Any]

INVOKE_POLICY = RetryPolicy(timeout=5.0, retries=1, backoff=2.0)

#: Adaptive policy localises an object after this many remote calls.
ADAPTIVE_LOCALIZE_AFTER = 3


class InvocationPolicy(str, enum.Enum):
    """How a proxy executes method calls."""

    LOCAL = "local"       # always pull a replica and run locally
    REMOTE = "remote"     # always RPC to the object's home node
    ADAPTIVE = "adaptive" # local when cached; otherwise remote, and
                          # localise after repeated use


@dataclass(frozen=True)
class ObjectRef:
    """A location-transparent handle: the object's Khazana address.

    "Khazana provides location transparency for the object by
    associating with each object a unique identifying Khazana
    address." (Section 4.2)
    """

    address: int
    class_name: str
    region_size: int

    def to_wire(self) -> Dict[str, Any]:
        return {
            "address": self.address,
            "class_name": self.class_name,
            "region_size": self.region_size,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ObjectRef":
        return cls(
            address=int(data["address"]),
            class_name=str(data["class_name"]),
            region_size=int(data["region_size"]),
        )


class ObjectRuntime:
    """Per-node distributed-object veneer over one Khazana session."""

    def __init__(self, session: KhazanaSession,
                 policy: InvocationPolicy = InvocationPolicy.ADAPTIVE) -> None:
        self.session = session
        self.policy = policy
        self._remote_calls: Dict[int, int] = {}   # address -> remote count
        self.stats = {"local_invocations": 0, "remote_invocations": 0,
                      "served_invocations": 0}
        session.daemon.rpc.on(MessageType.APP_REQUEST, self._handle_invoke)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def export(
        self,
        cls: Type[KhazanaObject],
        state: Optional[Dict[str, Any]] = None,
        consistency: ConsistencyLevel = ConsistencyLevel.STRICT,
        replicas: int = 1,
    ) -> ObjectRef:
        """Create a new object instance in global memory."""
        name = class_name_of(cls)
        size = max(
            DEFAULT_PAGE_SIZE,
            -(-cls.state_budget // DEFAULT_PAGE_SIZE) * DEFAULT_PAGE_SIZE,
        )
        region = self.session.reserve(
            size,
            RegionAttributes(
                consistency_level=consistency,
                min_replicas=replicas,
            ),
        )
        self.session.allocate(region.rid)
        doc = {
            "__class__": name,
            "__refs__": 1,
            "state": state if state is not None else cls.initial_state(),
        }
        self.session.write_at(region.rid, encode_state(doc, size))
        return ObjectRef(address=region.rid, class_name=name,
                         region_size=size)

    def attach(self, address: int) -> ObjectRef:
        """Build a reference to an existing object by address."""
        doc = decode_state(self.session.read_at(address, DEFAULT_PAGE_SIZE))
        name = doc.get("__class__")
        if not name:
            raise ObjectError(f"no object header at {address:#x}")
        cls = resolve_class(name)
        size = max(
            DEFAULT_PAGE_SIZE,
            -(-cls.state_budget // DEFAULT_PAGE_SIZE) * DEFAULT_PAGE_SIZE,
        )
        return ObjectRef(address=address, class_name=name, region_size=size)

    def proxy(self, ref: ObjectRef,
              policy: Optional[InvocationPolicy] = None) -> "Proxy":
        from repro.objects.proxy import Proxy

        return Proxy(self, ref, policy or self.policy)

    # ------------------------------------------------------------------
    # Reference counting (veneer semantics, Section 4.2)
    # ------------------------------------------------------------------

    def retain(self, ref: ObjectRef) -> int:
        """Increment the object's reference count."""
        return self._adjust_refs(ref, +1)

    def release(self, ref: ObjectRef) -> int:
        """Decrement the count; at zero the region is unreserved."""
        remaining = self._adjust_refs(ref, -1)
        if remaining <= 0:
            self.session.unreserve(ref.address)
        return remaining

    def _adjust_refs(self, ref: ObjectRef, delta: int) -> int:
        ctx = self.session.lock(ref.address, ref.region_size, LockMode.WRITE)
        try:
            doc = decode_state(
                self.session.read(ctx, ref.address, ref.region_size)
            )
            refs = int(doc.get("__refs__", 0)) + delta
            doc["__refs__"] = refs
            self.session.write(
                ctx, ref.address, encode_state(doc, ref.region_size)
            )
            return refs
        finally:
            self.session.unlock(ctx)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def invoke(self, ref: ObjectRef, method_name: str,
               args: Tuple, kwargs: Dict[str, Any],
               policy: Optional[InvocationPolicy] = None) -> Any:
        """Synchronous method invocation through the policy."""
        policy = policy or self.policy
        if self._should_run_locally(ref, policy):
            return self._run_local(ref, method_name, args, kwargs)
        return self._invoke_remote(ref, method_name, args, kwargs)

    def _run_local(self, ref: ObjectRef, method_name: str,
                   args: Tuple, kwargs: Dict[str, Any]) -> Any:
        self.stats["local_invocations"] += 1
        return self.session.call(
            self._invoke_local(ref, method_name, args, kwargs),
            f"obj-invoke:{method_name}",
        )

    def _should_run_locally(self, ref: ObjectRef,
                            policy: InvocationPolicy) -> bool:
        if policy is InvocationPolicy.LOCAL:
            return True
        if policy is InvocationPolicy.REMOTE:
            return self._home_node(ref) == self.session.node_id
        # ADAPTIVE: run locally when the object is already cached here
        # or when repeated remote use says it is worth localising.
        if self.session.daemon.storage.contains(ref.address):
            return True
        if self._home_node(ref) == self.session.node_id:
            return True
        return self._remote_calls.get(ref.address, 0) >= ADAPTIVE_LOCALIZE_AFTER

    def _home_node(self, ref: ObjectRef) -> Optional[int]:
        """Location information exported from Khazana (Section 4.2)."""
        desc = self.session.daemon.region_directory.find_covering(ref.address)
        if desc is not None:
            return desc.primary_home
        try:
            desc = self.session.call(
                self.session.daemon.placement.locate_region(ref.address),
                "obj-locate",
            )
        except (KhazanaError, RpcTimeout, RemoteError):
            # Location is advisory: an unlocatable object just falls
            # back to the policy's remote-invocation path.
            return None
        return desc.primary_home

    def _invoke_local(self, ref: ObjectRef, method_name: str,
                      args: Tuple, kwargs: Dict[str, Any]) -> ProtocolGen:
        """The transparent lock/read/run/write/unlock sequence."""
        cls = resolve_class(ref.class_name)
        method = getattr(cls, method_name, None)
        if method is None or method_name.startswith("_"):
            raise ObjectError(
                f"{ref.class_name} has no invocable method {method_name!r}"
            )
        mode = LockMode.READ if is_readonly(method) else LockMode.WRITE
        daemon = self.session.daemon
        target = AddressRange(ref.address, ref.region_size)
        ctx = yield from daemon.data.op_lock(target, mode,
                                             self.session.principal)
        try:
            raw = yield from daemon.data.op_read(ctx, target)
            doc = decode_state(raw)
            state = doc.setdefault("state", {})
            instance = cls()
            result = method(instance, state, *args, **kwargs)
            if mode is LockMode.WRITE:
                yield from daemon.data.op_write(
                    ctx, target, encode_state(doc, ref.region_size)
                )
            return result
        finally:
            yield from daemon.data.op_unlock(ctx)

    def _invoke_remote(self, ref: ObjectRef, method_name: str,
                       args: Tuple, kwargs: Dict[str, Any]) -> Any:
        """RPC to a runtime on a node that has the object instantiated."""
        target = self._home_node(ref)
        if target is None:
            target = self.session.daemon.config.bootstrap_node
        self.stats["remote_invocations"] += 1
        self._remote_calls[ref.address] = (
            self._remote_calls.get(ref.address, 0) + 1
        )
        future = self.session.daemon.rpc.request(
            target,
            MessageType.APP_REQUEST,
            {
                "ref": ref.to_wire(),
                "method": method_name,
                "args": list(args),
                "kwargs": kwargs,
            },
            policy=INVOKE_POLICY,
        )
        try:
            reply = self.session.driver.wait(future)
        except RemoteError as error:
            if error.code == "unhandled":
                # No runtime lives on the home node; fall back to a
                # local replica — exactly the trade the policy exists
                # to make.
                self.stats["remote_invocations"] -= 1
                return self._run_local(ref, method_name, args, kwargs)
            raise ObjectError(f"remote invocation failed: {error}") from error
        except RpcTimeout as error:
            raise ObjectError(
                f"no runtime answered on node {target}: {error}"
            ) from error
        return reply.payload.get("result")

    def _handle_invoke(self, msg: Message) -> None:
        """Server side of remote invocation."""
        ref = ObjectRef.from_wire(msg.payload["ref"])
        method = msg.payload["method"]
        args = tuple(msg.payload.get("args", ()))
        kwargs = dict(msg.payload.get("kwargs", {}))
        self.stats["served_invocations"] += 1
        daemon = self.session.daemon

        def serve() -> ProtocolGen:
            result = yield from self._invoke_local(ref, method, args, kwargs)
            daemon.reply_request(msg, MessageType.APP_REPLY,
                                 {"result": result})

        daemon.spawn_handler(msg, serve(), label=f"obj-serve:{method}")
