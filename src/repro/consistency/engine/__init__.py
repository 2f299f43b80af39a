"""The consistency protocol engine.

Shared mechanism under the four policy modules (crew, release,
eventual, mobile): every protocol is a thin, declarative layer over
the primitives exported here —

- :class:`PageStateMachine` / :class:`PageEvent` / :class:`LocalPageState`
  — explicit per-protocol MSI transition tables (``engine.state``);
- :class:`KeyedMutex` / :class:`HomeTransactions` — serialised
  home-side directory transactions (``engine.home``);
- :class:`CopysetLedger` — write-token bookkeeping with the
  probe-before-mutex-release ordering built in (``engine.ledger``);
- :class:`BatchPlanner` — page-list replies with per-page errors, the
  per-page serve loop and the home-side fetch service, the install of
  a served list, the unlock push with its per-page retry fallback
  (``engine.batch``);
- :class:`DirectoryCoherence` — owner/copyset copy movement
  (``engine.directory``);
- :func:`install_replica_update` — the defer-while-locked replica
  install shared by the update-propagating protocols, and
  :func:`absorb_replica_push`, the non-primary side of a home-centred
  protocol's ``UPDATE_PUSH`` (``engine.replicas``);
- :class:`ProtocolEngine` — the wire primitives (request, send,
  reply, NAK, home failover, fan-out, pipelining) that KHZ007 makes the
  only road from consistency code to ``host.rpc`` (``engine.wire``).
"""

from repro.consistency.engine.batch import BatchPlanner
from repro.consistency.engine.counters import EngineCounters
from repro.consistency.engine.directory import DirectoryCoherence
from repro.consistency.engine.home import HomeTransactions, KeyedMutex
from repro.consistency.engine.ledger import CopysetLedger
from repro.consistency.engine.replicas import (
    absorb_replica_push,
    install_replica_update,
)
from repro.consistency.engine.state import (
    LocalPageState,
    PageEvent,
    PageStateMachine,
)
from repro.consistency.engine.wire import (
    PIPELINE_WINDOW,
    WIRE_OPS,
    ProtocolEngine,
    transaction_label,
    typed_denial,
    wire_op,
)

__all__ = [
    "BatchPlanner",
    "CopysetLedger",
    "DirectoryCoherence",
    "EngineCounters",
    "HomeTransactions",
    "KeyedMutex",
    "LocalPageState",
    "PageEvent",
    "PIPELINE_WINDOW",
    "PageStateMachine",
    "ProtocolEngine",
    "WIRE_OPS",
    "absorb_replica_push",
    "install_replica_update",
    "transaction_label",
    "typed_denial",
    "wire_op",
]
