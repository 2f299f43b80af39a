"""Correctness tooling for the Khazana reproduction.

Two layers:

- :mod:`repro.analysis.lint` — an AST-based static checker with
  project-specific rules (KHZ001..KHZ013) covering the mistakes this
  codebase is most prone to: blocking calls inside the discrete-event
  simulation, unregistered message types, swallowed exceptions in
  protocol code, stale lock contexts, and exceptions raised outside
  the :mod:`repro.core.errors` taxonomy, plus the seam fences (one
  declarative table).  Run it with
  ``python -m repro.analysis.lint src/ tests/ examples/ benchmarks/``.

- :mod:`repro.analysis.races` — a dynamic race/invariant detector
  built on vector clocks, hooked into the lock table, the daemons,
  and the consistency managers through no-op-when-disabled probe
  points.  Enable it with ``DaemonConfig(detect_races=True)`` (every
  daemon of a :class:`~repro.api.Cluster` then shares one detector).

:mod:`repro.analysis.invariants` holds the quiesced-state checks
(pin balance, replica floors, page-directory/store agreement) shared
between the detector's final pass and ``tools/fsck.py --strict``.
"""

from repro.analysis.races import NULL_PROBE, Probe, RaceDetector, Violation

__all__ = ["NULL_PROBE", "Probe", "RaceDetector", "Violation"]
