"""Operator tools: consistency checking and cluster inspection.

The original Khazana team debugged a live distributed store; these are
the tools that make that tractable here — an ``fsck``-style invariant
checker over the address map and directories, and inspection helpers
that summarize a running cluster's state.
"""

from repro.tools.fsck import FsckReport, check_cluster
from repro.tools.inspect import (
    cluster_summary,
    dispatch_cpu_report,
    engine_report,
    latency_report,
    placement_report,
    protocol_report,
    region_report,
    storage_report,
)

__all__ = [
    "FsckReport",
    "check_cluster",
    "cluster_summary",
    "dispatch_cpu_report",
    "engine_report",
    "latency_report",
    "placement_report",
    "protocol_report",
    "region_report",
    "storage_report",
]
