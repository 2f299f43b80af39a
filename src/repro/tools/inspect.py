"""Cluster inspection helpers.

Read-only summaries of a running cluster: which regions exist and
where they live, how full each node's storage hierarchy is, and what
the network has been doing.  Used by operators (and the examples) to
see Khazana's placement decisions.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.address_map import SYSTEM_RID


def cluster_summary(cluster) -> Dict[str, Any]:
    """One dict describing the whole deployment."""
    regions: Dict[int, Dict[str, Any]] = {}
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        for rid, desc in daemon.homed_regions.items():
            if rid == SYSTEM_RID:
                continue
            info = regions.setdefault(
                rid,
                {
                    "rid": rid,
                    "length": desc.range.length,
                    "protocol": desc.attrs.protocol,
                    "min_replicas": desc.attrs.min_replicas,
                    "primary_home": desc.primary_home,
                    "homes": list(desc.home_nodes),
                    "cached_on": [],
                },
            )
            if desc.version >= info.get("_version", -1):
                info["_version"] = desc.version
                info["primary_home"] = desc.primary_home
                info["homes"] = list(desc.home_nodes)
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        for rid, info in regions.items():
            if daemon.storage.contains(rid):
                info["cached_on"].append(node)
    for info in regions.values():
        info.pop("_version", None)
    latency: Dict[str, Dict[str, float]] = {}
    for node in cluster.node_ids():
        for op, lat in cluster.daemon(node).stats.op_latency.items():
            if not lat.count:
                continue
            agg = latency.setdefault(op, {"count": 0, "total": 0.0,
                                          "max": 0.0})
            agg["count"] += lat.count
            agg["total"] += lat.total
            agg["max"] = max(agg["max"], lat.max)
    for agg in latency.values():
        agg["mean"] = agg.pop("total") / agg["count"]
    tiers: Dict[str, int] = {}
    for node in cluster.node_ids():
        for tier, count in cluster.daemon(node).stats.lookup_tiers.items():
            tiers[tier] = tiers.get(tier, 0) + count
    total_lookups = sum(tiers.values())
    stats = cluster.stats
    return {
        "nodes": len(cluster.node_ids()),
        "virtual_time": cluster.now,
        "placement": cluster.daemon(cluster.node_ids()[0]).placement.name,
        "regions": sorted(regions.values(), key=lambda r: r["rid"]),
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "op_latency": {op: latency[op] for op in sorted(latency)},
        "lookup_tiers": {t: tiers[t] for t in sorted(tiers)},
        "tier_hit_rates": {
            t: tiers[t] / total_lookups for t in sorted(tiers)
        } if total_lookups else {},
    }


#: Buckets sampled when sketching ring ownership balance.  Enough for
#: the spread to be statistically meaningful at a few hundred members,
#: small enough that the report stays instant.
SPREAD_SAMPLE_BUCKETS = 4096


def placement_report(cluster) -> Dict[str, Any]:
    """How the placement strategy is spreading the load.

    Per-node strategy snapshots plus cluster-wide aggregates: how many
    regions each node primary-homes, and — for the hash ring — the
    live membership and a sampled ownership spread (how many of
    :data:`SPREAD_SAMPLE_BUCKETS` synthetic buckets each member would
    direct, i.e. how balanced the ring is *before* any data lands).
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    primary_homes: Dict[int, int] = {}
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        nodes[node] = daemon.placement.report()
        primary_homes[node] = sum(
            1 for rid, desc in daemon.homed_regions.items()
            if rid != SYSTEM_RID and desc.primary_home == node
        )
    doc: Dict[str, Any] = {
        "strategy": next(iter(nodes.values()))["strategy"] if nodes
        else None,
        "nodes": nodes,
        "primary_homes": primary_homes,
    }
    alive = sorted(
        {m for row in nodes.values()
         for m in row.get("alive_members", [])}
    )
    if alive:
        from repro.core.placement.ring import DirectorTable

        doc["alive_members"] = alive
        doc["ring_spread"] = DirectorTable(
            SPREAD_SAMPLE_BUCKETS, alive
        ).spread()
    return doc


def region_report(cluster, rid: int) -> Dict[str, Any]:
    """Everything the cluster knows about one region."""
    report: Dict[str, Any] = {"rid": rid, "homes": {}, "cached_on": [],
                              "pages": {}}
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        desc = daemon.homed_regions.get(rid)
        if desc is not None:
            report["homes"][node] = {
                "version": desc.version,
                "home_nodes": list(desc.home_nodes),
                "allocated": desc.allocated,
            }
            for entry in daemon.page_directory.entries_for_region(rid):
                if entry.homed:
                    report["pages"].setdefault(entry.address, {})[node] = {
                        "owner": entry.owner,
                        "sharers": sorted(entry.sharers),
                    }
        if daemon.storage.contains(rid):
            report["cached_on"].append(node)
    return report


def latency_report(cluster) -> List[Dict[str, Any]]:
    """Per-node request-handling latency, by wire operation.

    Latencies are virtual-clock seconds between a request arriving at
    a node's :class:`~repro.core.router.MessageRouter` and its reply
    (or error reply) being sent, as recorded by the router's latency
    interceptor.  Requests that never got a reply are not counted.
    """
    rows = []
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        ops = {
            op: {
                "count": lat.count,
                "mean": lat.mean,
                "max": lat.max,
            }
            for op, lat in sorted(daemon.stats.op_latency.items())
            if lat.count
        }
        rows.append({"node": node, "ops": ops})
    return rows


def dispatch_cpu_report(table: Dict[str, List[int]]) -> str:
    """One daemon's dispatch CPU table, most expensive message type
    first: ``DaemonStats.dispatch_cpu`` of a live daemon, or the
    ``dispatch_cpu`` of a :func:`repro.tools.cluster.snapshot_node`
    snapshot (which is how a TCP daemon reports it)."""
    total = sum(ns for _count, ns in table.values()) or 1
    lines = [f"{'message':<22}{'count':>9}{'cpu ms':>10}{'us/msg':>9}"
             f"{'share':>8}"]
    for op, (count, ns) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{op:<22}{count:>9}{ns / 1e6:>10.1f}"
                     f"{ns / 1e3 / count:>9.1f}{ns / total:>8.1%}")
    return "\n".join(lines)


def engine_report(cluster) -> List[Dict[str, Any]]:
    """Per-node, per-protocol counters from the consistency engines.

    Shows how each protocol used the shared engine: home transactions
    served, requests sent carrying more than one page, per-page
    retries after a failed unlock push, and acquire rollbacks.  Nodes
    that never instantiated a CM for a protocol simply have no row for
    it.
    """
    rows = []
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        protocols = {
            protocol: engine.counters.snapshot()
            for protocol, cm in sorted(
                daemon.consistency_managers().items()
            )
            if (engine := getattr(cm, "engine", None)) is not None
        }
        rows.append({"node": node, "protocols": protocols})
    return rows


def schedule_report(schedule: Dict[str, Any]) -> str:
    """Human-readable rendering of an explorer schedule file.

    ``schedule`` is the JSON dict written by
    ``repro.analysis.explore`` when a run violates an invariant: the
    run's configuration, the violation, and the decision trace that
    reproduces it.
    """
    lines = [
        f"schedule v{schedule.get('version', '?')}: "
        f"{schedule.get('protocol', '?')}/{schedule.get('scenario', '?')} "
        f"(seed {schedule.get('seed', '?')}, "
        f"{schedule.get('num_nodes', '?')} nodes, "
        f"strategy {schedule.get('strategy', '?')})",
    ]
    mutations = schedule.get("mutations") or []
    if mutations:
        lines.append("mutations: " + ", ".join(mutations))
    violation = schedule.get("violation") or {}
    lines.append(
        f"violation: {violation.get('rule', '?')}: "
        f"{violation.get('detail', '')}"
    )
    decisions = schedule.get("decisions") or []
    lines.append(f"decisions ({len(decisions)}):")
    for decision in decisions:
        window = decision.get("window") or []
        chosen = decision.get("label", "?")
        marker = ""
        if window and chosen != window[0]:
            marker = f"  (reordered past {window[0]})"
        fault = decision.get("fault")
        if fault:
            marker += f"  [fault: {fault}]"
        lines.append(f"  #{decision.get('index', '?')}: "
                     f"{chosen}{marker}")
    return "\n".join(lines)


def protocol_report(paths=("src/",)) -> Dict[str, Any]:
    """The statically verified view of every consistency protocol.

    Unlike the other reports this one needs no cluster: it runs the
    Layer 5 verifier (:mod:`repro.analysis.protocol`) over the source
    tree and returns, per protocol, the extracted automaton (states
    and declared edges), which KHZ202 invariants were proved, and any
    findings — the same facts ``python -m repro.analysis.protocol``
    prints, as one inspectable dict.
    """
    from repro.analysis import sources
    from repro.analysis.protocol import verify
    from repro.analysis.protocol.coverage import edge_report

    files = sources.collect(list(paths))
    findings, models, proofs = verify(files)
    automata = edge_report(models)
    protocols: Dict[str, Dict[str, Any]] = {}
    for model in models:
        doc = automata[model.protocol]
        protocols[model.protocol] = {
            "class": model.class_name,
            "path": model.path,
            "states": doc["states"],
            "event_edges": doc["event_edges"],
            "invariants": {},
        }
    for proof in proofs:
        entry = protocols.get(proof.protocol)
        if entry is not None:
            entry["invariants"][proof.invariant] = {
                "proved": proof.holds,
                "trace": proof.render(),
            }
    return {
        "files": len(files),
        "protocols": protocols,
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message}
            for f in findings
        ],
    }


def storage_report(cluster) -> List[Dict[str, Any]]:
    """Per-node storage-hierarchy utilisation."""
    rows = []
    for node in cluster.node_ids():
        daemon = cluster.daemon(node)
        s = daemon.storage
        rows.append(
            {
                "node": node,
                "ram_used": s.memory.used_bytes(),
                "ram_capacity": s.memory.capacity_bytes,
                "disk_used": s.disk.used_bytes(),
                "disk_capacity": s.disk.capacity_bytes,
                "ram_hit_rate": s.stats.ram_hit_rate(),
                "victimized": s.stats.victimized_to_disk,
                "dirty_pages": len(s.dirty_addresses()),
            }
        )
    return rows
