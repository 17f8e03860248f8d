"""Aggregation of the instrumentation scattered through the simulation.

Most counters live on the objects that own them (PCPUs hold context
switches, busy time and their cache's LLC misses, nodes hold disk
traffic, the fabric holds message counts).  These helpers read them once,
after a run, into plain dicts per node and per cluster: the analog of
reading Xenoprof after a run.  Subsystems with a rollup of their own
(live migration, DFRS, the always-on service) expose it as ``.stats``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster

__all__ = ["node_stats", "cluster_stats"]


def node_stats(node) -> dict:
    """Per-node counters: context switches, busy time, cache and disk totals."""
    pcpus = node.pcpus
    return {
        "node": node.index,
        "context_switches": sum(p.context_switches for p in pcpus),
        "busy_ns": sum(p.busy_ns for p in pcpus),
        "llc_misses": sum(p.cache.total_miss_count for p in pcpus),
        "llc_penalty_ns": sum(p.cache.total_penalty_ns for p in pcpus),
        "disk_requests": node.disk.requests,
        "disk_bytes": node.disk.bytes_moved,
    }


def cluster_stats(cluster: "Cluster") -> dict:
    """Whole-cluster rollup, including fabric traffic and each node's stats."""
    pcpus = [p for n in cluster.nodes for p in n.pcpus]
    return {
        "n_nodes": len(cluster.nodes),
        "context_switches": sum(p.context_switches for p in pcpus),
        "busy_ns": sum(p.busy_ns for p in pcpus),
        "llc_misses": sum(p.cache.total_miss_count for p in pcpus),
        "messages_sent": cluster.fabric.messages_sent,
        "bytes_sent": cluster.fabric.bytes_sent,
        "nodes": [node_stats(n) for n in cluster.nodes],
    }
