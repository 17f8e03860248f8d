"""Metric collection and summaries (normalized execution time, Pearson)."""

from repro.metrics.collectors import cluster_stats, node_stats
from repro.metrics.summary import mean, normalize_map, normalized, pearson

__all__ = [
    "cluster_stats",
    "node_stats",
    "mean",
    "normalize_map",
    "normalized",
    "pearson",
]
