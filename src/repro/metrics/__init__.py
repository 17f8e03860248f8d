"""Metric collection and summaries (means, Pearson)."""

from repro.metrics.collectors import cluster_stats, node_stats
from repro.metrics.summary import mean, pearson

__all__ = [
    "cluster_stats",
    "node_stats",
    "mean",
    "pearson",
]
