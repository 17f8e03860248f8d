"""Virtual-cluster construction and placement policies."""

from repro.virtcluster.cluster import VirtualCluster
from repro.virtcluster.placement import (
    PLACEMENTS,
    place,
    placement_names,
)

__all__ = [
    "VirtualCluster",
    "PLACEMENTS",
    "place",
    "placement_names",
]
