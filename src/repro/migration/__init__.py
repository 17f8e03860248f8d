"""Live VM migration and dynamic placement control plane.

The paper's mixed-tenancy results (Figs. 11-14) hinge on *which* VMs
share a host: Algorithm 2 takes the minimum slice over all co-resident
parallel VMs, so placement is the hidden variable behind every number.
This subsystem makes placement dynamic: a deterministic pre-copy
live-migration model (:mod:`repro.migration.engine`) plus a periodic
cluster-level rebalancer (:mod:`repro.migration.rebalancer`) that
separates co-hosted parallel clusters (:mod:`repro.migration.policies`).

Everything is zero-entropy when idle: constructing the engine and
rebalancer adds no simulator events and draws no RNG, so a run with the
subsystem enabled but never triggered is bit-identical to a run without
it.
"""

from repro.migration.engine import (
    Migration,
    MigrationConfig,
    MigrationEngine,
    MigrationParams,
)
from repro.migration.policies import parallel_census
from repro.migration.rebalancer import Rebalancer

__all__ = [
    "Migration",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationParams",
    "parallel_census",
    "Rebalancer",
]
