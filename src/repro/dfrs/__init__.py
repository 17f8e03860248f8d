"""Dynamic Fractional Resource Scheduling (DFRS) — the cluster-scope
end of the design space the paper's per-host ATC sits at the other
end of.

Instead of adapting *time slices* on each host, DFRS periodically
re-solves a *fractional allocation* for every VM in the cluster — a
(cap, weight) pair pushed down into the per-host credit schedulers.
The model follows Stillwell/Vivien/Casanova's yield-maximizing
formulation: each VM has an estimated resource *need*, its *yield* is
allocation/need, and the solver maximizes the minimum yield per host.

* :mod:`repro.dfrs.solver` — deterministic need estimation + per-host
  binary-search max-min-yield solve (pure functions, no RNG, no clock).
* :mod:`repro.dfrs.controller` — the leader-elected periodic controller
  riding the VMM period hooks (idle ⇒ zero events, zero RNG).
"""

from repro.dfrs.controller import DFRSConfig, DFRSController
from repro.dfrs.solver import Allocation, HostSolve, VMNeed, solve_host, solve_cluster

__all__ = [
    "DFRSConfig",
    "DFRSController",
    "VMNeed",
    "Allocation",
    "HostSolve",
    "solve_host",
    "solve_cluster",
]
