"""DFRS comparator: cluster-level fractional allocation vs ATC, on one axis.

Extension benchmark (no paper figure).  The paper accelerates parallel
VMs by *per-host* adaptive time-slice control (ATC); the DFRS line of
work (Stillwell/Vivien/Casanova) instead solves a *cluster-level*
fractional allocation — per-VM caps and weights maximizing the minimum
yield — and enforces it through the hypervisor scheduler.  This bench
places both, and their combination, on one normalized axis at two
scales:

* ``baseline`` — plain Credit (CR), no control plane (the 1.0 mark);
* ``atc``      — the paper's adaptive time-slice scheduler;
* ``dfrs``     — CR plus the DFRS cap/weight controller;
* ``hybrid``   — ATC plus the DFRS controller (cluster caps over the
  paper's per-host slices);
* ``idle``     — CR plus a constructed-but-disabled controller
  (``solve_every=0``), the bit-identity control cell (small scale only).

Emits the ``dfrs`` grid's table (parallel round time, baseline = 1 at
each scale) and asserts its claims at both scales, the hybrid's
``HYBRID_TOL`` and the idle cell's bit-identity included
(repro.experiments.grids).
"""

from repro.experiments.grids import DFRS_MODES

from _common import bench_grid, full_scale

SMALL = dict(horizon_s=30.0 if full_scale() else 10.0)
LARGE = dict(
    n_nodes=6,
    n_clusters=4,
    vms_per_cluster=3,
    n_nonparallel=2,
    horizon_s=24.0 if full_scale() else 8.0,
)


def test_dfrs_compare(benchmark):
    bench_grid(benchmark, "dfrs",
               dict(modes=DFRS_MODES + ("idle",), prefix="small", seed=0, **SMALL),
               dict(prefix="large", seed=0, **LARGE), name="dfrs_compare")
