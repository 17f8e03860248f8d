"""Service admission: does migration-aware admission beat reject-on-full?

Extension benchmark (no paper figure): the always-on service layer
(repro.service) streams Poisson tenant arrivals into a packed 3-node
cloud at an offered load well above what the capacity can absorb
instantaneously.  Every cell sees the *same* arrival stream (same seed,
same rate); only the admission policy differs:

* ``reject-on-full``   — admit via the packed placement or turn the
  tenant away; never queues, so completed tenants ran in whatever mixed
  placement ``pack`` produced (the worst case for Algorithm 2's
  per-host slice minimum);
* ``fcfs-queue``       — admit via the packed placement or hold the
  tenant in FIFO order until departures free capacity;
* ``migration-aware``  — admit only onto nodes free of foreign
  clusters, otherwise queue and kick the demix rebalancer
  (repro.migration) to make room.

Emits the ``serve`` grid's table (completed tenants, rejections, queue
peak, completed-tenant slowdown per policy) and asserts its claims
(repro.experiments.grids): migration-aware admission completes at least
as many tenants as reject-on-full at strictly lower mean slowdown.
"""

from _common import bench_grid, full_scale


def test_service_arrivals(benchmark):
    bench_grid(benchmark, "serve", dict(
        admissions=("reject-on-full", "fcfs-queue", "migration-aware"),
        placement="pack", n_nodes=3, rate_per_s=10.0,
        max_tenants=24 if full_scale() else 12, rounds=3,
        horizon_s=120.0 if full_scale() else 60.0, seed=0,
    ), name="service_arrivals")
