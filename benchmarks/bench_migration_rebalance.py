"""Migration rebalancing: does the demix policy beat static placement?

Extension benchmark (no paper figure): two parallel clusters land packed
on a shared host — the worst case for Algorithm 2's per-host slice
minimum, which drags *both* clusters down — plus one non-parallel
tenant.  Cells:

* ``migrate:static``        — the packed placement, never revisited
  (baseline);
* ``migrate:static@spread`` — the paper's placement, as the static upper
  bound;
* ``migrate:demix``         — the packed placement *repaired online* by
  the live-migration control plane (repro.migration).

Emits the ``migrate`` grid's table (round time normalized to the packed
static cell, migrations, downtime) and asserts its claims
(repro.experiments.grids).
"""

from _common import bench_grid, full_scale


def test_migration_rebalance(benchmark):
    bench_grid(benchmark, "migrate", dict(policy="demix", bound="spread", placement="pack",
                                          n_clusters=2, horizon_s=30.0 if full_scale() else 10.0,
                                          seed=0), name="migration_rebalance")
