"""Figure 9: how a uniform short slice affects non-parallel applications.

Paper: as the (globally applied) slice shrinks, sphinx3 slows (context
switches + cache), ping's RTT *improves* (more scheduling opportunities),
and stream degrades slightly.

Regenerates the ``fig09`` grid: the three metrics across a slice ladder
under CR.
"""

from _common import bench_grid, full_scale

FULL = dict(slices=[30, 12, 6, 1, 0.3], horizon_s=12.0)
DEFAULT = dict(slices=[30, 6, 0.3], horizon_s=6.0)


def test_fig09_nonparallel_slice(benchmark):
    bench_grid(benchmark, "fig09", FULL if full_scale() else DEFAULT)
