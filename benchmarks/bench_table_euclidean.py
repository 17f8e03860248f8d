"""Section III-B's Euclidean-metric table (Eq. 1): the uniform minimum
time-slice threshold.

Paper: over slices {0.5, 0.4, 0.3, 0.2, 0.1, 0.03} ms the metric values
are {0.034, 0.020, 0.018, 0.049, 0.039, 0.069}, picking 0.3 ms.

Regenerates the ``eq1`` grid: the same table from our own class-C sweeps
(we add 1.0 and 2.0 ms so the optimum is interior at our resolution).
Known deviation: our optimum lands at ~0.4-0.5 ms (see bench_fig08 /
EXPERIMENTS.md); the performance difference between 0.3 and 0.5 ms is
under 1%, so ATC's 0.3 ms threshold is effectively equivalent.
"""

from _common import bench_grid, fig_apps

SLICES_MS = [2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.03]


def test_table_euclidean(benchmark):
    bench_grid(benchmark, "eq1", dict(apps=fig_apps(), slices=SLICES_MS))
