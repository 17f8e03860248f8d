"""Figure 5: execution time and spinlock latency vs time slice.

Paper (Section II-B): shortening the slice from 30 ms toward 0.1 ms
monotonically reduces spinlock latency and improves every application
(up to ~10x), with Pearson correlation between the two above 0.9.

Regenerates the ``sweep`` grid (also ``repro sweep``): per-app rows of
(slice, execution time, avg spin latency, context switches, LLC misses),
with the Pearson claim checked per app.
"""

from _common import bench_grid, fig_apps, fig_slices_ms


def test_fig05_slice_sweep(benchmark):
    bench_grid(benchmark, "sweep", dict(apps=fig_apps(), slices=fig_slices_ms()), name="fig05")
