"""Figure 2: Co-Scheduling's impact on non-parallel applications.

Paper (Section II-A2 platform): under CS, ping RTT is ~1.75x CR's,
sphinx3 runs ~1.11x longer, stream loses a little bandwidth, bonnie++ is
roughly unaffected.

Regenerates the ``fig02`` grid: the four non-parallel metrics under CR
and CS, normalized.
"""

from _common import bench_grid, full_scale


def test_fig02_cs_nonparallel(benchmark):
    bench_grid(benchmark, "fig02", dict(horizon_s=20.0 if full_scale() else 6.0))
