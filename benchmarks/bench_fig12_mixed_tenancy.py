"""Figure 12: parallel applications in the mixed (parallel + non-parallel)
tenancy scenario.

Paper: ATC(30ms) best; DSS is *inferior to CS* here (the opposite of the
parallel-only Fig. 11) because latency-insensitive VMs keep long slices
under DSS and delay the parallel VMs queued behind them; VS trails DSS.

Regenerates the ``fig12`` grid: mean normalized parallel round time per
approach, including both ATC variants.
"""

from _common import bench_grid, type_b_scale


def test_fig12_mixed_tenancy(benchmark):
    bench_grid(benchmark, "fig12", type_b_scale())
