"""Figure 13: non-parallel applications (bonnie++, stream, web server) in
the mixed tenancy scenario, every approach.

Paper: bonnie++ is roughly unaffected by any approach; stream loses a
little under CS and ATC(6ms); the web server collapses under CS (~35% of
CR) but improves under VS / DSS / ATC(6ms) (higher scheduling frequency).

Regenerates the ``fig13`` grid: the three metrics normalized to CR.
"""

from _common import bench_grid, type_b_scale


def test_fig13_nonparallel_mix(benchmark):
    bench_grid(benchmark, "fig13", type_b_scale())
