"""Figure 11: evaluation type B — LLNL-trace virtual-cluster mix, all
approaches, parallel applications only.

Paper: ATC best (e.g. sp in VC1: ATC 0.25, DSS 0.45, CS 0.49, BS 0.9 vs
CR 1.0); trends mirror Fig. 10.

Regenerates the ``fig11`` grid: per-VC normalized mean round times under
every approach (normalized against CR on the *same* VC/app assignment —
the seed fixes the trace draw across approaches).
"""

from _common import bench_grid, type_b_scale


def test_fig11_mixed_parallel(benchmark):
    bench_grid(benchmark, "fig11", type_b_scale())
