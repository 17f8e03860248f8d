"""Figure 10: evaluation type A — identical virtual clusters running the
same NPB kernel, all approaches, across cluster scales.

Paper: ATC achieves the best normalized execution time and the best
scalability; CS sits between ATC and BS; BS's small advantage over CR
erodes with scale; DSS lands between CR and ATC.

Regenerates the ``compare`` grid (also ``repro compare``): normalized
execution time per (app, approach, scale).
"""

from _common import bench_grid, fig_apps, fig_nodes


def test_fig10_same_apps(benchmark):
    bench_grid(benchmark, "compare", dict(apps=fig_apps(["lu", "is"]), nodes=fig_nodes()),
               name="fig10")
