"""Headline claim (abstract / Section IV): ATC obtains 1.5-10x performance
gains for parallel applications over CR and the other approaches.

Regenerates the ``headline`` grid: ATC's speedup factor over CR, CS and
BS for each NPB kernel at the default scale, and checks the 1.5-10x band
against CR.
"""

from _common import bench_grid, fig_apps, full_scale


def test_headline_gain(benchmark):
    bench_grid(benchmark, "headline", dict(apps=fig_apps(), nodes=[8 if full_scale() else 2]),
               name="headline_gain")
