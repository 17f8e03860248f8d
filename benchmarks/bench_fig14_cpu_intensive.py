"""Figure 14: CPU-intensive SPEC applications (gcc, bzip2, sphinx3) in the
mixed tenancy scenario.

Paper: CS and ATC(6ms) degrade CPU-intensive apps (preemption / context
switches); BS, VS, DSS and ATC(30ms) approximate CR.

Regenerates the ``fig14`` grid: per-app normalized run times for every
approach.
"""

from _common import bench_grid, type_b_scale


def test_fig14_cpu_intensive(benchmark):
    bench_grid(benchmark, "fig14", type_b_scale())
