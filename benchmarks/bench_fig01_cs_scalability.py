"""Figure 1: Co-Scheduling's scalability problem.

Paper: the normalized execution time of ``lu`` under CS (vs CR) *rises*
as the virtual cluster spans more hosts — CS gangs VCPUs per host but
the cluster's VMs stay unsynchronized across hosts.

Regenerates the ``fig01`` grid: normalized CS execution time at each
cluster scale.  Expected shape: CS < 1 everywhere, increasing with the
number of nodes.
"""

from _common import bench_grid, fig_nodes


def test_fig01_cs_scalability(benchmark):
    bench_grid(benchmark, "fig01", dict(nodes=fig_nodes()))
