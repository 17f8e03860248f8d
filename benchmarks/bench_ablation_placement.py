"""Ablation: virtual-cluster placement (spread / pack / striped / random).

The paper's setups spread every virtual cluster across physical nodes, so
cross-VM synchronization rides the Fig. 4 network path with its four
scheduling-wait overhead sources.  Packing a cluster onto one node keeps
the synchronization on the dom0 loopback (still scheduled, but no wire
and a single host's queues) — quantifying how much of CR's degradation
is the *cross-host* component, and how much ATC still helps intra-host.

The full placement registry is exercised: ``striped`` round-robins VMs
over nodes by global index (clusters interleave instead of aligning) and
``random:SEED`` draws placements from a seeded RNG — both land between
the spread/pack extremes, and the seed makes the "random" cell exactly
reproducible.  Regenerates the ``placement`` grid.
"""

from _common import bench_grid


def test_ablation_placement(benchmark):
    bench_grid(benchmark, "placement", {})
