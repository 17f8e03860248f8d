"""Adversarial tenancy: do the hardening knobs recover the victim?

Extension benchmark (no paper figure; DESIGN.md §15): a parallel victim
cluster shares each node with yield-theft and tickle-storm attacker VMs
(repro.workloads.attacks).  Every cell runs on the *vulnerable*
substrate (tick-sampled accounting), so the clean/attacked pairs isolate
exactly what the attackers cause:

* ``unhardened`` — stock knobs: deterministic tick phase, exact-grid
  sampling, no BOOST rate limit, no slice floor;
* ``hardened``   — ``deboost_on_yield`` + per-VM BOOST rate limit +
  randomized tick phase, and on ATC the host slice floor clamp.

Each (scheduler, hardening) pair runs clean and attacked at two scales
(single node, and two nodes with the victim cluster spanning them).
Emits the ``attack`` grid's table (victim slowdown, thief gain, BOOST
preemptions, recovered share) and asserts its claims at both scales
(repro.experiments.grids).
"""

from repro.experiments.grids import GRIDS

from _common import emit, full_scale, run_grid

SCALES = {
    "1-node": dict(n_nodes=1, horizon_s=8.0 if full_scale() else 4.0),
    "2-node": dict(n_nodes=2, horizon_s=12.0 if full_scale() else 6.0),
}


def test_attack_hardening(benchmark):
    grid = GRIDS["attack"]
    specs = [s for scale, p in SCALES.items() for s in grid.cells(prefix=scale, seed=0, **p)]
    results = run_grid(benchmark, specs)
    emit(*grid.table(results), name="attack_hardening")
    assert grid.claims(results) == []
