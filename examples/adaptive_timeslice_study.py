#!/usr/bin/env python3
"""Why does the time slice matter? — the paper's Section II-B study.

Sweeps a static time slice under the Credit scheduler for one NPB kernel
(Fig. 5's setup), printing execution time, average spinlock latency and
context switches per slice, then shows the ATC controller *discovering*
the short slice on its own: its per-period host-minimum slice trace
converges from Xen's 30 ms default onto the 0.3 ms threshold.

Run:  python examples/adaptive_timeslice_study.py [app]
"""

import sys

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import run_type_a
from repro.metrics.summary import pearson
from repro.schedulers.atc_sched import ATCParams
from repro.sim.units import SEC, ms_from_ns


def static_sweep(app: str) -> None:
    rows = []
    for slice_ms in (30, 12, 6, 1, 0.3):
        cell = run_type_a(app, "CR", n_nodes=2, rounds=2, warmup_rounds=1,
                          uniform_slice_ms=slice_ms)
        rows.append((
            slice_ms,
            round(cell["mean_round_ns"] / 1e6, 1),
            round(cell["avg_spin_ns"] / 1e6, 3),
            cell["cluster"]["context_switches"],
        ))
    print(
        format_table(
            ["slice (ms)", "round (ms)", "spin latency (ms)", "ctx switches"],
            rows,
            title=f"Static slice sweep — {app} (CR)",
        )
    )
    times = [r[1] for r in rows]
    spins = [r[2] for r in rows]
    print(f"pearson(spin latency, execution time) = {pearson(spins, times):.3f}\n")


def atc_convergence(app: str) -> None:
    world = CloudWorld(
        WorldConfig(n_nodes=2, scheduler="ATC", seed=7, sched_params=ATCParams(record_series=True))
    )
    for k in range(4):
        vc = world.virtual_cluster(2, name=f"vc{k}")
        world.add_npb(app, vc.vms, rounds=None, warmup_rounds=0)
    world.run(horizon_ns=2 * SEC)
    ctrl = world.vmms[0].scheduler.controller
    print("ATC host-minimum slice trace (node 0):")
    trace = ctrl.slice_history
    shown = trace[:6] + [("...", "...")] + trace[-3:] if len(trace) > 9 else trace
    for t, s in shown:
        if t == "...":
            print("   ...")
        else:
            print(f"   t={t / 1e6:7.0f} ms   slice={ms_from_ns(s):6.2f} ms")
    final = trace[-1][1]
    print(f"converged to {ms_from_ns(final):.2f} ms (min threshold: "
          f"{ms_from_ns(ctrl.cfg.min_threshold_ns):.2f} ms)")


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "lu"
    static_sweep(app)
    atc_convergence(app)


if __name__ == "__main__":
    main()
