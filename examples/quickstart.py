#!/usr/bin/env python3
"""Quickstart: accelerate a parallel application with ATC.

Builds a 2-node virtualized cloud (4 VMs of 8 VCPUs per 8-core node — the
paper's 4x over-commitment), runs the NPB ``lu`` kernel on four identical
virtual clusters under Xen's Credit scheduler and under the paper's
Adaptive Time-slice Control, and prints the speedup.

Run:  python examples/quickstart.py
"""

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.sim.units import SEC, ms_from_ns


def run(scheduler: str) -> float:
    world = CloudWorld(WorldConfig(n_nodes=2, scheduler=scheduler, seed=42))
    apps = []
    for k in range(4):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        apps.append(world.add_npb("lu", vc.vms, rounds=3, warmup_rounds=1))
    world.run(horizon_ns=120 * SEC)
    assert world.all_apps_done
    mean = sum(a.mean_round_ns for a in apps) / len(apps)
    spin = sum(vm.kernel.avg_spin_ns for vm in world.vms) / len(world.vms)
    print(
        f"  {scheduler:>3}: mean round {ms_from_ns(mean):8.1f} ms"
        f"   avg spinlock latency {ms_from_ns(spin):6.3f} ms"
    )
    return mean


def main() -> None:
    print("lu on four 2-VM virtual clusters, 4x CPU over-commitment:")
    cr = run("CR")
    atc = run("ATC")
    print(f"  -> ATC speedup over Credit: {cr / atc:.1f}x (paper band: 1.5-10x)")


if __name__ == "__main__":
    main()
