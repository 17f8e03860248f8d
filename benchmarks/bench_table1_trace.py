"""Table I: the LLNL Atlas job-size distribution and the paper's virtual
cluster mix derived from it.

Regenerates: (a) the exact Section IV-B2 configuration (one 256-VCPU VC,
two 128s, three 64s, one 32, three 16s, 30 independents over 128 VMs) and
(b) a synthesized scaled-down mix whose size distribution follows
Table I.
"""

import collections

from repro.experiments.scenarios import run_table1_cell
from repro.sim.rng import SimRNG
from repro.workloads.traces import ATLAS_TABLE1, paper_vc_mix, synthesize_vc_mix

from _common import emit, run_once


def test_table1_paper_mix(benchmark):
    mix = run_once(benchmark, paper_vc_mix)
    emit(
        "Table I — paper VC mix (8-VCPU VMs)",
        ["VC sizes (VCPUs)", "independent VMs", "total VMs"],
        [(",".join(map(str, mix.cluster_sizes_vcpus)), mix.independent_vms, mix.total_vms)],
    )
    assert mix.total_vms == 128
    assert sorted(mix.cluster_sizes_vcpus, reverse=True) == [
        256, 128, 128, 64, 64, 64, 32, 16, 16, 16,
    ]


def test_table1_synthesis_follows_distribution(benchmark):
    def synth():
        counts = collections.Counter()
        for seed in range(200):
            mix = synthesize_vc_mix(128, 8, SimRNG(seed), min_vcpus=16, max_vcpus=256)
            for s in mix.cluster_sizes_vcpus:
                counts[s] += 1
        return counts

    counts = run_once(benchmark, synth)
    total = sum(counts.values())
    rows = [(s, counts.get(s, 0) / total) for s in sorted(ATLAS_TABLE1) if s >= 16]
    emit("Table I — synthesized size frequencies (200 draws)", ["VCPUs", "fraction"], rows)
    # small sizes must be drawn more often than large ones, per Table I
    freq = dict(rows)
    assert freq[16] > freq[256]
    assert freq[64] > freq[32]  # Table I: 12.6% vs 4.5%


def test_table1_trace_cell(benchmark):
    """Simulate one cell of the paper's 256-core (32-node) Table-I
    platform under ATC — the configuration the fast-path engine work
    targets — for a horizon long enough that the virtual clusters complete
    rounds (~7 s on one core).
    """
    horizon_s = 2.0
    r = run_once(benchmark, run_table1_cell, scheduler="ATC", seed=0, horizon_s=horizon_s)
    assert r["n_nodes"] == 32
    assert r["n_vms"] == 128
    assert r["total_vcpus"] == 1024
    rows = [
        (vc["vc"], vc["n_vms"], vc["app"], vc["rounds"])
        for vc in r["vcs"]
    ]
    rows.append(("independents (30 VMs)", 30, "lu/is", r["independent_rounds"]))
    emit(
        f"Table I — 256-core trace cell, ATC, {horizon_s:.1f} virtual s "
        f"({r['events']:,} events)",
        ["virtual cluster", "VMs", "app", "rounds done"],
        rows,
        name="table1_trace_cell",
    )
    # the virtual clusters must have made visible progress in the horizon
    assert sum(vc["rounds"] for vc in r["vcs"]) >= 5
