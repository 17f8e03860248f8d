#!/usr/bin/env python3
"""Trace-driven cloud: the LLNL Atlas virtual-cluster mix (Table I).

Synthesizes a cloud whose virtual-cluster size distribution follows the
paper's Table I (evaluation type B), runs a random NPB kernel on every
cluster in batch mode under each scheduling approach, and reports
per-cluster normalized round times — a scaled-down Figure 11.

Run:  python examples/trace_driven_cloud.py [n_nodes]
"""

import math
import sys

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import run_type_b


def main() -> None:
    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    scheds = ["CR", "BS", "CS", "DSS", "ATC"]
    results = {s: run_type_b(s, n_nodes=n_nodes, horizon_s=8.0, seed=11) for s in scheds}

    base = results["CR"]["vcs"]
    rows = []
    for i, vc in enumerate(base):
        row = [f"{vc['vc']} ({vc['app']}, {vc['n_vms']} VMs)"]
        for s in scheds:
            cell = results[s]["vcs"][i]["mean_round_ns"]
            ref = vc["mean_round_ns"]
            row.append(round(cell / ref, 2) if math.isfinite(cell) and math.isfinite(ref) else "n/a")
        rows.append(tuple(row))
    print(
        format_table(
            ["virtual cluster", *scheds],
            rows,
            title=f"Type B mix on {n_nodes} nodes — normalized round time (CR = 1.0)",
        )
    )
    atc = [r[-1] for r in rows if isinstance(r[-1], float)]
    if atc:
        print(f"\nATC mean over clusters: {sum(atc) / len(atc):.2f} (paper Fig. 11: ~0.25-0.6)")


if __name__ == "__main__":
    main()
