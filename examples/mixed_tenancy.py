#!/usr/bin/env python3
"""Mixed tenancy: accelerating parallel jobs without hurting neighbours.

The paper's Section IV-C scenario: parallel virtual clusters share hosts
with a web server, SPEC CPU apps, stream, bonnie++ and ping.  This example
compares CR, CS and both ATC variants — ATC(30ms) keeps the VMM default
slice for non-parallel VMs (Algorithm 2's default), ATC(6ms) uses the
administrator interface to give them 6 ms slices.

Run:  python examples/mixed_tenancy.py
"""

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import run_small_mix


def main() -> None:
    cases = [
        ("CR", dict(scheduler="CR")),
        ("CS", dict(scheduler="CS")),
        ("ATC(30ms)", dict(scheduler="ATC")),
        ("ATC(6ms)", dict(scheduler="ATC", atc_np_slice_ms=6.0)),
    ]
    results = {}
    for label, kw in cases:
        sched = kw.pop("scheduler")
        results[label] = run_small_mix(sched, horizon_s=6.0, **kw)

    cr = results["CR"]
    rows = []
    for label in results:
        r = results[label]
        rows.append(
            (
                label,
                round(r["parallel_mean_round_ns"] / cr["parallel_mean_round_ns"], 2),
                round(r["ping_mean_rtt_ns"] / cr["ping_mean_rtt_ns"], 2),
                round(r["sphinx3_mean_run_ns"] / cr["sphinx3_mean_run_ns"], 2),
                round(r["stream_bandwidth_Bps"] / cr["stream_bandwidth_Bps"], 2),
                round(r["bonnie_throughput_Bps"] / cr["bonnie_throughput_Bps"], 2),
            )
        )
    print(
        format_table(
            ["approach", "parallel time", "ping RTT", "sphinx3 time", "stream bw", "bonnie tput"],
            rows,
            title="Mixed tenancy, all metrics normalized to CR (time: lower=better; bw/tput: higher=better)",
        )
    )
    print(
        "\nExpected shapes (paper Figs. 12-14): ATC accelerates the parallel jobs\n"
        "several-fold while leaving the non-parallel apps near CR; CS helps the\n"
        "parallel jobs less and visibly hurts ping/sphinx3; ATC(6ms) trades some\n"
        "CPU-app performance for even better parallel and latency behaviour."
    )


if __name__ == "__main__":
    main()
