"""Figure 4: the 11-step cross-VM packet path and its four scheduling-wait
overhead sources.

Regenerates: per-hop mean latency of instrumented probe messages between
two VMs on different hosts while parallel load runs.  Three variants
separate the mechanisms:

* ``CR`` — stock credit: the boost path keeps an idle receiver's waits
  around the ratelimit, yet scheduling waits still dominate the wire;
* ``CR/no-boost (30ms)`` — without wake boosting every overhead source
  becomes a run-queue wait bounded by the slices of the VMs ahead
  (the paper's ``sum(TimeSlice_i)`` analysis);
* ``CR/no-boost (0.3ms)`` — the same waits shrink with the slice, the
  effect ATC exploits.
"""

from repro.experiments.scenarios import run_packet_path_probe
from repro.schedulers.credit import CreditParams

from _common import emit, full_scale, run_once

N_PROBES = 200 if full_scale() else 50

CASES = {
    "CR": dict(),
    "no-boost 30ms": dict(sched_params=CreditParams(boost=False)),
    "no-boost 0.3ms": dict(sched_params=CreditParams(boost=False), uniform_slice_ms=0.3),
}
HOPS = ("mean_netback_tx_wait_ns", "mean_wire_ns", "mean_netback_rx_wait_ns",
        "mean_consume_wait_ns", "mean_end_to_end_ns")


def test_fig04_packet_path(benchmark):
    def run_cases():
        return {case: run_packet_path_probe("CR", n_probes=N_PROBES, **kw)
                for case, kw in CASES.items()}

    probes = run_once(benchmark, run_cases)
    rows = [(hop.replace("mean_", "").replace("_ns", ""), *(probes[c][hop] / 1e3 for c in CASES))
            for hop in HOPS]
    emit("Figure 4 — cross-VM packet path hops (us)", ["hop", *CASES], rows)
    rows = {r[0]: dict(zip(CASES, r[1:])) for r in rows}
    assert all(probes[c]["probes"] > 0 for c in CASES)
    # scheduling waits dominate the wire under stock CR with 30 ms slices
    sched_wait = rows["consume_wait"]["CR"] + rows["netback_rx_wait"]["CR"]
    assert sched_wait > rows["wire"]["CR"]
    # without boost, the waits explode at 30 ms slices...
    assert rows["end_to_end"]["no-boost 30ms"] > 2 * rows["end_to_end"]["CR"]
    # ...and shrink dramatically when every slice ahead in the queue is short
    assert rows["end_to_end"]["no-boost 0.3ms"] < 0.2 * rows["end_to_end"]["no-boost 30ms"]
    # the wire itself is slice-independent
    wires = list(rows["wire"].values())
    assert max(wires) < 3 * min(wires)
