"""Golden result digests: small seeded cells whose every output bit is pinned.

Performance refactors of the simulator must keep results bit-identical,
event count included.  This file makes that a tier-1 check: each cell's
result (minus host-side ``profile``/``trace`` keys) is hashed as
canonical JSON and compared with a pinned sha256, and its
``events_processed`` with a pinned count.  Both tie orders are pinned,
since a change can be identical under one and not the other.

A change that is *meant* to alter the model (for example making
results independent of same-instant event order, ROADMAP item 1)
re-pins these values in the same commit and says why they moved.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.scenarios import run_dfrs_compare, run_service, run_type_a
from repro.sim.units import MSEC

#: A ``vm_pause`` and a ``node_crash`` (the ``chaos`` grid's ``faults=``
#: form).  Both land while guest timers are armed; the crash instant also
#: falls inside a dom0 netback job, so ``on_preempt`` settles a dom0
#: timer too.
FAULTS = [
    {"kind": "vm_pause", "at_ns": 20 * MSEC, "node": 0, "duration_ns": 20 * MSEC},
    {"kind": "node_crash", "at_ns": 102_149_341, "node": 1, "duration_ns": 30 * MSEC},
]

#: Eight tenants arriving in the first 0.6 s; the demix rebalancer
#: completes a live migration, whose stop-and-copy pauses running VCPUs
#: with armed work timers.
CHURN = [
    {"at_ms": at, "n_vms": n, "app": app}
    for at, n, app in [(0, 4, "lu"), (50, 2, "is"), (100, 4, "is"), (150, 2, "lu"),
                       (300, 4, "lu"), (400, 2, "is"), (500, 4, "lu"), (600, 2, "lu")]
]

CELLS = {
    "lu_atc": lambda tie: run_type_a("lu", "ATC", n_nodes=2, rounds=2, seed=0, tie_order=tie),
    "lu_cr": lambda tie: run_type_a("lu", "CR", n_nodes=2, rounds=2, seed=0, tie_order=tie),
    "dfrs_hybrid": lambda tie: run_dfrs_compare(
        mode="hybrid", horizon_s=2.0, seed=1, tie_order=tie
    ),
    "lu_atc_faults": lambda tie: run_type_a(
        "lu", "ATC", n_nodes=2, rounds=2, seed=0, faults=FAULTS, tie_order=tie
    ),
    "service_migrate": lambda tie: run_service(
        arrival="trace", service_trace=CHURN, scheduler="CR", n_nodes=3, rounds=20,
        npb_class="A", horizon_s=6.0, migration={"policy": "demix"}, seed=0, tie_order=tie,
    ),
}

#: (cell, tie order) -> (sha256 of the canonical result JSON, events).
GOLDEN = {
    ("lu_atc", "fifo"): ("5113e2bf76e99f4177dd4c72517009829a87726de7e707b8d2e71cc7515140b3", 67566),
    ("lu_atc", "reversed"): ("ec53edb6d7b5d91be12f77e968d0412cae5c5a118e5304c5a89a06fadbd8c0a2", 63380),
    ("lu_cr", "fifo"): ("8d59b208bd5ba53321a140664e1d254dca90d835161fe3174a2abefcbd9f303d", 22135),
    ("lu_cr", "reversed"): ("49d79319a24ae9a81c1c93935ad6b84b7da41bdaf0e1b31fe3d644a3a12f85c7", 22134),
    ("dfrs_hybrid", "fifo"): ("cedcb01878c39e45c1440de89c84ca13e39f001fd0d5cea1f496b90e897dddb9", 49061),
    ("dfrs_hybrid", "reversed"): ("c08a59ffbf0187f0a19315f84f8a1e458dc0c0741ca085710546dc5e7062f479", 49033),
    ("lu_atc_faults", "fifo"): ("c770c58bd7e30a5b43c8053e4dcac1ed127086246a33153305dd95c622158b3d", 64067),
    ("lu_atc_faults", "reversed"): ("bf9607c64fada7d71ff8e290235ae8d766d2bbe7e861eef0c3749924b84784ab", 63979),
    ("service_migrate", "fifo"): ("e23a8ba5f144d2782ed7794cb09a97c1383890f5b687ed9cb0bde7100bca659d", 64669),
    ("service_migrate", "reversed"): ("178e04c46c89206d161b72252e2971f0600afe7209009bdde714a6bb24c5321c", 66993),
}


def result_digest(result: dict) -> str:
    body = {k: v for k, v in result.items() if k not in ("profile", "trace")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell,tie", sorted(GOLDEN))
def test_cell_result_is_bit_identical(cell, tie):
    result = CELLS[cell](tie)
    digest, events = GOLDEN[(cell, tie)]
    assert result["events"] == events
    assert result_digest(result) == digest
