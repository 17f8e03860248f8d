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

from repro.experiments.scenarios import run_dfrs_compare, run_type_a

CELLS = {
    "lu_atc": lambda tie: run_type_a("lu", "ATC", n_nodes=2, rounds=2, seed=0, tie_order=tie),
    "lu_cr": lambda tie: run_type_a("lu", "CR", n_nodes=2, rounds=2, seed=0, tie_order=tie),
    "dfrs_hybrid": lambda tie: run_dfrs_compare(
        mode="hybrid", horizon_s=2.0, seed=1, tie_order=tie
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
