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

from repro.experiments.scenarios import run_attack, run_dfrs_compare, run_service, run_type_a
from repro.schedulers.atc_sched import ATCParams
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
    # ``is``: all-to-all across four VMs with a hard sync, so ranks cross
    # the VM barrier twice per superstep (``lu`` is a ring, crossing once).
    "is_cr": lambda tie: run_type_a("is", "CR", n_nodes=4, rounds=2, seed=0, tie_order=tie),
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
    # The only cells with ``tick_accounting`` (the VMM calls ``charge_ns``);
    # the hardened one also charges voluntary yields exactly
    # (``deboost_on_yield``).
    "attack_tick": lambda tie: run_attack(
        scheduler="CR", hardened=False, attack=True, seed=3, horizon_s=0.5, tie_order=tie
    ),
    "attack_hardened": lambda tie: run_attack(
        scheduler="CR", hardened=True, attack=True, seed=3, horizon_s=0.5, tie_order=tie
    ),
    # The Credit subclasses: CS overrides ``pick_next`` and calls
    # ``slice_for``, BS overrides ``on_slice_expired``.
    **{
        f"lu_{s.lower()}": (lambda s: lambda tie: run_type_a(
            "lu", s, n_nodes=2, rounds=2, seed=0, tie_order=tie
        ))(s)
        for s in ("CS", "BS", "DSS", "VS")
    },
}

#: (cell, tie order) -> (sha256 of the canonical result JSON, events).
GOLDEN = {
    ("lu_atc", "fifo"): ("5113e2bf76e99f4177dd4c72517009829a87726de7e707b8d2e71cc7515140b3", 67566),
    ("lu_atc", "reversed"): ("ec53edb6d7b5d91be12f77e968d0412cae5c5a118e5304c5a89a06fadbd8c0a2", 63380),
    ("lu_cr", "fifo"): ("8d59b208bd5ba53321a140664e1d254dca90d835161fe3174a2abefcbd9f303d", 22135),
    ("lu_cr", "reversed"): ("49d79319a24ae9a81c1c93935ad6b84b7da41bdaf0e1b31fe3d644a3a12f85c7", 22134),
    ("is_cr", "fifo"): ("776ef6f66c4732d239bf0f4e23ca669264545ddb74516d4f6497c462bbb25fec", 19940),
    ("is_cr", "reversed"): ("c2220cc3070bba39f2619d20a046663d094c7c29061e7e2453dd19ba48aeb477", 19874),
    ("dfrs_hybrid", "fifo"): ("cedcb01878c39e45c1440de89c84ca13e39f001fd0d5cea1f496b90e897dddb9", 49061),
    ("dfrs_hybrid", "reversed"): ("c08a59ffbf0187f0a19315f84f8a1e458dc0c0741ca085710546dc5e7062f479", 49033),
    ("lu_atc_faults", "fifo"): ("c770c58bd7e30a5b43c8053e4dcac1ed127086246a33153305dd95c622158b3d", 64067),
    ("lu_atc_faults", "reversed"): ("bf9607c64fada7d71ff8e290235ae8d766d2bbe7e861eef0c3749924b84784ab", 63979),
    ("service_migrate", "fifo"): ("e23a8ba5f144d2782ed7794cb09a97c1383890f5b687ed9cb0bde7100bca659d", 64669),
    ("service_migrate", "reversed"): ("178e04c46c89206d161b72252e2971f0600afe7209009bdde714a6bb24c5321c", 66993),
    ("attack_tick", "fifo"): ("425a2582ba6727456fc37b0942a37ea9a473510988fa86c3e2523d2d418cc166", 7005),
    ("attack_tick", "reversed"): ("110425d761a0d61dbd100616c137bed13de38982fedc40e73fb8bf110986af6f", 6681),
    ("attack_hardened", "fifo"): ("0087b09d009cbc6b500f2e991f7ea321226e9c468993773918c5a9442e614e31", 7155),
    ("attack_hardened", "reversed"): ("845e320d4da138ac996c88461ddbe340788e95bf6e5d2db679be0f24dd5845ff", 7194),
    ("lu_cs", "fifo"): ("f53bc3c7a6fa81a4650c46c07c5f6871223c29d6af8add56e31549c32d83492a", 20173),
    ("lu_cs", "reversed"): ("1dd77071b829b68d059a22494b81ea613e819c8149d9c6f27e9d91c6a39e336b", 20199),
    ("lu_bs", "fifo"): ("6750a8705f5c42bc704781df443ede71f09111a09bedeb5c9a8e1e730cab2434", 21694),
    ("lu_bs", "reversed"): ("af03600025a6c266b7a62d0caba2153ab573986198ce3e05df7e55c214a081a0", 21658),
    ("lu_dss", "fifo"): ("9e6eb9028f576e1e8befb0646b81c09626926874d2294967da8c224e32ee45a6", 23955),
    ("lu_dss", "reversed"): ("ec033e4437f19308601c121f82177a4e2e02147f577bb6083b01b56476c8aad1", 23953),
    ("lu_vs", "fifo"): ("52a911fd32025a3cb8c85a993ceed60985b31a57d0f34224ea1a78893317d993", 30068),
    ("lu_vs", "reversed"): ("0d4fd57fd1317a6c4b507e772ef043747cfad6c6bc6b870cfefc2e3e9336c48b", 29574),
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


def test_trace_record_stream_is_bit_identical():
    """The result digests above leave out ``trace``; this pins the whole
    record stream of a small ATC cell with tick-sampled accounting, so the
    deschedule and dispatch records (``sched.theft``, ``vcpu.state``,
    ``sched.dispatch``) of every cause are covered: slice expiries, boost
    preemptions, blocks and a VM pause."""
    result = run_type_a(
        "lu", "ATC", n_nodes=2, rounds=1, warmup_rounds=1, n_vclusters=4, vcpus_per_vm=4,
        seed=0, faults=[FAULTS[0]], sched_params=ATCParams(tick_accounting=True),
        trace=True, trace_capacity=1 << 16,
    )
    trace = result["trace"]
    assert trace["dropped"] == 0 and trace["total"] == 11603
    assert {k: trace["by_kind"][k] for k in ("sched.dispatch", "sched.theft", "vcpu.state")} == {
        "sched.dispatch": 2902, "sched.theft": 2885, "vcpu.state": 2918}
    text = json.dumps(trace["records"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a11e1c7e31b096d1e5cf5dc09a3d593fe10f2f9889599dd6263a6a0f4a348852")
