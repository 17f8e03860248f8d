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
from repro.sim.units import MSEC

#: A ``vm_pause`` and a ``node_crash`` (the ``chaos`` grid's ``faults=``
#: form).  Both land while guest timers are armed; the crash instant also
#: falls inside a dom0 netback job, so ``on_preempt`` settles a dom0
#: timer too.
FAULTS = [
    {"kind": "vm_pause", "at_ns": 20 * MSEC, "node": 0, "duration_ns": 20 * MSEC},
    {"kind": "node_crash", "at_ns": 101_943_453, "node": 1, "duration_ns": 30 * MSEC},
]

#: Eight tenants arriving in the first 0.6 s.  Under fifo order the demix
#: rebalancer completes two live migrations, and the second one's
#: stop-and-copy pauses running VCPUs with armed work timers; under
#: reversed order it starts none.
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
    ("lu_atc", "fifo"): ("d8c563975b1e9d0ad36a4e2dc91b41e0ff242b7b609edfbbb039ea458682f8ec", 63673),
    ("lu_atc", "reversed"): ("4738d0abce83a38b65b018f8c188cb0dbf3c79905ab882028ff2c6f4ae791f15", 63679),
    ("lu_cr", "fifo"): ("164d52259c75dfe8d2e3857c0f118ff29a1379d23d44a30daafe006b4e6f54bb", 22229),
    ("lu_cr", "reversed"): ("e189c9b17f93f8aeb62b285d3d81b44a5733d91eaa64e7bc83fe8da75911bbc2", 22194),
    ("is_cr", "fifo"): ("1a33140aba58678ad7fbbf973d436da52acd7dee7bb29bb72e182910daa0ca7d", 19911),
    ("is_cr", "reversed"): ("15dcfeba7dbcc92e492c3c588b76e4f8e24730f278faa9c57b6be32259b0bf94", 19862),
    ("dfrs_hybrid", "fifo"): ("02ae5a5263153660b2ccce466e548e0e38262fb1c20c5b6f36d9d83f54dc960c", 48262),
    ("dfrs_hybrid", "reversed"): ("b959090160fd355cbe062b45893e92fdbd72409d8344defc28d0f666940518e9", 48992),
    ("lu_atc_faults", "fifo"): ("777d9fbcaaa74628a2100a04cf0688ee90dc16742f4b435b6524fb3f40ac77cb", 64210),
    ("lu_atc_faults", "reversed"): ("b9d729f011724e8b96ef99a246ca61cb9f8bf1af4c2d78795654e3f4c78fc61b", 64210),
    ("service_migrate", "fifo"): ("4e80549e218eb3bd192f830395a7ea17902f71d4608140304f0a633e79c82469", 75272),
    ("service_migrate", "reversed"): ("df344e8595d3b449210235280188eeab571d82a6432ff7f2fa80289ce75ced53", 79180),
    ("attack_tick", "fifo"): ("04bbcf44e3460b68f43e3b50b90e08b13d00660b4294c5c29ff9e6ded58eb60b", 6873),
    ("attack_tick", "reversed"): ("81f7fd2717e56f44ad4cdcbbb9162a5af57167a94cd870190458ffa361372b53", 5558),
    ("attack_hardened", "fifo"): ("d587787d7d0b1c5484c0e06f310e1bd769cf0f6912bd4114efa79b694b1bc819", 7125),
    ("attack_hardened", "reversed"): ("85b3c441dade293ec6642ade54bf8bc946fb3797e395115ecd8faf79044728ca", 7362),
    ("lu_cs", "fifo"): ("abdbc242eee7e8bc3c2810283da5dfcd28d34e533ecd4ad94d0ef584445ae9c1", 20342),
    ("lu_cs", "reversed"): ("7ab8c8bce30717ccaa6058dc8355dab5e86195ad28294adae25b099a55696e25", 20336),
    ("lu_bs", "fifo"): ("70b1e8756d3af494662692e7608ece87354fc10c33e68524a22caf0e7f62d4ad", 21536),
    ("lu_bs", "reversed"): ("9184111fb29fe324157675aba11ba60859279719d541c7a8be009f41ec2b56f9", 21638),
    ("lu_dss", "fifo"): ("c8879eab9812e753882a1cfbb17d774e6beecc044936068d1077fb8fc9a91b01", 24093),
    ("lu_dss", "reversed"): ("ad9d639e05f3e0b4c99f1e4855f9bac3ef511f53fa54233c9aa3cc9f8efb9642", 24125),
    ("lu_vs", "fifo"): ("451ccfb4e1786f4ecb1c652acf2554c5b03b76dd569bb5bed2ffd44581f6a5f2", 29521),
    ("lu_vs", "reversed"): ("52f91c8924329e1e195b88c80115d6bbf2216078edfb60bb20319f38853c14c9", 30388),
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
    preemptions, blocks and a VM pause.  The stream opens with the 48
    wakes and first dispatches that ``CloudWorld.start()`` emits at t=0."""
    result = run_type_a(
        "lu", "ATC", n_nodes=2, rounds=1, warmup_rounds=1, n_vclusters=4, vcpus_per_vm=4,
        seed=0, faults=[FAULTS[0]], sched_params={"tick_accounting": True},
        trace=True, trace_capacity=1 << 16,
    )
    trace = result["trace"]
    assert trace["dropped"] == 0 and trace["total"] == 10891
    assert {k: trace["by_kind"][k] for k in ("sched.dispatch", "sched.theft", "vcpu.state")} == {
        "sched.dispatch": 2671, "sched.theft": 2629, "vcpu.state": 2671}
    text = json.dumps(trace["records"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "876a8a72d1c38cc667c9eb25886a60c9e9fbe0b6bf6508198632ef9d256e3bb4")
