"""Order-dependence race detector (repro.analysis.races).

Covers the engine tie-order plumbing (fifo/reversed, accounting
phase), the SAN008 dynamic tracker (injected
non-commuting pair, causality and phase exclusions, observationality,
clean arm/disarm), the tie-permutation differential, and the
``tie_order`` scenario param's cache-key fold.
"""

from __future__ import annotations

import pytest

from repro.analysis.races import (
    TieRaceTracker,
    diff_values,
    run_differential,
)
from repro.analysis.sanitizer import SimSanitizer
from repro.experiments.harness import WorldConfig
from repro.experiments.runner import RunSpec, _execute_cell
from repro.experiments.scenarios import run_type_a
from repro.guest.spinlock import SpinLock
from repro.sim.engine import ACCOUNTING_CATS, SimulationError, Simulator, simulator_hook

SMALL = dict(app_name="ep", scheduler="ATC", n_nodes=1, rounds=1, warmup_rounds=0)


def _tracked(sim: Simulator) -> TieRaceTracker:
    tracker = TieRaceTracker()
    tracker.attach(sim)
    return tracker


# ----------------------------------------------------------------------
# Engine: tie_order semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queue", ["heap"])
def test_tie_order_reversed_inverts_within_timestamp_only(queue):
    order: dict[str, list[str]] = {}
    for tie_order in ("fifo", "reversed"):
        sim = Simulator(tie_order=tie_order)
        seen: list[str] = []
        for label in ("a", "b", "c"):
            sim.at(100, lambda label=label: seen.append(label), cat="test")
        sim.at(50, lambda: seen.append("early"), cat="test")
        sim.at(200, lambda: seen.append("late"), cat="test")
        sim.run()
        order[tie_order] = seen
    assert order["fifo"] == ["early", "a", "b", "c", "late"]
    # different timestamps keep their order; only the tie flips
    assert order["reversed"] == ["early", "c", "b", "a", "late"]


def test_tie_order_validation_and_default():
    assert Simulator().tie_order == "fifo"
    assert WorldConfig().tie_order == "fifo"
    assert Simulator(tie_order="reversed").tie_order == "reversed"
    with pytest.raises(SimulationError):
        Simulator(tie_order="shuffled")


def test_tie_order_ignores_environment(monkeypatch):
    """Tie order changes results, so it comes only from the config (and
    thus the cache key), never from the environment."""
    monkeypatch.setenv("REPRO_TIE_ORDER", "reversed")
    assert Simulator().tie_order == "fifo"


@pytest.mark.parametrize("tie_order", ["fifo", "reversed"])
@pytest.mark.parametrize("queue", ["heap"])
def test_accounting_phase_runs_first_at_a_timestamp(queue, tie_order):
    """ACCOUNTING_CATS callbacks run before default-phase events at the
    same instant, regardless of insertion order and tie direction."""
    assert "vmm.period" in ACCOUNTING_CATS
    sim = Simulator(tie_order=tie_order)
    seen: list[str] = []
    # same-instant appends on purpose: the accounting phase *is* the
    # explicit ordering RPR040/041 asks for
    sim.at(100, lambda: seen.append("dispatch1"), cat="sched")  # repro: ignore[RPR040,RPR041]
    sim.at(100, lambda: seen.append("tick"), cat="vmm.period")  # repro: ignore[RPR040,RPR041]
    sim.at(100, lambda: seen.append("dispatch2"), cat="sched")  # repro: ignore[RPR040,RPR041]
    sim.run()
    assert seen[0] == "tick"
    assert set(seen[1:]) == {"dispatch1", "dispatch2"}


# ----------------------------------------------------------------------
# Dynamic layer: TieRaceTracker
# ----------------------------------------------------------------------
def test_injected_non_commuting_pair_flagged_san008():
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:

        def writer_a():
            lock.acquisitions = 1

        def writer_b():
            lock.acquisitions = 2

        sim.at(100, writer_a, cat="test")
        # injected race: the static layer catching this exact line is
        # asserted by test_lint.py; here we silence it for the tree pass
        sim.at(100, writer_b, cat="test")  # repro: ignore[RPR040]
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 1
    [v] = tracker.suspects
    assert v.code == SimSanitizer.RACE == "SAN008"
    assert v.time_ns == 100
    assert "acquisitions" in v.message
    assert v.context["kind"] == "W-W"


def test_read_write_overlap_flagged():
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:
        sim.at(100, lambda: setattr(lock, "acquisitions", 1), cat="test")
        sim.at(100, lambda: [lock.acquisitions], cat="test")
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 1
    assert tracker.suspects[0].context["kind"] == "R-W"


def test_commuting_pair_not_flagged():
    sim = Simulator()
    a, b = SpinLock("a"), SpinLock("b")
    tracker = _tracked(sim)
    try:
        sim.at(100, lambda: setattr(a, "acquisitions", 1), cat="test")
        sim.at(100, lambda: setattr(b, "acquisitions", 2), cat="test")
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 0


def test_different_timestamps_not_a_tie_group():
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:
        sim.at(100, lambda: setattr(lock, "acquisitions", 1), cat="test")
        sim.at(101, lambda: setattr(lock, "acquisitions", 2), cat="test")
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 0


def test_zero_delay_causal_chain_excluded():
    """A child scheduled by a same-timestamp parent is ordered after it —
    their overlap is not a race."""
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:

        def grandchild():
            lock.acquisitions = 3

        def child():
            lock.acquisitions = 2
            sim.at(sim.now, grandchild, cat="test")

        def parent():
            lock.acquisitions = 1
            sim.at(sim.now, child, cat="test")

        sim.at(100, parent, cat="test")
        sim.run()
    finally:
        tracker.detach()
    # parent -> child -> grandchild is one zero-delay chain: every pair
    # is transitively ordered, so the triple write overlap is no race.
    assert tracker.total_suspects == 0


def test_sibling_descendants_are_flagged():
    """Two children of one same-timestamp parent are NOT ordered relative
    to each other — a write overlap between them is a real suspect."""
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:

        def child_a():
            lock.acquisitions = 1

        def child_b():
            lock.acquisitions = 2

        def parent():
            sim.at(sim.now, child_a, cat="test")
            sim.at(sim.now, child_b, cat="test")  # repro: ignore[RPR040]

        sim.at(100, parent, cat="test")
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 1


def test_cross_phase_pair_excluded():
    """Accounting-phase vs default-phase at one instant is ordered by the
    engine — a write overlap there is defined behavior, not a race."""
    sim = Simulator()
    lock = SpinLock("shared")
    tracker = _tracked(sim)
    try:
        sim.at(100, lambda: setattr(lock, "acquisitions", 1), cat="vmm.period")
        sim.at(100, lambda: setattr(lock, "acquisitions", 2), cat="sched")
        sim.run()
    finally:
        tracker.detach()
    assert tracker.total_suspects == 0


def test_detach_restores_classes():
    sim = Simulator()
    orig_at, orig_rearm = Simulator.at, Simulator.rearm
    tracker = _tracked(sim)
    assert Simulator.rearm is not orig_rearm and Simulator.at is orig_at
    assert "__getattribute__" in SpinLock.__dict__
    tracker.detach()
    assert Simulator.rearm is orig_rearm
    assert "__getattribute__" not in SpinLock.__dict__
    assert "__setattr__" not in SpinLock.__dict__
    tracker.detach()  # idempotent


def test_only_one_tracker_at_a_time():
    sim = Simulator()
    tracker = _tracked(sim)
    try:
        with pytest.raises(RuntimeError):
            TieRaceTracker().attach(Simulator())
    finally:
        tracker.detach()


def test_tracked_run_is_observational():
    """An armed run returns bit-identical results to a plain run."""
    plain = run_type_a(**SMALL, sanitize=True)
    tracker = TieRaceTracker()
    try:
        with simulator_hook(tracker.attach):
            tracked = run_type_a(**SMALL, sanitize=True)
    finally:
        tracker.detach()
    assert diff_values(tracked, plain) == []
    assert tracked["events"] == plain["events"]


# ----------------------------------------------------------------------
# Detector fully off: bit-identical, unchanged event counts
# ----------------------------------------------------------------------
def test_detector_off_is_bit_identical():
    default = run_type_a(**SMALL)
    explicit_fifo = run_type_a(**SMALL, tie_order="fifo")
    assert diff_values(default, explicit_fifo) == []
    assert default["events"] == explicit_fifo["events"]


# ----------------------------------------------------------------------
# Tie-permutation differential
# ----------------------------------------------------------------------
def test_diff_values_leaf_paths():
    a = {"x": 1, "rows": [{"t": 2}], "same": "s"}
    b = {"x": 1, "rows": [{"t": 3}], "same": "s"}
    assert diff_values(a, a) == []
    assert diff_values(a, b) == [("rows[0].t", 2, 3)]
    assert diff_values({"k": 1}, {}) == [("k", 1, "<missing>")]
    assert diff_values([1, 2], [1]) == [(".len", 2, 1)]


def test_small_cell_forward_equals_reversed():
    """Regression for the accounting-phase fix: the period tick racing
    same-instant dispatches used to make fifo and reversed runs diverge
    (the tick recomputes vm.slice_ns / refreshes credits; dispatches at
    the same instant read it)."""
    report = run_differential("type_a", dict(SMALL), track=False)
    assert report["identical"], report["confirmed"][:5]


def test_differential_with_tracking_collects_suspects():
    report = run_differential("type_a", dict(SMALL))
    assert report["identical"]
    assert report["groups_checked"] > 0
    # the spin/poll model legitimately produces heuristic suspects
    assert report["suspects_total"] >= 0
    for s in report["suspects"]:
        assert s["code"] == "SAN008"


# ----------------------------------------------------------------------
# tie_order as a scenario param: cache-key fold and hand-off
# ----------------------------------------------------------------------
def test_runspec_tie_order_folds_into_key_only_when_set():
    base = RunSpec("type_a", dict(SMALL))
    explicit = RunSpec("type_a", dict(SMALL, tie_order="reversed"))
    assert "tie_order" not in base.key()
    assert base.digest("salt") != explicit.digest("salt")
    assert explicit.to_dict()["params"]["tie_order"] == "reversed"
    seen = []
    with simulator_hook(lambda sim: seen.append(sim.tie_order)):
        assert _execute_cell(explicit)["ok"]
    assert seen == ["reversed"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_races_subcommand(capsys, tmp_path):
    import json

    from repro.cli import main

    report = tmp_path / "races_report.json"
    rc = main([
        "races", "compare", "--set", "apps=ep", "--set", "schedulers=ATC",
        "--set", "nodes=1", "--set", "rounds=1", "--set", "sanitize=true", "--suspects", "0",
        "--json", str(report),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "compare:ep/ATC/1 | identical" in out
    assert "no confirmed order dependence" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro.races/v1"
    assert [c["label"] for c in doc["cells"]] == ["compare:ep/ATC/1"]


def test_default_cells_are_grid_cells():
    """The curated cells come through ``grid_cells``: ep ATC/CR and bt ATC
    at 2 nodes, lu ATC at 1 node, two measured rounds after one warm-up."""
    from repro.analysis.races import DEFAULT_CELLS
    from repro.experiments.grids import GRIDS, grid_cells

    specs = [s for grid, sets in DEFAULT_CELLS for s in grid_cells(GRIDS[grid], sets)]
    assert [(s.scenario, s.params) for s in specs] == [
        ("type_a", {"app_name": app, "scheduler": sched, "n_nodes": n, "rounds": 2,
                    "warmup_rounds": 1})
        for app, sched, n in (("ep", "ATC", 2), ("ep", "CR", 2), ("bt", "ATC", 2),
                              ("lu", "ATC", 1))]


@pytest.mark.parametrize("argv,why", [
    (["races", "--set", "apps=ep"], "repro races: --set needs a GRID"),
    (["races", "compare", "--set", "scheduler=CR"],
     "repro races: compare: key 'scheduler' is set by the grid itself"),
])
def test_cli_races_rejects_bad_cells_before_any_run(argv, why, capsys, monkeypatch):
    from repro.analysis import races
    from repro.cli import main

    monkeypatch.setattr(races, "run_differential", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(why) and err.count("\n") == 1
