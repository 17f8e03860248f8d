"""Integration tests for the observability layer: engine hooks, bit-identity,
cache-key folding, and the ``repro trace`` CLI verb."""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.runner import RunSpec, _execute_cell
from repro.experiments.scenarios import run_packet_path_probe, run_type_a
from repro.obs.trace import TraceLog, chrome_events, records_from_dicts
from repro.sim.engine import Simulator
from repro.sim.units import MSEC


# ----------------------------------------------------------------------
# Engine event observers fire on both execution paths (step and run)
# ----------------------------------------------------------------------
def test_trace_hook_fires_in_step_path():
    sim = Simulator()
    seen = []
    sim.observe(lambda t, fn, cat, depth: seen.append(t))
    sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    assert sim.step() and sim.step()
    assert seen == [10, 20]


def test_trace_hook_fires_in_run_path():
    sim = Simulator()
    seen = []
    sim.observe(lambda t, fn, cat, depth: seen.append(t))
    sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    sim.run()
    assert seen == [10, 20]


# ----------------------------------------------------------------------
# Traced / profiled runs are bit-identical to plain runs
# ----------------------------------------------------------------------
def _type_a(**extra):
    return run_type_a("is", "ATC", 2, rounds=1, warmup_rounds=0,
                      horizon_s=4.0, seed=3, **extra)


def test_traced_type_a_bit_identical():
    plain = _type_a()
    traced = _type_a(trace=True)
    tr = traced.pop("trace")
    assert traced == plain
    # and the trace actually observed the run
    assert tr["total"] > 0
    assert len(tr["by_kind"]) >= 5


def test_profiled_type_a_bit_identical():
    plain = _type_a()
    profiled = _type_a(profile=True)
    prof = profiled.pop("profile")
    assert profiled == plain
    assert prof["events"] > 0 and prof["events_per_sec"] > 0


def test_traced_probe_bit_identical():
    plain = run_packet_path_probe("CR", n_probes=5, horizon_s=5.0)
    traced = run_packet_path_probe("CR", n_probes=5, horizon_s=5.0, trace=True)
    tr = traced.pop("trace")
    assert traced == plain
    assert tr["by_kind"].get("pkt.hop", 0) > 0


def test_trace_capacity_bounds_retained_records():
    traced = _type_a(trace=True, trace_capacity=16)
    tr = traced["trace"]
    assert tr["retained"] == 16
    assert tr["dropped"] == tr["total"] - 16
    assert len(tr["records"]) == 16


# ----------------------------------------------------------------------
# A trace belongs to one world
# ----------------------------------------------------------------------
def _is_world(seed: int, trace: bool = True) -> CloudWorld:
    world = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC", seed=seed, trace=trace))
    for k in range(2):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        world.add_npb("is", vc.vms, rounds=1, warmup_rounds=0)
    return world


def _dicts(world: CloudWorld) -> list[dict]:
    return [r.to_dict() for r in world.tracelog.records()]


def test_interleaved_traced_worlds_keep_separate_logs():
    alone = {}
    for seed in (1, 2):
        w = _is_world(seed)
        w.run(horizon_ns=50 * MSEC)
        w.run(horizon_ns=50 * MSEC)
        alone[seed] = _dicts(w)
    a, b = _is_world(1), _is_world(2)
    a.run(horizon_ns=50 * MSEC)
    b.run(horizon_ns=100 * MSEC)
    a.run(horizon_ns=50 * MSEC)
    assert a.tracelog.dropped == b.tracelog.dropped == 0
    assert _dicts(a) == alone[1] and _dicts(b) == alone[2]
    assert alone[1] != alone[2]
    # the start-up wakes and first dispatches open each log
    assert _dicts(a)[0]["t"] == 0 and _dicts(b)[0]["t"] == 0


def test_untraced_world_records_nothing():
    traced = _is_world(1)
    traced.start()
    before = _dicts(traced)
    plain = _is_world(1, trace=False)
    plain.run(horizon_ns=50 * MSEC)
    assert plain.tracelog is None and plain.sim.record is None
    # nothing the plain run emits lands in the other world's log
    assert _dicts(traced) == before and before


def test_chrome_pcpu_tracks_open_with_a_dispatch():
    tr = _type_a(trace=True)["trace"]
    assert tr["dropped"] == 0
    phases: dict[tuple, list[str]] = {}
    for e in chrome_events(records_from_dicts(tr["records"])):
        if e["ph"] in ("B", "E"):
            phases.setdefault((e["pid"], e["tid"]), []).append(e["ph"])
    assert len(phases) == 16  # 2 nodes x 8 PCPUs
    for track in phases.values():
        assert track[0] == "B"
        assert all(ph == "BE"[i % 2] for i, ph in enumerate(track))


# ----------------------------------------------------------------------
# RunSpec cache-key folding (same pattern as sanitize)
# ----------------------------------------------------------------------
def test_runspec_trace_profile_fold_into_key_only_when_set():
    params = {"app_name": "is", "scheduler": "CR", "n_nodes": 2}
    plain = RunSpec("type_a", params)
    traced = RunSpec("type_a", dict(params, trace=True))
    profiled = RunSpec("type_a", dict(params, profile=True))
    assert len({plain.digest(), traced.digest(), profiled.digest()}) == 3
    assert '"trace":true' in traced.key()
    assert "trace" not in plain.key() and "profile" not in plain.key()
    d = traced.to_dict()
    assert d["params"]["trace"] is True and "profile" not in d["params"]


def test_execute_cell_attaches_trace():
    spec = RunSpec("type_a", {"app_name": "is", "scheduler": "CR", "n_nodes": 2,
                              "rounds": 1, "warmup_rounds": 0, "horizon_s": 4.0,
                              "trace": True})
    result = _execute_cell(spec)
    assert result["ok"]
    assert result["value"]["trace"]["total"] > 0


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_trace_command(tmp_path, capsys):
    prefix = tmp_path / "tr"
    rc = main(["trace", "--app", "is", "--scheduler", "ATC", "--slice", "30",
               "--horizon", "4", "--out", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sched.dispatch" in out and "total" in out

    jsonl = (tmp_path / "tr.jsonl").read_text().splitlines()
    assert jsonl
    kinds = {json.loads(line)["kind"] for line in jsonl}
    assert len(kinds) >= 5
    assert kinds <= set(TraceLog.KINDS)

    doc = json.loads((tmp_path / "tr.trace.json").read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"B", "E", "M"} <= phases
