"""Integration tests for the observability layer: engine hooks, bit-identity,
cache-key folding, and the ``repro trace`` / ``repro perf`` CLI verbs."""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.runner import RunSpec, _execute_cell
from repro.experiments.scenarios import run_packet_path_probe, run_type_a
from repro.obs.trace import TraceLog
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Engine trace hook fires on both execution paths (step and run)
# ----------------------------------------------------------------------
def test_trace_hook_fires_in_step_path():
    sim = Simulator()
    seen = []
    sim.trace = lambda t, fn: seen.append(t)
    sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    assert sim.step() and sim.step()
    assert seen == [10, 20]


def test_trace_hook_fires_in_run_path():
    sim = Simulator()
    seen = []
    sim.trace = lambda t, fn: seen.append(t)
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


def test_perf_command_quick(tmp_path, capsys):
    out_dir = tmp_path / "perf"
    rc = main(["perf", "--quick", "--cases", "engine", "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "events/sec" in out or "events per sec" in out
    doc = json.loads((out_dir / "BENCH_perf_engine.json").read_text())
    assert doc["events_per_sec"] > 0 and doc["events"] > 0


def test_perf_command_check_failure(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "cases": {"engine": {"events_per_sec": 1e15}},
    }))
    rc = main(["perf", "--quick", "--cases", "engine",
               "--out", str(tmp_path / "out"), "--check", str(baseline)])
    assert rc == 1
    assert "PERF REGRESSION" in capsys.readouterr().err


def test_perf_command_write_baseline(tmp_path):
    base = tmp_path / "base.json"
    rc = main(["perf", "--quick", "--cases", "engine",
               "--out", str(tmp_path / "out"), "--write-baseline", str(base)])
    assert rc == 0
    doc = json.loads(base.read_text())
    assert doc["version"] == 1 and "engine" in doc["cases"]


def test_perf_command_unknown_case(tmp_path, capsys):
    rc = main(["perf", "--quick", "--cases", "bogus", "--out", str(tmp_path)])
    assert rc == 2
