"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs.profiler import SimProfiler
from repro.obs.trace import (
    TraceLog,
    chrome_events,
    records_from_dicts,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.engine import Simulator, simulator_hook
from repro.sim.units import USEC


# ----------------------------------------------------------------------
# TraceLog ring buffer
# ----------------------------------------------------------------------
def test_tracelog_appends_in_order():
    log = TraceLog(capacity=10)
    for i in range(5):
        log.record("sched.wake", i * 100, i=i)
    recs = log.records()
    assert [r.t for r in recs] == [0, 100, 200, 300, 400]
    assert log.total == 5
    assert log.dropped == 0


def test_tracelog_evicts_oldest_when_full():
    log = TraceLog(capacity=3)
    for i in range(7):
        log.record("sched.wake", i, i=i)
    recs = log.records()
    # Oldest overwritten: the 3 retained records are the newest, in order.
    assert [r.args["i"] for r in recs] == [4, 5, 6]
    assert log.total == 7
    assert log.dropped == 4
    assert len(log) == 3


def test_tracelog_by_kind_counts_survive_eviction():
    log = TraceLog(capacity=2)
    for i in range(5):
        log.record("spin.episode", i)
    log.record("pkt.hop", 5)
    assert log.by_kind == {"spin.episode": 5, "pkt.hop": 1}
    s = log.summary()
    assert s["total"] == 6 and s["retained"] == 2 and s["dropped"] == 4
    assert list(s["by_kind"]) == sorted(s["by_kind"])  # deterministic order


def test_tracelog_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TraceLog(capacity=0)


def test_records_from_dicts_roundtrip():
    log = TraceLog()
    log.record("spin.episode", 5, vm="a", wait_ns=10)
    dicts = [r.to_dict() for r in log.records()]
    back = records_from_dicts(dicts)
    assert back[0].kind == "spin.episode"
    assert back[0].t == 5
    assert back[0].args == {"vm": "a", "wait_ns": 10}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_records():
    log = TraceLog()
    log.record("sched.dispatch", 1_000, node=0, pcpu=1, vcpu="vm0.v0",
               vm="vm0", slice_ns=30, wait_ns=5)
    log.record("spin.episode", 2_000, node=0, vm="vm0", spin_kind="barrier", wait_ns=99)
    log.record("pkt.hop", 3_000, node=1, hop="send", src="a.0", dst="b.0", nbytes=64, tag=0)
    log.record("vcpu.state", 4_000, node=0, pcpu=1, vcpu="vm0.v0",
               vm="vm0", to_state="RUNNABLE", ran_ns=3 * USEC)
    log.record("sched.steal", 5_000, node=0, vcpu="vm0.v1", vm="vm0", from_rq=0, to_rq=1)
    return log.records()


def test_write_jsonl(tmp_path):
    path = write_jsonl(_sample_records(), tmp_path / "t.jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["kind"] == "sched.dispatch" and first["t"] == 1_000
    # every line parses and carries kind + t
    for line in lines:
        d = json.loads(line)
        assert "kind" in d and "t" in d


def test_chrome_events_schema():
    events = chrome_events(_sample_records())
    for e in events:
        assert e["ph"] in ("B", "E", "i", "M")
        assert set(e) >= {"name", "ph", "pid", "tid"}
        if e["ph"] != "M":
            assert isinstance(e["ts"], float)
    # B/E pair on the same (pid, tid) track, in order
    b = next(e for e in events if e["ph"] == "B")
    en = next(e for e in events if e["ph"] == "E")
    assert (b["pid"], b["tid"]) == (en["pid"], en["tid"]) == (0, 1)
    assert b["ts"] == 1.0 and en["ts"] == 4.0  # ns -> us
    # instants are thread-scoped
    for e in events:
        if e["ph"] == "i":
            assert e["s"] == "t"
    # metadata names every track used
    named = {(e["pid"], e["tid"]) for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
    used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
    assert used <= named


def test_write_chrome_trace_file(tmp_path):
    path = write_chrome_trace(_sample_records(), tmp_path / "t.trace.json")
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) > 5


# ----------------------------------------------------------------------
# SimProfiler (injectable clock => deterministic)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5  # every reading advances half a second
        return self.t


def test_profiler_categories_and_report():
    sim = Simulator()
    prof = SimProfiler(sim, clock=FakeClock())
    sim.at(10, lambda: None, cat="a")
    sim.at(20, lambda: None, cat="a")
    sim.at(30, lambda: None)  # uncategorized
    ev = sim.at(40, lambda: None, cat="dead")
    ev.cancel()
    sim.run()
    rep = prof.report()
    assert rep["events"] == 3
    assert rep["cancelled_popped"] == 1
    assert rep["cancel_waste_ratio"] == pytest.approx(0.25)
    assert rep["categories"]["a"]["calls"] == 2
    assert rep["categories"]["uncat"]["calls"] == 1
    # FakeClock: each run_event costs exactly 0.5 fake seconds of callback
    assert rep["callback_s"] == pytest.approx(1.5)
    assert rep["events_per_sec"] > 0
    assert list(rep["categories"]) == sorted(rep["categories"])


def test_profiler_tracks_heap_depth():
    sim = Simulator()
    prof = SimProfiler(sim, clock=FakeClock())
    for i in range(5):
        sim.at(i + 1, lambda: None)
    sim.run()
    assert prof.max_heap_depth >= 4
    assert prof.report()["events"] == 5


def test_simulator_hook_chains_in_order_and_restores():
    from repro.sim import engine as engine_mod

    before = engine_mod.on_simulator_created
    calls = []
    profs = []

    def attach_profiler(sim):
        calls.append(("outer", sim))
        profs.append(SimProfiler(sim, clock=FakeClock()))

    with simulator_hook(attach_profiler):
        s1 = Simulator()
        with pytest.raises(RuntimeError, match="boom"):
            with simulator_hook(lambda sim: calls.append(("inner", sim))):
                s2 = Simulator()
                raise RuntimeError("boom")
        # the inner hook is gone after the exception; the outer one stays
        s3 = Simulator()
    assert calls == [("outer", s1), ("outer", s2), ("inner", s2), ("outer", s3)]
    assert [p.sim for p in profs] == [s1, s2, s3]
    assert [s.observers for s in (s1, s2, s3)] == [[p._begin] for p in profs]
    assert engine_mod.on_simulator_created is before
    assert Simulator().observers is None
    assert len(calls) == 4
