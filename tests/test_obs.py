"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import SimProfiler
from repro.obs import perfsuite
from repro.obs import trace as obstrace
from repro.obs.trace import TraceLog, chrome_events, records_from_dicts
from repro.sim.engine import Simulator, simulator_hook


# ----------------------------------------------------------------------
# TraceLog ring buffer
# ----------------------------------------------------------------------
def test_tracelog_appends_in_order():
    log = TraceLog(capacity=10)
    for i in range(5):
        log.append("sched.wake", i * 100, {"i": i})
    recs = log.records()
    assert [r.t for r in recs] == [0, 100, 200, 300, 400]
    assert log.total == 5
    assert log.dropped == 0


def test_tracelog_evicts_oldest_when_full():
    log = TraceLog(capacity=3)
    for i in range(7):
        log.append("sched.wake", i, {"i": i})
    recs = log.records()
    # Oldest overwritten: the 3 retained records are the newest, in order.
    assert [r.args["i"] for r in recs] == [4, 5, 6]
    assert log.total == 7
    assert log.dropped == 4
    assert len(log) == 3


def test_tracelog_by_kind_counts_survive_eviction():
    log = TraceLog(capacity=2)
    for i in range(5):
        log.append("spin.episode", i, {})
    log.append("pkt.hop", 5, {})
    assert log.by_kind == {"spin.episode": 5, "pkt.hop": 1}
    s = log.summary()
    assert s["total"] == 6 and s["retained"] == 2 and s["dropped"] == 4
    assert list(s["by_kind"]) == sorted(s["by_kind"])  # deterministic order


def test_tracelog_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TraceLog(capacity=0)


def test_emit_noop_when_inactive():
    assert obstrace.active_log() is None
    assert not obstrace.enabled
    obstrace.emit("sched.wake", 0, x=1)  # must not raise, must not record


def test_activate_routes_emit_and_restores():
    log = TraceLog(capacity=8)
    with log.activate():
        assert obstrace.enabled
        assert obstrace.active_log() is log
        obstrace.emit("sched.wake", 7, vcpu="v0")
    assert not obstrace.enabled
    assert obstrace.active_log() is None
    assert log.total == 1
    assert log.records()[0].to_dict() == {"kind": "sched.wake", "t": 7, "vcpu": "v0"}


def test_activate_nests():
    outer, inner = TraceLog(), TraceLog()
    with outer.activate():
        obstrace.emit("pkt.hop", 1)
        with inner.activate():
            obstrace.emit("pkt.hop", 2)
        obstrace.emit("pkt.hop", 3)
        assert obstrace.enabled
    assert [r.t for r in outer.records()] == [1, 3]
    assert [r.t for r in inner.records()] == [2]


def test_records_from_dicts_roundtrip():
    log = TraceLog()
    log.append("spin.episode", 5, {"vm": "a", "wait_ns": 10})
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
    log.append("sched.dispatch", 1_000, {"node": 0, "pcpu": 1, "vcpu": "vm0.v0",
                                         "vm": "vm0", "slice_ns": 30, "wait_ns": 5})
    log.append("spin.episode", 2_000, {"node": 0, "vm": "vm0",
                                       "spin_kind": "barrier", "wait_ns": 99})
    log.append("pkt.hop", 3_000, {"node": 1, "hop": "send", "src": "a.0",
                                  "dst": "b.0", "nbytes": 64, "tag": 0})
    log.append("vcpu.state", 4_000, {"node": 0, "pcpu": 1, "vcpu": "vm0.v0",
                                     "vm": "vm0", "to_state": "RUNNABLE", "ran_ns": 3_000})
    log.append("sched.steal", 5_000, {"node": 0, "vcpu": "vm0.v1", "vm": "vm0",
                                      "from_rq": 0, "to_rq": 1})
    return log.records()


def test_write_jsonl(tmp_path):
    path = obstrace.write_jsonl(_sample_records(), tmp_path / "t.jsonl")
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
    path = obstrace.write_chrome_trace(_sample_records(), tmp_path / "t.trace.json")
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) > 5


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.read() == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set():
    g = Gauge("x")
    assert g.read() == 0
    g.set(3.5)
    assert g.read() == 3.5


def test_histogram_buckets_and_overflow():
    h = Histogram("x", bounds=[10, 100])
    for v in (5, 10, 11, 500):
        h.observe(v)
    r = h.read()
    assert r["bounds"] == [10, 100]
    assert r["counts"] == [2, 1, 1]  # <=10, <=100, overflow
    assert r["count"] == 4 and r["sum"] == 526


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("x", bounds=[])
    with pytest.raises(ValueError):
        Histogram("x", bounds=[10, 5])


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c = reg.counter("a")
    assert reg.counter("a") is c
    with pytest.raises(TypeError):
        reg.gauge("a")
    with pytest.raises(ValueError):
        reg.histogram("h")  # first use needs bounds
    h = reg.histogram("h", bounds=[1])
    assert reg.histogram("h") is h


def test_registry_callback_and_snapshot_order():
    reg = MetricsRegistry()
    reg.counter("z.first").inc(1)
    state = {"v": 10}
    reg.register("a.second", lambda: state["v"])
    reg.gauge("m.third").set(2)
    snap = reg.snapshot()
    assert list(snap) == ["z.first", "a.second", "m.third"]  # registration order
    assert snap["a.second"] == 10
    state["v"] = 11
    assert reg.snapshot()["a.second"] == 11  # live, not copied
    with pytest.raises(ValueError):
        reg.register("z.first", lambda: 0)


def test_registry_prefix_and_merge():
    inner = MetricsRegistry()
    inner.counter("hits").inc(3)
    outer = MetricsRegistry()
    outer.gauge("own").set(1)
    outer.merge(inner, prefix="vm.a.")
    assert outer.snapshot("vm.a.") == {"vm.a.hits": 3}
    inner.counter("hits").inc()  # merged metrics stay live
    assert outer.snapshot()["vm.a.hits"] == 4
    with pytest.raises(ValueError):
        outer.merge(inner, prefix="vm.a.")


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


def test_profiler_tracks_heap_depth_and_detach():
    sim = Simulator()
    prof = SimProfiler(sim, clock=FakeClock())
    for i in range(5):
        sim.at(i + 1, lambda: None)
    sim.run()
    assert prof.max_heap_depth >= 4
    prof.detach()
    assert sim.profiler is None
    sim.at(100, lambda: None)
    sim.run()
    assert prof.report()["events"] == 6  # counters still readable after detach


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
    assert [s1.profiler, s2.profiler, s3.profiler] == profs
    assert engine_mod.on_simulator_created is before
    assert Simulator().profiler is None
    assert len(calls) == 4


# ----------------------------------------------------------------------
# Perf suite plumbing (no simulation: synthetic results)
# ----------------------------------------------------------------------
def _fake_result(name, eps):
    return {"name": name, "events": 100, "events_per_sec": eps, "wall_s": 1.0,
            "callback_s": 0.5, "categories": {}, "max_heap_depth": 1,
            "cancelled_popped": 0, "cancel_waste_ratio": 0.0}


def test_check_baseline_passes_within_tolerance(tmp_path):
    results = [_fake_result("engine", 80_000)]
    base = tmp_path / "baseline.json"
    perfsuite.write_baseline([_fake_result("engine", 100_000)], base)
    assert perfsuite.check_baseline(results, base, tolerance=0.30) == []


def test_check_baseline_fails_on_regression(tmp_path):
    results = [_fake_result("engine", 60_000)]
    base = tmp_path / "baseline.json"
    perfsuite.write_baseline([_fake_result("engine", 100_000)], base)
    failures = perfsuite.check_baseline(results, base, tolerance=0.30)
    assert len(failures) == 1
    assert "engine" in failures[0]


def test_check_baseline_reports_missing_case(tmp_path):
    base = tmp_path / "baseline.json"
    perfsuite.write_baseline([_fake_result("engine", 100_000)], base)
    failures = perfsuite.check_baseline([_fake_result("newcase", 1.0)], base)
    assert any("newcase" in f for f in failures)


def test_write_results_emits_bench_files(tmp_path):
    paths = perfsuite.write_results([_fake_result("engine", 1.0)], tmp_path)
    assert [p.name for p in paths] == ["BENCH_perf_engine.json"]
    doc = json.loads(paths[0].read_text())
    assert doc["name"] == "engine" and doc["events_per_sec"] == 1.0


def test_run_suite_rejects_unknown_case():
    with pytest.raises(KeyError):
        perfsuite.run_suite(["nope"])


def test_checked_in_baseline_covers_all_cases():
    doc = json.loads(open("benchmarks/perf/baseline.json").read())
    assert doc["version"] == perfsuite.BASELINE_VERSION
    assert set(doc["cases"]) == set(perfsuite.CASES)
