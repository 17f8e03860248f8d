"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``.

Each workload runs in this process at a tiny horizon passed straight to
the workload table, so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
from workloads import WORKLOADS, nonfinite

TINY_HORIZON_S = {"typea32_atc": 0.05, "typea32_cr": 0.05, "service_churn": 1.0, "dfrs_hybrid": 0.5}


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """``name -> (untraced record, traced record, Chrome trace path)``."""
    out = {}
    for name, horizon_s in TINY_HORIZON_S.items():
        path = tmp_path_factory.mktemp("trace") / f"trace_{name}.json"
        plain = run.run_rep(name, 0, horizon_s=horizon_s)
        traced = run.run_rep(name, 0, "traced", trace_path=path, horizon_s=horizon_s)
        out[name] = (plain, traced, path)
    return out


def test_every_workload_is_measured():
    assert set(TINY_HORIZON_S) == set(WORKLOADS)
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY_HORIZON_S))
def test_traced_rep_is_bit_identical(reps, name):
    plain, traced, _ = reps[name]
    assert plain["events"] > 0
    assert (traced["digest"], traced["events"]) == (plain["digest"], plain["events"])


def test_host_speed_slices_leave_results_bit_identical():
    from repro.experiments import scenarios

    # Long enough (~0.5 s) for slices to land inside the simulation.
    sampled = run.run_rep("dfrs_hybrid", 0, horizon_s=2.0)
    assert sampled["slices"] > 10
    workload = WORKLOADS["dfrs_hybrid"]
    result = getattr(scenarios, workload.scenario)(**workload.params(0, horizon_s=2.0))
    assert run.result_digest(result) == sampled["digest"]


@pytest.mark.parametrize("name", list(TINY_HORIZON_S))
def test_self_times_fit_inside_the_run(reps, name):
    traced = reps[name][1]
    run_s = traced["layers"]["sim.run"]["total_s"]
    assert traced["layers"]["sim.run"]["calls"] == 1
    assert 0 < traced["run_subtree_self_s"] <= run_s * (1 + 1e-9)
    assert traced["layers"]["vmm.dispatch"]["calls"] > 0


@pytest.mark.parametrize("name", list(TINY_HORIZON_S))
def test_chrome_trace_spans(reps, name):
    trace = json.loads(reps[name][2].read_text())
    spans = trace["traceEvents"]
    assert 0 < len(spans) <= trace["otherData"]["span_cap"]
    ids = {s["args"]["id"] for s in spans}
    assert all(s["ph"] == "X" and s["dur"] >= 0 for s in spans)
    roots = [s for s in spans if s["args"]["parent"] is None]
    assert "sim.run" in {s["name"] for s in roots}
    # Sampling keeps whole trees: every kept span's parent is kept too.
    assert all(s["args"]["parent"] in ids for s in spans if s not in roots)


def test_span_sample_stays_bounded():
    from tracer import Tracer

    tracer = Tracer(span_cap=50)
    solve = tracer._wrap("dfrs.solve_cluster", lambda: None)
    control = tracer._wrap("atc.on_period", lambda: solve())
    outer = tracer._wrap("sim.run", lambda: [control() for _ in range(1000)])
    outer()
    kept = tracer.roots + tracer.sample
    assert len(kept) <= 50
    assert tracer.stats["dfrs.solve_cluster"][0] == 1000
    assert tracer.stride > 1
    assert all(tree % tracer.stride == 0 for *_, tree in tracer.sample)
    ids = {s[3] for s in kept}
    assert all(s[4] in ids for s in tracer.sample)


def test_metric_names_match_benchmark_json(reps):
    spec = run.load_spec()
    plain, traced, _ = reps["service_churn"]
    assert set(run.e2e_values([plain])) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.layer_values([plain, traced])) == {m["name"] for m in spec["per_layer"]}


def test_host_time_scales_by_the_neighbouring_samples():
    n = hostspeed.NOMINAL_S
    # Slices at 1 s and 3 s, the first at nominal speed, the second half as fast.
    samples = [(1.0, n), (3.0, 2 * n)]
    assert hostspeed.nominal_s(samples, 0.0, 1.0) == pytest.approx(1.0)
    gap = 2.0 - n
    assert hostspeed.nominal_s(samples, 0.0, 5.0) == pytest.approx(1.0 + gap / 1.5 + (2.0 - 2 * n) / 2)
    # A window between two slices sees only its own stretch.
    assert hostspeed.nominal_s(samples, 1.5, 2.5) == pytest.approx(1.0 / 1.5)


def test_sampler_slices_while_active_and_stops_after():
    with hostspeed.Sampler() as sampler:
        t_end = run._now() + 10 * hostspeed.PERIOD_S
        while run._now() < t_end:
            pass
    taken = len(sampler.samples)
    assert taken >= 4  # entry, exit and some in between
    assert all(d > 0 for _, d in sampler.samples)
    t_end = run._now() + 3 * hostspeed.PERIOD_S
    while run._now() < t_end:
        pass
    assert len(sampler.samples) == taken


def test_checks_reject_bad_results():
    bad = {"a": [1.0, float("nan")], "b": {"c": float("inf")}, "d": 3}
    assert nonfinite(bad) == ["result.a[1] = nan", "result.b.c = inf"]
    assert len(WORKLOADS["dfrs_hybrid"].check({"dfrs": {"violations": 2, "solves": 0}}, {})) == 2
    assert WORKLOADS["typea32_atc"].check({"rounds_measured": 1}, {"vms": 4, "vcpus": 32})


def _results(tmp_path, fname, wall_s, failed_share=0.0):
    spec = run.load_spec()
    e2e = {m["name"]: {**run.summary([1.0] * 5), "unit": m["unit"]} for m in spec["end_to_end"]}
    e2e["wall_s"] = {**run.summary([wall_s] * 5), "unit": "s"}
    workload = {"failed_share": failed_share, "result_digest": "d", "events": 1, "end_to_end": e2e}
    path = tmp_path / fname
    path.write_text(json.dumps({"workloads": {"typea32_atc": workload}}))
    return path


def test_compare_flags_a_20_percent_wall_regression(tmp_path, capsys):
    a = _results(tmp_path, "a.json", 1.0)
    assert run.compare(a, _results(tmp_path, "b.json", 1.2)) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(a, _results(tmp_path, "c.json", 1.02)) == 0
    assert run.compare(a, _results(tmp_path, "d.json", 1.0, failed_share=0.2)) == 1


def test_compare_marks_overlapping_quartiles_unresolved(tmp_path, capsys):
    a, b = _results(tmp_path, "a.json", 1.0), _results(tmp_path, "b.json", 1.0)
    doc = json.loads(b.read_text())
    doc["workloads"]["typea32_atc"]["end_to_end"]["wall_s"] = run.summary([0.9, 1.0, 1.0, 1.5, 1.6])
    b.write_text(json.dumps(doc))
    assert run.compare(a, b) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_passes_identical_files(tmp_path, capsys):
    a = _results(tmp_path, "a.json", 1.0)
    assert run.compare(a, a) == 0
    assert "WORSE" not in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result line."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dfrs_hybrid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
