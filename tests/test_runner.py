"""Tests for the parallel sweep runner (repro.experiments.runner)."""

import json
import threading

import pytest

from repro.experiments.runner import (
    RunSpec,
    code_salt,
    export_json,
    run_sweep,
    sweep_stats,
)

# Cheap, deterministic cells: each builds its own world + seeded RNG.
CELLS = [
    RunSpec("type_a", dict(app_name="is", scheduler=sched, n_nodes=2,
                           rounds=1, warmup_rounds=0, seed=3))
    for sched in ("CR", "BS", "CS", "ATC")
]


def test_spec_rejects_unknown_scenario():
    with pytest.raises(KeyError):
        RunSpec("no_such_scenario", {})


def test_spec_rejects_unserializable_params():
    with pytest.raises(TypeError):
        RunSpec("type_a", {"app_name": object()})


def test_spec_digest_changes_with_params_and_salt():
    a = RunSpec("type_a", {"app_name": "is", "seed": 0})
    b = RunSpec("type_a", {"app_name": "is", "seed": 1})
    assert a.digest() != b.digest()
    assert a.digest(salt="x") != a.digest(salt="y")
    assert a.digest() == RunSpec("type_a", {"seed": 0, "app_name": "is"}).digest()


def test_default_label_is_informative():
    spec = RunSpec("type_a", {"app_name": "is"})
    assert "type_a" in spec.label and "app_name=is" in spec.label


def test_parallel_results_bit_identical_to_serial(tmp_path):
    serial = run_sweep(CELLS, jobs=1, use_cache=False)
    parallel = run_sweep(CELLS, jobs=4, use_cache=False)
    assert [r.spec.key() for r in serial] == [r.spec.key() for r in parallel]
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert not s.cached and not p.cached
        assert s.value == p.value  # bit-identical cells, any worker count


def test_cache_hit_on_repeat_and_miss_after_change(tmp_path):
    cache = tmp_path / "cache"
    cold = run_sweep(CELLS[:2], jobs=1, cache_dir=cache)
    assert all(not r.cached for r in cold)
    warm = run_sweep(CELLS[:2], jobs=1, cache_dir=cache)
    assert all(r.cached for r in warm)
    assert [r.value for r in warm] == [r.value for r in cold]
    # Changing any config field is a different cell -> cache miss.
    changed = RunSpec("type_a", dict(CELLS[0].params, seed=4))
    (miss,) = run_sweep([changed], jobs=1, cache_dir=cache)
    assert not miss.cached


def test_warm_cache_skips_simulation_work(tmp_path):
    cache = tmp_path / "cache"
    run_sweep(CELLS[:1], jobs=1, cache_dir=cache)
    (warm,) = run_sweep(CELLS[:1], jobs=1, cache_dir=cache)
    assert warm.cached and warm.wall_s == 0.0 and warm.attempts == 1


def test_a_parallel_sweep_leaves_no_executor_thread():
    """A parallel sweep runs each cell in a process of its own and starts
    no executor manager thread for the interpreter's exit hook to join."""
    results = run_sweep(CELLS[:2], jobs=2, use_cache=False)
    assert all(r.ok for r in results)
    assert [t for t in threading.enumerate()
            if type(t).__name__ == "_ExecutorManagerThread"] == []


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    run_sweep(CELLS[:1], jobs=1, cache_dir=cache)
    for f in cache.glob("*.json"):
        f.write_text("{not json", encoding="utf-8")
    (r,) = run_sweep(CELLS[:1], jobs=1, cache_dir=cache)
    assert r.ok and not r.cached


def test_worker_failure_yields_structured_record(tmp_path):
    bad = RunSpec("type_a", {"app_name": "not-a-kernel", "scheduler": "CR", "n_nodes": 2,
                             "uniform_slice_ms": 6})
    specs = [CELLS[0], bad, CELLS[1]]
    results = run_sweep(specs, jobs=2, use_cache=False)
    assert [r.ok for r in results] == [True, False, True]  # sweep survives
    err = results[1].error
    assert err["type"] == "KeyError"
    assert "not-a-kernel" in err["message"]
    assert "Traceback" in err["traceback"]
    assert err["attempts"] == 2  # one retry before giving up
    # Failures are never cached.
    rerun = run_sweep([bad], jobs=1, cache_dir=tmp_path / "cache")
    assert not rerun[0].ok and not rerun[0].cached


def test_progress_callback_sees_every_cell():
    seen = []
    run_sweep(CELLS[:2], jobs=1, use_cache=False,
              progress=lambda done, total, r: seen.append((done, total, r.ok)))
    assert seen == [(1, 2, True), (2, 2, True)]


def test_sweep_stats_and_export(tmp_path):
    results = run_sweep(CELLS[:2], jobs=1, use_cache=False)
    stats = sweep_stats(results)
    assert stats["cells"] == 2 and stats["ok"] == 2 and stats["failed"] == 0
    assert stats["events"] > 0 and stats["wall_s"] > 0
    out = tmp_path / "sweep.json"
    export_json(results, out)
    payload = json.loads(out.read_text())
    assert payload["code_salt"] == code_salt()
    assert len(payload["results"]) == 2
    assert payload["results"][0]["value"]["scheduler"] == "CR"


def test_cli_jobs_matches_serial(tmp_path, capsys):
    from repro.cli import main

    argv = ["run", "sweep", "--set", "apps=is", "--set", "slices=30,6", "--no-cache"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_cli_json_export_and_cache(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "results.json"
    argv = ["run", "compare", "--set", "apps=is", "--set", "schedulers=CR", "--set", "rounds=1",
            "--json", str(out)]
    assert main(argv) == 0
    cold = json.loads(out.read_text())
    assert cold["results"][0]["cached"] is False
    assert main(argv) == 0
    warm = json.loads(out.read_text())
    assert warm["results"][0]["cached"] is True
    assert warm["results"][0]["value"] == cold["results"][0]["value"]
    capsys.readouterr()
