"""Sweep-runner graceful degradation: watchdogs, timeouts, crash recovery."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.experiments.runner import (
    SCENARIOS,
    CellTimeoutError,
    RunSpec,
    WorkerCrashError,
    run_sweep,
    sweep_stats,
)
from repro.sim.engine import Simulator
from repro.sim.units import MSEC, USEC, ns_from_ms


def run_fault_probe(mode: str = "ok", seed: int = 0, hang_s: float = 30.0,
                    horizon_ms: float = 50.0) -> dict:
    """The runner's chaos test double: a tiny simulation that can
    misbehave on cue.

    Modes: ``ok`` runs cleanly; ``raise`` throws (retryable failure path);
    ``exit`` kills the worker process outright (``os._exit``, so no
    exception propagates — exercises worker-crash recovery);
    ``hang`` sleeps ``hang_s`` host seconds (cell-timeout path);
    ``runaway`` floods the simulator with 1 µs self-rescheduling ticks so
    only a watchdog or the horizon stops it.
    """
    if mode == "raise":
        raise RuntimeError(f"fault_probe: injected failure (seed={seed})")
    if mode == "exit":
        os._exit(17)  # simulated worker crash: bypasses all exception handling
    if mode == "hang":
        time.sleep(hang_s)
    sim = Simulator()
    ticks = 0

    def tick() -> None:
        nonlocal ticks
        ticks += 1
        sim.after(1 * USEC, tick, cat="probe")

    sim.after(0, tick, cat="probe")
    sim.run(until=ns_from_ms(horizon_ms) if mode == "runaway" else ns_from_ms(1.0))
    return {"mode": mode, "seed": seed, "ticks": ticks, "sim_time_ns": sim.now,
            "events": sim.events_processed}


# Registered at import, before any sweep forks its workers: they inherit
# the registry.  A bare function has no declared keys, so RunSpec passes
# its params through unchecked.
SCENARIOS["fault_probe"] = run_fault_probe

# A cheap healthy cell the degraded sweeps must preserve.
OK = RunSpec("fault_probe", {"mode": "ok", "seed": 5}, label="probe:ok")


# ----------------------------------------------------------------------
# fault_probe scenario (the runner's chaos test double)
# ----------------------------------------------------------------------
def test_fault_probe_ok_is_deterministic():
    (a,) = run_sweep([OK], jobs=1, use_cache=False)
    (b,) = run_sweep([OK], jobs=1, use_cache=False)
    assert a.ok and a.value == b.value
    assert a.value["ticks"] > 0 and a.value["sim_time_ns"] > 0


def test_fault_probe_raise_is_retried_then_reported():
    bad = RunSpec("fault_probe", {"mode": "raise"})
    (r,) = run_sweep([bad], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "RuntimeError"
    assert r.error["attempts"] == 2  # in-worker exception: one retry


# ----------------------------------------------------------------------
# Simulated-time watchdog (RunSpec.max_sim_events / max_sim_ns)
# ----------------------------------------------------------------------
def test_watchdog_event_budget_fails_runaway_without_retry():
    runaway = RunSpec("fault_probe", {"mode": "runaway", "horizon_ms": 50.0},
                      max_sim_events=2000)
    (r,) = run_sweep([runaway], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "WatchdogExceeded"
    assert "event budget" in r.error["message"]
    assert r.error["attempts"] == 1  # deterministic: no retry


def test_watchdog_sim_time_budget():
    runaway = RunSpec("fault_probe", {"mode": "runaway", "horizon_ms": 50.0},
                      max_sim_ns=1 * MSEC)
    (r,) = run_sweep([runaway], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "WatchdogExceeded"
    assert "simulated time" in r.error["message"]


def test_watchdog_within_budget_is_invisible():
    plain = RunSpec("fault_probe", {"mode": "ok", "seed": 5})
    guarded = RunSpec("fault_probe", {"mode": "ok", "seed": 5},
                      max_sim_events=10_000_000)
    (a,) = run_sweep([plain], jobs=1, use_cache=False)
    (b,) = run_sweep([guarded], jobs=1, use_cache=False)
    assert a.ok and b.ok and a.value == b.value


def test_watchdog_folds_into_cache_key_only_when_set():
    plain = RunSpec("fault_probe", {"mode": "ok"})
    guarded = RunSpec("fault_probe", {"mode": "ok"}, max_sim_events=100)
    assert "max_sim_events" not in plain.key()
    assert '"max_sim_events":100' in guarded.key()
    assert plain.digest("s") != guarded.digest("s")
    assert "max_sim_events" not in plain.to_dict()
    assert guarded.to_dict()["max_sim_events"] == 100


# ----------------------------------------------------------------------
# Host-side degradation: cell timeouts and worker crashes
# ----------------------------------------------------------------------
def test_cell_timeout_kills_hang_and_preserves_neighbours():
    hang = RunSpec("fault_probe", {"mode": "hang", "hang_s": 30.0}, label="probe:hang")
    results = run_sweep([OK, hang, OK], jobs=2, use_cache=False, cell_timeout_s=1.5)
    assert [r.ok for r in results] == [True, False, True]
    err = results[1].error
    assert err["type"] == CellTimeoutError.__name__
    assert "host budget" in err["message"]
    assert results[1].attempts == 1  # a hang reproduces: no retry
    stats = sweep_stats(results)
    assert stats["timeouts"] == 1 and stats["ok"] == 2


HANG_3S = RunSpec("fault_probe", {"mode": "hang", "hang_s": 3.0}, label="probe:hang3")


@pytest.mark.parametrize("jobs, specs", [
    (1, [HANG_3S]),      # a serial sweep
    (2, [HANG_3S]),      # a parallel sweep with one uncached cell
    (1, [HANG_3S, OK]),  # a serial sweep of two cells
], ids=["serial", "parallel-one-cell", "serial-two-cells"])
def test_cell_timeout_holds_where_a_sweep_would_run_inline(jobs, specs):
    results = run_sweep(specs, jobs=jobs, use_cache=False, cell_timeout_s=1.0)
    assert results[0].error["type"] == CellTimeoutError.__name__
    assert results[0].wall_s < 2.5
    assert [r.ok for r in results[1:]] == [True] * (len(specs) - 1)


INTERRUPTED_SWEEP = textwrap.dedent("""
    import os, signal, threading, time
    from repro.experiments.runner import SCENARIOS, RunSpec, run_sweep

    def probe(hang_s=0.0):
        time.sleep(hang_s)
        return {"hang_s": hang_s}

    SCENARIOS["probe"] = probe
    specs = [RunSpec("probe", {}), RunSpec("probe", {"hang_s": 30.0})]
    # Ctrl-C at the sweep's own process, once the healthy cell has settled
    threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()
    try:
        run_sweep(specs, jobs=2, use_cache=False)
    except KeyboardInterrupt:
        print(time.monotonic(), flush=True)
""")


def test_an_interrupted_sweep_kills_its_running_cells():
    """The 30 s hang in flight when the sweep is interrupted must not hold
    the interpreter's exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", INTERRUPTED_SWEEP], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    exited = time.monotonic()  # repro: ignore[RPR001]  (host clock)
    assert proc.returncode == 0, proc.stderr
    assert exited - float(proc.stdout) < 5.0


def test_an_exception_from_progress_is_not_a_cell_crash():
    """It propagates at once; the cell that settled is not run again."""
    seen = []

    def progress(done, total, result):
        seen.append(result.ok)
        raise RuntimeError("progress failed")

    with pytest.raises(RuntimeError, match="progress failed"):
        run_sweep([OK, HANG_3S], jobs=2, use_cache=False, progress=progress)
    assert seen == [True]


def test_worker_crash_is_retried_then_reported():
    crash = RunSpec("fault_probe", {"mode": "exit"}, label="probe:exit")
    results = run_sweep([OK, crash, OK], jobs=2, use_cache=False, retries=1)
    assert [r.ok for r in results] == [True, False, True]
    err = results[1].error
    assert err["type"] == WorkerCrashError.__name__
    assert results[1].attempts == 2  # one crash mark, one retry, then fail
    stats = sweep_stats(results)
    assert stats["worker_crashes"] == 1 and stats["ok"] == 2


def test_pool_break_collateral_does_not_fail_innocent_cells():
    """Regression: when cells shared a process pool, a dying worker broke
    it and failed every concurrent cell, burning the innocent cells' retry
    budget on collateral crash marks.  They must survive, however often
    the guilty cell re-crashes."""
    crash = RunSpec("fault_probe", {"mode": "exit"}, label="probe:exit")
    oks = [
        RunSpec("fault_probe", {"mode": "ok", "seed": s}, label=f"probe:ok{s}")
        for s in range(4)
    ]
    specs = [oks[0], oks[1], crash, oks[2], oks[3]]
    results = run_sweep(specs, jobs=4, use_cache=False, retries=1)
    assert [r.ok for r in results] == [True, True, False, True, True]
    assert results[2].error["type"] == WorkerCrashError.__name__
    assert sweep_stats(results)["worker_crashes"] == 1


def test_crashed_sweep_results_match_clean_run():
    """Healthy cells of a sweep with a crashing cell are bit-identical to
    the same cells run serially."""
    crash = RunSpec("fault_probe", {"mode": "exit"})
    degraded = run_sweep([OK, crash], jobs=2, use_cache=False)
    (clean,) = run_sweep([OK], jobs=1, use_cache=False)
    salvaged = next(r for r in degraded if r.ok)
    assert salvaged.value == clean.value
