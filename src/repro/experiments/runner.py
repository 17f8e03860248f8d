"""Parallel sweep execution: fan independent simulation cells over workers.

Every figure the reproduction regenerates is a sweep over independent,
deterministic cells (scheduler x app x scale x slice).  Each cell owns its
own :class:`~repro.sim.engine.Simulator` and seeded
:class:`~repro.sim.rng.SimRNG`, so cells can run in any order on any
number of processes and still produce bit-identical results — parallelism
here is a matter of not sharing state, not of luck.

The moving parts:

* :class:`RunSpec` — a picklable description of one cell: a scenario name
  from :data:`SCENARIOS` plus JSON-serializable keyword arguments.
* :class:`RunResult` — the outcome of one cell: the scenario's result dict
  on success, or a structured error record (type, message, traceback,
  attempts) on failure.  A failing cell never aborts the sweep.
* :func:`run_sweep` — executes a list of specs, serially (``jobs=1``) or
  over a ``ProcessPoolExecutor`` (``jobs=N``), consulting an on-disk
  result cache under ``.repro_cache/`` keyed by a content hash of the
  spec plus a code-version salt (any change to ``repro``'s sources
  invalidates every cached cell).
* :func:`sweep_stats` / :func:`export_json` — wall-clock and
  events-processed aggregates, and machine-readable result dumps.

Typical use::

    specs = [RunSpec("type_a", {"app_name": a, "scheduler": s, "n_nodes": 2})
             for a in ("lu", "is") for s in ("CR", "ATC")]
    results = run_sweep(specs, jobs=4)
    for r in results:
        print(r.spec.label, r.value["mean_round_ns"] if r.ok else r.error)
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from repro.analysis.sanitizer import SanitizerViolationError
from repro.experiments import scenarios
from repro.sim.engine import WatchdogExceeded, install_watchdog, simulator_hook

__all__ = [
    "SCENARIOS",
    "RunSpec",
    "RunResult",
    "WorkerCrashError",
    "CellTimeoutError",
    "run_sweep",
    "sweep_stats",
    "export_json",
    "salvage_report",
    "write_salvage",
    "default_cache_dir",
    "code_salt",
]

#: Scenario registry: every cell names one of these builders.  Keeping the
#: callable out of the spec keeps specs picklable and content-hashable.
SCENARIOS: dict[str, Callable[..., dict]] = {
    "type_a": scenarios.run_type_a,
    "table1_cell": scenarios.run_table1_cell,
    "small_mix": scenarios.run_small_mix,
    "type_b": scenarios.run_type_b,
    "type_b_mixed": scenarios.run_type_b_mixed,
    "packet_path_probe": scenarios.run_packet_path_probe,
    "migration_rebalance": scenarios.run_migration_rebalance,
    "service": scenarios.run_service,
    "dfrs_compare": scenarios.run_dfrs_compare,
    "attack": scenarios.run_attack,
}


class WorkerCrashError(RuntimeError):
    """A sweep worker process died (segfault, OOM kill, ``os._exit``).

    Never raised: used as the ``error["type"]`` of the structured failure
    record once a cell's bounded crash-retry budget is exhausted.
    """


class CellTimeoutError(RuntimeError):
    """A cell exceeded the host-side ``cell_timeout_s`` budget.

    Never raised: used as the ``error["type"]`` of the structured failure
    record.  Timeouts are not retried — a hung cell hangs again.
    """

_CACHE_VERSION = 1
_code_salt_memo: Optional[str] = None


def default_cache_dir() -> Path:
    """The sweep result cache root (override with ``REPRO_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def code_salt() -> str:
    """Content hash of every ``repro`` source file.

    Folded into each cell's cache key so that *any* change to the
    simulator invalidates *every* cached result — simulation outputs
    depend on the whole code path, not just the spec.
    """
    global _code_salt_memo
    if _code_salt_memo is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for p in sorted(root.rglob("*.py")):
            h.update(str(p.relative_to(root)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
        _code_salt_memo = h.hexdigest()[:16]
    return _code_salt_memo


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation cell.

    ``scenario`` names an entry of :data:`SCENARIOS`; ``params`` are its
    keyword arguments and must be JSON-serializable (they form the cache
    key).  They pass through the scenario's declared keys
    (:func:`~repro.experiments.scenarios.normalize`): each value is
    coerced by its type, so ``2`` and ``2.0`` for a float key are one
    cell, and an unknown key or an out-of-range value raises
    :class:`ValueError` before any cell runs.  ``label`` is only for
    progress display and defaults to a compact rendering of the params.
    Run-wide world options
    (``sanitize``, ``trace``, ``profile``, ``faults``, ``tie_order``...)
    are scenario keywords like any other: they travel in ``params`` and
    so enter the cache key only when set.  A profiled value embeds host
    wall-clock numbers, so its ``"profile"`` content is machine-dependent.

    ``max_sim_events`` / ``max_sim_ns`` arm a *simulated-time* watchdog
    (:func:`repro.sim.engine.install_watchdog`) on every simulator the
    cell creates: a runaway cell fails deterministically with
    :class:`~repro.sim.engine.WatchdogExceeded` instead of spinning until
    the host-side timeout kills it.  Folded into the cache key only when
    set.
    """

    scenario: str
    params: Mapping = field(default_factory=dict)
    label: str = ""
    max_sim_events: Optional[int] = None
    max_sim_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIOS)}"
            )
        declared = getattr(SCENARIOS[self.scenario], "params", None)
        params = (dict(self.params) if declared is None  # a bare test double
                  else scenarios.normalize(declared, self.params))
        object.__setattr__(self, "params", params)
        self.key()  # fail fast on non-JSON-serializable params
        if not self.label:
            short = ",".join(f"{k}={v}" for k, v in self.params.items())
            object.__setattr__(self, "label", f"{self.scenario}({short})")

    def key(self) -> str:
        """Canonical JSON identity of the cell (scenario + params)."""
        payload = {"scenario": self.scenario, "params": self.params}
        if self.max_sim_events is not None:
            payload["max_sim_events"] = self.max_sim_events
        if self.max_sim_ns is not None:
            payload["max_sim_ns"] = self.max_sim_ns
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self, salt: Optional[str] = None) -> str:
        """Cache key: SHA-256 over the canonical spec + code-version salt."""
        salt = code_salt() if salt is None else salt
        payload = f"v{_CACHE_VERSION}|{salt}|{self.key()}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        d = {"scenario": self.scenario, "params": dict(self.params), "label": self.label}
        if self.max_sim_events is not None:
            d["max_sim_events"] = self.max_sim_events
        if self.max_sim_ns is not None:
            d["max_sim_ns"] = self.max_sim_ns
        return d


@dataclass
class RunResult:
    """Outcome of one cell: value dict on success, error record on failure."""

    spec: RunSpec
    ok: bool
    value: Optional[dict] = None
    #: Structured failure record: {"type", "message", "traceback", "attempts"}.
    error: Optional[dict] = None
    wall_s: float = 0.0
    attempts: int = 1
    cached: bool = False

    @property
    def events(self) -> int:
        """Simulator events processed by this cell (0 when unreported)."""
        if self.ok and isinstance(self.value, dict):
            return int(self.value.get("events", 0))
        return 0

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "value": self.value,
            "error": self.error,
            "wall_s": self.wall_s,
            "attempts": self.attempts,
            "cached": self.cached,
        }


# ----------------------------------------------------------------------
# Cell execution (runs in worker processes; must stay picklable/top-level)
# ----------------------------------------------------------------------
def _execute_cell(spec: RunSpec, retries: int = 1) -> dict:
    """Run one cell with retry; always returns a plain (picklable) dict."""
    fn = SCENARIOS[spec.scenario]
    attempts = 0
    last_exc: Optional[BaseException] = None
    # Host wall-clock (never feeds simulation state, so exempt from the
    # determinism lint).
    t0 = time.perf_counter()  # repro: ignore[RPR001]
    # Arm the runaway watchdog (a no-op without budgets) on every
    # simulator the cell builds.
    with simulator_hook(
        lambda sim: install_watchdog(sim, spec.max_sim_events, spec.max_sim_ns)
    ):
        while attempts <= retries:
            attempts += 1
            try:
                value = fn(**spec.params)
                return {
                    "ok": True,
                    "value": value,
                    "error": None,
                    "wall_s": time.perf_counter() - t0,  # repro: ignore[RPR001]
                    "attempts": attempts,
                }
            except (SanitizerViolationError, WatchdogExceeded) as exc:
                # Deterministic: a retry would record the same violations /
                # blow the same budget.
                last_exc = exc
                break
            except Exception as exc:  # noqa: BLE001 - converted to a record
                last_exc = exc
    error = {
        "type": type(last_exc).__name__,
        "message": str(last_exc),
        "traceback": "".join(traceback.format_exception(last_exc)),
        "attempts": attempts,
    }
    if isinstance(last_exc, SanitizerViolationError):
        error["violations"] = [v.to_dict() for v in last_exc.violations]
    return {
        "ok": False,
        "value": None,
        "error": error,
        "wall_s": time.perf_counter() - t0,  # repro: ignore[RPR001]
        "attempts": attempts,
    }


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def _cache_load(cache_dir: Path, digest: str) -> Optional[dict]:
    path = cache_dir / f"{digest}.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("cache_version") != _CACHE_VERSION:
        return None
    return entry.get("value")


def _cache_store(cache_dir: Path, digest: str, spec: RunSpec, value: dict, salt: str) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{digest}.json"
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    entry = {
        "cache_version": _CACHE_VERSION,
        "salt": salt,
        "spec": spec.to_dict(),
        "value": value,
    }
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)  # atomic publish; concurrent sweeps race benignly
    except (OSError, TypeError, ValueError):
        tmp.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[os.PathLike] = None,
    retries: int = 1,
    progress: Optional[Callable[[int, int, RunResult], None]] = None,
    cell_timeout_s: Optional[float] = None,
) -> list[RunResult]:
    """Execute every cell, in spec order, over ``jobs`` worker processes.

    Results come back in the same order as ``specs`` regardless of the
    completion order of the workers.  ``jobs=1`` runs inline (no pool), so
    a parallel sweep can always be checked against a serial one.  A cell
    that raises is retried ``retries`` times and then reported as a
    failed :class:`RunResult`; the sweep itself never aborts.

    Graceful degradation (parallel path):

    * ``cell_timeout_s`` bounds each cell's *host* wall clock.  An overdue
      cell's worker is terminated, the cell fails with a
      :class:`CellTimeoutError` record (no retry — a hang reproduces),
      and the pool is rebuilt so the remaining cells keep running.
    * A worker that dies (segfault, ``os._exit``, OOM kill) breaks the
      pool; every in-flight cell earns a crash mark and is requeued until
      its marks exceed ``retries``, at which point it fails with a
      :class:`WorkerCrashError` record.  The pool is rebuilt with a short
      exponential backoff between rebuilds.

    Either way the sweep always returns a :class:`RunResult` per spec —
    completed cells are never lost to one bad neighbour (see
    :func:`salvage_report`).

    ``progress`` (if given) is invoked as ``progress(done, total, result)``
    each time a cell settles, in completion order.
    """
    specs = list(specs)
    cache_root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    salt = code_salt()
    results: list[Optional[RunResult]] = [None] * len(specs)
    done = 0

    def settle(idx: int, result: RunResult) -> None:
        nonlocal done
        results[idx] = result
        done += 1
        if progress is not None:
            progress(done, len(specs), result)

    # Cache pass (parent process only: no cross-process cache races).
    misses: list[int] = []
    for i, spec in enumerate(specs):
        value = _cache_load(cache_root, spec.digest(salt)) if use_cache else None
        if value is not None:
            settle(i, RunResult(spec=spec, ok=True, value=value, cached=True))
        else:
            misses.append(i)

    def record(idx: int, payload: dict) -> None:
        spec = specs[idx]
        res = RunResult(
            spec=spec,
            ok=payload["ok"],
            value=payload["value"],
            error=payload["error"],
            wall_s=payload["wall_s"],
            attempts=payload["attempts"],
        )
        if res.ok and use_cache:
            _cache_store(cache_root, spec.digest(salt), spec, res.value, salt)
        settle(idx, res)

    def fail(idx: int, err_type: str, message: str, attempts: int, wall_s: float) -> None:
        settle(
            idx,
            RunResult(
                spec=specs[idx],
                ok=False,
                error={"type": err_type, "message": message, "attempts": attempts},
                wall_s=wall_s,
                attempts=attempts,
            ),
        )

    if jobs <= 1 or len(misses) <= 1:
        for i in misses:
            record(i, _execute_cell(specs[i], retries=retries))
        return [r for r in results if r is not None]

    max_workers = min(jobs, len(misses))
    queue: deque[int] = deque(misses)
    suspects: deque[int] = deque()
    crash_marks = {i: 0 for i in misses}
    rebuilds = 0
    pool = ProcessPoolExecutor(max_workers=max_workers)
    in_flight: dict = {}  # future -> (cell index, submit time, deadline)

    def launch(i: int) -> None:
        t_sub = time.monotonic()  # repro: ignore[RPR001]
        deadline = None if cell_timeout_s is None else t_sub + cell_timeout_s
        in_flight[pool.submit(_execute_cell, specs[i], retries)] = (i, t_sub, deadline)

    def submit_ready() -> None:
        # Windowed submission: at most ``max_workers`` cells in flight, so
        # every in-flight cell is actually running and both the per-cell
        # deadline and the crash blame stay meaningful.
        while queue and len(in_flight) < max_workers:
            launch(queue.popleft())
        # Crash suspects retry in isolation — one at a time, nothing else
        # in flight — because a dying worker breaks the whole pool and
        # every concurrent future with it; only a solo re-crash proves the
        # cell itself is guilty (and only then burns its retry budget).
        if not queue and not in_flight and suspects:
            launch(suspects.popleft())

    def rebuild_pool() -> None:
        nonlocal pool, rebuilds
        rebuilds += 1
        # Hung/broken workers don't exit on shutdown(); terminate directly.
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # repro: ignore[RPR031]  (already gone)
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        time.sleep(min(0.1 * (2 ** (rebuilds - 1)), 2.0))
        pool = ProcessPoolExecutor(max_workers=max_workers)

    def reap(fut, force_crash: bool = False) -> bool:
        """Settle or requeue one no-longer-flying future.  Returns True if
        the worker holding it had crashed."""
        idx, t_sub, _deadline = in_flight.pop(fut)
        wall = time.monotonic() - t_sub  # repro: ignore[RPR001]
        if fut.done() and not fut.cancelled() and not force_crash:
            try:
                record(idx, fut.result())
                return False
            except BaseException as exc:  # noqa: BLE001 - broken pool
                reason = f"worker died: {type(exc).__name__}: {exc}"
        else:
            reason = "worker pool broke while the cell was in flight"
        crash_marks[idx] += 1
        if crash_marks[idx] > retries:
            fail(idx, WorkerCrashError.__name__, reason, crash_marks[idx], wall)
        else:
            suspects.append(idx)  # retry in isolation on the rebuilt pool
        return True

    try:
        while queue or suspects or in_flight:
            submit_ready()
            timeout = None
            if cell_timeout_s is not None and in_flight:
                now = time.monotonic()  # repro: ignore[RPR001]
                earliest = min(dl for _, _, dl in in_flight.values())
                timeout = max(0.05, earliest - now)
            finished, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)

            broken = False
            for fut in finished:
                broken = reap(fut) or broken

            overdue = []
            if cell_timeout_s is not None:
                now = time.monotonic()  # repro: ignore[RPR001]
                overdue = [
                    fut
                    for fut, (_, _, dl) in in_flight.items()
                    if dl is not None and now >= dl and not fut.done()
                ]
            if overdue:
                # A hung worker never returns: kill the whole pool, fail the
                # overdue cells, and resubmit the innocent bystanders.
                for fut in overdue:
                    idx, t_sub, _dl = in_flight.pop(fut)
                    fail(
                        idx,
                        CellTimeoutError.__name__,
                        f"cell exceeded host budget of {cell_timeout_s} s",
                        1,
                        time.monotonic() - t_sub,  # repro: ignore[RPR001]
                    )
                broken = True

            if broken:
                rebuild_pool()
                # Anything else in flight went down with the pool: reap
                # what finished (good results recorded, broken ones earn a
                # crash mark), requeue the rest without blame.
                for fut in list(in_flight):
                    if fut.done() and not fut.cancelled():
                        reap(fut)
                    else:
                        idx, _t, _dl = in_flight.pop(fut)
                        queue.appendleft(idx)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    return [r for r in results if r is not None]


def _error_type(r: RunResult) -> str:
    return (r.error or {}).get("type", "") if not r.ok else ""


def sweep_stats(results: Sequence[RunResult]) -> dict:
    """Aggregate wall-clock / events / cache counters for a finished sweep."""
    return {
        "cells": len(results),
        "ok": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
        "cached": sum(1 for r in results if r.cached),
        "timeouts": sum(1 for r in results if _error_type(r) == CellTimeoutError.__name__),
        "worker_crashes": sum(
            1 for r in results if _error_type(r) == WorkerCrashError.__name__
        ),
        "wall_s": sum(r.wall_s for r in results),
        "events": sum(r.events for r in results),
    }


def salvage_report(results: Sequence[RunResult]) -> dict:
    """Partial-result salvage: what survived a degraded sweep, structured.

    Splits a sweep into ``healthy`` (full :class:`RunResult` dicts, values
    included) and ``failed`` (spec + error record, no value), so that a
    sweep hit by crashes or timeouts still delivers every completed cell
    in machine-readable form.  ``schema`` versions the layout for CI
    consumers.
    """
    return {
        "schema": "repro.sweep.salvage/v1",
        "code_salt": code_salt(),
        "stats": sweep_stats(results),
        "healthy": [r.to_dict() for r in results if r.ok],
        "failed": [
            {
                "spec": r.spec.to_dict(),
                "error": r.error,
                "attempts": r.attempts,
                "wall_s": r.wall_s,
            }
            for r in results
            if not r.ok
        ],
    }


def write_salvage(results: Sequence[RunResult], path: os.PathLike) -> Path:
    """Write :func:`salvage_report` as JSON; returns the path."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(salvage_report(results), fh, indent=2, default=str)
    return path


def export_json(results: Sequence[RunResult], path: os.PathLike) -> None:
    """Dump a sweep (specs, values, errors, stats) as machine-readable JSON."""
    payload = {
        "code_salt": code_salt(),
        "stats": sweep_stats(results),
        "results": [r.to_dict() for r in results],
    }
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
