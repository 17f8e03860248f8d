"""Extension experiment grids, each declared exactly once.

A grid is several :class:`RunSpec` cells whose results only mean something
side by side (DESIGN.md §4 "Experiment grids").  Each :class:`Grid` pairs
``cells(**params)``, which builds the specs with the labels and params
``repro <verb>`` has always exported; ``table(results)``, the derived
metrics as ``(title, headers, rows)``; and ``claims(results)``, failure
messages that are empty when every claim holds.  Each claim is a
comparison that is false for NaN, so an undefined metric fails it.  Cells
whose params differ only in a grid's own axes form one group with its own
baseline, which lets a bench sweep a grid at several scales.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.experiments.runner import RunResult, RunSpec

__all__ = [
    "Grid",
    "GRIDS",
    "DFRS_MODES",
    "HYBRID_TOL",
    "attack_metrics",
    "attack_recovered",
    "load_results",
    "repeat_diff",
]

#: DFRS comparator modes every dfrs grid group must hold; ``baseline``
#: (plain Credit) is the 1.0 mark.
DFRS_MODES = ("baseline", "atc", "dfrs", "hybrid")

#: The ATC+DFRS hybrid may trail the better single approach by at most
#: 2%.  The measured cap-enforcement overhead is ~0.2-0.5%; anything past
#: 2% means the caps are throttling what ATC accelerates (the failure mode
#: cap renormalization used to cause).
HYBRID_TOL = 1.02

Table = tuple[str, list[str], list[tuple]]


@dataclass(frozen=True)
class Grid:
    """One extension experiment: its cells, derived table and claims."""

    name: str
    scenario: str
    cells: Callable[..., list[RunSpec]]
    table: Callable[[Sequence[RunResult]], Table]
    claims: Callable[[Sequence[RunResult]], list[str]]


def _ratio(value: float, base: float) -> float:
    """``value / base``; NaN when the base is zero or NaN."""
    return value / base if base else math.nan


def _ms(ns: float) -> float:
    return ns / 1e6


def _failed(where: str, *claims: tuple[bool, str]) -> list[str]:
    """Messages of the ``(holds, message)`` claims that do not hold."""
    return [f"{where}: {msg}" for holds, msg in claims if not holds]


def _groups(results: Sequence[RunResult], *axes: str) -> list[dict[tuple, RunResult]]:
    """Split cells into groups whose params differ only in ``axes``.

    Groups keep first-appearance order; each maps the tuple of axis
    values to its cell.
    """
    groups: dict[str, dict[tuple, RunResult]] = {}
    for r in results:
        rest = {k: v for k, v in r.spec.params.items() if k not in axes}
        key = json.dumps(rest, sort_keys=True, default=str)
        groups.setdefault(key, {})[tuple(r.spec.params.get(a) for a in axes)] = r
    return list(groups.values())


def _normalized(results: Sequence[RunResult], *axes: str) -> list[dict[tuple, tuple]]:
    """:func:`_groups`, each cell paired with its parallel round time over
    that of its group's first cell, which the builders make the baseline."""
    out = []
    for g in _groups(results, *axes):
        base = next(iter(g.values())).value["parallel_mean_round_ns"]
        out.append({k: (r, _ratio(r.value["parallel_mean_round_ns"], base))
                    for k, r in g.items()})
    return out


# ----------------------------------------------------------------------
# chaos: clean baseline vs the same type-A cell under a fault plan
# ----------------------------------------------------------------------
def chaos_cells(faults: list, **params) -> list[RunSpec]:
    return [
        RunSpec("type_a", dict(params), label="chaos:baseline"),
        RunSpec("type_a", dict(params, faults=faults), label="chaos:faulted"),
    ]


def chaos_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for r in results:
        if r.ok:
            v = r.value
            rows.append((r.spec.label, v["rounds_measured"], _ms(v["mean_round_ns"]),
                         _ms(v["avg_spin_ns"]), v["all_done"], v["events"]))
        else:
            err = (r.error or {}).get("type", "?")
            rows.append((r.spec.label, "-", "-", "-", f"FAILED:{err}", "-"))
    return (
        "Chaos — clean baseline vs the same type-A cell under a fault plan",
        ["cell", "rounds", "mean round (ms)", "avg spin (ms)", "done", "events"],
        rows,
    )


def chaos_claims(results: Sequence[RunResult]) -> list[str]:
    faulted = [r for r in results if "faults" in r.spec.params]
    injected = [sum(r.value.get("faults", {}).get("injected", {}).values()) for r in faulted]
    return _failed(
        "chaos",
        (len(results) == 2 and len(faulted) == 1,
         f"expected a clean and a faulted cell, got {len(results)} cells"),
        (all(n >= 1 for n in injected), "the fault plan injected no fault"),
    )


# ----------------------------------------------------------------------
# migrate: static placement vs online rebalancing
# ----------------------------------------------------------------------
def migrate_cells(policy: str = "demix", bound: Optional[str] = None,
                  **params) -> list[RunSpec]:
    """Static baseline, an optional static cell at the ``bound`` placement
    (a reference point), then the ``policy`` cell.  The first cell is the
    baseline every round time is normalized to."""
    specs = [RunSpec("migration_rebalance", dict(params, policy="static"),
                     label="migrate:static")]
    if bound is not None:
        specs.append(RunSpec("migration_rebalance",
                             dict(params, placement=bound, policy="static"),
                             label=f"migrate:static@{bound}"))
    specs.append(RunSpec("migration_rebalance", dict(params, policy=policy),
                         label=f"migrate:{policy}"))
    return specs


def migrate_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for g in _normalized(results, "policy", "placement"):
        for r, norm in g.values():
            v = r.value
            mig = v.get("migration", {})
            rows.append((
                r.spec.label, _ms(v["parallel_mean_round_ns"]), norm,
                mig.get("completed", 0), mig.get("aborted", 0),
                _ms(mig.get("downtime_total_ns", 0)), v["events"],
            ))
    return (
        "Migration rebalance — parallel round time normalized to static placement",
        ["cell", "parallel round (ms)", "vs static", "migrations", "aborted",
         "downtime (ms)", "events"],
        rows,
    )


def migrate_claims(results: Sequence[RunResult]) -> list[str]:
    groups = _normalized(results, "policy", "placement")
    demix = [(r, norm) for g in groups for (policy, _), (r, norm) in g.items()
             if policy == "demix"]
    out = _failed(
        "migrate",
        (all(next(iter(g))[0] == "static" for g in groups),
         "the first cell is not the static baseline"),
        (bool(demix), "no demix cell"),
    )
    for r, norm in demix:
        # Online demixing must repair the packed placement by actually
        # migrating, with a finite blackout, not by accident.
        mig = r.value.get("migration", {})
        out += _failed(
            r.spec.label,
            (norm < 1.0, f"round {norm:.3f}x static, not faster"),
            (mig.get("completed", 0) >= 1, "no completed migration"),
            (mig.get("downtime_total_ns", 0) > 0, "zero stop-and-copy downtime"),
        )
    return out


# ----------------------------------------------------------------------
# dfrs: {CR, ATC, CR+DFRS, ATC+DFRS} on one normalized axis
# ----------------------------------------------------------------------
def dfrs_cells(modes: Sequence[str] = DFRS_MODES, prefix: str = "dfrs",
               **params) -> list[RunSpec]:
    return [
        RunSpec("dfrs_compare", dict(params, mode=mode), label=f"{prefix}:{mode}")
        for mode in modes
    ]


def dfrs_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for g in _normalized(results, "mode"):
        for r, norm in g.values():
            v = r.value
            d = v.get("dfrs", {})
            rows.append((
                r.spec.label, v["scheduler"], _ms(v["parallel_mean_round_ns"]), norm,
                _ms(v["np_mean_run_ns"]), d.get("solves", "-"),
                d.get("caps_applied", "-"), f"{d['last_min_yield']:.3f}" if d else "-",
            ))
    return (
        "DFRS comparator — parallel round time normalized to plain Credit",
        ["cell", "sched", "parallel round (ms)", "vs CR", "sphinx3 (ms)",
         "solves", "caps", "min yield"],
        rows,
    )


def dfrs_claims(results: Sequence[RunResult]) -> list[str]:
    out = [f"{r.spec.label}: SAN009 allocation-consistency violations"
           for r in results if r.value.get("dfrs", {}).get("violations", 0)]
    for g in _normalized(results, "mode"):
        by = {mode: cell for (mode,), cell in g.items()}
        where = next(iter(by.values()))[0].spec.label.rsplit(":", 1)[0]
        if next(iter(by)) != "baseline" or not set(DFRS_MODES) <= set(by):
            out.append(f"{where}: modes {list(by)} do not start from baseline "
                       f"and cover {list(DFRS_MODES)}")
            continue
        v = {m: r.value for m, (r, _) in by.items()}
        atc, dfrs, hybrid = (by[m][1] for m in ("atc", "dfrs", "hybrid"))
        # Both single approaches must help over plain Credit, and the
        # hybrid composes: no worse (within the enforcement-overhead
        # tolerance) than the better of the two, strictly better than the
        # worse.  The cluster controller must really run where enabled.
        out += _failed(
            where,
            (atc < 1.0, f"atc round {atc:.3f}x CR, not faster"),
            (dfrs < 1.0, f"dfrs round {dfrs:.3f}x CR, not faster"),
            (hybrid <= min(atc, dfrs) * HYBRID_TOL,
             f"hybrid {hybrid:.3f}x CR trails the better approach by more than HYBRID_TOL"),
            (hybrid < max(atc, dfrs), f"hybrid {hybrid:.3f}x CR does not beat the worse approach"),
            *((v[m].get("dfrs", {}).get("solves", 0) > 0,
               f"the {m} cell never solved an allocation") for m in ("dfrs", "hybrid")),
        )
        if "idle" in v:
            # Idle DFRS layer: bit-identical to absence, event count included.
            out += _failed(
                where,
                *((v["idle"][k] == v["baseline"][k], f"idle {k} differs from baseline")
                  for k in ("events", "parallel_mean_round_ns", "np_mean_run_ns")),
                (v["idle"]["dfrs"]["solves"] == 0, "the idle controller solved an allocation"),
            )
    return out


# ----------------------------------------------------------------------
# serve: admission policies over one tenant arrival stream
# ----------------------------------------------------------------------
def serve_cells(admissions: Sequence[str] = ("fcfs-queue",), **params) -> list[RunSpec]:
    return [
        RunSpec("service", dict(admission=a, **params), label=f"serve:{a}")
        for a in admissions
    ]


def serve_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for r in results:
        s = r.value["service"]
        rows.append((
            r.spec.label, s["submitted"], s["admitted"], s["rejected"],
            s["departed"], s["running_now"], s["queued_now"], s["queue_peak"],
            _ms(s["wait_mean_ns"]), s["slowdown_mean"], s["rebalancer_kicks"],
        ))
    return (
        "Service — tenant admission and completed-tenant slowdown per policy",
        ["cell", "submitted", "admitted", "rejected", "completed", "running",
         "queued", "queue peak", "mean wait (ms)", "mean slowdown", "kicks"],
        rows,
    )


def serve_claims(results: Sequence[RunResult]) -> list[str]:
    out = []
    for r in results:
        # Every policy must admit and complete work under pressure.
        s = r.value["service"]
        out += _failed(r.spec.label, (s["admitted"] >= 1, "admitted no tenant"),
                       (s["departed"] >= 1, "no tenant completed"))
    by = {r.spec.params["admission"]: r.value["service"] for r in results}
    rof, ma = by.get("reject-on-full"), by.get("migration-aware")
    if rof is not None:
        out += _failed("reject-on-full", (rof["rejected"] >= 1, "shed no load"))
    if rof is not None and ma is not None:
        # Placement-aware queueing must beat shedding load and living with
        # the mix: no fewer completions, strictly lower slowdown.
        out += _failed(
            "migration-aware",
            (ma["departed"] >= rof["departed"],
             f"completed {ma['departed']} tenants, reject-on-full {rof['departed']}"),
            (ma["slowdown_mean"] < rof["slowdown_mean"],
             f"slowdown {ma['slowdown_mean']:.3f} not below reject-on-full's "
             f"{rof['slowdown_mean']:.3f}"),
        )
    return out


# ----------------------------------------------------------------------
# attack: {scheduler} x {open, hardened} x {clean, attacked}
# ----------------------------------------------------------------------
def attack_cells(schedulers: Sequence[str] = ("CR", "ATC"), prefix: str = "attack",
                 **params) -> list[RunSpec]:
    return [
        RunSpec("attack", dict(scheduler=sched, hardened=hardened, attack=attack, **params),
                label="{}:{}:{}:{}".format(prefix, sched, "hard" if hardened else "open",
                                           "atk" if attack else "clean"))
        for sched in schedulers
        for hardened in (False, True)
        for attack in (False, True)
    ]


def attack_recovered(slow_open: float, slow_hard: float) -> Optional[float]:
    """Share of the unhardened victim slowdown that hardening removes.

    ``None`` when the unhardened slowdown is not above 1 (nothing to
    recover) or is NaN (the victim finished no round).
    """
    if not slow_open > 1.0:
        return None
    return (slow_open - slow_hard) / (slow_open - 1.0)


def attack_metrics(results: Sequence[RunResult]) -> list[dict]:
    """One dict per scheduler group: per config (``"open"``/``"hard"``)
    the victim slowdown (attacked / clean mean round), thief gain (CPU
    consumed / CPU debited) and BOOST preemptions, plus ``recovered``."""
    out = []
    for g in _groups(results, "hardened", "attack"):
        first = next(iter(g.values()))
        m = {"cell": first.spec.label.rsplit(":", 2)[0],
             "scheduler": first.spec.params["scheduler"]}
        for hardened, cfg in ((False, "open"), (True, "hard")):
            clean, atk = g[(hardened, False)].value, g[(hardened, True)].value
            m[cfg] = {
                "slowdown": _ratio(atk["victim_mean_round_ns"], clean["victim_mean_round_ns"]),
                "gain": atk["thief"]["gain"],
                "tickle_preempts": atk["tickler"]["boost_preempts_inflicted"],
                "victim_preempts": atk["victim_boost_preempts_suffered"],
            }
        m["recovered"] = attack_recovered(m["open"]["slowdown"], m["hard"]["slowdown"])
        out.append(m)
    return out


def _gain_text(gain: Optional[float]) -> str:
    """A thief gain for tables and claim messages; ``None`` is a thief
    that consumed CPU but was never debited (``gain_censored``)."""
    return "censored" if gain is None else f"{gain:.3f}"


def attack_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for m in attack_metrics(results):
        for cfg, name in (("open", "unhardened"), ("hard", "hardened")):
            c = m[cfg]
            rec = m["recovered"] if cfg == "hard" else None
            gain = "censored" if c["gain"] is None else c["gain"]
            rows.append((m["cell"], name, c["slowdown"], gain, c["tickle_preempts"],
                         c["victim_preempts"], "-" if rec is None else rec))
    return (
        "Adversarial tenancy — victim slowdown (attacked / clean round) and thief "
        "gain (CPU consumed / CPU debited), tick-sampled accounting",
        ["cell", "config", "victim slowdown", "thief gain", "tickle preempts",
         "victim preempts", "recovered"],
        rows,
    )


def attack_claims(results: Sequence[RunResult]) -> list[str]:
    out = []
    for m in attack_metrics(results):
        o, h, rec = m["open"], m["hard"], m["recovered"]
        # The unhardened scheduler is exploitable: the thief banks more CPU
        # than it is debited (a censored gain -- a thief never debited at
        # all -- counts) and the victim slows down.  Hardening takes the
        # thief's free lunch away (a censored hardened gain fails both
        # bounds) and recovers at least half of the victim slowdown.
        og, hg = o["gain"], h["gain"]
        out += _failed(
            m["cell"],
            (og is None or og > 1.0, f"unhardened thief gain {_gain_text(og)} not > 1"),
            (o["slowdown"] > 1.0, f"unhardened victim slowdown {o['slowdown']:.3f} not > 1"),
            (hg is not None and (og is None or hg < og),
             f"hardened thief gain {_gain_text(hg)} not below unhardened"),
            (hg is not None and hg <= 1.1, f"hardened thief gain {_gain_text(hg)} above 1.1"),
            (h["slowdown"] < o["slowdown"],
             f"hardened victim slowdown {h['slowdown']:.3f} not below unhardened"),
            (rec is not None,
             f"hardening recovery undefined (unhardened slowdown {o['slowdown']:.3f})"),
            (rec is None or rec >= 0.5, f"hardening recovers {rec or 0:.0%}, below 50%"),
        )
    return out


GRIDS = {
    g.name: g
    for g in (
        Grid("chaos", "type_a", chaos_cells, chaos_table, chaos_claims),
        Grid("migrate", "migration_rebalance", migrate_cells, migrate_table, migrate_claims),
        Grid("dfrs", "dfrs_compare", dfrs_cells, dfrs_table, dfrs_claims),
        Grid("serve", "service", serve_cells, serve_table, serve_claims),
        Grid("attack", "attack", attack_cells, attack_table, attack_claims),
    )
}


# ----------------------------------------------------------------------
# --json exports
# ----------------------------------------------------------------------
def load_results(path) -> list[RunResult]:
    """Read a ``--json`` export (:func:`repro.experiments.runner.export_json`)
    back into :class:`RunResult` objects.

    Raises :class:`ValueError` naming ``path`` and the problem when the
    file is unreadable, is not an export, or holds a cell record this
    version cannot rebuild (e.g. a spec field that no longer exists)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    cells = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(cells, list):
        raise ValueError(f'{path} is not a --json export: no top-level "results" list')
    results = []
    for i, r in enumerate(cells):
        try:
            results.append(
                RunResult(spec=RunSpec(**r["spec"]), ok=r["ok"], value=r["value"],
                          error=r["error"], wall_s=r["wall_s"], attempts=r["attempts"],
                          cached=r["cached"])
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}: results[{i}] is not a cell record of this version: "
                f"{type(exc).__name__}: {exc}"
            ) from None
    return results


def repeat_diff(a: Sequence[RunResult], b: Sequence[RunResult]) -> list[str]:
    """One message per spec/value leaf that differs between two exports;
    empty when they are equal (a NaN equals the NaN of its repeat)."""
    from repro.analysis.races import diff_values

    if len(a) != len(b):
        return [f"repeat: {len(a)} cells vs {len(b)}"]
    return [
        f"repeat: {ra.spec.label}: {path} {x!r} != {y!r}"
        for ra, rb in zip(a, b)
        for path, x, y in diff_values([ra.spec.to_dict(), ra.value],
                                      [rb.spec.to_dict(), rb.value])
        if repr(x) != repr(y)
    ]
