"""The paper's figures and the extension experiments as grids, each
declared exactly once.

A grid is several :class:`RunSpec` cells whose results only mean something
side by side (DESIGN.md §4 "Experiment grids").  Each :class:`Grid` pairs
``cells(**params)``, which builds the specs with the labels and params
``repro run`` and the benches export; ``table(results)``, the derived
metrics as ``(title, headers, rows)``; and ``claims(results)``, failure
messages that are empty when every claim holds.  Each claim is a
comparison that is false for NaN, so an undefined metric fails it.  Cells
whose params differ only in a grid's own axes form one group with its own
baseline, which lets a bench sweep a grid at several scales.  Grids read
no environment: the benches choose the scale.
"""

from __future__ import annotations

import inspect
import json
import math
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from repro.core.threshold import ThresholdStudy
from repro.experiments.harness import WorldConfig
from repro.experiments.runner import SCENARIOS, RunResult, RunSpec
from repro.experiments.scenarios import _world
from repro.faults.plan import parse_fault_spec
from repro.metrics.summary import pearson
from repro.sim.units import SEC, ns_from_ms

__all__ = [
    "Grid",
    "GRIDS",
    "DFRS_MODES",
    "HYBRID_TOL",
    "attack_metrics",
    "attack_recovered",
    "fault_dicts",
    "grid_settings",
    "load_results",
    "repeat_diff",
    "settable",
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
    """One experiment: its cells, derived table, claims and detail tables."""

    name: str
    scenario: str
    cells: Callable[..., list[RunSpec]]
    table: Callable[[Sequence[RunResult]], Table]
    claims: Callable[[Sequence[RunResult]], list[str]]
    details: Callable[[Sequence[RunResult]], list[Table]] = lambda results: []


def _ratio(value: Optional[float], base: Optional[float]) -> float:
    """``value / base``; NaN when either is ``None`` or the base is 0 or NaN."""
    return value / base if base and value is not None else math.nan


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
        groups.setdefault(_rest(r, axes), {})[tuple(r.spec.params.get(a) for a in axes)] = r
    return list(groups.values())


def _rest(r: RunResult, axes: Sequence[str]) -> str:
    """Canonical JSON of a cell's params outside ``axes``: its group key."""
    return json.dumps({k: v for k, v in r.spec.params.items() if k not in axes},
                      sort_keys=True, default=str)


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
def chaos_cells(faults: list, app_name: str = "lu", scheduler: str = "ATC", n_nodes: int = 2,
                rounds: int = 6, horizon_s: float = 12.0, **params) -> list[RunSpec]:
    params = dict(params, app_name=app_name, scheduler=scheduler, n_nodes=n_nodes,
                  rounds=rounds, horizon_s=horizon_s)
    return [
        RunSpec("type_a", params, label="chaos:baseline"),
        RunSpec("type_a", dict(params, faults=faults), label="chaos:faulted"),
    ]


def chaos_table(results: Sequence[RunResult]) -> Table:
    return (
        "Chaos — clean baseline vs the same type-A cell under a fault plan",
        ["cell", "rounds", "mean round (ms)", "avg spin (ms)", "done", "events"],
        [(r.spec.label, r.value["rounds_measured"], _ms(r.value["mean_round_ns"]),
          _ms(r.value["avg_spin_ns"]), r.value["all_done"], r.value["events"]) for r in results],
    )


def chaos_details(results: Sequence[RunResult]) -> list[Table]:
    """The fault injector's statistics of each faulted cell."""
    rows = [(r.spec.label, fs["events"],
             ", ".join(f"{k}x{n}" for k, n in sorted(fs["injected"].items())) or "none",
             sum(fs["healed"].values()), fs["messages_dropped"], fs["retransmits"],
             fs["messages_lost"]) for r in results if (fs := r.value.get("faults"))]
    return [("Faults", ["cell", "planned", "injected", "healed", "dropped", "retransmits", "lost"],
             rows)] if rows else []


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


def migrate_details(results: Sequence[RunResult]) -> list[Table]:
    """The VMs each rebalancing policy left on another node than its
    group's static baseline did."""
    rows = []
    for g in _groups(results, "policy", "placement"):
        static, *others = g.values()
        for r in others:
            if r.spec.params["policy"] != "static":
                rows += [(r.spec.label, vm, f"node{n}") for vm, n in sorted(r.value["final_nodes"].items())
                         if static.value["final_nodes"].get(vm) != n]
    return [("Moved VMs", ["cell", "vm", "moved to"], rows)] if rows else []


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
    out = []
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


def serve_details(results: Sequence[RunResult]) -> list[Table]:
    """Each cell's tenants: state, queueing wait and slowdown."""
    return [("Tenants" if len(results) == 1 else f"Tenants — {r.spec.label}",
             ["tenant", "app", "vms", "state", "wait (ms)", "slowdown"],
             [(t["name"], t["app"], t["n_vms"], t["state"],
               "-" if t["wait_ns"] is None else _ms(t["wait_ns"]),
               "-" if t["slowdown"] is None else t["slowdown"])
              for t in r.value["service"]["tenants"]])
            for r in results if r.value["service"]["tenants"]]


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


# ======================================================================
# The paper's figures (DESIGN.md §4 experiment index)
# ======================================================================
#: Approaches of the type-A and type-B comparisons (Figs. 10 and 11).
TYPE_A_SCHEDS = ("CR", "BS", "CS", "DSS", "ATC")
#: Approaches of the mixed-tenancy figures (Figs. 12-14), which add ATC(6ms).
MIXED_SCHEDS = ("CR", "BS", "CS", "DSS", "VS", "ATC")
#: Placement ablation: the whole placement registry.
PLACEMENTS = ("spread", "pack", "striped", "random:11")


def _approach(r: RunResult) -> str:
    """A cell's scheduler, with ATC's non-parallel slice when set: ``ATC(6ms)``."""
    p = r.spec.params
    ms = p.get("atc_np_slice_ms")
    return p["scheduler"] if ms is None else f"{p['scheduler']}({ms:g}ms)"


def _by_approach(results: Sequence[RunResult]) -> list[tuple[dict, dict[str, dict]]]:
    """:func:`_groups` over the approach axes: per group, its first cell's
    params and each approach's value in cell order.  The builders put the
    baseline (CR) first."""
    return [(next(iter(g.values())).spec.params, {_approach(r): r.value for r in g.values()})
            for g in _groups(results, "scheduler", "atc_np_slice_ms")]


def _norm(g: dict[str, dict], approach: str, base: Optional[str] = None,
          key: str = "mean_round_ns") -> float:
    """``value[key]`` of ``approach`` over that of ``base`` (default: the
    group's baseline) in a :func:`_by_approach` group; NaN if either is missing."""
    v, b = (g.get(a, {}).get(key, math.nan) for a in (approach, base or next(iter(g))))
    return _ratio(v, b)


def _all_done(results: Sequence[RunResult]) -> list[str]:
    return [f"{r.spec.label}: did not finish in the horizon"
            for r in results if r.value.get("all_done") is not True]


# ---- type A: four identical clusters (Figs. 1, 10, headline, kernels, placement)
def type_a_cells(prefix: str, schedulers: Sequence[str], apps: Sequence[str] = ("lu",),
                 nodes: Sequence[int] = (2,), **params) -> list[RunSpec]:
    """Per app and scale, one type-A cell per scheduler; the first
    scheduler is the group's baseline."""
    return [RunSpec("type_a", {"rounds": 2, "warmup_rounds": 1, **params, "app_name": app,
                               "scheduler": s, "n_nodes": n}, label=f"{prefix}:{app}/{s}/{n}")
            for app in apps for n in nodes for s in schedulers]


def fig01_table(results: Sequence[RunResult]) -> Table:
    return ("Figure 1 — lu: normalized execution time of CS vs CR by cluster scale",
            ["nodes (VMs per VC)", "CS / CR"],
            [(p["n_nodes"], _norm(g, "CS")) for p, g in _by_approach(results)])


def fig01_claims(results: Sequence[RunResult]) -> list[str]:
    # CS helps at every scale, but the advantage erodes with scale.
    cs = [v for _, v in fig01_table(results)[2]]
    return _all_done(results) + _failed(
        "fig01", (bool(cs) and all(v < 1.0 for v in cs), f"CS/CR {cs} not below 1 at every scale"),
        (len(cs) < 2 or cs[-1] >= cs[0] - 0.05, f"CS/CR {cs} falls by more than 0.05 with scale"))


def compare_table(results: Sequence[RunResult]) -> Table:
    groups = _by_approach(results)
    scheds = list(dict.fromkeys(a for _, g in groups for a in g))
    return ("Figure 10 — type A: execution time normalized to CR (and mean round in ms)",
            ["app", "nodes", *scheds, *(f"{s} (ms)" for s in scheds)],
            [(p["app_name"], p["n_nodes"], *(round(_norm(g, s), 3) for s in scheds),
              *(_ms(g.get(s, {}).get("mean_round_ns", math.nan)) for s in scheds))
             for p, g in groups])


def compare_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC is the best approach in every cell, by at least the paper's
    # minimum factor over CR.
    out = _all_done(results)
    for p, g in _by_approach(results):
        atc = _norm(g, "ATC")
        out += _failed(f"compare:{p['app_name']}/{p['n_nodes']}",
                       (all(atc <= _norm(g, a) + 1e-9 for a in g if a != "ATC"),
                        f"ATC {atc:.3f}x CR is not the best approach"),
                       (atc < 0.75, f"ATC {atc:.3f}x CR, not below 0.75"))
    return out


def headline_table(results: Sequence[RunResult]) -> Table:
    return ("Headline — ATC speedup factors (x) per application",
            ["app", "vs CR", "vs CS", "vs BS"],
            [(p["app_name"], *(_norm(g, s, "ATC") for s in ("CR", "CS", "BS")))
             for p, g in _by_approach(results)])


def headline_claims(results: Sequence[RunResult]) -> list[str]:
    out = _all_done(results)
    for app, cr, cs, bs in headline_table(results)[2]:
        out += _failed(f"headline:{app}",
                       (1.5 <= cr <= 12.0, f"{cr:.2f}x vs CR outside the paper band [1.5, 12]"),
                       (cs > 1.0 and bs > 1.0, f"{cs:.2f}x vs CS / {bs:.2f}x vs BS, not both > 1"))
    return out


def kernels_table(results: Sequence[RunResult]) -> Table:
    return ("Extension — ep/ft under ATC, normalized to CR", ["app", "ATC / CR"],
            [(p["app_name"], _norm(g, "ATC")) for p, g in _by_approach(results)])


def kernels_claims(results: Sequence[RunResult]) -> list[str]:
    # ep has no synchronization: the control case ATC must leave alone.
    # The FFT transposes gain at least as much as the paper's is kernel.
    norm = dict(kernels_table(results)[2])
    ep, ft, is_ = (norm.get(a, math.nan) for a in ("ep", "ft", "is"))
    return _all_done(results) + _failed(
        "kernels", (0.9 <= ep <= 1.1, f"ep ATC/CR {ep:.3f} outside [0.9, 1.1]"),
        (ft <= is_ + 0.1, f"ft ATC/CR {ft:.3f} more than 0.1 above is's {is_:.3f}"),
        (ft < 0.75, f"ft ATC/CR {ft:.3f}, not below 0.75"))


def placement_cells(**params) -> list[RunSpec]:
    return [s for p in PLACEMENTS for s in type_a_cells(f"placement:{p}", ("CR", "ATC"),
                                                        placement=p, seed=5, **params)]


def _placements(results: Sequence[RunResult]) -> list[dict[tuple, float]]:
    """Per :func:`_groups` group, each (scheduler, placement) cell's round
    time over that of its group's CR/spread cell (NaN when it is missing)."""
    out = []
    for g in _groups(results, "scheduler", "placement"):
        base = g.get(("CR", "spread"))
        base_ns = base.value["mean_round_ns"] if base else math.nan
        out.append({k: _ratio(r.value["mean_round_ns"], base_ns) for k, r in g.items()})
    return out


def placement_table(results: Sequence[RunResult]) -> Table:
    return ("Ablation — lu round time by scheduler x placement (vs CR/spread)",
            ["config", "normalized time"],
            [(f"{s} / {p}", norm.get((s, p), math.nan)) for norm in _placements(results)
             for s in ("CR", "ATC") for p in dict.fromkeys(p for _, p in norm)])


def placement_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC helps under every placement in the registry.
    out = _all_done(results)
    for norm in _placements(results):
        for p in dict.fromkeys(p for _, p in norm):
            atc, cr = norm.get(("ATC", p), math.nan), norm.get(("CR", p), math.nan)
            out += _failed(f"placement:{p}", (atc < cr, f"ATC {atc:.3f} not below CR {cr:.3f}"))
    return out


# ---- static slice sweeps under CR (Figs. 5, 8, Eq. 1)
def slice_cells(prefix: str, slices: Sequence[float] = (30.0, 12.0, 6.0, 1.0, 0.3),
                apps: Sequence[str] = ("lu",), **params) -> list[RunSpec]:
    """One slice-sweep cell, and so one world, per (app, slice)."""
    return [RunSpec("slice_sweep", {"rounds": 2, "warmup_rounds": 1, **params, "app_name": app,
                                    "slice_ms_values": [sm]}, label=f"{prefix}:{app}@{sm}ms")
            for app in apps for sm in slices]


def _sweeps(results: Sequence[RunResult]) -> list[tuple[str, list[dict]]]:
    """The per-slice cells joined into one sweep per group: its app and
    its rows in cell order."""
    sweeps: dict[str, tuple[str, list[dict]]] = {}
    for r in results:
        sweeps.setdefault(_rest(r, ("slice_ms_values",)),
                          (r.spec.params["app_name"], []))[1].extend(r.value["rows"])
    return list(sweeps.values())


def _series(rows: list[dict], key: str, scale: float = 1.0) -> list[float]:
    return [row[key] / scale for row in rows]


def sweep_table(results: Sequence[RunResult]) -> Table:
    classes = "/".join(dict.fromkeys(str(r.value.get("npb_class", "?")) for r in results))
    return (f"Slice sweep (Figure 5), class {classes} — execution time and spinlock latency "
            "vs slice under CR",
            ["app", "slice (ms)", "exec time (ms)", "avg spin latency (ms)", "ctx switches",
             "LLC misses"],
            [(app, row["slice_ms"], _ms(row["mean_round_ns"]), _ms(row["avg_spin_ns"]),
              row["context_switches"], row["llc_misses"])
             for app, rows in _sweeps(results) for row in rows])


def sweep_claims(results: Sequence[RunResult]) -> list[str]:
    # Spin latency falls monotonically with the slice, performance improves
    # from the longest slice to the shortest, and the two correlate.
    out = []
    for app, rows in _sweeps(results):
        times, spins = _series(rows, "mean_round_ns", 1e6), _series(rows, "avg_spin_ns", 1e6)
        try:
            corr = pearson(spins, times)
        except ValueError:  # fewer than two slices, or no variance
            corr = math.nan
        out += _failed(f"sweep:{app}",
                       (all(a >= b for a, b in zip(spins, spins[1:])),
                        "spin latency does not fall monotonically with the slice"),
                       (times[-1] < times[0], "the shortest slice is not faster than the longest"),
                       (corr > 0.9, f"pearson(spin, time) = {corr:.3f}, not above 0.9"))
    return out


def fig08_table(results: Sequence[RunResult]) -> Table:
    return ("Figure 8 — class C: performance vs short slices",
            ["app", "slice (ms)", "exec time (ms)", "LLC misses / busy-ms", "ctx switches"],
            [(app, row["slice_ms"], _ms(row["mean_round_ns"]), row["miss_rate_per_ms"],
              row["context_switches"]) for app, rows in _sweeps(results) for row in rows])


def fig08_claims(results: Sequence[RunResult]) -> list[str]:
    # An interior optimum exists: shrinking further and growing the slice
    # from it both cost performance.  LLC pressure and context switches
    # grow as the slice shrinks.
    out = []
    for app, rows in _sweeps(results):
        slices, times = _series(rows, "slice_ms"), _series(rows, "mean_round_ns", 1e6)
        miss, ctx = _series(rows, "miss_rate_per_ms"), _series(rows, "context_switches")
        best = slices[times.index(min(times))]
        out += _failed(f"fig08:{app}",
                       (all(map(math.isfinite, times)) and best not in (slices[0], slices[-1]),
                        f"no interior inflection (best slice {best} ms)"),
                       (len(miss) > 1 and miss[-2] > miss[0],
                        "the LLC miss rate does not grow as the slice shrinks"),
                       (ctx[-1] > ctx[0], "context switches do not grow as the slice shrinks"))
    return out


def _euclid(results: Sequence[RunResult]) -> tuple[list[float], Optional[int], dict[int, float]]:
    """Eq. 1 over the sweeps: the candidate slices (ms), the chosen
    threshold (ns) and the metric per slice (ns); ``None`` and ``{}``
    when the sweeps do not cover every (app, slice) pair."""
    sweeps = _sweeps(results)
    slices = list(dict.fromkeys(row["slice_ms"] for _, rows in sweeps for row in rows))
    try:
        study = ThresholdStudy([ns_from_ms(s) for s in slices], [app for app, _ in sweeps])
        for app, rows in sweeps:
            for row in rows:
                study.record(app, ns_from_ms(row["slice_ms"]), row["mean_round_ns"])
        return (slices, *study.solve())
    except ValueError:
        return slices, None, {}


def eq1_table(results: Sequence[RunResult]) -> Table:
    slices, _, metrics = _euclid(results)
    return ("Eq. 1 — Euclidean metric by candidate minimum time-slice threshold",
            ["slice (ms)", "D(O, P)"], [(s, metrics.get(ns_from_ms(s), math.nan)) for s in slices])


def eq1_claims(results: Sequence[RunResult]) -> list[str]:
    # The optimum is a sub-millisecond slice in the paper's ballpark, and
    # the paper's 0.3 ms is within a whisker of it.
    _, best, metrics = _euclid(results)
    defined = bool(metrics) and all(map(math.isfinite, metrics.values()))
    near = metrics.get(ns_from_ms(0.3), math.nan) - metrics.get(best, math.nan)
    return _failed("eq1", (defined and ns_from_ms(0.2) <= best <= ns_from_ms(1.0),
                           f"chosen threshold {_ms(best) if defined else math.nan} ms outside "
                           "[0.2, 1.0] ms"),
                   (near < 0.05, f"D(0.3 ms) is {near:.3f} above the optimum's, not within 0.05"))


# ---- Section II-A2 small mix (Figs. 2, 9)
def mix_cells(prefix: str, schedulers: Sequence[str] = ("CR",),
              slices: Sequence[Optional[float]] = (None,), **params) -> list[RunSpec]:
    """One small-mix cell per scheduler and uniform slice (``None``: the
    scheduler's own)."""
    return [RunSpec("small_mix", dict(params, scheduler=s, uniform_slice_ms=sm),
                    label=f"{prefix}:{s}" + ("" if sm is None else f"@{sm}ms"))
            for s in schedulers for sm in slices]


FIG02_METRICS = (
    ("ping RTT (higher=worse)", "ping_mean_rtt_ns"),
    ("sphinx3 run time (higher=worse)", "sphinx3_mean_run_ns"),
    ("stream bandwidth (lower=worse)", "stream_bandwidth_Bps"),
    ("bonnie++ throughput (lower=worse)", "bonnie_throughput_Bps"),
)


def fig02_table(results: Sequence[RunResult]) -> Table:
    return ("Figure 2 — non-parallel apps under CS, normalized to CR", ["metric", "CS / CR"],
            [(name, _norm(g, "CS", "CR", key))
             for _, g in _by_approach(results) for name, key in FIG02_METRICS])


def fig02_claims(results: Sequence[RunResult]) -> list[str]:
    # Paper shapes: ping and sphinx3 degrade, stream mildly, bonnie++ ~flat.
    out = []
    for _, g in _by_approach(results):
        ping, sphinx, stream, bonnie = (_norm(g, "CS", "CR", key) for _, key in FIG02_METRICS)
        out += _failed("fig02", (ping > 1.2, f"CS ping RTT {ping:.3f}x CR, not above 1.2"),
                       (sphinx > 1.05, f"CS sphinx3 run time {sphinx:.3f}x CR, not above 1.05"),
                       (stream < 1.05, f"CS stream bandwidth {stream:.3f}x CR, not below 1.05"),
                       (bonnie > 0.6, f"CS bonnie++ throughput {bonnie:.3f}x CR, not above 0.6"))
    return out


def _fig09_sweeps(results: Sequence[RunResult]) -> list[list[tuple]]:
    return [[(sm, _ms(r.value["sphinx3_mean_run_ns"]), _ms(r.value["ping_mean_rtt_ns"]),
              r.value["stream_bandwidth_Bps"] / 1e9) for (sm,), r in g.items()]
            for g in _groups(results, "uniform_slice_ms")]


def fig09_table(results: Sequence[RunResult]) -> Table:
    return ("Figure 9 — non-parallel apps vs uniform slice (CR)",
            ["slice (ms)", "sphinx3 run (ms)", "ping RTT (ms)", "stream (GB/s)"],
            [row for rows in _fig09_sweeps(results) for row in rows])


def fig09_claims(results: Sequence[RunResult]) -> list[str]:
    # Very short slices slow sphinx3, improve ping's RTT and cost stream
    # bandwidth to extra cache flushes.
    out = []
    for rows in _fig09_sweeps(results):
        longest, shortest = rows[0], rows[-1]
        out += _failed("fig09",
                       (shortest[1] > longest[1], "sphinx3 not slower at the shortest slice"),
                       (shortest[2] < longest[2], "ping RTT not better at the shortest slice"),
                       (shortest[3] < longest[3] * 1.02, "stream gains at the shortest slice"))
    return out


# ---- type B: LLNL-trace cluster mix (Fig. 11) and mixed tenancy (Figs. 12-14)
def type_b_cells(scenario: str, prefix: str, schedulers: Sequence[str],
                 np_slices: Sequence[float] = (), **params) -> list[RunSpec]:
    """One cell per scheduler, then one ATC cell per administrator slice
    for the non-parallel VMs (the paper's ATC(6ms))."""
    return [RunSpec(scenario, dict(params, scheduler=s), label=f"{prefix}:{s}")
            for s in schedulers] + [
        RunSpec(scenario, dict(params, scheduler="ATC", atc_np_slice_ms=ms),
                label=f"{prefix}:ATC({ms:g}ms)") for ms in np_slices]


def _fig11_norms(results: Sequence[RunResult]) -> list[tuple[str, dict[str, float]]]:
    """Per VC of each group's baseline cell, every approach's mean round
    over the baseline's (the seed fixes the trace draw across approaches)."""
    out = []
    for _, g in _by_approach(results):
        vcs = {a: v["vcs"] for a, v in g.items()}
        for i, vc in enumerate(next(iter(vcs.values()))):
            out.append((f"{vc['vc']} ({vc['app']}, {vc['n_vms']} VMs)",
                        {a: _ratio(v[i]["mean_round_ns"] if i < len(v) else math.nan,
                                   vc["mean_round_ns"]) for a, v in vcs.items()}))
    return out


def fig11_table(results: Sequence[RunResult]) -> Table:
    norms = _fig11_norms(results)
    approaches = list(dict.fromkeys(a for _, n in norms for a in n))
    return ("Figure 11 — type B mix: normalized execution time per VC", ["VC", *approaches],
            [(vc, *(round(n.get(a, math.nan), 3) for a in approaches)) for vc, n in norms])


def fig11_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC accelerates the mix overall; CR's cells are their own baseline.
    norms = [(a, v) for _, n in _fig11_norms(results) for a, v in n.items() if math.isfinite(v)]
    atc = [v for a, v in norms if a == "ATC"]
    mean_atc = sum(atc) / len(atc) if atc else math.nan
    return _failed("fig11", (bool(atc), "no measurable VCs"),
                   (mean_atc < 0.6, f"mean ATC VC round {mean_atc:.3f}x CR, not below 0.6"),
                   (all(abs(v - 1.0) < 1e-9 for a, v in norms if a == "CR"),
                    "a CR cell is not 1.0x its own baseline"))


def _mean_parallel(v: dict) -> float:
    vals = [vc["mean_round_ns"] for vc in v["vcs"] if math.isfinite(vc["mean_round_ns"])]
    return sum(vals) / len(vals) if vals else math.nan


#: Figs. 12-14: (title, per metric (header, fn(value, CR's value))).
MIXED_FIGURES = {
    12: ("Figure 12 — parallel apps in mixed tenancy: normalized vs CR", [
        ("mean normalized round time",
         lambda v, cr: _ratio(_mean_parallel(v), _mean_parallel(cr)))]),
    13: ("Figure 13 — non-parallel apps, normalized to CR (higher = better)", [
        ("bonnie++ tput", lambda v, cr: _ratio(v["bonnie_throughput_Bps"],
                                               cr["bonnie_throughput_Bps"])),
        ("stream bw", lambda v, cr: _ratio(v["stream_bandwidth_Bps"], cr["stream_bandwidth_Bps"])),
        ("web responsiveness", lambda v, cr: _ratio(cr["webserver_mean_response_ns"],
                                                    v["webserver_mean_response_ns"]))]),
    14: ("Figure 14 — CPU-intensive apps, run time normalized to CR (1.0 = unaffected)", [
        (app, lambda v, cr, app=app: _ratio(v[f"{app}_mean_run_ns"], cr[f"{app}_mean_run_ns"]))
        for app in ("gcc", "bzip2", "sphinx3")]),
}


def _mixed(fig: int, results: Sequence[RunResult]) -> list[dict[str, tuple]]:
    """Per group, each approach's Fig. ``fig`` metrics against the baseline's."""
    metrics = MIXED_FIGURES[fig][1]
    return [{a: tuple(fn(v, next(iter(g.values()))) for _, fn in metrics) for a, v in g.items()}
            for _, g in _by_approach(results)]


def _mixed_table(fig: int) -> Callable[[Sequence[RunResult]], Table]:
    title, metrics = MIXED_FIGURES[fig]
    return lambda results: (title, ["approach", *(h for h, _ in metrics)],
                            [(a, *vals) for g in _mixed(fig, results) for a, vals in g.items()])


def fig12_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC is the best approach for the parallel applications.
    nan, out = (math.nan,), []
    for g in _mixed(12, results):
        atc = g.get("ATC", nan)[0]
        out += _failed("fig12", (all(atc <= v for a, (v,) in g.items()
                                     if a not in ("ATC", "ATC(6ms)")),
                                 f"ATC {atc:.3f}x CR is not the best approach"),
                       (atc < 0.7, f"ATC {atc:.3f}x CR, not below 0.7"))
    return out


def fig13_claims(results: Sequence[RunResult]) -> list[str]:
    # bonnie++ is roughly unaffected everywhere; the web server suffers
    # under CS, and ATC(30ms) does not hurt it.
    nan, out = (math.nan,) * 3, []
    for g in _mixed(13, results):
        cr, cs, atc = (g.get(a, nan)[2] for a in ("CR", "CS", "ATC"))
        out += _failed("fig13", (all(v[0] > 0.45 for v in g.values()),
                                 "bonnie++ throughput at or below 0.45x CR"),
                       (cs < cr, f"CS web responsiveness {cs:.3f}x CR, not below CR"),
                       (atc > 0.8 * cr, f"ATC web responsiveness {atc:.3f}x CR, not above 0.8x CR"))
    return out


def fig14_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC with the default non-parallel slice approximates CR; ATC(6ms)
    # visibly costs CPU-bound apps more.
    nan, out = (math.nan,) * 3, []
    for g in _mixed(14, results):
        atc, atc6 = g.get("ATC", nan), g.get("ATC(6ms)", nan)
        out += _failed("fig14", (all(v < 1.25 for v in atc), "ATC run times "
                                 f"{'/'.join(f'{v:.3f}' for v in atc)} not all below 1.25x CR"),
                       (sum(atc6) > sum(atc), "ATC(6ms) costs CPU-bound apps no more than ATC"))
    return out


GRIDS = {
    g.name: g
    for g in (
        Grid("chaos", "type_a", chaos_cells, chaos_table, chaos_claims, chaos_details),
        Grid("migrate", "migration_rebalance", migrate_cells, migrate_table, migrate_claims,
             migrate_details),
        Grid("dfrs", "dfrs_compare", dfrs_cells, dfrs_table, dfrs_claims),
        Grid("serve", "service", serve_cells, serve_table, serve_claims, serve_details),
        Grid("attack", "attack", attack_cells, attack_table, attack_claims),
        Grid("fig01", "type_a", partial(type_a_cells, prefix="fig01", schedulers=("CR", "CS")),
             fig01_table, fig01_claims),
        Grid("fig02", "small_mix", partial(mix_cells, prefix="fig02", schedulers=("CR", "CS")),
             fig02_table, fig02_claims),
        Grid("sweep", "slice_sweep", partial(slice_cells, prefix="sweep"),
             sweep_table, sweep_claims),
        Grid("fig08", "slice_sweep", partial(slice_cells, prefix="fig08", npb_class="C"),
             fig08_table, fig08_claims),
        Grid("eq1", "slice_sweep", partial(slice_cells, prefix="eq1", npb_class="C"),
             eq1_table, eq1_claims),
        Grid("fig09", "small_mix", partial(mix_cells, prefix="fig09"), fig09_table, fig09_claims),
        Grid("compare", "type_a", partial(type_a_cells, prefix="compare", schedulers=TYPE_A_SCHEDS),
             compare_table, compare_claims),
        Grid("fig11", "type_b", partial(type_b_cells, "type_b", "fig11", TYPE_A_SCHEDS, seed=11),
             fig11_table, fig11_claims),
        *(Grid(f"fig{n}", "type_b_mixed", partial(type_b_cells, "type_b_mixed", f"fig{n}",
                                                  MIXED_SCHEDS, np_slices=(6.0,), seed=n),
               _mixed_table(n), claims)
          for n, claims in ((12, fig12_claims), (13, fig13_claims), (14, fig14_claims))),
        Grid("headline", "type_a",
             partial(type_a_cells, prefix="headline", schedulers=("CR", "CS", "BS", "ATC")),
             headline_table, headline_claims),
        Grid("kernels", "type_a", partial(type_a_cells, prefix="kernels", schedulers=("CR", "ATC"),
                                          apps=("ep", "ft", "is")),
             kernels_table, kernels_claims),
        Grid("placement", "type_a", placement_cells, placement_table, placement_claims),
    )
}


# ----------------------------------------------------------------------
# repro run GRID --set KEY=VALUE
# ----------------------------------------------------------------------
def _declared(*fns: Callable) -> dict[str, tuple]:
    """Each named parameter of ``fns``: its first annotation and first
    default (``inspect.Parameter.empty`` when none declares one)."""
    keys: dict[str, tuple] = {}
    for fn in fns:
        hints = get_type_hints(getattr(fn, "func", fn))
        for k, p in inspect.signature(fn).parameters.items():
            if p.kind is not p.VAR_KEYWORD:
                hint, default = keys.get(k, (None, p.empty))
                keys[k] = (hint or hints.get(k), p.default if default is p.empty else default)
    return keys


def settable(grid: Grid) -> dict[str, object]:
    """``repro run``'s keys for ``grid`` and their first annotations:
    those its ``cells()`` or scenario builder declares, and the world
    options builders forward (:class:`WorldConfig` fields and ``_world``'s
    config dicts, less the positionals each builder passes itself)."""
    own = (grid.cells, SCENARIOS[grid.scenario])
    fixed = {k for k, (_, d) in _declared(_world).items()
             if d is inspect.Parameter.empty} - set(_declared(*own))
    return {k: hint for k, (hint, _) in sorted(_declared(*own, _world, WorldConfig).items())
            if k not in fixed}


def fault_dicts(spec: str, values: dict, *fns: Callable) -> Optional[list]:
    """A ``--faults`` spec (:func:`~repro.faults.plan.parse_fault_spec`)
    as scenario params, drawn against the cells' ``n_nodes`` and
    ``horizon_s``: given in ``values``, else the first default declared by
    ``fns`` (cells, then scenario builder), ``_world`` or :class:`WorldConfig`."""
    declared = _declared(*fns, _world, WorldConfig)
    n_nodes, horizon_s = (values.get(k, declared[k][1]) for k in ("n_nodes", "horizon_s"))
    plan = parse_fault_spec(spec, n_nodes, round(horizon_s * SEC))
    return plan.to_dicts() if plan else None


def _typed(text: str, hint):
    """One ``--set`` value by its annotation: a scalar as itself, ``none``
    for an Optional, a comma list for a sequence of scalars, and any other
    config as inline JSON or the contents of a JSON file."""
    args = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is Union:
        return None if text == "none" else _typed(text, args[0])
    if hint is bool:
        return {"true": True, "false": False}[text]
    if hint in (int, float, str):
        return hint(text)
    if get_origin(hint) is AbcSequence and (
            args[0] in (bool, int, float, str) or get_origin(args[0]) is Union):
        return [_typed(part, args[0]) for part in text.split(",")]
    return json.loads(text if text.lstrip()[:1] in ("[", "{")
                      else Path(text).read_text(encoding="utf-8"))


def grid_settings(grid: Grid, pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` strings as typed ``grid.cells()`` keyword arguments;
    :class:`ValueError` for an unknown key, a malformed value or a missing
    required ``cells()`` argument."""
    keys = settable(grid)
    texts = dict(pair.partition("=")[::2] for pair in pairs)
    unknown = [k for k in texts if k not in keys]
    missing = [k for k, p in inspect.signature(grid.cells).parameters.items()
               if p.default is p.empty and p.kind is not p.VAR_KEYWORD and k not in texts]
    if unknown or missing:
        raise ValueError(f"unknown key {unknown[0]!r}" if unknown
                         else f"missing required key {missing[0]!r}")
    out: dict = {}
    # faults last: its plan is drawn against the n_nodes and horizon_s set
    for key in sorted(texts, key=lambda k: k == "faults"):
        try:
            out[key] = (fault_dicts(texts[key], out, grid.cells, SCENARIOS[grid.scenario])
                        if key == "faults" else _typed(texts[key], keys[key]))
        except (ValueError, KeyError, TypeError, OSError) as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None
    return out


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
