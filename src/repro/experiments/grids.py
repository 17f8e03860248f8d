"""The paper's figures and the extension experiments as grids, each
declared exactly once.

A grid is several :class:`RunSpec` cells whose results only mean something
side by side (DESIGN.md §4 "Experiment grids").  Each :class:`Grid` pairs
``cells(**params)``, which builds the specs with the labels and params
``repro run`` exports; ``table(results)``, the derived metrics as
``(title, headers, rows)``; and ``claims(results)``, failure messages that
are empty when every claim holds.  Each claim is a comparison that is false
for NaN, so an undefined metric fails it.  Cells whose params differ only
in a grid's own axes form one group with its own baseline, so one export
may hold a grid at several scales.  A grid's ``cells()`` defaults are its
figure at the default scale (seconds to a minute on 2 cores), and its
``paper_scale`` params, applied by ``repro run GRID --full-scale``, are the
paper's scale (hours).  Grids read no environment.
"""

from __future__ import annotations

import inspect
import json
import math
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from repro.core.threshold import ThresholdStudy
from repro.experiments.harness import WorldConfig
from repro.experiments.runner import SCENARIOS, RunResult, RunSpec
from repro.experiments.scenarios import scenario_keys
from repro.faults.plan import parse_fault_spec
from repro.metrics.summary import pearson
from repro.sim.units import MSEC, SEC, ns_from_ms
from repro.workloads.npb import NPB_NAMES

__all__ = [
    "Grid",
    "GRIDS",
    "DFRS_MODES",
    "HYBRID_TOL",
    "attack_metrics",
    "attack_recovered",
    "grid_cells",
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
    """One experiment: its cells, derived table, claims and detail tables,
    the ``cells()`` keywords that scale its defaults up to the paper's,
    and the scenario keys its ``cells()`` set themselves (in every cell or
    some), which ``--set`` may not name."""

    name: str
    scenario: str
    cells: Callable[..., list[RunSpec]]
    table: Callable[[Sequence[RunResult]], Table]
    claims: Callable[[Sequence[RunResult]], list[str]]
    details: Callable[[Sequence[RunResult]], list[Table]] = lambda results: []
    paper_scale: dict = field(default_factory=dict)
    sets: tuple[str, ...] = ()


def _ratio(value: Optional[float], base: Optional[float]) -> float:
    """``value / base``; NaN when either is ``None`` or the base is 0 or NaN."""
    return value / base if base and value is not None else math.nan


def _per(value: Optional[float], unit: float) -> Optional[float]:
    """``value / unit``; ``None`` (printed as n/a) for a metric with no sample."""
    return None if value is None else value / unit


def _ms(ns: Optional[float]) -> Optional[float]:
    return _per(ns, 1e6)


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


def _cases(results: Sequence[RunResult], *axes: str) -> list[dict[str, RunResult]]:
    """:func:`_groups`, each cell keyed by its case name, the label past the
    grid's prefix: these axes hold ``sched_params`` dicts, which key nothing."""
    groups: dict[str, dict[str, RunResult]] = {}
    for r in results:
        groups.setdefault(_rest(r, axes), {})[r.spec.label.partition(":")[2]] = r
    return list(groups.values())


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
def migrate_cells(bound: Optional[str] = "spread", **params) -> list[RunSpec]:
    """Static baseline, a static cell at the ``bound`` placement (the
    paper's spread placement as the static upper bound; ``None`` leaves it
    out), then the ``demix`` cell.  The first cell is the baseline every
    round time is normalized to.  A ``migration`` dict may not name the
    ``policy``: each cell's label names the policy it runs."""
    if "policy" in (params.get("migration") or {}):
        raise ValueError("the migration dict may not set 'policy'; each cell sets its own")
    specs = [RunSpec("migration_rebalance", dict(params, policy="static"),
                     label="migrate:static")]
    if bound is not None:
        specs.append(RunSpec("migration_rebalance",
                             dict(params, placement=bound, policy="static"),
                             label=f"migrate:static@{bound}"))
    specs.append(RunSpec("migration_rebalance", dict(params, policy="demix"),
                         label="migrate:demix"))
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
def dfrs_cells(prefix: str, modes: Sequence[str] = (*DFRS_MODES, "idle"),
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
def serve_cells(admissions: Sequence[str] = ("reject-on-full", "fcfs-queue", "migration-aware"),
                **params) -> list[RunSpec]:
    return [
        RunSpec("service", dict(params, admission=a), label=f"serve:{a}")
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
def attack_cells(prefix: str, schedulers: Sequence[str] = ("CR", "ATC"),
                 **params) -> list[RunSpec]:
    return [
        RunSpec("attack", dict(params, scheduler=sched, hardened=hardened, attack=attack),
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
#: The keys :func:`type_a_cells` sets on every cell.
TYPE_A_SETS = ("app_name", "scheduler", "n_nodes")


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


def compare_details(results: Sequence[RunResult]) -> list[Table]:
    """Each cell's absolute mean round, average spin latency and completion."""
    return [("Type A — per cell", ["cell", "mean round (ms)", "avg spin (ms)", "done"],
             [(r.spec.label, _ms(r.value["mean_round_ns"]), _ms(r.value["avg_spin_ns"]),
               r.value["all_done"]) for r in results])]


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
                                                        **{**params, "placement": p, "seed": 5})]


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


#: The ATC design choices DESIGN.md calls out, as ``ATCConfig`` overrides:
#: the printed pseudo-code ("paper") vs the prose reading of Algorithm 1's
#: falling-latency case, the Section III-B floor (0.3 ms) vs none (0.03 ms)
#: vs a conservative one (1 ms), and the paper's future work, the VMM's
#: own run-queue-wait accounting driving Algorithm 1 with no guest
#: instrumentation.  DSS, per-VM slices, stands in for giving up
#: Algorithm 2's host-wide minimum.
ATC_VARIANTS = {
    "paper(0.3ms)": {},
    "prose(0.3ms)": {"trend_policy": "prose"},
    "no-floor(0.03ms)": {"min_threshold_ns": ns_from_ms(0.03), "beta_ns": ns_from_ms(0.03)},
    "floor(1ms)": {"min_threshold_ns": ns_from_ms(1.0), "beta_ns": ns_from_ms(0.5)},
    "non-intrusive": {"monitor_mode": "queuewait"},
}


def ablation_cells(**params) -> list[RunSpec]:
    """One type-A cell under CR (the baseline), DSS, then ATC per variant."""
    params = {"rounds": 2, "warmup_rounds": 1, **params}
    return [RunSpec("type_a", dict(params, scheduler=s), label=f"ablation:{s}")
            for s in ("CR", "DSS")] + [
        RunSpec("type_a", dict(params, scheduler="ATC", sched_params={"atc": atc}),
                label=f"ablation:{name}") for name, atc in ATC_VARIANTS.items()]


def _ablations(results: Sequence[RunResult]) -> list[dict[str, float]]:
    """Per :func:`_cases` group, each case's round time over its CR cell's."""
    out = []
    for g in _cases(results, "scheduler", "sched_params"):
        base = g["CR"].value["mean_round_ns"] if "CR" in g else math.nan
        out.append({c: _ratio(r.value["mean_round_ns"], base) for c, r in g.items()})
    return out


def ablation_table(results: Sequence[RunResult]) -> Table:
    apps = "/".join(dict.fromkeys(str(r.spec.params.get("app_name")) for r in results))
    return (f"ATC ablations — {apps}, normalized vs CR", ["variant", "normalized time"],
            [row for norm in _ablations(results) for row in norm.items()])


def ablation_claims(results: Sequence[RunResult]) -> list[str]:
    out = _all_done([r for r in results if r.spec.params["scheduler"] == "ATC"])
    for norm in _ablations(results):
        paper, dss, floor, quiet = (norm.get(c, math.nan) for c in
                                    ("paper(0.3ms)", "DSS", "floor(1ms)", "non-intrusive"))
        out += _failed(
            "ablation",
            # every ATC variant still beats CR decisively
            *((norm.get(v, math.nan) < 0.6, f"{v} {norm.get(v, math.nan):.3f}x CR, not below 0.6")
              for v in ATC_VARIANTS),
            # the adaptive controller (host-uniform min slice) beats per-VM DSS
            (paper < dss, f"paper(0.3ms) {paper:.3f}x CR, not below DSS's {dss:.3f}"),
            # a conservative 1 ms floor gives up some of the gain
            (floor >= paper - 0.02,
             f"floor(1ms) {floor:.3f}x CR, more than 0.02 below paper(0.3ms)'s {paper:.3f}"),
            # the non-intrusive monitor performs on par with guest tracing
            (abs(quiet - paper) < 0.1,
             f"non-intrusive {quiet:.3f}x CR, not within 0.1 of paper(0.3ms)'s {paper:.3f}"))
    return out


# ---- static slice sweeps under CR (Figs. 5, 8, Eq. 1)
#: The keys :func:`slice_cells` sets on every cell.
SLICE_SETS = ("app_name", "scheduler", "uniform_slice_ms")


def slice_cells(prefix: str, slices: Sequence[float] = (30.0, 12.0, 6.0, 1.0, 0.3),
                apps: Sequence[str] = ("lu",), n_nodes: int = 2, npb_class: str = "B",
                **params) -> list[RunSpec]:
    """One CR type-A cell at a uniform slice, and so one world, per (app, slice)."""
    return [RunSpec("type_a", {"rounds": 2, "warmup_rounds": 1, **params, "app_name": app,
                               "scheduler": "CR", "n_nodes": n_nodes, "npb_class": npb_class,
                               "uniform_slice_ms": sm}, label=f"{prefix}:{app}@{sm}ms")
            for app in apps for sm in slices]


def _sweeps(results: Sequence[RunResult]) -> list[tuple[str, list[dict]]]:
    """The per-slice cells joined into one sweep per group: its app and
    one row per cell in cell order, with the cluster rollup's LLC misses
    and context switches and the misses per busy millisecond."""
    sweeps: dict[str, tuple[str, list[dict]]] = {}
    for r in results:
        p, v, c = r.spec.params, r.value, r.value["cluster"]
        row = {"slice_ms": p["uniform_slice_ms"], "mean_round_ns": v["mean_round_ns"],
               "avg_spin_ns": v["avg_spin_ns"], "llc_misses": c["llc_misses"],
               "miss_rate_per_ms": c["llc_misses"] / (max(1, c["busy_ns"]) / MSEC),
               "context_switches": c["context_switches"]}
        sweeps.setdefault(_rest(r, ("uniform_slice_ms",)), (p["app_name"], []))[1].append(row)
    return list(sweeps.values())


def _series(rows: list[dict], key: str, scale: float = 1.0) -> list[float]:
    return [_ratio(row[key], scale) for row in rows]


def sweep_table(results: Sequence[RunResult]) -> Table:
    classes = "/".join(dict.fromkeys(str(r.spec.params["npb_class"]) for r in results))
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
    except (ValueError, TypeError):  # a cell without a measured round
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
#: The keys :func:`mix_cells` sets on every cell.
MIX_SETS = ("scheduler", "uniform_slice_ms")


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


def mix_details(results: Sequence[RunResult]) -> list[Table]:
    """Each cell's absolute small-mix metrics."""
    rows = []
    for r in results:
        v = r.value
        rows.append((r.spec.label, _ms(v["parallel_mean_round_ns"]), _ms(v["sphinx3_mean_run_ns"]),
                     _per(v["stream_bandwidth_Bps"], 1e9), _per(v["bonnie_throughput_Bps"], 1e6),
                     _ms(v["ping_mean_rtt_ns"])))
    return [("Small mix — per cell", ["cell", "parallel round (ms)", "sphinx3 run (ms)",
                                      "stream (GB/s)", "bonnie++ (MB/s)", "ping RTT (ms)"], rows)]


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
    return [[(sm, _ratio(r.value["sphinx3_mean_run_ns"], 1e6),
              _ratio(r.value["ping_mean_rtt_ns"], 1e6),
              _ratio(r.value["stream_bandwidth_Bps"], 1e9)) for (sm,), r in g.items()]
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


# ---- cross-VM packet path (Fig. 4)
#: Fig. 4's hops in path order, then the whole path.
HOPS = ("netback_tx_wait", "wire", "netback_rx_wait", "consume_wait", "end_to_end")


def fig04_cells(scheduler: str = "CR", **params) -> list[RunSpec]:
    """The scheduler as it is; without wake boosting, so every overhead
    source becomes a run-queue wait bounded by the slices of the VMs ahead
    (the paper's ``sum(TimeSlice_i)``); and the same at a uniform 0.3 ms
    slice, the effect ATC exploits."""
    params = dict(params, scheduler=scheduler)
    no_boost = dict(params, sched_params={"boost": False})
    return [RunSpec("packet_path_probe", p, label=f"fig04:{case}") for case, p in (
        (scheduler, params), ("no-boost 30ms", no_boost),
        ("no-boost 0.3ms", dict(no_boost, uniform_slice_ms=0.3)))]


def _hops(results: Sequence[RunResult]) -> list[dict[str, dict]]:
    """Per :func:`_cases` group, each case's probe count and hop means (µs;
    NaN without a probe)."""
    return [{c: {"probes": r.value["probes"],
                 **{h: _ratio(r.value[f"mean_{h}_ns"], 1e3) for h in HOPS}} for c, r in g.items()}
            for g in _cases(results, "sched_params", "uniform_slice_ms")]


def fig04_table(results: Sequence[RunResult]) -> Table:
    groups = _hops(results)
    cases = list(dict.fromkeys(c for g in groups for c in g))
    return ("Figure 4 — cross-VM packet path hops (us)", ["hop", *cases],
            [(h, *(g.get(c, {}).get(h, math.nan) for c in cases)) for g in groups for h in HOPS])


def fig04_claims(results: Sequence[RunResult]) -> list[str]:
    out = []
    for g in _hops(results):
        base = next(iter(g))
        cr, nb30, nb03 = (g.get(c, dict.fromkeys(HOPS, math.nan))
                          for c in (base, "no-boost 30ms", "no-boost 0.3ms"))
        sched_wait = cr["consume_wait"] + cr["netback_rx_wait"]
        wires = [v["wire"] for v in g.values()]
        out += _failed(
            "fig04",
            *((v["probes"] > 0, f"{c}: no probe arrived") for c, v in g.items()),
            # scheduling waits dominate the wire under stock CR with 30 ms slices
            (sched_wait > cr["wire"], f"{base} scheduling waits {sched_wait:.1f} us, "
             f"not above the wire's {cr['wire']:.1f} us"),
            # without boost, the waits explode at 30 ms slices...
            (nb30["end_to_end"] > 2 * cr["end_to_end"],
             f"no-boost 30ms end to end {_ratio(nb30['end_to_end'], cr['end_to_end']):.3f}x "
             f"{base}, not above 2"),
            # ...and shrink dramatically when every slice ahead in the queue is short
            (nb03["end_to_end"] < 0.2 * nb30["end_to_end"],
             f"no-boost 0.3ms end to end {_ratio(nb03['end_to_end'], nb30['end_to_end']):.3f}x "
             "no-boost 30ms, not below 0.2"),
            # the wire itself is slice-independent
            (all(map(math.isfinite, wires)) and max(wires) < 3 * min(wires),
             f"wire times {'/'.join(f'{w:.1f}' for w in wires)} us differ by 3x or more"))
    return out


# ---- type B: LLNL-trace cluster mix (Fig. 11) and mixed tenancy (Figs. 12-14)
def type_b_cells(scenario: str, prefix: str, schedulers: Sequence[str],
                 **params) -> list[RunSpec]:
    """One cell per scheduler."""
    return [RunSpec(scenario, dict(params, scheduler=s), label=f"{prefix}:{s}")
            for s in schedulers]


def mixed_cells(prefix: str, schedulers: Sequence[str], np_slices: Sequence[float] = (),
                **params) -> list[RunSpec]:
    """Mixed tenancy (Figs. 12-14): :func:`type_b_cells`, then one ATC cell
    per administrator slice for the non-parallel VMs (the paper's
    ATC(6ms)).  Only this scenario takes that slice."""
    return type_b_cells("type_b_mixed", prefix, schedulers, **params) + [
        RunSpec("type_b_mixed", dict(params, scheduler="ATC", atc_np_slice_ms=ms),
                label=f"{prefix}:ATC({ms:g}ms)") for ms in np_slices]


def _per_vc(results: Sequence[RunResult],
            metric: Callable[[Optional[float], Optional[float]], Optional[float]]
            ) -> list[tuple[str, dict[str, Optional[float]]]]:
    """Per VC of each group's baseline cell, ``metric(round, baseline's
    round)`` for every approach's mean round on that VC (the round is
    ``None`` when the approach has no such VC; the seed fixes the trace
    draw across approaches)."""
    out = []
    for _, g in _by_approach(results):
        vcs = {a: v["vcs"] for a, v in g.items()}
        for i, vc in enumerate(next(iter(vcs.values()))):
            out.append((f"{vc['vc']} ({vc['app']}, {vc['n_vms']} VMs)",
                        {a: metric(v[i]["mean_round_ns"] if i < len(v) else None,
                                   vc["mean_round_ns"]) for a, v in vcs.items()}))
    return out


def vc_details(results: Sequence[RunResult]) -> list[Table]:
    """Per VC, every approach's absolute mean round."""
    rounds = _per_vc(results, lambda ns, _: _ms(ns))
    approaches = list(dict.fromkeys(a for _, n in rounds for a in n))
    return [("Mean round (ms) per VC", ["VC", *approaches],
             [(vc, *(n.get(a) for a in approaches)) for vc, n in rounds])]


def fig11_table(results: Sequence[RunResult]) -> Table:
    norms = _per_vc(results, _ratio)
    approaches = list(dict.fromkeys(a for _, n in norms for a in n))
    return ("Figure 11 — type B mix: normalized execution time per VC", ["VC", *approaches],
            [(vc, *(round(n.get(a, math.nan), 3) for a in approaches)) for vc, n in norms])


def fig11_claims(results: Sequence[RunResult]) -> list[str]:
    # ATC accelerates the mix overall; CR's cells are their own baseline.
    norms = [(a, v) for _, n in _per_vc(results, _ratio) for a, v in n.items() if math.isfinite(v)]
    atc = [v for a, v in norms if a == "ATC"]
    mean_atc = sum(atc) / len(atc) if atc else math.nan
    return _failed("fig11", (bool(atc), "no measurable VCs"),
                   (mean_atc < 0.6, f"mean ATC VC round {mean_atc:.3f}x CR, not below 0.6"),
                   (all(abs(v - 1.0) < 1e-9 for a, v in norms if a == "CR"),
                    "a CR cell is not 1.0x its own baseline"))


def _mean_parallel(v: dict) -> float:
    vals = [vc["mean_round_ns"] for vc in v["vcs"] if vc["mean_round_ns"] is not None]
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


def table1_table(results: Sequence[RunResult]) -> Table:
    rows = []
    for r in results:
        v = r.value
        indep = v["n_vms"] - sum(vc["n_vms"] for vc in v["vcs"])
        rows += [(r.spec.label, vc["vc"], vc["n_vms"], vc["app"], vc["rounds"]) for vc in v["vcs"]]
        rows.append((r.spec.label, f"independents ({indep} VMs)", indep, "lu/is",
                     v["independent_rounds"]))
    return ("Table I — trace cell: rounds done per virtual cluster",
            ["cell", "virtual cluster", "VMs", "app", "rounds done"], rows)


def table1_details(results: Sequence[RunResult]) -> list[Table]:
    """Each cell's platform and event count."""
    return [("Table I — per cell", ["cell", "nodes", "VMs", "VCPUs", "events"],
             [(r.spec.label, r.value["n_nodes"], r.value["n_vms"], r.value["total_vcpus"],
               r.value["events"]) for r in results])]


def table1_claims(results: Sequence[RunResult]) -> list[str]:
    out = []
    for r in results:
        v = r.value
        rounds = sum(vc["rounds"] for vc in v["vcs"])
        out += _failed(
            r.spec.label,
            *((v[k] == n, f"{k} {v[k]}, not {n}")
              for k, n in (("n_nodes", 32), ("n_vms", 128), ("total_vcpus", 1024))),
            # the virtual clusters must have made visible progress in the horizon
            (rounds >= 5, f"the virtual clusters finished {rounds} rounds, fewer than 5"))
    return out


#: The paper's scales: its six NPB kernels, type-A cluster sizes and the
#: type-B platform.
PAPER_APPS = tuple(NPB_NAMES)
PAPER_NODES = (2, 4, 8, 16, 32)
TYPE_B_PAPER = {"n_nodes": 32, "horizon_s": 30.0}
#: Fig. 5's slice ladder at paper scale (30 down to 0.1 ms).
PAPER_SLICES_MS = (30, 24, 18, 12, 6, 1, 0.6, 0.3, 0.15, 0.1)

GRIDS = {
    g.name: g
    for g in (
        Grid("chaos", "type_a", chaos_cells, chaos_table, chaos_claims, chaos_details),
        # Two parallel clusters packed on a shared host, the worst case
        # for Algorithm 2's per-host slice minimum, plus one non-parallel
        # tenant: the packed placement left alone, the paper's spread
        # placement, and the packed placement repaired online by demix.
        Grid("migrate", "migration_rebalance",
             partial(migrate_cells, n_clusters=2, seed=0), migrate_table, migrate_claims,
             migrate_details, paper_scale={"horizon_s": 30.0}, sets=("policy", "placement")),
        # Plain Credit (the 1.0 mark), ATC, CR plus the DFRS cap/weight
        # controller, ATC plus DFRS, and a constructed-but-disabled
        # controller (solve_every=0), the bit-identity control cell.
        Grid("dfrs", "dfrs_compare", partial(dfrs_cells, "dfrs", horizon_s=10.0, seed=0),
             dfrs_table, dfrs_claims, paper_scale={"horizon_s": 30.0}, sets=("mode",)),
        # One Poisson tenant stream, offered well above what 3 packed
        # nodes absorb at once, under each admission policy.
        Grid("serve", "service",
             partial(serve_cells, placement="pack", n_nodes=3, rate_per_s=10.0, max_tenants=12,
                     rounds=3, horizon_s=60.0, seed=0),
             serve_table, serve_claims, serve_details,
             paper_scale={"max_tenants": 24, "horizon_s": 120.0}, sets=("admission",)),
        # A victim cluster beside yield-theft and tickle-storm attackers on
        # tick-sampled accounting: stock knobs vs deboost-on-yield, a BOOST
        # rate limit, a randomized tick phase and (ATC) the slice floor.
        Grid("attack", "attack", partial(attack_cells, "attack", n_nodes=1, horizon_s=4.0, seed=0),
             attack_table, attack_claims, paper_scale={"horizon_s": 8.0},
             sets=("scheduler", "hardened", "attack")),
        # CS gangs each VM's VCPUs on its host, but a cluster's VMs on
        # different hosts stay unsynchronized, so CS's gain erodes as the
        # cluster spans more hosts.
        Grid("fig01", "type_a", partial(type_a_cells, "fig01", schedulers=("CR", "CS"),
                                        nodes=(2, 4)),
             fig01_table, fig01_claims, paper_scale={"nodes": PAPER_NODES}, sets=TYPE_A_SETS),
        Grid("fig02", "small_mix",
             partial(mix_cells, "fig02", schedulers=("CR", "CS"), horizon_s=6.0),
             fig02_table, fig02_claims, mix_details, paper_scale={"horizon_s": 20.0},
             sets=MIX_SETS),
        Grid("fig04", "packet_path_probe", partial(fig04_cells, n_probes=200),
             fig04_table, fig04_claims, sets=("sched_params", "uniform_slice_ms")),
        Grid("sweep", "type_a", partial(slice_cells, "sweep", apps=("lu", "is", "cg")),
             sweep_table, sweep_claims,
             paper_scale={"apps": PAPER_APPS, "slices": PAPER_SLICES_MS}, sets=SLICE_SETS),
        # Known deviation (EXPERIMENTS.md): the inflection sits at ~0.5 ms,
        # about 2x to the right of the paper's ~0.2 ms, because the
        # simulator's wake path saturates the benefit of sub-millisecond
        # slices slightly earlier.
        Grid("fig08", "type_a",
             partial(slice_cells, "fig08", npb_class="C", apps=("lu", "cg"),
                     slices=(2, 1, 0.5, 0.4, 0.3, 0.2, 0.1, 0.03)),
             fig08_table, fig08_claims, paper_scale={"apps": PAPER_APPS}, sets=SLICE_SETS),
        # The paper's candidates {0.5 ... 0.03} ms plus 1.0 and 2.0 ms, so
        # the optimum is interior at our resolution.
        Grid("eq1", "type_a",
             partial(slice_cells, "eq1", npb_class="C", apps=("lu", "is", "cg"),
                     slices=(2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.03)),
             eq1_table, eq1_claims, paper_scale={"apps": PAPER_APPS}, sets=SLICE_SETS),
        Grid("fig09", "small_mix",
             partial(mix_cells, "fig09", slices=(30, 6, 0.3), horizon_s=6.0),
             fig09_table, fig09_claims, mix_details,
             paper_scale={"slices": (30, 12, 6, 1, 0.3), "horizon_s": 12.0}, sets=MIX_SETS),
        Grid("compare", "type_a", partial(type_a_cells, "compare", schedulers=TYPE_A_SCHEDS,
                                          apps=("lu", "is"), nodes=(2, 4)),
             compare_table, compare_claims, compare_details,
             paper_scale={"apps": PAPER_APPS, "nodes": PAPER_NODES}, sets=TYPE_A_SETS),
        # The paper's exact 32-node type-B platform (one cell; no smaller scale).
        Grid("table1", "table1_cell", partial(type_b_cells, "table1_cell", "table1",
                                              schedulers=("ATC",), horizon_s=2.0),
             table1_table, table1_claims, table1_details, sets=("scheduler",)),
        # The seed fixes the trace draw across approaches, so each VC is
        # normalized against CR on the same VC/app assignment.
        Grid("fig11", "type_b", partial(type_b_cells, "type_b", "fig11", schedulers=TYPE_A_SCHEDS,
                                        seed=11, n_nodes=6, horizon_s=8.0),
             fig11_table, fig11_claims, vc_details, paper_scale=TYPE_B_PAPER,
             sets=("scheduler",)),
        *(Grid(f"fig{n}", "type_b_mixed", partial(mixed_cells, f"fig{n}",
                                                  schedulers=MIXED_SCHEDS, np_slices=(6.0,),
                                                  seed=n, n_nodes=6, horizon_s=8.0),
               _mixed_table(n), claims, vc_details, paper_scale=TYPE_B_PAPER,
               sets=("scheduler", "atc_np_slice_ms"))
          for n, claims in ((12, fig12_claims), (13, fig13_claims), (14, fig14_claims))),
        Grid("headline", "type_a",
             partial(type_a_cells, "headline", schedulers=("CR", "CS", "BS", "ATC"),
                     apps=("lu", "is", "cg")),
             headline_table, headline_claims, paper_scale={"apps": PAPER_APPS, "nodes": (8,)},
             sets=TYPE_A_SETS),
        # ep has no synchronization, the control no scheduler should move;
        # ft's all-to-all transposes are the most communication-bound.
        Grid("kernels", "type_a", partial(type_a_cells, "kernels", schedulers=("CR", "ATC"),
                                          apps=("ep", "ft", "is")),
             kernels_table, kernels_claims, sets=TYPE_A_SETS),
        # The whole placement registry: striped interleaves clusters over
        # nodes by global VM index, and random:SEED draws a reproducible
        # placement; both land between spread and pack.
        Grid("placement", "type_a", placement_cells, placement_table, placement_claims,
             sets=(*TYPE_A_SETS, "placement", "seed")),
        Grid("ablation", "type_a", partial(ablation_cells, app_name="lu", n_nodes=2),
             ablation_table, ablation_claims, compare_details,
             sets=("scheduler", "sched_params")),
    )
}


# ----------------------------------------------------------------------
# repro run GRID --set KEY=VALUE
# ----------------------------------------------------------------------
def _cells_params(grid: Grid) -> dict[str, inspect.Parameter]:
    """The named parameters of ``grid.cells()``, with the defaults its
    partial binds."""
    return {k: p for k, p in inspect.signature(grid.cells).parameters.items()
            if p.kind is not p.VAR_KEYWORD}


def settable(grid: Grid) -> dict[str, object]:
    """Every key ``--set`` may name on ``grid``, sorted, with its type:
    the scenario's declared keys and the ``cells()`` parameters, less the
    keys the grid's cells set themselves (``Grid.sets``).  ``repro run``
    lists these."""
    hints = get_type_hints(getattr(grid.cells, "func", grid.cells))
    keys = {**scenario_keys(SCENARIOS[grid.scenario].params),
            **{k: hints[k] for k in _cells_params(grid)}}
    return {k: keys[k] for k in sorted(keys) if k not in grid.sets}


def _typed(text: str, hint):
    """One ``--set`` value by its annotation: a scalar as itself, ``none``
    for an Optional, a comma list for a sequence of scalars, a dict or
    list as inline JSON or the contents of a JSON file."""
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


def grid_cells(grid: Grid, pairs: Sequence[str], full_scale: bool = False) -> list[RunSpec]:
    """``grid.cells()`` under ``KEY=VALUE`` strings (:func:`grid_settings`),
    on top of ``grid.paper_scale`` when ``full_scale``; :class:`ValueError`
    also for a value out of its key's range (:class:`RunSpec` checks each
    cell's params)."""
    return grid.cells(**{**(grid.paper_scale if full_scale else {}),
                         **grid_settings(grid, pairs)})


def grid_settings(grid: Grid, pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` strings as ``grid.cells()`` keyword arguments, each
    typed by its declared type; :class:`ValueError` for a key the grid
    sets itself, an unknown key, a malformed value or a missing required
    ``cells()`` argument."""
    keys = settable(grid)
    params = _cells_params(grid)
    texts = dict(pair.partition("=")[::2] for pair in pairs)
    for key in texts:
        if key in grid.sets:
            raise ValueError(f"key {key!r} is set by the grid itself")
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in texts]
    if missing:
        raise ValueError(f"missing required key {missing[0]!r}")
    out: dict = {}
    # faults last: its plan (a repro.faults spec) is drawn against the
    # n_nodes and horizon_s set, else the grid's partial or cells()
    # default, else the scenario's, else WorldConfig's
    declared = SCENARIOS[grid.scenario].params
    defaults = {k: getattr(declared, k, getattr(WorldConfig, k, None))
                for k in ("n_nodes", "horizon_s")}
    defaults.update(getattr(grid.cells, "keywords", {}))
    defaults.update((k, p.default) for k, p in params.items() if p.default is not p.empty)
    for key in sorted(texts, key=lambda k: k == "faults"):
        try:
            if key != "faults":
                out[key] = _typed(texts[key], keys[key])
                continue
            n_nodes, horizon_s = (out.get(k, defaults[k]) for k in ("n_nodes", "horizon_s"))
            plan = parse_fault_spec(texts[key], n_nodes, round(horizon_s * SEC))
            out[key] = plan.to_dicts() if plan else None
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
        except (KeyError, TypeError, ValueError) as exc:
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
