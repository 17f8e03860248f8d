"""Grid declarations (repro.experiments.grids): claims report violated,
undefined or NaN metrics as named failures instead of raising."""

from __future__ import annotations

import math

import pytest

from repro.experiments.grids import GRIDS, attack_metrics, attack_recovered
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult

ATTACK = GRIDS["attack"]


def _attack_results(round_ns) -> list[RunResult]:
    """A synthetic CR attack grid; ``round_ns(hardened, attack)`` gives
    the victim's mean round."""
    return [
        RunResult(spec=s, ok=True, value={
            "victim_mean_round_ns": round_ns(s.params["hardened"], s.params["attack"]),
            "thief": {"gain": 1.0},
            "tickler": {"boost_preempts_inflicted": 0},
            "victim_boost_preempts_suffered": 0,
        })
        for s in ATTACK.cells(schedulers=("CR",))
    ]


def test_attack_recovered_is_undefined_without_slowdown():
    assert attack_recovered(1.0, 1.0) is None
    assert attack_recovered(0.9, 0.8) is None
    assert attack_recovered(math.nan, 1.0) is None
    assert attack_recovered(3.0, 2.0) == 0.5


def test_attack_metrics_treat_an_undefined_round_as_nan():
    """A cell whose victim finished no round reports ``None``; the
    slowdown built from it is NaN and the claims name the failure."""
    results = _attack_results(lambda hardened, attack: None if attack else 100.0)
    (m,) = attack_metrics(results)
    assert math.isnan(m["open"]["slowdown"]) and math.isnan(m["hard"]["slowdown"])
    assert m["recovered"] is None
    failures = ATTACK.claims(results)
    assert "attack:CR: hardening recovery undefined (unhardened slowdown nan)" in failures


def test_attack_claims_when_attack_does_not_slow_the_victim():
    results = _attack_results(lambda hardened, attack: 100.0)
    failures = ATTACK.claims(results)
    assert "attack:CR: hardening recovery undefined (unhardened slowdown 1.000)" in failures
    assert any("victim slowdown 1.000 not > 1" in f for f in failures)
    assert ATTACK.table(results)[2][1][-1] == "-"


def test_attack_claims_when_the_victim_finishes_no_round():
    results = _attack_results(lambda hardened, attack: math.nan if attack else 100.0)
    failures = ATTACK.claims(results)
    assert "attack:CR: hardening recovery undefined (unhardened slowdown nan)" in failures
    assert any("unhardened victim slowdown nan not > 1" in f for f in failures)
    assert any("hardened victim slowdown nan not below" in f for f in failures)


def test_censored_thief_gain_keeps_the_claims_meaning():
    """A never-debited unhardened thief still counts as gaining; a
    never-debited hardened thief fails both hardened bounds."""
    results = _attack_results(
        lambda hardened, attack: 150.0 if attack and not hardened else 100.0
    )
    for r in results:
        if r.spec.params["attack"] and not r.spec.params["hardened"]:
            r.value["thief"] = {"gain": None, "gain_censored": True}
    assert not any("thief gain" in f for f in ATTACK.claims(results))
    assert ATTACK.table(results)[2][0][3] == "censored"
    for r in results:
        if r.spec.params["attack"] and r.spec.params["hardened"]:
            r.value["thief"] = {"gain": None, "gain_censored": True}
    failures = ATTACK.claims(results)
    assert "attack:CR: hardened thief gain censored not below unhardened" in failures
    assert "attack:CR: hardened thief gain censored above 1.1" in failures


# ----------------------------------------------------------------------
# The paper's figure grids, one synthetic value builder per scenario family
# ----------------------------------------------------------------------
MIX_KEYS = ("ping_mean_rtt_ns", "sphinx3_mean_run_ns", "stream_bandwidth_Bps",
            "bonnie_throughput_Bps")
MIXED_KEYS = ("bonnie_throughput_Bps", "stream_bandwidth_Bps", "webserver_mean_response_ns",
              "gcc_mean_run_ns", "bzip2_mean_run_ns", "sphinx3_mean_run_ns")


def _vcs(round_ns):
    return [{"vc": "VC1", "app": "lu", "n_vms": 2, "mean_round_ns": round_ns}]


def _type_a_cell(round_ns, spin_ns, ctx=100, llc_misses=10):
    """A type-A value: 10 LLC misses over 10 busy ms are 1.0 per ms."""
    return {"mean_round_ns": round_ns, "avg_spin_ns": spin_ns, "all_done": True,
            "cluster": {"context_switches": ctx, "llc_misses": llc_misses, "busy_ns": 10_000_000}}


NAN = math.nan
NAN_VALUES = {
    "type_a": lambda s: _type_a_cell(NAN, NAN, llc_misses=NAN),
    "small_mix": lambda s: dict.fromkeys(MIX_KEYS, NAN),
    "type_b": lambda s: {"vcs": _vcs(NAN)},
    "type_b_mixed": lambda s: {"vcs": _vcs(NAN), **dict.fromkeys(MIXED_KEYS, NAN)},
}
FIGURES = {
    "fig01": dict(nodes=(2, 4)), "fig02": {}, "sweep": dict(slices=(30, 6, 1)),
    "fig08": dict(slices=(2, 1, 0.5, 0.3)), "eq1": dict(apps=("lu", "cg"), slices=(1, 0.3, 0.2)),
    "fig09": dict(slices=(30, 0.3)), "compare": {}, "fig11": {}, "fig12": {}, "fig13": {},
    "fig14": {}, "headline": {}, "kernels": {}, "placement": {},
}


def _results(name, value, **params) -> list[RunResult]:
    return [RunResult(spec=s, ok=True, value=value(s)) for s in GRIDS[name].cells(**params)]


def test_every_paper_figure_is_a_grid():
    assert set(FIGURES) <= set(GRIDS)
    assert {GRIDS[n].scenario for n in FIGURES} == set(NAN_VALUES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_claims_fail_on_nan_metrics(name):
    grid = GRIDS[name]
    results = _results(name, NAN_VALUES[grid.scenario], **FIGURES[name])
    grid.table(results)
    failures = grid.claims(results)
    assert failures and all(f.startswith(name) for f in failures), failures


#: A metric with no sample is None (no round, run or packet measured).
NONE_VALUES = {
    "type_a": lambda s: _type_a_cell(None, None),
    "small_mix": lambda s: dict.fromkeys(MIX_KEYS, None),
    "type_b": lambda s: {"vcs": _vcs(None)},
    "type_b_mixed": lambda s: {"vcs": _vcs(None), **dict.fromkeys(MIXED_KEYS, None)},
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_claims_fail_on_metrics_without_a_sample(name):
    grid = GRIDS[name]
    results = _results(name, NONE_VALUES[grid.scenario], **FIGURES[name])
    title, headers, rows = grid.table(results)
    format_table(headers, rows, title=title)
    failures = grid.claims(results)
    assert failures and all(f.startswith(name) for f in failures), failures


def _type_a(times):
    return lambda s: {"mean_round_ns": times[s.params["scheduler"]], "all_done": True}


def test_type_a_claims_name_the_violation():
    good = {"CR": 100.0, "BS": 90.0, "CS": 80.0, "DSS": 95.0, "ATC": 40.0}
    assert GRIDS["compare"].claims(_results("compare", _type_a(good))) == []
    failures = GRIDS["compare"].claims(_results("compare", _type_a({**good, "ATC": 85.0}),
                                                apps=("lu",), nodes=(2,)))
    assert failures == ["compare:lu/2: ATC 0.850x CR is not the best approach",
                        "compare:lu/2: ATC 0.850x CR, not below 0.75"]


def test_compare_table_keeps_the_mean_round_times():
    times = {"CR": 100e6, "BS": 90e6, "CS": 80e6, "DSS": 95e6, "ATC": 40e6}
    _, headers, rows = GRIDS["compare"].table(_results("compare", _type_a(times),
                                                       apps=("lu",), nodes=(2,)))
    assert headers[-5:] == ["CR (ms)", "BS (ms)", "CS (ms)", "DSS (ms)", "ATC (ms)"]
    assert rows == [("lu", 2, 1.0, 0.9, 0.8, 0.95, 0.4, 100.0, 90.0, 80.0, 95.0, 40.0)]


def test_placement_baseline_is_cr_spread_in_any_cell_order():
    def value(s):
        p = s.params
        return {"mean_round_ns": (2.0 if p["scheduler"] == "CR" else 1.0)
                * (1.0 if p["placement"] == "spread" else 3.0), "all_done": True}

    results = _results("placement", value)
    norm = dict(GRIDS["placement"].table(results)[2])
    assert norm == dict(GRIDS["placement"].table(results[::-1])[2])
    assert norm["CR / spread"] == 1.0 and norm["ATC / pack"] == 1.5
    assert GRIDS["placement"].claims(results[::-1]) == []
    no_base = [r for r in results if r.spec.params["placement"] != "spread"]
    assert "placement:pack: ATC nan not below CR nan" in GRIDS["placement"].claims(no_base)


def test_slice_sweep_claims_name_the_violation():
    def sweep(spins):  # round time proportional to spin latency
        return lambda s: _type_a_cell(100.0 * spins[s.params["uniform_slice_ms"]],
                                      spins[s.params["uniform_slice_ms"]])

    assert GRIDS["sweep"].claims(_results("sweep", sweep({30: 3.0, 6: 2.0, 1: 1.0}),
                                          slices=(30, 6, 1))) == []
    failures = GRIDS["sweep"].claims(_results("sweep", sweep({30: 3.0, 6: 4.0, 1: 1.0}),
                                              apps=("lu",), slices=(30, 6, 1)))
    assert failures == ["sweep:lu: spin latency does not fall monotonically with the slice"]


def test_one_slice_sweep_fails_the_correlation_claim():
    """pearson raises on one point; the claim reports it instead."""
    results = _results("sweep", lambda s: _type_a_cell(300.0, 30.0), slices=(30,))
    assert "sweep:lu: pearson(spin, time) = nan, not above 0.9" in GRIDS["sweep"].claims(results)


def test_small_mix_claims_name_the_violation():
    def mix(bonnie):
        cs = dict(zip(MIX_KEYS, (2.0, 1.2, 0.9, bonnie)))
        return lambda s: cs if s.params["scheduler"] == "CS" else dict.fromkeys(MIX_KEYS, 1.0)

    assert GRIDS["fig02"].claims(_results("fig02", mix(1.0))) == []
    assert GRIDS["fig02"].claims(_results("fig02", mix(0.5))) == [
        "fig02: CS bonnie++ throughput 0.500x CR, not above 0.6"]


def test_mixed_tenancy_claims_name_the_violation():
    def mixed(atc_gcc):
        def value(s):
            run = {"ATC": atc_gcc, "ATC(6ms)": 130.0}.get(s.label.split(":")[1], 100.0)
            return {"vcs": _vcs(100.0), **dict.fromkeys(MIXED_KEYS, 100.0),
                    "gcc_mean_run_ns": run}
        return value

    assert GRIDS["fig14"].claims(_results("fig14", mixed(110.0))) == []
    assert GRIDS["fig14"].claims(_results("fig14", mixed(130.0))) == [
        "fig14: ATC run times 1.300/1.000/1.000 not all below 1.25x CR",
        "fig14: ATC(6ms) costs CPU-bound apps no more than ATC"]
