"""Extension grid declarations (repro.experiments.grids): claims report
undefined or NaN metrics as named failures instead of raising."""

from __future__ import annotations

import math

from repro.experiments.grids import GRIDS, attack_recovered
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
