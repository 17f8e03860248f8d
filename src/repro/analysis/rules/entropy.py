"""Rule family RPR00x: wall-clock and entropy sources.

Every timestamp in the simulation must come from
:attr:`repro.sim.engine.Simulator.now` and every random draw from a
seeded :class:`repro.sim.rng.SimRNG`.  Host wall-clock reads or ambient
entropy anywhere in the simulation path makes same-seed runs diverge —
silently, because aggregate numbers still look plausible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import FileContext, Finding, Rule
from repro.analysis.rules.common import ImportMap, resolve_call_target

__all__ = ["EntropyCallRule", "UnseededRngRule"]

#: Exact dotted targets that read the host clock or ambient entropy.
_FORBIDDEN_EXACT = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Module prefixes where *every* call is ambient entropy.
_FORBIDDEN_PREFIXES = ("random.", "secrets.")

#: numpy's legacy global-state RNG API (np.random.seed / np.random.rand
#: ...).  The seeded Generator API (default_rng(seed), SeedSequence) is
#: allowed.
_NUMPY_LEGACY = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "random_integers",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "bytes",
    "normal",
    "uniform",
    "standard_normal",
    "exponential",
    "lognormal",
}

#: ``datetime`` constructors that capture the host clock.
_DATETIME_NOW = (".now", ".utcnow", ".today", ".utcfromtimestamp")


class EntropyCallRule(Rule):
    """RPR001: direct wall-clock or entropy call."""

    code = "RPR001"
    summary = (
        "wall-clock/entropy call (time.*, datetime.now, random.*, os.urandom); "
        "route time through Simulator.now and randomness through sim.rng.SimRNG"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, imports)
            if target is None:
                continue
            if self._forbidden(target):
                yield ctx.finding(
                    self.code,
                    f"call to {target}() is nondeterministic across runs; "
                    "use Simulator.now / sim.rng.SimRNG instead",
                    node,
                )

    @staticmethod
    def _forbidden(target: str) -> bool:
        if target in _FORBIDDEN_EXACT:
            return True
        if target.startswith(_FORBIDDEN_PREFIXES):
            return True
        if target.startswith("numpy.random.") and target.rsplit(".", 1)[1] in _NUMPY_LEGACY:
            return True
        if target.startswith(("datetime.", "datetime.datetime.", "datetime.date.")):
            return target.endswith(_DATETIME_NOW)
        return False


class UnseededRngRule(Rule):
    """RPR002: RNG constructed without an explicit seed."""

    code = "RPR002"
    summary = (
        "unseeded RNG construction (default_rng()/RandomState()/Random() "
        "with no arguments draws OS entropy)"
    )

    _CONSTRUCTORS = {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "random.Random",
    }

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, imports)
            if target in self._CONSTRUCTORS and not node.args and not node.keywords:
                yield ctx.finding(
                    self.code,
                    f"{target}() without a seed draws OS entropy; "
                    "pass an explicit seed (or use sim.rng.SimRNG)",
                    node,
                )
