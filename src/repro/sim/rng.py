"""Deterministic random-number utilities.

Every stochastic element of the simulation (compute-grain jitter, workload
selection, trace synthesis) draws from a :class:`SimRNG`, which wraps a
seeded :class:`random.Random`.  A stream is named by the root seed and its
key path from the root: :meth:`SimRNG.substream` appends its keys to the
parent's path, so ``rng.substream(a).substream(b)`` is
``rng.substream(a, b)`` and streams with different paths are independent.
Drawing from one entity's stream never perturbs another's — a requirement
for meaningful A/B comparisons between schedulers on *the same* workload
realization.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional

__all__ = ["SimRNG"]


class SimRNG:
    """Seeded random source with cheap deterministic sub-streams keyed by
    ``(root seed, key path)``."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int = 0) -> None:
        self._derive(int(seed), ())

    def _derive(self, seed: int, path: tuple[int, ...]) -> None:
        # blake2b, not hash(): hash() of a str varies with PYTHONHASHSEED.
        digest = hashlib.blake2b(repr((seed, path)).encode(), digest_size=32).digest()
        self.seed = seed
        self.path = path
        self._gen = random.Random(digest)  # repro: ignore[RPR001]

    # ------------------------------------------------------------------
    def substream(self, *keys: int) -> "SimRNG":
        """Derive the stream whose path is this stream's path plus ``keys``.

        The same ``(seed, path)`` always yields the same stream; different
        paths yield independent streams.  Deriving draws nothing from
        ``self``.
        """
        child = SimRNG.__new__(SimRNG)
        child._derive(self.seed, self.path + tuple(int(k) for k in keys))
        return child

    # ------------------------------------------------------------------
    # Draw helpers (all return python ints/floats, ns-friendly)
    # ------------------------------------------------------------------
    def uniform_ns(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] nanoseconds."""
        return self._gen.randint(lo, hi)

    @staticmethod
    def lognormal_params(mean_ns: int, cv: float) -> Optional[tuple[float, float]]:
        """``(mu, sigma)`` of the lognormal :meth:`jittered_ns` draws from
        for this mean and coefficient of variation, or ``None`` when the
        duration is deterministic (``cv <= 0`` or ``mean_ns <= 0``)."""
        if cv <= 0.0 or mean_ns <= 0:
            return None
        sigma2 = math.log1p(cv * cv)
        return math.log(mean_ns) - 0.5 * sigma2, math.sqrt(sigma2)

    def jittered_ns(self, mean_ns: int, cv: float) -> int:
        """A positive duration with the given mean and coefficient of
        variation, drawn from a lognormal (heavy-ish tail, like real
        compute phases).  ``cv = 0`` returns the mean exactly."""
        params = self.lognormal_params(mean_ns, cv)
        if params is None:
            return max(0, int(mean_ns))
        return max(1, int(self._gen.lognormvariate(*params)))

    def jittered_list(self, mean_ns: int, cv: float, n: int) -> list[int]:
        """``n`` :meth:`jittered_ns` draws as a list, with the lognormal
        parameters computed once (a BSP round's compute grains)."""
        params = self.lognormal_params(mean_ns, cv)
        if params is None:
            return [max(0, int(mean_ns))] * n
        mu, sigma = params
        draw = self._gen.lognormvariate
        return [max(1, int(draw(mu, sigma))) for _ in range(n)]

    def exponential_ns(self, mean_ns: int) -> int:
        """Exponential inter-arrival time with the given mean (>=1 ns)."""
        return max(1, int(self._gen.expovariate(1.0 / mean_ns)))

    def choice(self, seq, p=None):
        """Choose an element of ``seq`` (optionally with probabilities)."""
        if p is None:
            return seq[self._gen.randrange(len(seq))]
        return seq[self._gen.choices(range(len(seq)), weights=p)[0]]

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._gen.random()

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._gen.shuffle(items)
