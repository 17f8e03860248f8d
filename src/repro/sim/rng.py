"""Deterministic random-number utilities.

Every stochastic element of the simulation (compute-grain jitter, workload
selection, trace synthesis) draws from a :class:`SimRNG`, which wraps a
seeded :class:`numpy.random.Generator`.  Sub-streams derived with
:meth:`SimRNG.substream` are keyed by the root seed and the keys of that
one call, so drawing from one entity's stream never perturbs another's —
a requirement for meaningful A/B comparisons between schedulers on *the
same* workload realization.  A sub-stream's own keys are *not* part of its
children's key: ``rng.substream(1).substream(0, 0, 0)`` and
``rng.substream(2).substream(0, 0, 0)`` are one stream, so only distinct
key tuples give distinct streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SimRNG"]


class SimRNG:
    """Seeded random source with cheap deterministic sub-streams keyed by
    ``(root seed, keys)``."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(np.random.SeedSequence(self.seed))

    # ------------------------------------------------------------------
    def substream(self, *keys: int) -> "SimRNG":
        """Derive the stream keyed by the root ``seed`` and ``keys``.

        The same ``(seed, keys)`` always yields the same stream; different
        key tuples yield statistically independent streams (SeedSequence
        spawn keys).  The keys this stream was derived with are not
        included, so ``self.substream(*keys)`` is the root's
        ``substream(*keys)`` whatever stream ``self`` is.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(int(k) for k in keys))
        child = SimRNG.__new__(SimRNG)
        child.seed = self.seed
        child._gen = np.random.default_rng(ss)
        return child

    # ------------------------------------------------------------------
    # Draw helpers (all return python ints/floats, ns-friendly)
    # ------------------------------------------------------------------
    def uniform_ns(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] nanoseconds."""
        return int(self._gen.integers(lo, hi + 1))

    @staticmethod
    def lognormal_params(mean_ns: int, cv: float) -> Optional[tuple[float, float]]:
        """``(mu, sigma)`` of the lognormal :meth:`jittered_ns` draws from
        for this mean and coefficient of variation, or ``None`` when the
        duration is deterministic (``cv <= 0`` or ``mean_ns <= 0``).

        Lets a caller that draws many durations of one shape compute the
        parameters once and make plain ``generator.lognormal(mu, sigma)``
        draws, bit-identical to repeated ``jittered_ns`` calls."""
        if cv <= 0.0 or mean_ns <= 0:
            return None
        sigma2 = np.log1p(cv * cv)
        return float(np.log(mean_ns) - 0.5 * sigma2), float(np.sqrt(sigma2))

    def jittered_ns(self, mean_ns: int, cv: float) -> int:
        """A positive duration with the given mean and coefficient of
        variation, drawn from a lognormal (heavy-ish tail, like real
        compute phases).  ``cv = 0`` returns the mean exactly."""
        params = self.lognormal_params(mean_ns, cv)
        if params is None:
            return max(0, int(mean_ns))
        return max(1, int(self._gen.lognormal(*params)))

    def exponential_ns(self, mean_ns: int) -> int:
        """Exponential inter-arrival time with the given mean (>=1 ns)."""
        return max(1, int(self._gen.exponential(mean_ns)))

    def choice(self, seq, p=None):
        """Choose an element of ``seq`` (optionally with probabilities)."""
        idx = self._gen.choice(len(seq), p=p)
        return seq[int(idx)]

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._gen.random())

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._gen.shuffle(items)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (for vectorized draws)."""
        return self._gen
