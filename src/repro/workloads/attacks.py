"""Adversarial tenant workloads (scheduler-attack models).

Models of the classic Xen credit-scheduler attacks of Zhou et al.,
*Scheduler Vulnerabilities and Attacks in Cloud Computing* (PAPERS.md),
re-targeted at this repo's credit/ATC models:

* :class:`YieldTheftApp` — the **yield-before-tick theft** attack: burn
  CPU for most of each 10 ms accounting window, then block just before
  the sampling instant so the tick never lands on the attacker.  Under
  Xen-faithful tick-*sampled* debiting (``CreditParams.tick_accounting``)
  the attacker's credits are never debited (``cpu_debited_ns`` stays near
  zero while ``cpu_consumed_ns`` grows), it stays UNDER/BOOST-eligible
  forever, and co-located victims are left paying for the stolen time.
  The repo's default *exact* accounting is immune; the attack scenario
  switches tick sampling on to open the historical window.
* :class:`TickleAbuseApp` — the **BOOST / tickle-storm** attack: a
  near-idle process that sleeps in sub-tick bursts so every wake enters
  at BOOST priority and preempts the running victim through the tickle
  path.  The attacker burns almost no CPU (so it never goes OVER), yet
  each wake costs the victim a context switch, an LLC refill, and —
  under ATC — a latency spike that steers Algorithm 2 toward shorter
  host slices for *all* parallel VMs.

Determinism discipline: attackers draw **only** from the dedicated
:data:`ATTACK_RNG_KEY` substream handed to them by the scenario.  Clean
runs never construct these objects, so they draw zero attack entropy and
are bit-identical to pre-attack-layer runs (regression-tested).

Both attackers are pure guests: they use only the public segment API
(``compute``/``sleep``/``call``) and observe time the way a real guest
would (its own clock reads), never scheduler internals.  In particular
:class:`YieldTheftApp` aims at the *nominal* tick grid — the
``tick_phase_ns`` hardening knob works precisely because a guest cannot
see the randomized phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.guest.process import Segment, call, compute, sleep
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vm import VM
    from repro.sim.engine import Simulator

__all__ = ["ATTACK_RNG_KEY", "YieldTheftApp", "TickleAbuseApp", "theft_gain"]

#: SimRNG spawn key of the attack layer (cf. faults 0xFA, service 0x5E).
#: Everything adversarial — attacker jitter *and* the randomized tick
#: phase the hardened scheduler draws — comes off this substream, so the
#: clean configuration consumes no entropy from it.
ATTACK_RNG_KEY = 0xA7


def theft_gain(consumed_ns: int, debited_ns: int) -> dict:
    """``gain`` (CPU consumed / CPU debited) and ``gain_censored``.

    A VM that consumed CPU but was never debited has no finite gain: it
    reports ``gain: None`` with ``gain_censored: True``, as the service
    layer reports unfinished tenants through ``slowdown_censored``.  A VM
    that consumed nothing reads ``1.0``."""
    if debited_ns > 0:
        return {"gain": consumed_ns / debited_ns, "gain_censored": False}
    return {"gain": None if consumed_ns > 0 else 1.0, "gain_censored": consumed_ns > 0}


class YieldTheftApp:
    """Yield-before-tick theft attacker on one VCPU.

    Each cycle: read the clock, burn CPU up to ``guard_ns`` before the
    next *nominal* tick boundary, then sleep until just past it.  If the
    VCPU is descheduled mid-burn the cycle overshoots, but the next
    clock read realigns it — exactly how the real attack self-corrects.
    """

    kind = "yield_theft"

    def __init__(
        self,
        sim: "Simulator",
        vm: "VM",
        rng: SimRNG,
        proc_index: int = 0,
        tick_ns: int = 10 * MSEC,
        guard_ns: int = 1 * MSEC,
        min_burn_ns: int = 2 * MSEC,
    ) -> None:
        self.sim = sim
        self.vm = vm
        self.rng = rng
        self.name = f"yield_theft@{vm.name}"
        #: The attacker's *belief* about the accounting grid (nominal
        #: 10 ms, phase 0) — it cannot observe ``tick_phase_ns``.
        self.tick_ns = tick_ns
        self.guard_ns = guard_ns
        self.min_burn_ns = min_burn_ns
        self.cycles = 0
        self._now = 0
        self._next_tick = 0
        self.proc = vm.kernel.add_process(cache_sensitivity=0.3)
        self.proc.load_program(self._program())

    def _note_now(self, now: int) -> None:
        self._now = now

    def _program(self) -> Iterator[Segment]:
        tick = self.tick_ns
        while True:
            yield call(self._note_now)
            now = self._now
            # Burn until guard_ns before the next nominal tick; if that
            # window is too short to be worth stealing, target the one
            # after (the sleep below skips the near boundary).
            nxt = (now // tick + 1) * tick
            burn = nxt - self.guard_ns - now
            if burn < self.min_burn_ns:
                nxt += tick
                burn = nxt - self.guard_ns - now
            self._next_tick = nxt
            # De-synchronize the yield instants: a fleet of thieves aiming
            # at the same nominal grid would otherwise all block on the
            # same nanosecond, a degenerate synchrony no real guest clock
            # achieves (and a same-timestamp tie storm for the engine).
            yield compute(burn - self.rng.uniform_ns(0, 150 * USEC))
            yield call(self._note_now)
            # Sleep past the sampling instant; jitter the wake so a fleet
            # of attackers does not collapse onto one deterministic comb.
            wake_at = self._next_tick + self.rng.uniform_ns(50 * USEC, 300 * USEC)
            yield sleep(max(1, wake_at - self._now))
            yield call(self._count_cycle)

    def _count_cycle(self, now: int) -> None:
        self.cycles += 1

    def start(self) -> None:
        self.proc.start()

    def results(self) -> dict:
        vm = self.vm
        return {
            "app": self.kind,
            "cycles": self.cycles,
            "cpu_consumed_ns": vm.cpu_consumed_ns,
            "cpu_debited_ns": vm.cpu_debited_ns,
            **theft_gain(vm.cpu_consumed_ns, vm.cpu_debited_ns),
        }


class TickleAbuseApp:
    """BOOST/tickle wake-storm attacker on one VCPU.

    Each cycle: a tiny compute burst, then a short sub-tick sleep.  The
    wake at the end of every sleep is a fresh BOOST wake (the attacker
    never spends enough CPU to go OVER), preempting whatever victim is
    running via the wake-time tickle path.
    """

    kind = "tickle_abuse"

    def __init__(
        self,
        sim: "Simulator",
        vm: "VM",
        rng: SimRNG,
        proc_index: int = 0,
        burst_ns: int = 100 * USEC,
        sleep_lo_ns: int = 500 * USEC,
        sleep_hi_ns: int = 2 * MSEC,
    ) -> None:
        self.sim = sim
        self.vm = vm
        self.rng = rng
        self.name = f"tickle_abuse@{vm.name}"
        self.burst_ns = burst_ns
        self.sleep_lo_ns = sleep_lo_ns
        self.sleep_hi_ns = sleep_hi_ns
        self.wakes = 0
        self.proc = vm.kernel.add_process(cache_sensitivity=0.2)
        self.proc.load_program(self._program())

    def _program(self) -> Iterator[Segment]:
        while True:
            yield compute(self.rng.jittered_ns(self.burst_ns, 0.3))
            yield sleep(self.rng.uniform_ns(self.sleep_lo_ns, self.sleep_hi_ns))
            yield call(self._count_wake)

    def _count_wake(self, now: int) -> None:
        self.wakes += 1

    def start(self) -> None:
        self.proc.start()

    def results(self) -> dict:
        vm = self.vm
        return {
            "app": self.kind,
            "wakes": self.wakes,
            "boost_preempts_inflicted": vm.boost_preempts_inflicted,
            "boost_preempts_suffered": vm.boost_preempts_suffered,
            "cpu_consumed_ns": vm.cpu_consumed_ns,
            "cpu_debited_ns": vm.cpu_debited_ns,
        }
