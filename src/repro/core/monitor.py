"""VMM-side spinlock-latency monitor (Fig. 6).

At the end of every scheduling period the monitor drains each guest
kernel's spin-wait accumulator (the paper's intrusive in-kernel tracing)
and computes the *average spinlock latency of the VM during that period*
— the input of Algorithm 1.  Histories are kept per VM with a
three-period window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.atc import ATCVmState
from repro.core.config import ATCConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vm import VM

__all__ = ["SpinLatencyMonitor"]


class SpinLatencyMonitor:
    """Per-node monitor: VM → rolling Algorithm-1 history."""

    __slots__ = ("cfg", "states", "series", "_queue_wait_seen")

    def __init__(self, cfg: ATCConfig) -> None:
        self.cfg = cfg
        self.states: dict[int, ATCVmState] = {}
        #: Optional recorded (time, vm name, avg latency, slice) tuples for
        #: experiment reporting; populated when ``record_series`` is used.
        self.series: list[tuple[int, str, float, int]] = []
        #: vmid -> the VM's queue-wait ledger ``(ns, count)`` at our last read.
        self._queue_wait_seen: dict[int, tuple[int, int]] = {}

    def state_for(self, vm: "VM") -> ATCVmState:
        st = self.states.get(vm.vmid)
        if st is None:
            st = ATCVmState(self.cfg)
            self.states[vm.vmid] = st
        return st

    def end_period(self, vm: "VM", current_slice_ns: int, now: int = -1, record: bool = False) -> ATCVmState:
        """Add the VM's latency signal for the period just ended to its history.

        ``monitor_mode="guest"`` drains the in-kernel spinlock tracing (the
        paper's intrusive method); ``"queuewait"`` reads the growth of the
        VMM's run-queue-wait ledger (the non-intrusive future-work variant).
        """
        if self.cfg.monitor_mode == "queuewait":
            seen_ns, seen_n = self._queue_wait_seen.get(vm.vmid, (0, 0))
            self._queue_wait_seen[vm.vmid] = cur = (vm.total_queue_wait_ns, vm.total_queue_waits)
            total_ns, count = cur[0] - seen_ns, cur[1] - seen_n
        else:
            total_ns, count = vm.kernel.drain_period_spin() if vm.kernel else (0, 0)
        avg = (total_ns / count) if count else 0.0
        st = self.state_for(vm)
        st.observe(avg, current_slice_ns)
        if record:
            self.series.append((now, vm.name, avg, current_slice_ns))
        return st
