"""Algorithm 2: per-host adaptive time-slice control.

At the beginning of each VMM scheduling period:

1. For every VM running a parallel application, compute its candidate
   time slice with Algorithm 1 (``compute_timeSlice``).
2. Take the **minimum** of the candidates (``min_timeSlice``) and assign
   it to *all* parallel VMs on the host — one uniform slice keeps the
   computational complexity low and is fair, and a single long-slice VM
   would otherwise inflate every other VM's run-queue wait (the
   cross-VM overhead sources of Fig. 4).
3. VMs running non-parallel applications keep the VMM default slice, or
   the value the system administrator specified through the on-demand
   interface (``VM.admin_slice_ns``).

The whole pass is O(N) in the number of VMs, as the paper notes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import ATCConfig
from repro.core.monitor import SpinLatencyMonitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vmm import VMM

__all__ = ["ATCController"]


class ATCController:
    """Host-level ATC controller, hooked into the VMM's period tick."""

    __slots__ = ("vmm", "cfg", "monitor", "record_series", "slice_history")

    def __init__(self, vmm: "VMM", cfg: ATCConfig | None = None, record_series: bool = False) -> None:
        self.vmm = vmm
        self.cfg = cfg or ATCConfig()
        self.monitor = SpinLatencyMonitor(self.cfg)
        self.record_series = record_series
        #: (time, host-min slice) applied each period, for reporting.
        self.slice_history: list[tuple[int, int]] = []
        vmm.period_hooks.append(self.on_period)

    # ------------------------------------------------------------------
    def current_slice(self, vm) -> int:
        return vm.slice_ns if vm.slice_ns is not None else self.cfg.default_ns

    def on_period(self, now: int) -> None:
        vmm = self.vmm
        cfg = self.cfg
        record = vmm.sim.record
        parallel = []
        candidates = []
        spin_inputs = []  # Algorithm-1 input per parallel VM (trace only)
        for vm in vmm.vms:
            if vm.is_dom0:
                continue
            if vm.is_parallel:
                st = self.monitor.end_period(
                    vm, self.current_slice(vm), now, self.record_series
                )
                candidates.append(st.next_slice())
                parallel.append(vm)
                if record is not None:
                    spin_inputs.append(st.latencies[-1] if st.latencies else 0.0)
            else:
                # Algorithm 2 lines 17-20: admin-specified or VMM default.
                vm.slice_ns = vm.admin_slice_ns  # None means default
        if parallel:
            min_slice = min(candidates)
            if cfg.slice_floor_ns > 0:
                # Hardening clamp: adversarial latency spikes cannot steer
                # the host slice below the configured floor.
                min_slice = max(min_slice, cfg.slice_floor_ns)
            for vm in parallel:
                vm.slice_ns = min_slice
            if self.record_series:
                self.slice_history.append((now, min_slice))
            if record is not None:
                record(
                    "slice.change",
                    now,
                    node=vmm.node.index,
                    policy="ATC",
                    vms=[vm.name for vm in parallel],
                    spin_avg_ns=spin_inputs,
                    candidates_ns=candidates,
                    applied_ns=min_slice,
                )
        else:
            # Algorithm 2 lines 9-11: no parallel VMs — defaults everywhere.
            for vm in vmm.vms:
                if not vm.is_dom0:
                    vm.slice_ns = vm.admin_slice_ns
