"""vSlicer (VS) — differentiated-frequency CPU micro-slicing.

Model of Xu et al. [15]: VMs classified as *latency-sensitive* (LS) are
scheduled with micro time slices at a proportionally higher frequency
(same aggregate CPU share, k× shorter slices, k× more often), while
latency-insensitive VMs keep the default slice.  Classification uses the
observed per-period behaviour: an LS VM wakes frequently and uses little
CPU (request-response patterns), a latency-insensitive VM burns its full
slices.

As in the paper's evaluation, VS accelerates latency-sensitive apps
(web server in Fig. 13) but does little for tightly-coupled parallel
applications — spinning VCPUs are not "latency-sensitive" to VS because
they never block; they look CPU-bound (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import trace as obstrace
from repro.schedulers.credit import CreditParams, CreditScheduler
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vmm import VMM

__all__ = ["VSlicerParams", "VSlicerScheduler"]


@dataclass(frozen=True)
class VSlicerParams(CreditParams):
    """vSlicer tunables."""

    #: Micro-slice for latency-sensitive VMs (vSlicer's differentiated
    #: frequency; the original uses default/k with k around 5-30).
    micro_slice_ns: int = 1 * MSEC
    #: A VM is LS when it woke at least this often in the last period...
    ls_min_wakes: int = 4
    #: ...while using at most this fraction of one PCPU.
    ls_max_util: float = 0.5


class VSlicerScheduler(CreditScheduler):
    """Credit + differentiated-frequency micro-slicing for LS VMs."""

    name = "VS"

    def __init__(self, vmm: "VMM", params: VSlicerParams | None = None) -> None:
        super().__init__(vmm, params or VSlicerParams())
        # Insertion-ordered membership (dict keys): `vmid in ls_vms` works
        # like a set, but any future iteration is deterministic.
        self.ls_vms: dict[int, None] = {}

    def on_period(self, now: int) -> None:
        p: VSlicerParams = self.params
        period = self.vmm.period_ns
        # Classify BEFORE credit accounting resets period_run_ns.
        for vm in self.vmm.guest_vms:
            wakes = sum(v.period_wakes for v in vm.vcpus)
            util = vm.period_run_ns / (period * max(1, len(vm.vcpus)))
            for v in vm.vcpus:
                v.period_wakes = 0
            if wakes >= p.ls_min_wakes and util <= p.ls_max_util:
                if vm.vmid not in self.ls_vms and obstrace.enabled:
                    obstrace.emit(
                        "slice.change",
                        now,
                        node=self.vmm.node.index,
                        policy="VS",
                        vm=vm.name,
                        ls=True,
                        applied_ns=p.micro_slice_ns,
                        wakes=wakes,
                        util=util,
                    )
                self.ls_vms[vm.vmid] = None
                vm.slice_ns = p.micro_slice_ns
            else:
                if vm.vmid in self.ls_vms and obstrace.enabled:
                    obstrace.emit(
                        "slice.change",
                        now,
                        node=self.vmm.node.index,
                        policy="VS",
                        vm=vm.name,
                        ls=False,
                        applied_ns=None,
                        wakes=wakes,
                        util=util,
                    )
                self.ls_vms.pop(vm.vmid, None)
                vm.slice_ns = None
        super().on_period(now)
