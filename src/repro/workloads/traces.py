"""Virtual-cluster size synthesis from the LLNL Atlas job trace (Table I).

The paper's evaluation type B sizes its virtual clusters "consistent with
the trace" of the Atlas Linux cluster at LLNL, whose job-size distribution
is printed as Table I:

=========  =====  =====  ====  =====  =====  ====  ======
size (P)     8     16     32    64     128   256   others
fraction   31.4%  12.6%  4.5%  12.6%  6.1%  4.5%  28.3%
=========  =====  =====  ====  =====  =====  ====  ======

On their 128-VM platform this yields one 256-VCPU cluster, two 128-VCPU,
three 64-VCPU, one 32-VCPU and three 16-VCPU clusters (90 VMs) plus 30
independent 8-VCPU VMs.  :func:`paper_vc_mix` returns exactly that
configuration; :func:`synthesize_vc_mix` samples arbitrary platform sizes
from the Table I distribution for scaled-down experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import SimRNG

__all__ = ["ATLAS_TABLE1", "VCMix", "paper_vc_mix", "synthesize_vc_mix"]

#: Table I: job size in processors → fraction of jobs.
ATLAS_TABLE1: dict[int, float] = {
    8: 0.314,
    16: 0.126,
    32: 0.045,
    64: 0.126,
    128: 0.061,
    256: 0.045,
    # "others" (28.3%) are sizes the paper folds into the nearest classes.
}


@dataclass(frozen=True)
class VCMix:
    """A virtual-cluster composition for a platform.

    ``cluster_sizes_vms`` lists each virtual cluster's size in VMs;
    ``independent_vms`` is the count of stand-alone VMs.
    """

    vcpus_per_vm: int
    cluster_sizes_vms: tuple[int, ...]
    independent_vms: int


def paper_vc_mix() -> VCMix:
    """The exact evaluation-type-B configuration of Section IV-B2:
    128 8-VCPU VMs → ten virtual clusters (VC1..VC10) + 30 independents."""
    sizes_vcpus = [256, 128, 128, 64, 64, 64, 32, 16, 16, 16]
    sizes_vms = tuple(s // 8 for s in sizes_vcpus)
    return VCMix(vcpus_per_vm=8, cluster_sizes_vms=sizes_vms, independent_vms=30)


def synthesize_vc_mix(
    total_vms: int,
    vcpus_per_vm: int,
    rng: SimRNG,
    min_vcpus: int = 16,
    max_vcpus: int = 256,
    independent_fraction: float = 0.25,
) -> VCMix:
    """Sample a VC mix from Table I for a platform of ``total_vms`` VMs.

    Sizes are drawn from the Table I distribution restricted to
    ``[min_vcpus, max_vcpus]`` (renormalized), largest-first packed until
    the VM budget (minus the independent share) is exhausted.  Matches the
    paper's methodology of keeping the size *distribution* consistent with
    the trace while fitting the platform.
    """
    if total_vms < 2:
        raise ValueError(f"total_vms must be >= 2, got {total_vms}")
    budget = int(total_vms * (1.0 - independent_fraction))
    candidates = {
        s: p for s, p in ATLAS_TABLE1.items() if min_vcpus <= s <= max_vcpus
    }
    if not candidates:
        raise ValueError("no Table I sizes within the requested range")
    total_p = sum(candidates.values())
    sizes = sorted(candidates)
    probs = [candidates[s] / total_p for s in sizes]

    clusters: list[int] = []
    used = 0
    # Draw until the budget can no longer fit the smallest cluster.
    smallest_vms = max(2, min(sizes) // vcpus_per_vm)
    for _ in range(10 * total_vms):
        if budget - used < smallest_vms:
            break
        size_vcpus = rng.choice(sizes, p=probs)
        size_vms = max(2, size_vcpus // vcpus_per_vm)
        if used + size_vms <= budget:
            clusters.append(size_vms)
            used += size_vms
    clusters.sort(reverse=True)
    independent = total_vms - used
    return VCMix(
        vcpus_per_vm=vcpus_per_vm,
        cluster_sizes_vms=tuple(clusters),
        independent_vms=independent,
    )
