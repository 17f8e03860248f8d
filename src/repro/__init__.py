"""repro — reproduction of "Dynamic Acceleration of Parallel Applications
in Cloud Platforms by Adaptive Time-Slice Control" (IPDPS 2016).

Public API layers:

* :mod:`repro.sim` — discrete-event kernel.
* :mod:`repro.cluster` — physical nodes, caches, disk, network fabric.
* :mod:`repro.hypervisor` — VMs/VCPUs, per-node VMM, dom0 packet path.
* :mod:`repro.guest` — guest kernel, processes, spinlocks.
* :mod:`repro.schedulers` — CR, CS, BS, DSS, VS and ATC.
* :mod:`repro.core` — the ATC control algorithms (the paper's contribution).
* :mod:`repro.workloads` — NPB models, non-parallel apps, LLNL trace mix.
* :mod:`repro.virtcluster` — virtual-cluster construction and placement.
* :mod:`repro.migration` — pre-copy live migration + the demix rebalancer.
* :mod:`repro.metrics` — collectors and summary statistics (means, Pearson).
* :mod:`repro.experiments` — per-figure scenario builders and harness.

Most users start from :class:`repro.experiments.harness.CloudWorld` (or a
scenario builder in :mod:`repro.experiments.scenarios`) — see
``examples/quickstart.py``.
"""

__version__ = "1.0.0"
