"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.topology import build_cluster
from repro.guest.kernel import GuestKernel
from repro.hypervisor.dom0 import Dom0
from repro.hypervisor.vm import VM
from repro.hypervisor.vmm import VMM
from repro.schedulers.credit import CreditParams, CreditScheduler
from repro.sim.engine import Simulator
from repro.sim.units import MSEC


def make_node_world(
    n_nodes: int = 1,
    n_pcpus: int = 2,
    scheduler_factory=None,
    period_ns: int = 30 * MSEC,
    tie_order: str = "fifo",
):
    """A minimal wired world: cluster + VMM + dom0 per node.

    Returns (sim, cluster, vmms).
    """
    from repro.cluster.node import NodeParams

    sim = Simulator(tie_order=tie_order)
    cluster = build_cluster(sim, n_nodes, NodeParams(n_pcpus=n_pcpus))
    factory = scheduler_factory or (lambda vmm: CreditScheduler(vmm, CreditParams()))
    vmms = []
    for node in cluster.nodes:
        vmm = VMM(sim, node, factory, period_ns=period_ns)
        Dom0(sim, vmm, cluster.fabric)
        vmms.append(vmm)
    return sim, cluster, vmms


def add_guest_vm(vmm, n_vcpus=1, name=None, is_parallel=False, spin_block_ns=None):
    """Create a guest VM with a kernel on the given VMM."""
    vm = VM(vmm.node, n_vcpus, name=name, is_parallel=is_parallel)
    vmm.add_vm(vm)
    GuestKernel(vmm.sim, vm, spin_block_ns=spin_block_ns)
    return vm


@pytest.fixture(autouse=True)
def _isolated_sweep_cache(tmp_path, monkeypatch):
    """Keep sweep-runner cache writes out of the working tree during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture(params=["heap"])
def sim(request):
    """A bare simulator.  The ``heap`` id names the engine's one queue and
    keeps the engine-semantics test ids stable."""
    return Simulator()


@pytest.fixture
def single_node():
    """(sim, cluster, vmm) with one 2-PCPU node under Credit."""
    sim, cluster, vmms = make_node_world()
    return sim, cluster, vmms[0]
