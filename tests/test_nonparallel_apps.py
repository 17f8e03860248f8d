"""Tests for the non-parallel application models."""

import math

from repro.sim.units import MSEC, SEC
from repro.workloads.nonparallel import (
    CPU_APP_SPECS,
    BonnieApp,
    CpuApp,
    PingApp,
    StreamApp,
    WebServerApp,
)
from repro.sim.rng import SimRNG

from tests.conftest import add_guest_vm, make_node_world


def test_cpu_app_records_run_times():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2)
    app = CpuApp(sim, vm, CPU_APP_SPECS["sphinx3"], SimRNG(0))
    app.start()
    vmms[0].start()
    sim.run(until=2 * SEC)
    assert len(app.run_times) >= 3
    # unloaded: run time ~ total compute (plus tiny switch costs)
    assert app.mean_run_ns < 1.2 * CPU_APP_SPECS["sphinx3"].run_ns
    assert app.results()["app"] == "sphinx3"


def test_cpu_app_specs_table():
    assert {"sphinx3", "gcc", "bzip2", "mcf", "gobmk"} <= set(CPU_APP_SPECS)
    assert CPU_APP_SPECS["sphinx3"].cache_sensitivity > CPU_APP_SPECS["bzip2"].cache_sensitivity
    assert CPU_APP_SPECS["mcf"].cache_sensitivity == max(
        s.cache_sensitivity for s in CPU_APP_SPECS.values()
    )


def test_stream_reports_bandwidth():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 1)
    app = StreamApp(sim, vm, SimRNG(0))
    app.start()
    vmms[0].start()
    sim.run(until=1 * SEC)
    bw = app.bandwidth_Bps
    assert math.isfinite(bw) and bw > 0
    assert app.results()["app"] == "stream"


def test_stream_bandwidth_nan_before_any_pass():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 1)
    app = StreamApp(sim, vm, SimRNG(0))
    assert app.bandwidth_Bps is None  # no sample: undefined, not NaN


def test_bonnie_throughput_bounded_by_disk():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 1)
    app = BonnieApp(sim, vm, SimRNG(0))
    app.start()
    vmms[0].start()
    sim.run(until=3 * SEC)
    assert len(app.pass_times) >= 2
    tput = app.throughput_Bps
    disk_bw = cluster.nodes[0].params.disk.bandwidth_Bps
    assert 0 < tput < disk_bw  # seeks + blkback keep it below raw speed
    assert cluster.nodes[0].disk.requests >= 16


def test_ping_round_trip_through_both_nodes():
    sim, cluster, vmms = make_node_world(n_nodes=2, n_pcpus=2)
    a = add_guest_vm(vmms[0], 1, name="a")
    b = add_guest_vm(vmms[1], 1, name="b")
    app = PingApp(sim, a, b, SimRNG(0), interval_ns=5 * MSEC)
    app.start()
    for vmm in vmms:
        vmm.start()
    sim.run(until=1 * SEC)
    assert len(app.rtts) >= 50
    # RTT must at least cover two wire crossings + four netback passes
    floor = 2 * cluster.fabric.params.latency_ns
    assert app.mean_rtt_ns > floor
    assert app.results()["app"] == "ping"


def test_ping_rtt_grows_under_contention():
    def measure(contended):
        sim, cluster, vmms = make_node_world(n_nodes=2, n_pcpus=1)
        a = add_guest_vm(vmms[0], 1, name="a")
        b = add_guest_vm(vmms[1], 1, name="b")
        if contended:
            from repro.guest.process import compute

            def hogprog():
                while True:
                    yield compute(10 * MSEC)

            for vmm in vmms:
                hog = add_guest_vm(vmm, 1, name=f"hog{vmm.node.index}")
                p = hog.kernel.add_process()
                p.load_program(hogprog())
                p.start()
        app = PingApp(sim, a, b, SimRNG(0), interval_ns=5 * MSEC)
        app.start()
        for vmm in vmms:
            vmm.start()
        sim.run(until=2 * SEC)
        return app.mean_rtt_ns

    assert measure(True) > measure(False)


def test_webserver_closed_loop():
    sim, cluster, vmms = make_node_world(n_nodes=2, n_pcpus=2)
    server = add_guest_vm(vmms[0], 1, name="srv")
    client = add_guest_vm(vmms[1], 1, name="cli")
    app = WebServerApp(sim, server, client, SimRNG(0), service_ns=1 * MSEC, think_ns=3 * MSEC)
    app.start()
    for vmm in vmms:
        vmm.start()
    sim.run(until=2 * SEC)
    assert len(app.response_times) >= 100
    assert app.mean_response_ns >= app.service_ns
    assert app.results()["requests"] == len(app.response_times)
