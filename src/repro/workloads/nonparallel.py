"""Non-parallel applications of the paper's mixed-tenancy experiments.

* ``sphinx3``, ``gcc``, ``bzip2`` — CPU-intensive SPEC CPU 2006 apps:
  long compute with app-specific cache sensitivity; metric = execution
  time per run (Figs. 2, 9, 14).
* ``stream`` — memory-bandwidth benchmark: compute with very high cache
  sensitivity; metric = sustained bandwidth (Figs. 2, 9, 13).
* ``bonnie++`` — disk/filesystem benchmark: synchronous block I/O via the
  dom0 blkback path; metric = throughput (Figs. 2, 13).
* ``ping`` — latency-sensitive request/response between two VMs through
  the full Fig. 4 network path; metric = round-trip time (Figs. 2, 9).
* web server + ``httperf`` — blocking-receive server VM driven by a
  closed-loop client (the paper drives Apache with httperf from separate
  machines, so the client VM should live on an otherwise idle node);
  metric = mean response time (Fig. 13).

All apps run forever (background load, like the paper's batch setup);
their metrics are read after the simulation horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.guest.process import Segment, call, compute, disk, recv_block, send, sleep
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC, USEC, s_from_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vm import VM
    from repro.sim.engine import Simulator

__all__ = [
    "CpuAppSpec",
    "CPU_APP_SPECS",
    "CpuApp",
    "StreamApp",
    "BonnieApp",
    "PingApp",
    "WebServerApp",
]


# ----------------------------------------------------------------------
# CPU-intensive apps (SPEC CPU 2006)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CpuAppSpec:
    """Shape of a CPU-bound benchmark run."""

    name: str
    #: Total compute per run (ns) — scaled down from the real benchmarks.
    run_ns: int
    #: Chunk size (ns); runs are chains of chunks (no synchronization).
    chunk_ns: int
    #: LLC-footprint multiplier.
    cache_sensitivity: float


CPU_APP_SPECS: dict[str, CpuAppSpec] = {
    "sphinx3": CpuAppSpec("sphinx3", run_ns=80 * MSEC, chunk_ns=5 * MSEC, cache_sensitivity=1.5),
    "gcc": CpuAppSpec("gcc", run_ns=60 * MSEC, chunk_ns=5 * MSEC, cache_sensitivity=1.0),
    "bzip2": CpuAppSpec("bzip2", run_ns=60 * MSEC, chunk_ns=5 * MSEC, cache_sensitivity=0.8),
    # Additional SPEC CPU 2006 members (the paper runs "SPEC CPU 2006"
    # broadly; these cover the cache-sensitivity extremes).
    "mcf": CpuAppSpec("mcf", run_ns=90 * MSEC, chunk_ns=5 * MSEC, cache_sensitivity=2.2),
    "gobmk": CpuAppSpec("gobmk", run_ns=50 * MSEC, chunk_ns=5 * MSEC, cache_sensitivity=0.5),
}


class CpuApp:
    """A CPU-intensive app run repeatedly on one VM; records run times."""

    kind = "cpu"

    def __init__(self, sim: "Simulator", vm: "VM", spec: CpuAppSpec, rng: SimRNG) -> None:
        self.sim = sim
        self.vm = vm
        self.spec = spec
        self.name = f"{spec.name}@{vm.name}"
        self.run_times: list[int] = []
        self._t0 = 0
        self.proc = vm.kernel.add_process(cache_sensitivity=spec.cache_sensitivity)
        self.proc.load_program(self._program())

    def _program(self) -> Iterator[Segment]:
        spec = self.spec
        nchunks = max(1, spec.run_ns // spec.chunk_ns)
        while True:
            yield call(self._mark_start)
            for _ in range(nchunks):
                yield compute(spec.chunk_ns)
            yield call(self._mark_end)

    def _mark_start(self, now: int) -> None:
        self._t0 = now

    def _mark_end(self, now: int) -> None:
        self.run_times.append(now - self._t0)

    def start(self) -> None:
        self.proc.start()

    @property
    def mean_run_ns(self) -> Optional[float]:
        if not self.run_times:
            return None
        return sum(self.run_times) / len(self.run_times)

    def results(self) -> dict:
        return {"app": self.spec.name, "mean_run_ns": self.mean_run_ns, "runs": len(self.run_times)}


# ----------------------------------------------------------------------
class StreamApp(CpuApp):
    """STREAM: memory-bandwidth bound — extreme cache sensitivity.

    Bandwidth is reported relative to the run time of a fixed-size pass:
    more cache flushes (context switches) → longer pass → lower bandwidth.
    """

    kind = "stream"
    #: Bytes one pass would move at full speed (for bandwidth reporting).
    PASS_BYTES = 4 * 1024**3

    def __init__(self, sim: "Simulator", vm: "VM", rng: SimRNG) -> None:
        spec = CpuAppSpec("stream", run_ns=40 * MSEC, chunk_ns=2 * MSEC, cache_sensitivity=4.0)
        super().__init__(sim, vm, spec, rng)
        self.name = f"stream@{vm.name}"

    @property
    def bandwidth_Bps(self) -> Optional[float]:
        m = self.mean_run_ns
        if m is None:
            return None
        return self.PASS_BYTES / s_from_ns(m)

    def results(self) -> dict:
        return {"app": "stream", "bandwidth_Bps": self.bandwidth_Bps, "runs": len(self.run_times)}


# ----------------------------------------------------------------------
class BonnieApp:
    """bonnie++: synchronous disk I/O through dom0's blkback."""

    kind = "disk"
    REQ_BYTES = 1024 * 1024
    REQS_PER_PASS = 8

    def __init__(self, sim: "Simulator", vm: "VM", rng: SimRNG) -> None:
        self.sim = sim
        self.vm = vm
        self.name = f"bonnie@{vm.name}"
        self.pass_times: list[int] = []
        self._t0 = 0
        self.proc = vm.kernel.add_process(cache_sensitivity=0.5)
        self.proc.load_program(self._program())

    def _program(self) -> Iterator[Segment]:
        while True:
            yield call(lambda now: setattr(self, "_t0", now))
            for _ in range(self.REQS_PER_PASS):
                yield compute(200 * USEC)  # buffer prep
                yield disk(self.REQ_BYTES)
            yield call(self._mark_end)

    def _mark_end(self, now: int) -> None:
        self.pass_times.append(now - self._t0)

    def start(self) -> None:
        self.proc.start()

    @property
    def throughput_Bps(self) -> Optional[float]:
        if not self.pass_times:
            return None
        mean = sum(self.pass_times) / len(self.pass_times)
        return self.REQ_BYTES * self.REQS_PER_PASS / s_from_ns(mean)

    def results(self) -> dict:
        return {"app": "bonnie++", "throughput_Bps": self.throughput_Bps, "passes": len(self.pass_times)}


# ----------------------------------------------------------------------
class PingApp:
    """ICMP-style echo between two VMs through the full dom0/wire path."""

    kind = "latency"

    def __init__(
        self,
        sim: "Simulator",
        vm: "VM",
        peer_vm: "VM",
        rng: SimRNG,
        interval_ns: int = 10 * MSEC,
        payload: int = 64,
    ) -> None:
        self.sim = sim
        self.vm = vm
        self.peer_vm = peer_vm
        self.name = f"ping@{vm.name}"
        self.interval_ns = interval_ns
        self.payload = payload
        self.rtts: list[int] = []
        self._t0 = 0
        self.proc = vm.kernel.add_process(cache_sensitivity=0.2)
        self.responder = peer_vm.kernel.add_process(cache_sensitivity=0.2)
        self._responder_idx = self.responder.index
        self._proc_idx = self.proc.index
        self.proc.load_program(self._pinger())
        self.responder.load_program(self._echo())

    def _pinger(self) -> Iterator[Segment]:
        while True:
            yield call(lambda now: setattr(self, "_t0", now))
            yield send(self.peer_vm, self._responder_idx, self.payload)
            yield recv_block(1)
            yield call(lambda now: self.rtts.append(now - self._t0))
            yield sleep(self.interval_ns)

    def _echo(self) -> Iterator[Segment]:
        while True:
            yield recv_block(1)
            yield send(self.vm, self._proc_idx, self.payload)

    def start(self) -> None:
        self.responder.start()
        self.proc.start()

    @property
    def mean_rtt_ns(self) -> Optional[float]:
        if not self.rtts:
            return None
        return sum(self.rtts) / len(self.rtts)

    def results(self) -> dict:
        return {"app": "ping", "mean_rtt_ns": self.mean_rtt_ns, "samples": len(self.rtts)}


# ----------------------------------------------------------------------
class WebServerApp:
    """Apache-style server + closed-loop httperf client.

    The client VM should be placed on an otherwise idle node (the paper
    drives httperf from separate physical machines), so measured response
    times reflect the *server-side* scheduling behaviour.
    """

    kind = "web"

    def __init__(
        self,
        sim: "Simulator",
        server_vm: "VM",
        client_vm: "VM",
        rng: SimRNG,
        service_ns: int = 1 * MSEC,
        think_ns: int = 5 * MSEC,
        req_bytes: int = 512,
        resp_bytes: int = 8 * 1024,
    ) -> None:
        self.sim = sim
        self.server_vm = server_vm
        self.client_vm = client_vm
        self.rng = rng
        self.name = f"web@{server_vm.name}"
        self.service_ns = service_ns
        self.think_ns = think_ns
        self.req_bytes = req_bytes
        self.resp_bytes = resp_bytes
        self.response_times: list[int] = []
        self._t0 = 0
        self.server = server_vm.kernel.add_process(cache_sensitivity=0.6)
        self.client = client_vm.kernel.add_process(cache_sensitivity=0.1)
        self.server.load_program(self._serve())
        self.client.load_program(self._drive())

    def _serve(self) -> Iterator[Segment]:
        while True:
            yield recv_block(1)
            yield compute(self.service_ns)
            yield send(self.client_vm, self.client.index, self.resp_bytes)

    def _drive(self) -> Iterator[Segment]:
        while True:
            yield call(lambda now: setattr(self, "_t0", now))
            yield send(self.server_vm, self.server.index, self.req_bytes)
            yield recv_block(1)
            yield call(lambda now: self.response_times.append(now - self._t0))
            yield sleep(self.rng.exponential_ns(self.think_ns))

    def start(self) -> None:
        self.server.start()
        self.client.start()

    @property
    def mean_response_ns(self) -> Optional[float]:
        if not self.response_times:
            return None
        return sum(self.response_times) / len(self.response_times)

    def results(self) -> dict:
        return {
            "app": "webserver",
            "mean_response_ns": self.mean_response_ns,
            "requests": len(self.response_times),
        }
