"""Outside-in layer tracer for the end-to-end benchmark.

:class:`Tracer` replaces public methods of the simulator's layers with
timing wrappers *before* the world is built, so every instance created
afterwards calls through them.  Nothing inside ``src/`` changes, and a
wrapper only reads the host clock, so a traced run is bit-identical to
an untraced one.

For each wrapped name it records calls, total time and self time (total
minus the time spent in nested wrapped calls).  It also keeps a bounded
sample of raw spans for a Chrome ``trace_event`` file.  Spans are sampled
by whole call tree: every depth-0 span (a ``Simulator.run`` call, a
build-time ``virtual_cluster``) is kept, and the trees under them are kept
when their index is a multiple of ``stride``.  The stride doubles whenever
the sample would pass ``span_cap``, so the sample thins evenly over the
run and its memory stays bounded.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from pathlib import Path

__all__ = ["LAYERS", "Tracer"]

#: ``(module, attribute path, metric name)`` of every wrapped call.
#: ``Dom0.submit_disk`` is left out: no workload does disk I/O.
LAYERS = (
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.hypervisor.vmm", "VMM.dispatch", "vmm.dispatch"),
    ("repro.hypervisor.vmm", "VMM.vcpu_block", "vmm.vcpu_block"),
    ("repro.hypervisor.vmm", "VMM.preempt", "vmm.preempt"),
    ("repro.schedulers.credit", "CreditScheduler.pick_next", "sched.pick_next"),
    ("repro.schedulers.credit", "CreditScheduler.on_wake", "sched.on_wake"),
    ("repro.schedulers.credit", "CreditScheduler.on_period", "sched.on_period"),
    ("repro.core.controller", "ATCController.on_period", "atc.on_period"),
    ("repro.cluster.cache", "PCPUCache.on_dispatch", "cache.on_dispatch"),
    ("repro.cluster.network", "Fabric.transmit", "net.transmit"),
    ("repro.hypervisor.dom0", "Dom0.send_packet", "dom0.send_packet"),
    ("repro.hypervisor.dom0", "Dom0.recv_packet", "dom0.recv_packet"),
    ("repro.guest.kernel", "GuestKernel.deliver", "guest.deliver"),
    ("repro.guest.process", "GuestProcess.on_dispatch", "guest.on_dispatch"),
    ("repro.guest.process", "GuestProcess.on_preempt", "guest.on_preempt"),
    ("repro.experiments.harness", "CloudWorld.virtual_cluster", "world.virtual_cluster"),
    ("repro.experiments.harness", "CloudWorld.teardown_cluster", "world.teardown_cluster"),
    ("repro.migration.engine", "MigrationEngine.start", "migration.start"),
    ("repro.migration.engine", "MigrationEngine.cancel", "migration.cancel"),
    ("repro.dfrs.controller", "solve_cluster", "dfrs.solve_cluster"),
)


class Tracer:
    """Context manager: wraps :data:`LAYERS` on entry, restores on exit."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.span_cap = span_cap
        #: name -> [calls, total_s, self_s]
        self.stats = {name: [0, 0.0, 0.0] for _, _, name in LAYERS}
        #: depth-0 name -> summed self time of every span in its trees
        self.subtree_self = {}
        #: kept spans: (name, start_s, end_s, span_id, parent_id, tree)
        self.roots = []
        self.sample = []
        self.stride = 1
        self._stack = []
        self._tree = 0
        self._ids = itertools.count(1)
        self._saved = []
        self.origin = time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)

    def __enter__(self) -> "Tracer":
        for module, path, name in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        next_id = self._ids.__next__
        tracer = self

        def traced(*args, **kwargs):
            # frame: [child_s, span_id, tree, root_frame, subtree_self_s]
            if stack:
                parent = stack[-1]
                if len(stack) == 1:
                    tracer._tree += 1
                frame = [0.0, next_id(), tracer._tree, parent[3], 0.0]
            else:
                parent = None
                frame = [0.0, next_id(), 0, None, 0.0]
                frame[3] = frame
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += own
                frame[3][4] += own
                if parent is None:
                    tracer.subtree_self[name] = tracer.subtree_self.get(name, 0.0) + frame[4]
                    tracer.roots.append((name, t0, t1, frame[1], None, 0))
                else:
                    parent[0] += dt
                    if frame[2] % tracer.stride == 0:
                        tracer._keep((name, t0, t1, frame[1], parent[1], frame[2]))

        return traced

    def _keep(self, span: tuple) -> None:
        self.sample.append(span)
        if len(self.sample) + len(self.roots) > self.span_cap:
            self.stride *= 2
            self.sample = [s for s in self.sample if s[5] % self.stride == 0]

    def aggregates(self) -> dict:
        return {
            name: {"calls": c, "total_s": total, "self_s": own}
            for name, (c, total, own) in self.stats.items()
        }

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Write the span sample as a Chrome ``trace_event`` JSON file
        (complete ``"X"`` events, microseconds from tracer creation), with
        the per-name aggregates under ``otherData``."""
        spans = sorted(self.roots + self.sample, key=lambda s: (s[1], -s[2]))
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - self.origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": pid},
            }
            for name, t0, t1, sid, pid, _ in spans
        ]
        other = {
            **meta,
            "aggregates": self.aggregates(),
            "span_cap": self.span_cap,
            "tree_stride": self.stride,
            "spans_kept": len(events),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": other}))
