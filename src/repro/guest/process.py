"""Guest processes: preemptible programs pinned 1:1 to VCPUs.

A *program* is a Python generator yielding **segments** — the primitive
actions a guest process performs.  Segment constructors:

``compute(ns)``
    Burn ``ns`` of CPU (preemptible; survives slice ends with partial
    progress, and pays context-switch + LLC-refill overhead on each
    re-dispatch).
``lock(lk, hold_ns)``
    Acquire spinlock ``lk`` (spinning if contended), hold it for a
    ``hold_ns`` critical section, release.
``barrier(bar)``
    BSP barrier: lock-protected arrival + generation spin.
``send(dst_vm, dst_proc, nbytes, tag=0)``
    Asynchronous message through the Fig. 4 dom0 path.
``recv(n=1)``
    MPI-style **busy-wait** receive of ``n`` messages: the VCPU keeps
    spinning (consuming its slice) until the messages arrive *and* the
    VCPU is running.  Wait time is recorded as sync/spin latency.
``recv_block(n=1)``
    Blocking receive (servers): the VCPU sleeps until a message arrives.
``sleep(ns)``
    Block the VCPU for ``ns`` (timers, think time).
``disk(nbytes)``
    Synchronous block I/O through dom0's blkback and the node disk.
``call(fn)``
    Run ``fn(now_ns)`` instantly — for metric hooks; must not wake VCPUs.

Reentrancy/correctness invariants (see :mod:`repro.hypervisor.vmm`):

* ``_advance`` (the segment interpreter) only ever runs from events owned
  by this process while its VCPU is RUNNING;
* condition resolutions arriving while the VCPU is descheduled are latched
  (``_granted`` / mailbox count) and resolved by a zero-delay poll at the
  next dispatch — which is what makes spinlock latency depend on the
  *scheduler*, the paper's core phenomenon;
* after any side effect that may wake another VCPU (``send``), the
  interpreter re-checks that it is still RUNNING, because a wake can
  preempt the sender's own PCPU synchronously.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.guest.spinlock import SpinBarrier, SpinLock
from repro.hypervisor.dom0 import Packet
from repro.hypervisor.vm import BLOCKED, RUNNING
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel

__all__ = [
    "GuestProcess",
    "Segment",
    "compute",
    "lock",
    "barrier",
    "send",
    "recv",
    "recv_block",
    "sleep",
    "disk",
    "call",
]

Segment = tuple

#: Max consecutive ``compute`` segments coalesced into one timer (bounds
#: how far ahead of the clock a program generator body is executed).
COMPUTE_BATCH_MAX = 1024


#: Stand-in for a timer due after the running slice ends.  Such a timer
#: can never fire: the slice expiry preempts the VCPU first, and
#: ``on_preempt`` drops whatever handle it holds.  A non-``None`` handle is
#: what tells ``on_preempt`` to settle partial progress, so this one, never
#: armed, stands in for the timer without an entry in the event heap.
PAST_SLICE = Event(cat="guest")


# ----------------------------------------------------------------------
# Segment constructors (the program-author API)
# ----------------------------------------------------------------------
def compute(ns: int) -> Segment:
    """Burn ``ns`` of CPU (preemptible, survives slice ends)."""
    return ("compute", int(ns))


def lock(lk: SpinLock, hold_ns: int) -> Segment:
    """Acquire ``lk`` (spinning if contended), hold ``hold_ns``, release."""
    return ("lock", lk, int(hold_ns))


def barrier(bar: SpinBarrier) -> Segment:
    """Cross the BSP spin barrier (lock-protected arrival + generation spin)."""
    return ("barrier", bar)


def send(dst_vm, dst_proc: int, nbytes: int, tag: int = 0) -> Segment:
    """Asynchronously send ``nbytes`` to a peer process via the dom0 path."""
    return ("send", dst_vm, dst_proc, int(nbytes), tag)


def recv(n: int = 1) -> Segment:
    """Busy-wait (MPI-style) receive of ``n`` messages."""
    return ("recv", int(n))


def recv_block(n: int = 1) -> Segment:
    """Blocking receive of ``n`` messages (the VCPU sleeps)."""
    return ("recv_block", int(n))


def sleep(ns: int) -> Segment:
    """Block the VCPU for ``ns`` nanoseconds."""
    return ("sleep", int(ns))


def disk(nbytes: int) -> Segment:
    """Synchronous block I/O of ``nbytes`` through dom0's blkback."""
    return ("disk", int(nbytes))


def call(fn: Callable[[int], None]) -> Segment:
    """Run ``fn(now_ns)`` inline (metric hooks; must not wake VCPUs)."""
    return ("call", fn)


# ----------------------------------------------------------------------
class GuestProcess:
    """One guest process, pinned to one VCPU of its VM."""

    __slots__ = (
        "sim",
        "kernel",
        "vm",
        "vcpu",
        "index",
        "name",
        "cache_sensitivity",
        "on_done",
        "done",
        "_program",
        "_pushback",
        "state",
        "_remaining",
        "_work_started",
        "_work_ev",
        "_poll_ev",
        "_work_timer",
        "_poll_timer",
        "_grace_timer",
        "_spin_start",
        "_spin_kind",
        "_spin_cpu_used",
        "_grace_started",
        "_grace_ev",
        "_granted",
        "mailbox",
        "_unstamped",
        "_need",
        "_cur_lock",
        "_cur_hold",
        "_cur_barrier",
        "total_spin_ns",
        "messages_sent",
        "messages_received",
    )

    # states: init, ready, compute, lock_spin, crit, bar_lock_spin,
    #         bar_crit, bar_wait, recv_spin, recv_block, sleep, disk, done

    def __init__(self, kernel: "GuestKernel", index: int, cache_sensitivity: float = 1.0) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.vm = kernel.vm
        self.index = index
        self.vcpu = self.vm.vcpus[index]
        self.vcpu.runner = self
        self.name = f"{self.vm.name}.p{index}"
        self.cache_sensitivity = cache_sensitivity
        self.on_done: Optional[Callable[["GuestProcess"], None]] = None
        self.done = False
        self._program: Optional[Iterator[Segment]] = None
        self._pushback: Optional[Segment] = None
        self.state = "init"
        self._remaining = 0
        self._work_started = 0
        # One handle per timer, re-armed in place; ``_work_ev``/``_poll_ev``/
        # ``_grace_ev`` hold it (or PAST_SLICE) while armed, else None.
        self._work_ev = None
        self._poll_ev = None
        self._work_timer = Event(fn=self._work_done, cat="guest")
        self._poll_timer = Event(fn=self._poll, cat="guest")
        self._grace_timer = Event(fn=self._spin_block_timeout, cat="guest")
        self._spin_start = 0
        self._spin_kind = ""
        self._spin_cpu_used = 0
        self._grace_started = 0
        self._grace_ev = None
        self._granted = False
        self.mailbox = 0
        self._unstamped: list[Packet] = []
        self._need = 0
        self._cur_lock: Optional[SpinLock] = None
        self._cur_hold = 0
        self._cur_barrier: Optional[SpinBarrier] = None
        self.total_spin_ns = 0
        self.messages_sent = 0
        self.messages_received = 0

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------
    def load_program(self, program: Iterator[Segment]) -> None:
        """Install a (new) program.  The process must be idle (init/done)."""
        if self.state not in ("init", "done"):
            raise RuntimeError(f"{self.name}: load_program while {self.state}")
        self._program = program
        self._pushback = None
        self.done = False
        self.state = "ready"

    def start(self) -> None:
        """Wake the VCPU so the program begins executing."""
        if self._program is None:
            raise RuntimeError(f"{self.name}: start() without a program")
        self.vcpu.wake()

    # ------------------------------------------------------------------
    # Runner protocol (called by the VMM)
    # ------------------------------------------------------------------
    def on_dispatch(self, now: int, overhead_ns: int) -> None:
        st = self.state
        if st in ("compute", "crit", "bar_crit"):
            self._remaining = remaining = self._remaining + overhead_ns
            self._work_started = now
            self._work_ev = self._arm(now + remaining, self._work_timer)
        elif st in ("lock_spin", "bar_lock_spin", "bar_wait", "recv_spin"):
            if self._spin_resolved():
                self._schedule_poll()
            else:
                # Keep spinning, but only up to the remaining grace budget
                # (Xen PV spinlocks / MPI runtimes spin briefly then block
                # on an event channel).
                self._start_grace_timer(now)
        elif st in ("ready", "recv_block"):
            self._schedule_poll()
        elif st in ("init", "done"):
            # Spurious dispatch of an idle process: give the CPU back.
            self._schedule_poll()

    def on_preempt(self, now: int) -> None:
        if self._work_ev is not None:
            if self._work_ev is not PAST_SLICE:
                self._work_ev.cancel()
            self._work_ev = None
            remaining = self._remaining - (now - self._work_started)
            self._remaining = remaining if remaining > 0 else 0
        if self._grace_ev is not None:
            if self._grace_ev is not PAST_SLICE:
                self._grace_ev.cancel()
            self._grace_ev = None
            self._spin_cpu_used += now - self._grace_started
        if self._poll_ev is not None:
            self._poll_ev.cancel()
            self._poll_ev = None

    # ------------------------------------------------------------------
    # Condition resolutions (may arrive while descheduled)
    # ------------------------------------------------------------------
    def _lock_granted(self, lk: SpinLock) -> None:
        self._granted = True
        self._try_resume()

    def _barrier_released(self) -> None:
        self._granted = True
        self._try_resume()

    def on_message(self, pkt: Packet) -> None:
        self.mailbox += 1
        self.messages_received += 1
        self._unstamped.append(pkt)
        st = self.state
        if st == "recv_spin":
            if self.mailbox >= self._need:
                self._try_resume()
        elif st == "recv_block":
            if self.mailbox >= self._need:
                self.vcpu.wake()

    def _stamp_consumed(self) -> None:
        """Overhead source 4 ends here: the guest actually reads the data."""
        if self._unstamped:
            now = self.sim.now
            for pkt in self._unstamped:
                pkt.t_consumed = now
            self._unstamped.clear()

    def _try_resume(self) -> None:
        if self.vcpu.state is RUNNING:
            self._schedule_poll()
        elif self.vcpu.state is BLOCKED:
            # The spinner exhausted its grace budget and blocked on the
            # event channel (PV-spinlock style): wake it now.
            self.vcpu.wake()
        # else RUNNABLE: latched; on_dispatch will poll

    def _schedule_poll(self) -> None:
        if self._poll_ev is None:
            self._poll_ev = self.sim.rearm(self._poll_timer, self.sim.now)

    # ------------------------------------------------------------------
    # Spin-then-block mechanics
    # ------------------------------------------------------------------
    def _spin_resolved(self) -> bool:
        st = self.state
        if st in ("lock_spin", "bar_lock_spin", "bar_wait"):
            return self._granted
        if st == "recv_spin":
            return self.mailbox >= self._need
        return False

    def _start_grace_timer(self, now: int) -> None:
        budget = self.kernel.spin_block_ns
        if budget is None:
            return  # pure spinning (no PV-block): burn the slice
        self._grace_started = now
        self._grace_ev = self._arm(now + max(0, budget - self._spin_cpu_used), self._grace_timer)

    def _spin_block_timeout(self) -> None:
        self._grace_ev = None
        if self.vcpu.state is not RUNNING:
            return
        if self.state not in ("lock_spin", "bar_lock_spin", "bar_wait", "recv_spin"):
            return  # stale timer: the wait already resolved
        if self._spin_resolved():
            self._schedule_poll()
            return
        # Give up the PCPU; a grant/message will wake us via _try_resume.
        self.vcpu.block()

    # ------------------------------------------------------------------
    # Spin accounting
    # ------------------------------------------------------------------
    def _enter_spin(self, state: str, kind: str) -> None:
        self.state = state
        self._spin_kind = kind
        self._spin_start = self.sim.now
        self._spin_cpu_used = 0
        if self.vcpu.state is RUNNING:
            self._start_grace_timer(self.sim.now)

    def _end_spin(self) -> None:
        wait = self.sim.now - self._spin_start
        self.total_spin_ns += wait
        self.kernel.record_spin_wait(wait, self._spin_kind)

    # ------------------------------------------------------------------
    # The segment interpreter
    # ------------------------------------------------------------------
    def _poll(self) -> None:
        self._poll_ev = None
        if self.vcpu.state is not RUNNING:
            return
        if self._grace_ev is not None:
            self._grace_ev.cancel()
            self._grace_ev = None
        st = self.state
        if st == "ready":
            self._advance()
        elif st in ("lock_spin", "bar_lock_spin") and self._granted:
            self._granted = False
            self._end_spin()
            self._begin_crit("crit" if st == "lock_spin" else "bar_crit")
        elif st == "bar_wait" and self._granted:
            self._granted = False
            self._end_spin()
            self._advance()
        elif st == "recv_spin" and self.mailbox >= self._need:
            self._end_spin()
            self.mailbox -= self._need
            self._stamp_consumed()
            self._advance()
        elif st == "recv_block" and self.mailbox >= self._need:
            self.mailbox -= self._need
            self._stamp_consumed()
            self._advance()
        elif st in ("init", "done"):
            self.vcpu.block()

    def _advance(self) -> None:
        while True:
            self.state = "ready"
            if self._pushback is not None:
                seg = self._pushback
                self._pushback = None
            else:
                try:
                    seg = next(self._program)
                except StopIteration:
                    self._finish()
                    return
            k = seg[0]
            if k == "compute":
                # Coalesce consecutive compute segments into one timer: the
                # interpreter would otherwise burn one event per segment
                # with nothing observable happening at the seams (zero
                # simulated time elapses between back-to-back computes).
                # The first non-compute segment pulled ahead is pushed back
                # and interpreted after the batched work completes, so
                # ``call``/``send``/... stay exact batching boundaries.
                total = seg[1]
                batched = 1
                prog = self._program
                while batched < COMPUTE_BATCH_MAX:
                    try:
                        nxt = next(prog)
                    except StopIteration:
                        break
                    if nxt[0] == "compute":
                        total += nxt[1]
                        batched += 1
                    else:
                        self._pushback = nxt
                        break
                self.state = "compute"
                self._begin_work(total)
                return
            if k == "call":
                seg[1](self.sim.now)
                continue
            if k == "send":
                self._do_send(seg)
                if self.vcpu.state is not RUNNING:
                    return  # the wake preempted us; resume at next dispatch
                continue
            if k == "recv":
                need = seg[1]
                if self.mailbox >= need:
                    self.mailbox -= need
                    self._stamp_consumed()
                    continue
                self._need = need
                self._enter_spin("recv_spin", "recv")
                return
            if k == "recv_block":
                need = seg[1]
                if self.mailbox >= need:
                    self.mailbox -= need
                    self._stamp_consumed()
                    continue
                self._need = need
                self.state = "recv_block"
                self.vcpu.block()
                return
            if k == "lock":
                lk, hold = seg[1], seg[2]
                self._cur_lock = lk
                self._cur_hold = hold
                if lk.acquire(self):
                    self._begin_crit("crit")
                else:
                    self._enter_spin("lock_spin", "lock")
                return
            if k == "barrier":
                bar = seg[1]
                self._cur_barrier = bar
                self._cur_lock = bar.lock
                self._cur_hold = bar.hold_ns
                if bar.lock.acquire(self):
                    self._begin_crit("bar_crit")
                else:
                    self._enter_spin("bar_lock_spin", "lock")
                return
            if k == "sleep":
                self.state = "sleep"
                ns = seg[1]
                self.vcpu.block()
                self.sim.after(ns, self._sleep_done, cat="guest")
                return
            if k == "disk":
                self.state = "disk"
                self.vm.count_io_event()
                self.vcpu.block()
                self.vm.node.vmm.dom0.submit_disk(seg[1], self._io_done)
                return
            raise ValueError(f"{self.name}: unknown segment {seg!r}")

    # ------------------------------------------------------------------
    def _arm(self, deadline: int, timer: Event) -> Event:
        """Re-arm ``timer`` to fire at ``deadline`` (absolute ns) and return
        it, or return :data:`PAST_SLICE` if it would fire strictly after
        the running slice's deadline (``pcpu.slice_end_ns``).  A timer that
        ties with the deadline is armed: ``tie_order`` decides which of
        the two runs first."""
        if deadline > self.vcpu.pcpu.slice_end_ns:
            return PAST_SLICE
        return self.sim.rearm(timer, deadline)

    def _begin_work(self, ns: int) -> None:
        self._remaining = ns
        self._work_started = now = self.sim.now
        self._work_ev = self._arm(now + ns, self._work_timer)

    def _begin_crit(self, state: str) -> None:
        self.state = state
        self._begin_work(self._cur_hold)

    def _advance_if_running(self) -> None:
        """Continue the program, unless a wake we just caused preempted our
        own VCPU — in that case resume at the next dispatch."""
        if self.vcpu.state is RUNNING:
            self._advance()
        else:
            self.state = "ready"

    def _work_done(self) -> None:
        self._work_ev = None
        st = self.state
        if st == "compute":
            self._advance()
        elif st == "crit":
            lk = self._cur_lock
            self._cur_lock = None
            self.state = "ready"
            lk.release(self)  # may wake a blocked waiter -> may preempt us
            self._advance_if_running()
        elif st == "bar_crit":
            self._bar_arrived()
        else:  # pragma: no cover - state machine invariant
            raise RuntimeError(f"{self.name}: work done in state {st}")

    def _bar_arrived(self) -> None:
        bar = self._cur_barrier
        bar.count += 1
        if bar.count == bar.n:
            # Last arrival: flip the generation and wake all spinners.
            bar.count = 0
            bar.generation += 1
            bar.crossings += 1
            waiters = bar.gen_waiters
            bar.gen_waiters = []
            self._cur_barrier = None
            lk = self._cur_lock
            self._cur_lock = None
            self.state = "ready"
            lk.release(self)  # both the release and the waiter wakes below
            for w in waiters:  # can preempt our own PCPU (boost)
                w._barrier_released()
            self._advance_if_running()
        else:
            bar.gen_waiters.append(self)
            self._enter_spin("bar_wait", "barrier")
            self._cur_barrier = None
            lk = self._cur_lock
            self._cur_lock = None
            lk.release(self)

    def _do_send(self, seg: Segment) -> None:
        _, dst_vm, dst_proc, nbytes, tag = seg
        pkt = Packet(self.vm, self.index, dst_vm, dst_proc, nbytes, tag)
        self.messages_sent += 1
        self.vm.count_io_event()
        self.vm.node.vmm.dom0.send_packet(pkt)

    def _sleep_done(self) -> None:
        self.state = "ready"
        self.vcpu.wake()

    def _io_done(self) -> None:
        self.state = "ready"
        self.vcpu.wake()

    def _finish(self) -> None:
        self.state = "done"
        self.done = True
        self._program = None
        self.vcpu.block()
        if self.on_done is not None:
            self.on_done(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GuestProcess {self.name} {self.state}>"
