"""Physical network fabric: a switched 1 Gbps Ethernet model.

The paper's testbed connects 32 nodes with 1 Gbps Ethernet.  We model the
fabric as a full-crossbar switch with:

* a fixed one-way wire+switch latency per packet,
* per-node egress (NIC) serialization at the link bandwidth, and
* a per-packet framing overhead.

Only dom0 driver domains talk to the fabric (guests reach it through the
netfront/netback path in :mod:`repro.hypervisor.dom0`), mirroring Xen's
split-driver architecture in Figure 4 of the paper.

Fault hooks (:mod:`repro.faults`)
---------------------------------
The fault injector may *arm* two optional hooks:

* :attr:`Fabric.drop_rng` — a dedicated seeded RNG sub-stream consumed
  only when a degraded link has a non-zero drop probability, so a run
  without NIC faults draws nothing and stays bit-identical to a fabric
  without these hooks at all;
* :attr:`Fabric.crashed_of` — a ``node_index -> bool`` predicate; when
  set, deliveries are routed through a check that drops packets whose
  destination node is down.

A dropped message (probabilistic loss on a degraded link, or a crashed
endpoint) is retransmitted by the sending guest's transport after an
exponential-backoff timeout, up to ``NetworkParams.max_retransmits``
attempts, after which it is counted as lost.  When neither hook is armed
``transmit`` takes exactly the pre-fault fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC, USEC

__all__ = ["NetworkParams", "Fabric"]


@dataclass(frozen=True)
class NetworkParams:
    """Fabric tunables (defaults approximate the paper's 1 GbE testbed)."""

    #: One-way wire + switch latency (ns).
    latency_ns: int = 30 * USEC
    #: Link bandwidth in bits per second.
    bandwidth_bps: float = 1e9
    #: Per-packet framing overhead (preamble + Ethernet/IP/UDP headers), bytes.
    framing_bytes: int = 66
    #: Maximum payload carried by one packet (MTU minus headers), bytes.
    mtu_payload_bytes: int = 1448
    #: Guest-transport retransmission timeout base (ns); doubles per attempt.
    retransmit_timeout_ns: int = 200 * USEC
    #: Upper bound on the backed-off retransmission timeout (ns).
    retransmit_cap_ns: int = 100 * MSEC
    #: Retransmission attempts before a message is declared lost.
    max_retransmits: int = 16

    def tx_ns(self, nbytes: int) -> int:
        """Serialization time on the wire for a message of ``nbytes`` payload,
        accounting for per-MTU framing overhead.

        Computed in pure integer nanoseconds with explicit ceiling
        rounding (never under-charge the wire), so non-default
        ``bandwidth_bps`` values cannot lose fractional nanoseconds to
        float truncation.
        """
        npackets = max(1, -(-nbytes // self.mtu_payload_bytes))
        wire_bits = (nbytes + npackets * self.framing_bytes) * 8
        bw = max(1, round(self.bandwidth_bps))
        return -(-wire_bits * SEC // bw)  # ceil(bits * ns_per_s / bps)


class Fabric:
    """Crossbar switch with per-source-node egress serialization.

    ``transmit`` models: wait for the source NIC to drain its queue,
    serialize the message at link speed, then deliver ``deliver_fn`` at the
    destination after the wire latency.  Delivery order per (src, dst) pair
    is FIFO, as on a real switched LAN.
    """

    __slots__ = (
        "sim",
        "params",
        "_nic_free_at",
        "messages_sent",
        "bytes_sent",
        "bytes_retransmitted",
        "drop_rng",
        "crashed_of",
        "_degraded",
        "messages_dropped",
        "retransmits",
        "messages_lost",
    )

    def __init__(self, sim: Simulator, params: NetworkParams | None = None) -> None:
        self.sim = sim
        self.params = params or NetworkParams()
        self._nic_free_at: dict[int, int] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Payload bytes re-serialized on NICs by retransmission attempts.
        #: Every attempt charges ``_nic_free_at`` (the NIC really sends the
        #: bytes again), so actual egress is ``wire_bytes_total``, not
        #: ``bytes_sent`` — the latter counts each message once.
        self.bytes_retransmitted = 0
        #: Seeded RNG for probabilistic drops; armed by the fault injector.
        #: ``None`` (default) = no drop draws ever happen.
        self.drop_rng: Optional[SimRNG] = None
        #: ``node_index -> crashed?`` predicate; armed by the fault injector
        #: when the plan contains node crashes.  ``None`` = fast path.
        self.crashed_of: Optional[Callable[[int], bool]] = None
        #: Per-node link degradation: node -> (bw_factor, drop_prob).
        self._degraded: dict[int, tuple[float, float]] = {}
        self.messages_dropped = 0
        self.retransmits = 0
        self.messages_lost = 0

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def degrade_link(self, node: int, bw_factor: float = 1.0, drop_prob: float = 0.0) -> None:
        """Degrade ``node``'s NIC: scale its egress bandwidth by
        ``bw_factor`` and drop messages touching it with ``drop_prob``."""
        if not (0.0 < bw_factor <= 1.0):
            raise ValueError(f"bw_factor must be in (0, 1], got {bw_factor}")
        if not (0.0 <= drop_prob < 1.0):
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        self._degraded[node] = (bw_factor, drop_prob)

    def restore_link(self, node: int) -> None:
        """Heal a degraded link.  Idempotent."""
        self._degraded.pop(node, None)

    @property
    def wire_bytes_total(self) -> int:
        """Total payload bytes actually serialized on NICs, including
        every retransmission attempt (consistent with the egress time the
        fabric charged via ``_nic_free_at``)."""
        return self.bytes_sent + self.bytes_retransmitted

    # ------------------------------------------------------------------
    def transmit(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        deliver_fn: Callable[[], None],
    ) -> int:
        """Send ``nbytes`` from ``src_node`` to ``dst_node``.

        ``deliver_fn`` fires at the destination when the last bit arrives.
        Returns the absolute (first-attempt) delivery time (ns).
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        return self._attempt(src_node, dst_node, nbytes, deliver_fn, 1)

    def _attempt(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        deliver_fn: Callable[[], None],
        attempt: int,
    ) -> int:
        p = self.params
        tx = p.tx_ns(nbytes)
        if attempt > 1:
            # This attempt re-serializes the full message on the source
            # NIC (charged below via _nic_free_at): account for it, or
            # wire-byte totals diverge from actual egress under faults.
            self.bytes_retransmitted += nbytes
        drop_prob = 0.0
        if self._degraded:
            src_deg = self._degraded.get(src_node)
            if src_deg is not None:
                bw_factor, drop_prob = src_deg
                if bw_factor < 1.0:
                    # Fixed-point ceil(tx / bw_factor): stays in integers.
                    denom = max(1, round(bw_factor * 1_000_000))
                    tx = -(-tx * 1_000_000 // denom)
            dst_deg = self._degraded.get(dst_node)
            if dst_deg is not None:
                drop_prob = 1.0 - (1.0 - drop_prob) * (1.0 - dst_deg[1])
        start = max(self.sim.now, self._nic_free_at.get(src_node, 0))
        self._nic_free_at[src_node] = start + tx
        arrival = start + tx + p.latency_ns
        if drop_prob > 0.0 and self.drop_rng is not None and self.drop_rng.random() < drop_prob:
            # Lost on the degraded link; the sender's transport notices by
            # timeout and retransmits with backoff.
            self.messages_dropped += 1
            self._schedule_retry(src_node, dst_node, nbytes, deliver_fn, attempt, arrival)
            return arrival
        if self.crashed_of is not None:
            self.sim.at(
                arrival,
                lambda: self._deliver_checked(src_node, dst_node, nbytes, deliver_fn, attempt),
                cat="net",
            )
        else:
            self.sim.at(arrival, deliver_fn, cat="net")
        return arrival

    def _deliver_checked(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        deliver_fn: Callable[[], None],
        attempt: int,
    ) -> None:
        """Delivery gate used while node crashes are armed: a packet whose
        destination died in flight is dropped and retried (the destination
        may restart before the retransmit budget runs out)."""
        if self.crashed_of is not None and self.crashed_of(dst_node):
            self.messages_dropped += 1
            self._schedule_retry(src_node, dst_node, nbytes, deliver_fn, attempt, self.sim.now)
            return
        deliver_fn()

    def _schedule_retry(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        deliver_fn: Callable[[], None],
        attempt: int,
        from_ns: int,
    ) -> None:
        p = self.params
        if attempt > p.max_retransmits or (
            self.crashed_of is not None and self.crashed_of(src_node)
        ):
            # Retransmit budget exhausted, or the sending host itself is
            # down: the message is gone.
            self.messages_lost += 1
            return
        rto = min(p.retransmit_timeout_ns << (attempt - 1), p.retransmit_cap_ns)
        self.retransmits += 1
        self.sim.at(
            from_ns + rto,
            lambda: self._attempt(src_node, dst_node, nbytes, deliver_fn, attempt + 1),
            cat="net",
        )
