"""Tests for the physical substrate: cache model, fabric, nodes, disk."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cache import CacheParams, PCPUCache
from repro.cluster.network import Fabric, NetworkParams
from repro.cluster.node import Disk, DiskParams, NodeParams, PhysicalNode
from repro.cluster.topology import build_cluster
from repro.sim.engine import Simulator
from repro.sim.units import MSEC, USEC


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_first_dispatch_pays_full_refill():
    c = PCPUCache(CacheParams(refill_ns=30 * USEC, decay_tau_ns=2 * MSEC, miss_cost_ns=100))
    pen, misses = c.on_dispatch(0, "v1", 1.0)
    assert pen == 30 * USEC
    assert misses == pen // 100


def test_back_to_back_same_vcpu_is_free():
    c = PCPUCache()
    c.on_dispatch(0, "v1")
    c.on_undispatch(10, "v1")
    pen, misses = c.on_dispatch(10, "v1")
    assert pen == 0 and misses == 0


def test_warmth_decays_with_absence():
    p = CacheParams(refill_ns=30 * USEC, decay_tau_ns=1 * MSEC)
    c = PCPUCache(p)
    c.on_dispatch(0, "v1")
    c.on_undispatch(100, "v1")
    c.on_dispatch(100, "v2")
    c.on_undispatch(200, "v2")
    pen_short, _ = c.on_dispatch(200, "v1")  # away 100 ns: nearly warm

    c2 = PCPUCache(p)
    c2.on_dispatch(0, "v1")
    c2.on_undispatch(100, "v1")
    c2.on_dispatch(100, "v2")
    c2.on_undispatch(10 * MSEC, "v2")
    pen_long, _ = c2.on_dispatch(10 * MSEC, "v1")  # away 10 ms: cold
    assert pen_short < pen_long
    assert pen_long == pytest.approx(p.refill_ns, rel=0.01)


def test_sensitivity_scales_penalty():
    c = PCPUCache(CacheParams(refill_ns=30 * USEC))
    pen_lo, _ = c.on_dispatch(0, "a", 0.5)
    c2 = PCPUCache(CacheParams(refill_ns=30 * USEC))
    pen_hi, _ = c2.on_dispatch(0, "a", 2.0)
    assert pen_hi == 4 * pen_lo


def test_counters_accumulate():
    c = PCPUCache()
    pen_a, miss_a = c.on_dispatch(0, "a")
    c.on_undispatch(5, "a")
    pen_b, miss_b = c.on_dispatch(5, "b")
    assert c.total_penalty_ns == pen_a + pen_b > 0
    assert c.total_miss_count == miss_a + miss_b > 0


@given(st.integers(min_value=0, max_value=10**12))
def test_penalty_never_exceeds_refill(away):
    p = CacheParams(refill_ns=30 * USEC, decay_tau_ns=2 * MSEC)
    c = PCPUCache(p)
    c.on_dispatch(0, "a")
    c.on_undispatch(1, "a")
    c.on_dispatch(1, "b")
    c.on_undispatch(2 + away, "b")
    pen, _ = c.on_dispatch(2 + away, "a")
    assert 0 <= pen <= p.refill_ns


def _reference_penalty(p, last_key, last_seen, now, key, sensitivity):
    """The module docstring's warmth formula, written out as plainly as
    possible: the reference ``on_dispatch`` must match bit for bit."""
    if key is last_key:
        return 0, 0
    if key not in last_seen:
        warm = 0.0
    elif now - last_seen[key] >= 64 * p.decay_tau_ns:
        warm = 0.0
    else:
        warm = math.exp(-(now - last_seen[key]) / p.decay_tau_ns)
    penalty = int(p.refill_ns * sensitivity * (1.0 - warm))
    return penalty, penalty // p.miss_cost_ns


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        CacheParams,
        refill_ns=st.integers(1, 10**6),
        decay_tau_ns=st.integers(1, 10**8),
        miss_cost_ns=st.integers(1, 10**4),
    ),
    st.data(),
)
def test_on_dispatch_matches_the_formula(p, data):
    keys = ["a", "b", "c", "d"]
    c = PCPUCache(p)
    last_key, last_seen = None, {}
    total_pen = total_miss = 0
    now = data.draw(st.integers(0, 10**9))
    for _ in range(data.draw(st.integers(1, 12))):
        key = data.draw(st.sampled_from(keys))
        if key in last_seen:
            # An away time of k taus and change, k = 0..70: warmth is
            # visible in the penalty up to ~37 taus, then cut off at 64.
            tau = p.decay_tau_ns
            away = data.draw(st.integers(0, 70)) * tau + data.draw(st.integers(-2, tau))
            now = max(now, last_seen[key] + away)
        sens = data.draw(st.one_of(
            st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.0, 2.5]), st.floats(0.0, 16.0),
        ))
        want = _reference_penalty(p, last_key, last_seen, now, key, sens)
        assert c.on_dispatch(now, key, sens) == want
        last_key = key
        total_pen += want[0]
        total_miss += want[1]
        now += data.draw(st.integers(0, 10 * p.decay_tau_ns))
        c.on_undispatch(now, key)
        last_seen[key] = now
        assert (c.total_penalty_ns, c.total_miss_count) == (total_pen, total_miss)
        assert c._last_seen == last_seen and c.last_key is last_key


# ----------------------------------------------------------------------
# Network fabric
# ----------------------------------------------------------------------
def test_tx_time_includes_framing():
    p = NetworkParams(bandwidth_bps=1e9, framing_bytes=66, mtu_payload_bytes=1448)
    one = p.tx_ns(100)
    assert one == int((100 + 66) * 8)
    multi = p.tx_ns(1448 * 3)
    assert multi == int((1448 * 3 + 3 * 66) * 8)


def test_delivery_time_latency_plus_tx():
    sim = Simulator()
    fab = Fabric(sim, NetworkParams(latency_ns=30 * USEC, bandwidth_bps=1e9))
    arrivals = []
    t = fab.transmit(0, 1, 1000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [t]
    assert t == fab.params.tx_ns(1000) + 30 * USEC


def test_nic_serializes_back_to_back_sends():
    sim = Simulator()
    fab = Fabric(sim, NetworkParams(latency_ns=0, bandwidth_bps=1e9))
    arrivals = []
    fab.transmit(0, 1, 1_000_000, lambda: arrivals.append(("a", sim.now)))
    fab.transmit(0, 2, 1_000_000, lambda: arrivals.append(("b", sim.now)))
    sim.run()
    (na, ta), (nb, tb) = arrivals
    assert na == "a" and nb == "b"
    assert tb >= 2 * ta * 0.99  # second waited for the first to drain


def test_different_sources_do_not_serialize():
    sim = Simulator()
    fab = Fabric(sim, NetworkParams(latency_ns=0, bandwidth_bps=1e9))
    arrivals = {}
    fab.transmit(0, 2, 1_000_000, lambda: arrivals.setdefault("a", sim.now))
    fab.transmit(1, 2, 1_000_000, lambda: arrivals.setdefault("b", sim.now))
    sim.run()
    assert arrivals["a"] == arrivals["b"]


def test_fabric_counters():
    sim = Simulator()
    fab = Fabric(sim)
    fab.transmit(0, 1, 500, lambda: None)
    fab.transmit(1, 0, 700, lambda: None)
    assert fab.messages_sent == 2
    assert fab.bytes_sent == 1200


def test_tx_ns_matches_closed_form_exactly():
    """Regression: tx_ns used float division and truncated fractional
    nanoseconds on non-default bandwidths.  It must equal the exact
    rational closed form ceil(wire_bits * 1e9 / bps) for any bandwidth."""
    from fractions import Fraction

    for bps in (1e9, 1e8, 2.5e9, 4e10, 1e9 / 3, 9.37e8):
        p = NetworkParams(bandwidth_bps=bps)
        for nbytes in (0, 1, 100, 1447, 1448, 1449, 1_000_000):
            npackets = max(1, -(-nbytes // p.mtu_payload_bytes))
            bits = (nbytes + npackets * p.framing_bytes) * 8
            exact = Fraction(bits) * Fraction(10**9) / Fraction(round(bps))
            want = -(-exact.numerator // exact.denominator)  # ceil
            assert p.tx_ns(nbytes) == want, (bps, nbytes)


@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=10**6, max_value=10**11),
)
def test_tx_ns_is_integer_and_never_undercharges(nbytes, bps):
    from fractions import Fraction

    p = NetworkParams(bandwidth_bps=float(bps))
    got = p.tx_ns(nbytes)
    assert isinstance(got, int) and got >= 1  # framing alone costs wire time
    npackets = max(1, -(-nbytes // p.mtu_payload_bytes))
    bits = (nbytes + npackets * p.framing_bytes) * 8
    assert got >= Fraction(bits) * Fraction(10**9) / Fraction(bps)


def test_degraded_link_stretches_serialization():
    p = NetworkParams()
    sim = Simulator()
    fab = Fabric(sim, p)
    clean = fab.transmit(0, 1, 10_000, lambda: None)
    fab.degrade_link(0, bw_factor=0.5)
    sim2 = Simulator()
    fab2 = Fabric(sim2, p)
    fab2.degrade_link(0, bw_factor=0.5)
    slow = fab2.transmit(0, 1, 10_000, lambda: None)
    assert slow > clean
    fab2.restore_link(0)
    fab2.restore_link(0)  # idempotent
    sim3 = Simulator()
    fab3 = Fabric(sim3, p)
    assert fab3.transmit(0, 1, 10_000, lambda: None) == clean


def test_dropped_messages_retransmit_and_arrive():
    from repro.sim.rng import SimRNG

    sim = Simulator()
    fab = Fabric(sim, NetworkParams())
    fab.drop_rng = SimRNG(1).substream(0xFA, 0)
    fab.degrade_link(0, drop_prob=0.5)
    delivered = []
    for i in range(20):
        fab.transmit(0, 1, 1000, lambda i=i: delivered.append(i))
    sim.run()
    assert sorted(delivered) == list(range(20))  # retransmit recovers all
    assert fab.messages_dropped > 0
    assert fab.retransmits == fab.messages_dropped
    assert fab.messages_lost == 0


def test_certain_loss_gives_up_after_max_retransmits():
    from repro.sim.rng import SimRNG

    sim = Simulator()
    fab = Fabric(sim, NetworkParams(max_retransmits=3))
    fab.drop_rng = SimRNG(1).substream(0xFA, 0)
    fab.degrade_link(0, drop_prob=0.999999999)
    delivered = []
    fab.transmit(0, 1, 1000, lambda: delivered.append(1))
    sim.run()
    assert delivered == []
    assert fab.messages_lost == 1
    assert fab.messages_dropped == 4  # initial attempt + 3 retransmits


def test_retransmit_bytes_accounted_separately():
    """Regression: every retransmission attempt re-charges the source NIC
    (``_nic_free_at``), but the byte counters only recorded first
    transmissions — so wire-byte totals diverged from the egress time the
    fabric actually modelled under faults."""
    from repro.sim.rng import SimRNG

    sim = Simulator()
    fab = Fabric(sim, NetworkParams())
    fab.drop_rng = SimRNG(1).substream(0xFA, 0)
    fab.degrade_link(0, drop_prob=0.5)
    for _ in range(20):
        fab.transmit(0, 1, 1000, lambda: None)
    sim.run()
    assert fab.retransmits > 0
    assert fab.bytes_sent == 20_000  # one count per message, as before
    assert fab.bytes_retransmitted == fab.retransmits * 1000
    assert fab.wire_bytes_total == fab.bytes_sent + fab.bytes_retransmitted


def test_clean_fabric_wire_bytes_equal_bytes_sent():
    sim = Simulator()
    fab = Fabric(sim)
    fab.transmit(0, 1, 500, lambda: None)
    fab.transmit(1, 0, 700, lambda: None)
    sim.run()
    assert fab.bytes_retransmitted == 0
    assert fab.wire_bytes_total == fab.bytes_sent == 1200


def test_crashed_destination_drops_delivery():
    sim = Simulator()
    fab = Fabric(sim, NetworkParams())
    crashed = {1}
    fab.crashed_of = lambda i: i in crashed
    delivered = []
    fab.transmit(0, 1, 1000, lambda: delivered.append("dead"))
    fab.transmit(0, 2, 1000, lambda: delivered.append("alive"))
    sim.run()
    assert delivered == ["alive"]


# ----------------------------------------------------------------------
# Node / disk / topology
# ----------------------------------------------------------------------
def test_disk_service_time_model():
    p = DiskParams(seek_ns=2 * MSEC, bandwidth_Bps=100e6)
    assert p.service_ns(100_000_000) == 2 * MSEC + 1_000_000_000


def test_disk_fifo_ordering():
    sim = Simulator()
    d = Disk(sim, DiskParams(seek_ns=1 * MSEC, bandwidth_Bps=1e9))
    done = []
    d.submit(1000, lambda: done.append("a"))
    d.submit(1000, lambda: done.append("b"))
    sim.run()
    assert done == ["a", "b"]
    assert d.requests == 2 and d.bytes_moved == 2000


def test_disk_back_to_back_serialization():
    sim = Simulator()
    d = Disk(sim, DiskParams(seek_ns=1 * MSEC, bandwidth_Bps=1e9))
    t1 = d.submit(0, lambda: None)
    t2 = d.submit(0, lambda: None)
    assert t2 == 2 * t1


def test_build_cluster_shape():
    sim = Simulator()
    c = build_cluster(sim, 4, NodeParams(n_pcpus=8))
    assert len(c.nodes) == 4
    assert c.n_pcpus == 32
    assert c.node(2).index == 2
    assert all(n.vmm is None for n in c.nodes)


def test_build_cluster_rejects_zero_nodes():
    with pytest.raises(ValueError):
        build_cluster(Simulator(), 0)


def test_node_pcpus_start_idle():
    sim = Simulator()
    node = PhysicalNode(sim, 0, NodeParams(n_pcpus=3))
    assert all(p.is_idle for p in node.pcpus)
    assert [p.index for p in node.pcpus] == [0, 1, 2]
