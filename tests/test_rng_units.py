"""Tests for the deterministic RNG and time units."""

import hashlib
import math
import random
import statistics
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import SimRNG
from repro.workloads.base import BSPSpec, _peer_indices, bsp_rank_program
from repro.sim.units import (
    MSEC,
    SEC,
    USEC,
    ms_from_ns,
    ns_from_ms,
    ns_from_s,
    ns_from_us,
    s_from_ns,
)


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def test_unit_constants():
    assert USEC == 1_000
    assert MSEC == 1_000_000
    assert SEC == 1_000_000_000


@pytest.mark.parametrize(
    "fn,val,expected",
    [
        (ns_from_us, 1, 1_000),
        (ns_from_ms, 30, 30 * MSEC),
        (ns_from_ms, 0.3, 300_000),
        (ns_from_s, 2, 2 * SEC),
        (ns_from_us, 0.5, 500),
    ],
)
def test_conversions_to_ns(fn, val, expected):
    out = fn(val)
    assert out == expected
    assert isinstance(out, int)


def test_conversions_from_ns():
    assert ms_from_ns(30 * MSEC) == 30.0
    assert 1500 / USEC == 1.5
    assert s_from_ns(SEC) == 1.0


@given(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
def test_ms_roundtrip_close(ms):
    assert ms_from_ns(ns_from_ms(ms)) == pytest.approx(ms, rel=1e-6, abs=1e-6)


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
def test_same_seed_same_draws():
    a, b = SimRNG(42), SimRNG(42)
    assert [a.uniform_ns(0, 1000) for _ in range(20)] == [
        b.uniform_ns(0, 1000) for _ in range(20)
    ]


def test_different_seeds_differ():
    a, b = SimRNG(1), SimRNG(2)
    assert [a.uniform_ns(0, 10**9) for _ in range(5)] != [
        b.uniform_ns(0, 10**9) for _ in range(5)
    ]


def test_substream_deterministic():
    a = SimRNG(7).substream(1, 2, 3)
    b = SimRNG(7).substream(1, 2, 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_substreams_independent_of_draw_order():
    root = SimRNG(7)
    s1 = root.substream(1)
    _ = [s1.random() for _ in range(100)]  # drain one stream
    s2a = root.substream(2)
    s2b = SimRNG(7).substream(2)
    assert [s2a.random() for _ in range(10)] == [s2b.random() for _ in range(10)]


def test_distinct_substreams_differ():
    root = SimRNG(0)
    assert root.substream(1).random() != root.substream(2).random()


def test_nested_substreams_with_different_parents_differ():
    a = SimRNG(0).substream(1).substream(0, 0, 0)
    b = SimRNG(0).substream(2).substream(0, 0, 0)
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


_key_paths = st.lists(st.integers(0, 2**16), max_size=4).map(tuple)


@given(seed=st.integers(0, 2**32 - 1), a=_key_paths, b=_key_paths)
def test_chained_substreams_equal_one_call_with_the_joined_path(seed, a, b):
    chained = SimRNG(seed).substream(*a).substream(*b)
    joined = SimRNG(seed).substream(*a, *b)
    assert chained.path == joined.path == a + b
    assert [chained.random() for _ in range(4)] == [joined.random() for _ in range(4)]


def test_jittered_mean_is_close():
    rng = SimRNG(3)
    draws = [rng.jittered_ns(1_000_000, 0.2) for _ in range(4000)]
    assert statistics.mean(draws) == pytest.approx(1_000_000, rel=0.05)
    assert all(d >= 1 for d in draws)


def test_jittered_zero_cv_exact():
    rng = SimRNG(3)
    assert rng.jittered_ns(12345, 0.0) == 12345


def test_jittered_nonpositive_mean():
    rng = SimRNG(3)
    assert rng.jittered_ns(0, 0.5) == 0
    assert rng.jittered_ns(-5, 0.5) == 0


def _reference_stream(seed: int, path: tuple) -> random.Random:
    """The generator of ``SimRNG(seed).substream(*path)``, derived here
    from its definition: a BLAKE2b digest of ``repr((seed, path))``."""
    digest = hashlib.blake2b(repr((seed, path)).encode(), digest_size=32).digest()
    return random.Random(digest)  # repro: ignore[RPR001]


def _reference_jittered_ns(gen: random.Random, mean_ns: int, cv: float) -> int:
    """``jittered_ns`` spelled out: lognormal parameters recomputed on
    every call, then one scalar draw."""
    if cv <= 0.0 or mean_ns <= 0:
        return max(0, int(mean_ns))
    sigma2 = math.log1p(cv * cv)
    mu = math.log(mean_ns) - 0.5 * sigma2
    return max(1, int(gen.lognormvariate(mu, math.sqrt(sigma2))))


_draw_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    key=st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 7)),
    mean_ns=st.one_of(st.integers(-1000, 0), st.integers(1, 10**10)),
    cv=st.one_of(st.just(0.0), st.floats(-1.0, 3.0, allow_nan=False)),
    n=st.integers(1, 40),
)


@settings(max_examples=60, deadline=None)
@given(**_draw_shapes)
def test_lognormal_params_draws_equal_jittered_ns(seed, key, mean_ns, cv, n):
    root = SimRNG(seed)
    ref = _reference_stream(seed, key)
    expected = [_reference_jittered_ns(ref, mean_ns, cv) for _ in range(n)]
    calls = root.substream(*key)
    assert [calls.jittered_ns(mean_ns, cv) for _ in range(n)] == expected
    assert root.substream(*key).jittered_list(mean_ns, cv, n) == expected
    params = SimRNG.lognormal_params(mean_ns, cv)
    if params is None:
        assert cv <= 0.0 or mean_ns <= 0
        assert [max(0, int(mean_ns))] * n == expected
    else:
        gen = _reference_stream(seed, key)
        assert [max(1, int(gen.lognormvariate(*params))) for _ in range(n)] == expected


def _reference_rank_program(spec, vms, vm_idx, local_idx, bar, gen):
    """One BSP rank-round spelled out with one scalar grain draw per
    superstep and fresh segment tuples throughout."""
    peers = _peer_indices(spec.pattern, vm_idx, len(vms))
    for step in range(spec.supersteps):
        yield ("compute", _reference_jittered_ns(gen, spec.grain_ns, spec.grain_cv))
        yield ("barrier", bar)
        if spec.comm_every <= 1 or step % spec.comm_every == 0:
            if local_idx == 0 and peers:
                nmsg = 0
                for p in peers:
                    for _ in range(spec.msgs_per_peer):
                        yield ("send", vms[p], 0, spec.msg_bytes, step)
                        nmsg += 1
                yield ("recv", nmsg)
            if peers and spec.hard_comm_sync:
                yield ("barrier", bar)


@settings(max_examples=60, deadline=None)
@given(
    **_draw_shapes,
    pattern=st.sampled_from(["none", "ring", "alltoall"]),
    comm_every=st.integers(0, 3),
    hard_comm_sync=st.booleans(),
    msgs_per_peer=st.integers(1, 2),
    n_vms=st.integers(1, 4),
    where=st.tuples(st.integers(0, 3), st.integers(0, 1)),
)
def test_bsp_round_grains_equal_scalar_draws(
    seed, key, mean_ns, cv, n, pattern, comm_every, hard_comm_sync, msgs_per_peer, n_vms, where
):
    spec = BSPSpec("t", grain_ns=mean_ns, grain_cv=cv, supersteps=n, pattern=pattern,
                   msg_bytes=64, msgs_per_peer=msgs_per_peer, comm_every=comm_every,
                   hard_comm_sync=hard_comm_sync)
    vms = [f"vm{i}" for i in range(n_vms)]
    vm_idx, local_idx = where[0] % n_vms, where[1]
    bar = object()
    root = SimRNG(seed)
    segs = list(bsp_rank_program(spec, vms, vm_idx, local_idx, bar, root.substream(*key)))
    ref = _reference_rank_program(spec, vms, vm_idx, local_idx, bar, _reference_stream(seed, key))
    assert segs == list(ref)
    assert all(type(seg[1]) is int for seg in segs if seg[0] == "compute")


@pytest.mark.parametrize("local_idx", [0, 1])
def test_bsp_rank_program_draws_its_grains_when_called(local_idx):
    # The round's grains are drawn when the round loads, before the first
    # segment, and the program keeps neither the stream nor its generator:
    # a loaded rank-round holds no parked Mersenne Twister state.
    spec = BSPSpec("t", grain_ns=MSEC, grain_cv=0.4, supersteps=12, pattern="ring",
                   msg_bytes=64, comm_every=2, hard_comm_sync=True)
    vms, bar, path = ["vm0", "vm1", "vm2"], object(), (1, local_idx, 2)
    rng = SimRNG(7).substream(*path)
    gen = weakref.ref(rng._gen)
    program = bsp_rank_program(spec, vms, 1, local_idx, bar, rng)
    drawn = _reference_stream(7, path)
    for _ in range(spec.supersteps):
        _reference_jittered_ns(drawn, spec.grain_ns, spec.grain_cv)
    assert rng._gen.getstate() == drawn.getstate()
    del rng
    assert gen() is None
    ref = _reference_rank_program(spec, vms, 1, local_idx, bar, _reference_stream(7, path))
    assert list(program) == list(ref)


def test_exponential_positive_and_mean():
    rng = SimRNG(9)
    draws = [rng.exponential_ns(50_000) for _ in range(4000)]
    assert min(draws) >= 1
    assert statistics.mean(draws) == pytest.approx(50_000, rel=0.1)


def test_uniform_bounds():
    rng = SimRNG(11)
    draws = [rng.uniform_ns(10, 20) for _ in range(200)]
    assert min(draws) >= 10 and max(draws) <= 20
    assert 10 in draws or 20 in draws or len(set(draws)) > 5


def test_choice_with_probabilities():
    rng = SimRNG(13)
    picks = [rng.choice(["x", "y"], p=[0.9, 0.1]) for _ in range(500)]
    assert picks.count("x") > 350


def test_shuffle_is_permutation():
    rng = SimRNG(17)
    items = list(range(30))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
