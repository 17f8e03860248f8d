"""Smoke tests for the per-figure scenario builders (tiny configurations)."""

import math

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.runner import SCENARIOS
from repro.experiments.scenarios import (
    run_packet_path_probe,
    run_small_mix,
    run_type_a,
    run_type_b,
    run_type_b_mixed,
)
from repro.faults.plan import parse_fault_spec
from repro.sim.units import SEC

#: Every world-building scenario, and the arguments it requires.
WORLD_SCENARIOS = {name: fn for name, fn in SCENARIOS.items() if name != "fault_probe"}
REQUIRED_ARGS = {
    "type_a": dict(app_name="is", scheduler="CR", n_nodes=1),
    "small_mix": dict(scheduler="CR"),
    "type_b": dict(scheduler="CR"),
    "type_b_mixed": dict(scheduler="CR"),
}


@pytest.mark.parametrize("name", sorted(WORLD_SCENARIOS))
def test_scenario_rejects_unknown_world_option(name):
    """World options pass through to WorldConfig by name, so a misspelled
    one fails when the config is built, before any simulation."""
    with pytest.raises(TypeError, match="sanitise"):
        WORLD_SCENARIOS[name](**REQUIRED_ARGS.get(name, {}), sanitise=True)


def test_type_a_returns_complete_result():
    r = run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0, horizon_s=120)
    assert r["scheduler"] == "CR"
    assert r["app"] == "is"
    assert r["all_done"]
    assert r["mean_round_ns"] > 0
    assert r["rounds_measured"] == 4  # 4 virtual clusters x 1 round
    assert r["cluster"]["busy_ns"] > 0


def test_slice_sweep_rows():
    """A CR type-A cell at a uniform slice is one point of the slice sweep."""
    rows = [run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0, uniform_slice_ms=sm)
            for sm in (30, 1)]
    for row in rows:
        assert row["all_done"]
        assert row["mean_round_ns"] > 0
        assert row["cluster"]["context_switches"] > 0
        assert "faults" not in row and "trace" not in row
    # shorter slice -> lower spin latency
    assert rows[1]["avg_spin_ns"] < rows[0]["avg_spin_ns"]


def test_slice_sweep_rows_carry_fault_stats():
    plan = parse_fault_spec("random:2:1", 2, 2 * SEC).to_dicts()
    r = run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0, uniform_slice_ms=30,
                   horizon_s=2.0, faults=plan)
    assert r["faults"]["events"] == 2


def test_small_mix_returns_all_metrics():
    r = run_small_mix("CR", horizon_s=5.0)
    for key in (
        "sphinx3_mean_run_ns",
        "stream_bandwidth_Bps",
        "bonnie_throughput_Bps",
        "ping_mean_rtt_ns",
        "parallel_mean_round_ns",
    ):
        assert math.isfinite(r[key]), key
    assert r["ping_samples"] > 0


def _nonfinite(value, path="result"):
    """Paths of every NaN/inf float nested in ``value``."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in _nonfinite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [m for i, v in enumerate(value) for m in _nonfinite(v, f"{path}[{i}]")]
    return []


def test_a_metric_with_no_sample_is_none_not_nan():
    """A horizon too short for any round, run or packet leaves every
    mean undefined: None, never NaN."""
    a = run_type_a("lu", "ATC", n_nodes=2, horizon_s=0.005)
    mix = run_small_mix("ATC", horizon_s=0.005)
    assert _nonfinite(a) == [] and _nonfinite(mix) == []
    assert a["mean_round_ns"] is None
    assert all(mix[k] is None for k in (
        "parallel_mean_round_ns", "sphinx3_mean_run_ns", "stream_bandwidth_Bps",
        "bonnie_throughput_Bps", "ping_mean_rtt_ns"))


def test_small_mix_uniform_slice_mode():
    r = run_small_mix("CR", horizon_s=1.0, uniform_slice_ms=6.0)
    assert r["uniform_slice_ms"] == 6.0
    assert math.isfinite(r["ping_mean_rtt_ns"])


def test_type_b_builds_trace_mix():
    r = run_type_b("CR", n_nodes=4, horizon_s=2.0, seed=3)
    assert r["vcs"], "no virtual clusters built"
    assert all(vc["n_vms"] >= 2 for vc in r["vcs"])
    assert r["independents"]


def test_type_b_mixed_returns_nonparallel_metrics():
    r = run_type_b_mixed("CR", n_nodes=4, horizon_s=2.0, seed=3)
    assert math.isfinite(r["webserver_mean_response_ns"])
    assert math.isfinite(r["ping_mean_rtt_ns"])
    assert math.isfinite(r["gcc_mean_run_ns"])
    assert r["vcs"]


def test_type_b_mixed_admin_slice():
    r = run_type_b_mixed("ATC", n_nodes=4, horizon_s=2.0, seed=3, atc_np_slice_ms=6.0)
    assert r["atc_np_slice_ms"] == 6.0


def test_packet_path_probe_measures_all_hops():
    r = run_packet_path_probe("CR", n_probes=20, horizon_s=3.0)
    assert r["probes"] > 0
    for key in (
        "mean_netback_tx_wait_ns",
        "mean_wire_ns",
        "mean_netback_rx_wait_ns",
        "mean_consume_wait_ns",
        "mean_end_to_end_ns",
    ):
        assert r[key] >= 0, key
    assert r["mean_end_to_end_ns"] >= r["mean_wire_ns"]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.500" in out
