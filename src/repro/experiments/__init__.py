"""Experiment harness: the CloudWorld facade, per-figure scenario
builders, the parallel sweep runner, and plain-text reporting."""

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.reporting import format_normalized, format_table, to_csv, to_markdown
from repro.experiments.runner import (
    RunResult,
    RunSpec,
    export_json,
    run_sweep,
    sweep_stats,
)
from repro.experiments.scenarios import (
    run_packet_path_probe,
    run_slice_sweep,
    run_small_mix,
    run_type_a,
    run_type_b,
    run_type_b_mixed,
)

__all__ = [
    "CloudWorld",
    "WorldConfig",
    "RunResult",
    "RunSpec",
    "export_json",
    "run_sweep",
    "sweep_stats",
    "format_normalized",
    "format_table",
    "to_csv",
    "to_markdown",
    "run_packet_path_probe",
    "run_slice_sweep",
    "run_small_mix",
    "run_type_a",
    "run_type_b",
    "run_type_b_mixed",
]
