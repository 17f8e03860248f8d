"""Experiment harness: the CloudWorld facade, per-figure scenario
builders and plain-text reporting.  The parallel sweep runner is
:mod:`repro.experiments.runner`; import it from there (it pulls in
``multiprocessing``, which a single scenario run does not need)."""

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.reporting import format_normalized, format_table, to_csv, to_markdown
from repro.experiments.scenarios import (
    run_packet_path_probe,
    run_small_mix,
    run_type_a,
    run_type_b,
    run_type_b_mixed,
)

__all__ = [
    "CloudWorld",
    "WorldConfig",
    "format_normalized",
    "format_table",
    "to_csv",
    "to_markdown",
    "run_packet_path_probe",
    "run_small_mix",
    "run_type_a",
    "run_type_b",
    "run_type_b_mixed",
]
