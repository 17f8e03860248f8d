"""Benchmark-suite conftest: make the sibling ``_common`` module importable
and default to one-shot (pedantic) timing for whole-simulation runs."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))  # for tests.conftest helpers


def pytest_addoption(parser):
    parser.addoption(
        "--full-scale",
        action="store_true",
        default=False,
        help="run paper-scale grids (equivalent to REPRO_FULL=1): all six NPB "
        "kernels, 2-32 nodes, the full Fig. 5 slice ladder, and the "
        "256-core Table-I trace cell at its full horizon",
    )


def pytest_configure(config):
    if config.getoption("--full-scale", default=False):
        # _common.full_scale() and the bench scale helpers read the
        # environment, so the flag also reaches sweep worker subprocesses.
        os.environ["REPRO_FULL"] = "1"
