"""The simulator runs on the Python standard library alone, and a plain
run imports only the subsystems its world builds."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

#: A tiny type-A cell, then every module the process loaded, one a line
#: (not as JSON: the script must not load ``json`` itself).
SCRIPT = """
import sys
from repro.experiments.scenarios import run_type_a
run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0)
print("\\n".join(sorted(sys.modules)))
"""

#: Packages of optional subsystems a plain CR world does not build.
UNBUILT_PACKAGES = ("repro.analysis", "repro.faults", "repro.migration", "repro.service",
                    "repro.dfrs")
#: Modules of other layers that such a world does not use either.
UNBUILT_MODULES = {
    "repro.obs.profiler",
    "repro.obs.trace",
    "repro.workloads.attacks",
    "repro.workloads.nonparallel",
    "repro.workloads.traces",
    "repro.core.controller",
    "repro.core.diagnostics",
    "repro.core.threshold",
}
#: Standard-library modules only the trace exporters use.
UNBUILT_STDLIB = ("json", "pathlib")
#: The scheduler modules a CR world needs.
CR_SCHEDULER_MODULES = {"repro.schedulers.base", "repro.schedulers.credit",
                        "repro.schedulers.registry"}


@pytest.fixture(scope="module")
def loaded() -> list[str]:
    # -S: no site-packages and no .pth hooks, so only what the run
    # itself imports is loaded; repro comes from its own source tree.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.split()


def unbuilt(name: str) -> bool:
    """Whether a plain CR type-A run has no use for module ``name``."""
    return (any(name == p or name.startswith(p + ".") for p in UNBUILT_PACKAGES)
            or name in UNBUILT_MODULES
            or (name.rpartition(".")[0] == "repro.schedulers"
                and name not in CR_SCHEDULER_MODULES))


def test_a_type_a_cell_loads_only_stdlib_modules(loaded):
    top = {name.partition(".")[0] for name in loaded}
    assert sorted(top - set(sys.stdlib_module_names) - {"__main__", "repro"}) == []


def test_a_type_a_cell_imports_only_what_its_world_builds(loaded):
    assert [name for name in loaded if unbuilt(name)] == []
    assert [name for name in UNBUILT_STDLIB if name in loaded] == []
