"""The simulator runs on the Python standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys

import repro

#: A tiny type-A cell, then every top-level module the process loaded
#: that is neither stdlib nor ``repro``.
SCRIPT = """
import sys
from repro.experiments.scenarios import run_type_a
run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0)
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top - set(sys.stdlib_module_names) - {"__main__", "repro"}))
"""


def test_a_type_a_cell_loads_only_stdlib_modules():
    # -S: no site-packages and no .pth hooks, so only what the run
    # itself imports is loaded; repro comes from its own source tree.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
