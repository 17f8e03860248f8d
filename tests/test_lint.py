"""Static determinism lint: one positive + one suppressed case per rule."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    PARSE_ERROR_CODE,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    run_lint,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
REPO_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
REPO_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def codes(source: str) -> list[str]:
    return [f.code for f in lint_source(source)]


# ----------------------------------------------------------------------
# RPR001: wall-clock / entropy calls
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "import time as clock\nt = clock.monotonic_ns()\n",
        "from time import time\nt = time()\n",
        "import random\nr = random.random()\n",
        "import random\nr = random.randint(0, 5)\n",
        "import os\nb = os.urandom(8)\n",
        "import uuid\nu = uuid.uuid4()\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import datetime\nd = datetime.datetime.utcnow()\n",
        "import numpy as np\nr = np.random.rand(3)\n",
        "import secrets\ns = secrets.token_bytes(4)\n",
    ],
)
def test_entropy_calls_flagged(snippet):
    assert "RPR001" in codes(snippet)


def test_entropy_pragma_suppresses():
    src = "import time\nt = time.time()  # repro: ignore[RPR001]\n"
    assert codes(src) == []


def test_seeded_rng_not_flagged():
    src = (
        "from repro.sim.rng import SimRNG\n"
        "rng = SimRNG(0)\n"
        "x = rng.uniform(0.0, 1.0)\n"
    )
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR002: unseeded RNG construction
# ----------------------------------------------------------------------
def test_unseeded_default_rng_flagged():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert "RPR002" in codes(src)


def test_seeded_default_rng_ok():
    src = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert "RPR002" not in codes(src)


def test_unseeded_rng_pragma_suppresses():
    src = "import numpy as np\nrng = np.random.default_rng()  # repro: ignore[RPR002]\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR010: id()-based keying/ordering
# ----------------------------------------------------------------------
def test_id_ordering_flagged():
    src = "order = sorted(vcpus, key=lambda v: id(v))\n"
    assert "RPR010" in codes(src)


def test_id_set_comprehension_flagged():
    src = "active = {id(v) for v in vcpus}\n"
    assert "RPR010" in codes(src)


def test_id_pragma_suppresses():
    src = "k = id(v)  # repro: ignore[RPR010]\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR011 / RPR012: set iteration and set.pop
# ----------------------------------------------------------------------
def test_for_over_set_literal_flagged():
    src = "for x in {1, 2, 3}:\n    print(x)\n"
    assert "RPR011" in codes(src)


def test_comprehension_over_set_binding_flagged():
    src = "s = {1, 2}\nout = [x for x in s]\n"
    assert "RPR011" in codes(src)


def test_sorted_set_ok():
    src = "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
    assert "RPR011" not in codes(src)


def test_set_iteration_pragma_suppresses():
    src = "s = {1, 2}\nout = [x for x in s]  # repro: ignore[RPR011]\n"
    assert codes(src) == []


def test_set_pop_flagged():
    src = "s = {1, 2}\nx = s.pop()\n"
    assert "RPR012" in codes(src)


def test_list_pop_ok():
    src = "s = [1, 2]\nx = s.pop()\n"
    assert "RPR012" not in codes(src)


def test_set_pop_pragma_suppresses():
    src = "s = {1, 2}\nx = s.pop()  # repro: ignore[RPR012]\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR020: raw time literals
# ----------------------------------------------------------------------
def test_raw_literal_keyword_flagged():
    src = "run(horizon_ns=5_000_000)\n"
    assert "RPR020" in codes(src)


def test_raw_literal_default_flagged():
    src = "def f(slice_ns=30_000_000):\n    pass\n"
    assert "RPR020" in codes(src)


def test_raw_literal_assign_flagged():
    src = "period_ns = 30_000_000\n"
    assert "RPR020" in codes(src)


def test_units_expression_ok():
    src = "from repro.sim.units import MSEC\nperiod_ns = 30 * MSEC\n"
    assert "RPR020" not in codes(src)


def test_small_literal_ok():
    src = "delta_ns = 100\n"
    assert "RPR020" not in codes(src)


def test_non_ns_name_ok():
    src = "count = 5_000_000\n"
    assert "RPR020" not in codes(src)


def test_raw_literal_pragma_suppresses():
    src = "period_ns = 30_000_000  # repro: ignore[RPR020]\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR030 / RPR031: exception hygiene
# ----------------------------------------------------------------------
def test_bare_except_flagged():
    src = "try:\n    f()\nexcept:\n    raise\n"
    assert "RPR030" in codes(src)


def test_swallowed_exception_flagged():
    src = "try:\n    f()\nexcept ValueError:\n    pass\n"
    assert "RPR031" in codes(src)


def test_handled_exception_ok():
    src = "try:\n    f()\nexcept ValueError as e:\n    log(e)\n"
    assert codes(src) == []


def test_bare_except_pragma_suppresses():
    src = "try:\n    f()\nexcept:  # repro: ignore[RPR030]\n    raise\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# RPR040 / RPR041: same-timestamp hook order dependence
# ----------------------------------------------------------------------
HOOK_PAIR = """
class Controller:
    def _tick_a(self, now):
        self.vm.slice_ns = 1

    def _tick_b(self, now):
        self.vm.slice_ns = 2

    def install(self, vmm):
        vmm.period_hooks.append(self._tick_a)
        vmm.period_hooks.append(self._tick_b)
"""


def test_period_hook_write_overlap_flagged():
    assert "RPR040" in codes(HOOK_PAIR)


def test_disjoint_period_hooks_ok():
    src = HOOK_PAIR.replace("self.vm.slice_ns = 2", "self.vm.period_ns = 2")
    assert "RPR040" not in codes(src)


def test_same_callback_reregistered_ok():
    src = HOOK_PAIR.replace(
        "vmm.period_hooks.append(self._tick_b)",
        "vmm.period_hooks.append(self._tick_a)",
    )
    assert "RPR040" not in codes(src)


def test_same_time_schedule_overlap_flagged():
    src = (
        "def setup(sim, vm):\n"
        "    def a():\n"
        "        vm.credits = 1\n"
        "    def b():\n"
        "        vm.credits = 2\n"
        "    sim.at(1000, a)\n"
        "    sim.at(1000, b)\n"
    )
    assert "RPR040" in codes(src)


def test_different_time_schedules_ok():
    src = (
        "def setup(sim, vm):\n"
        "    def a():\n"
        "        vm.credits = 1\n"
        "    def b():\n"
        "        vm.credits = 2\n"
        "    sim.at(1000, a)\n"
        "    sim.at(2000, b)\n"
    )
    assert "RPR040" not in codes(src)


def test_rpr040_interprocedural_through_self_call():
    src = HOOK_PAIR.replace(
        "self.vm.slice_ns = 1", "self._update()"
    ) + (
        "\n    def _update(self):\n"
        "        self.vm.slice_ns = 3\n"
    )
    assert "RPR040" in codes(src)


def test_rpr040_pragma_suppresses():
    src = HOOK_PAIR.replace(
        "vmm.period_hooks.append(self._tick_b)",
        "vmm.period_hooks.append(self._tick_b)  # repro: ignore[RPR040]",
    )
    assert "RPR040" not in codes(src)


REARM_PAIR = """
class Node:
    def __init__(self, sim, n):
        self.sim = sim
        self._a = Event(fn=self._fire_a, cat="x")
        self._bs = [Event(fn=partial(self._fire_b, i), cat="x") for i in range(n)]

    def _fire_a(self):
        self.vm.slice_ns = 1

    def _fire_b(self, i):
        self.vm.slice_ns = 2

    def arm(self, t):
        self.sim.rearm(self._a, t)
        self.sim.rearm(self._bs[0], t)
"""


def test_same_time_rearm_overlap_flagged():
    # The callbacks are the ``fn=`` of the handles' ``Event(...)``; a
    # list of handles indexed at the re-arm resolves like one handle.
    assert "RPR040" in codes(REARM_PAIR)


def test_disjoint_same_time_rearms_ok():
    src = REARM_PAIR.replace("self.vm.slice_ns = 2", "self.vm.period_ns = 2")
    assert "RPR040" not in codes(src)


def test_different_time_rearms_ok():
    src = REARM_PAIR.replace("self.sim.rearm(self._bs[0], t)", "self.sim.rearm(self._bs[0], t + 1)")
    assert "RPR040" not in codes(src)


REARM_HELPER = """
class Proc:
    def __init__(self, sim):
        self.sim = sim
        self._a = Event(fn=self._fire_a, cat="x")
        self._b = Event(fn=self._fire_b, cat="x")

    def _fire_a(self):
        self.vm.slice_ns = 1

    def _fire_b(self):
        self.vm.slice_ns = 2

    def _arm(self, deadline, timer):
        if deadline > self.limit:
            return None
        return self.sim.rearm(timer, deadline)

    def arm(self, now):
        self._arm(now + 5, self._a)
        self._arm(deadline=now + 5, timer=self._b)
"""


def test_same_time_rearms_through_a_helper_flagged():
    # Every call site passes a handle for ``timer``, so each ``_arm``
    # call is a re-arm of that handle at the call's ``deadline``.
    assert "RPR040" in codes(REARM_HELPER)


def test_helper_passed_a_non_handle_is_not_resolved():
    src = REARM_HELPER + (
        "\n    def arm_any(self, ev, t):\n"
        "        self._arm(t, ev)\n"
    )
    assert "RPR040" not in codes(src)


CLOSURE_PAIR = """
def setup(sim, vmm):
    stats = {"n": 0}

    def writer():
        stats.update(n=1)
        vmm.busy = True

    def reader():
        consume(stats)

    sim.at(100, writer)
    sim.at(100, reader)
"""


def test_closure_capture_race_flagged():
    assert "RPR041" in codes(CLOSURE_PAIR)


def test_closure_capture_disjoint_ok():
    src = CLOSURE_PAIR.replace("consume(stats)", "consume(1)")
    assert "RPR041" not in codes(src)


def test_rpr041_pragma_suppresses():
    src = CLOSURE_PAIR.replace(
        "sim.at(100, reader)", "sim.at(100, reader)  # repro: ignore[RPR041]"
    )
    assert "RPR041" not in codes(src)


def test_lambda_callback_resolved():
    src = (
        "def setup(sim, vm):\n"
        "    def a():\n"
        "        vm.credits = 1\n"
        "    sim.at(50, a)\n"
        "    sim.at(50, lambda: setattr_like(vm))\n"
    )
    # the lambda writes nothing the analysis can see: no finding
    assert "RPR040" not in codes(src)


# ----------------------------------------------------------------------
# Pragma semantics
# ----------------------------------------------------------------------
def test_bracketless_pragma_suppresses_everything():
    src = "import time\nt = time.time()  # repro: ignore\n"
    assert codes(src) == []


def test_pragma_with_wrong_code_does_not_suppress():
    src = "import time\nt = time.time()  # repro: ignore[RPR020]\n"
    assert "RPR001" in codes(src)


def test_pragma_multi_code_list():
    src = (
        "import time\n"
        "t = time.time() + id(x)  # repro: ignore[RPR001, RPR010]\n"
    )
    assert codes(src) == []


def test_pragma_multi_code_list_partial():
    """A list naming only one of two co-located findings keeps the other."""
    src = (
        "import time\n"
        "t = time.time() + id(x)  # repro: ignore[RPR001]\n"
    )
    assert codes(src) == ["RPR010"]


def test_pragma_unknown_code_is_inert():
    """Unknown codes in the list are ignored, not an error — and do not
    suppress real findings on the line."""
    src = "import time\nt = time.time()  # repro: ignore[RPR999]\n"
    assert codes(src) == ["RPR001"]


def test_pragma_unknown_plus_matching_code_still_suppresses():
    src = "import time\nt = time.time()  # repro: ignore[RPR999, RPR001]\n"
    assert codes(src) == []


def test_pragma_empty_bracket_is_blanket():
    """``ignore[]`` degrades to a blanket ignore (empty list = no codes
    parsed = same as bracketless)."""
    src = "import time\nt = time.time()  # repro: ignore[]\n"
    assert codes(src) == []


def test_pragma_case_insensitive_codes():
    src = "import time\nt = time.time()  # repro: ignore[rpr001]\n"
    assert codes(src) == []


def test_pragma_on_continuation_line_does_not_suppress():
    """Findings anchor at the expression's *first* line; a pragma on a
    continuation line is on the wrong line and must not suppress."""
    src = (
        "import time\n"
        "t = time.time(\n"
        ")  # repro: ignore[RPR001]\n"
    )
    assert codes(src) == ["RPR001"]


def test_pragma_on_anchor_line_of_multiline_call_suppresses():
    src = (
        "import time\n"
        "t = time.time(  # repro: ignore[RPR001]\n"
        ")\n"
    )
    assert codes(src) == []


# ----------------------------------------------------------------------
# Framework: parse errors, path walking, reporters, CLI driver
# ----------------------------------------------------------------------
def test_parse_error_reported():
    found = lint_source("def f(:\n")
    assert [f.code for f in found] == [PARSE_ERROR_CODE]


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "b.py").write_text("import time\nt = time.time()\n")
    found = lint_paths([tmp_path])
    assert len(found) == 1
    assert found[0].path.endswith("a.py")


def test_reporters():
    found = lint_source("k = id(v)\n", path="x.py")
    text = render_text(found)
    assert "x.py:1:5: RPR010" in text and "1 finding" in text
    data = json.loads(render_json(found))
    assert data["count"] == 1
    assert data["findings"][0]["code"] == "RPR010"


def test_run_lint_exit_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    out = io.StringIO()
    assert run_lint([str(bad)], out=out) == 1
    assert run_lint([str(clean)], out=out) == 0
    assert run_lint([str(tmp_path / "missing.py")], out=out) == 2
    assert run_lint([str(bad)], select=["NOPE99"], out=out) == 2
    # --select narrows the rule set: RPR020-only sees no entropy call.
    assert run_lint([str(bad)], select=["RPR020"], out=out) == 0


def test_repo_tree_is_lint_clean():
    """src/repro, benchmarks and examples must stay free of determinism
    hazards."""
    paths = [REPO_SRC, REPO_BENCH]
    if REPO_EXAMPLES.is_dir():
        paths.append(REPO_EXAMPLES)
    found = lint_paths(paths)
    assert found == [], "\n" + "\n".join(f.format() for f in found)


def test_cli_lint_subcommand(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    assert "RPR001" in capsys.readouterr().out
    assert main(["lint", str(bad), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(["lint", "--list-rules"]) == 0
    assert "RPR010" in capsys.readouterr().out
