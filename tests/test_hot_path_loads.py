"""Static guard: no function body loads a ``VCPUState`` member through the
Enum class.

``VCPUState.RUNNING`` inside a function is an attribute lookup on an Enum
class, several times the cost of a module global, and the VCPU state is
tested on every wake, block and dispatch.  :mod:`repro.hypervisor.vm`
binds ``BLOCKED``, ``RUNNABLE`` and ``RUNNING`` once; code compares
against those.  Module-level bindings and ``VCPUState(...)`` calls stay
allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.hypervisor.vm import BLOCKED, RUNNABLE, RUNNING, VCPUState

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_loads_in_functions(source: str) -> list[int]:
    """Line numbers of ``VCPUState.<member>`` loads inside function bodies."""
    members = set(VCPUState.__members__)
    hits: list[int] = []

    def visit(node: ast.AST, in_func: bool) -> None:
        if (in_func and isinstance(node, ast.Attribute) and node.attr in members
                and isinstance(node.value, ast.Name) and node.value.id == "VCPUState"):
            hits.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_func or isinstance(node, _FUNCS))

    visit(ast.parse(source), False)
    return hits


def test_detector_flags_function_loads_only():
    src = (
        "from repro.hypervisor.vm import VCPUState\n"
        "RUNNING = VCPUState.RUNNING\n"
        "class C:\n"
        "    S = VCPUState.BLOCKED\n"
        "    def f(self, v):\n"
        "        return v.state is VCPUState.RUNNING or VCPUState(1)\n"
        "g = lambda v: v is VCPUState.RUNNABLE\n"
    )
    assert member_loads_in_functions(src) == [6, 7]


def test_no_function_loads_a_vcpu_state_through_the_enum_class():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in member_loads_in_functions(path.read_text(encoding="utf-8"))
    ]
    assert not found, "use BLOCKED/RUNNABLE/RUNNING from repro.hypervisor.vm: " + ", ".join(found)


def test_bound_constants_are_the_enum_members():
    assert (BLOCKED, RUNNABLE, RUNNING) == (VCPUState.BLOCKED, VCPUState.RUNNABLE,
                                           VCPUState.RUNNING)
    assert BLOCKED is VCPUState.BLOCKED and RUNNING.name == "RUNNING"
