"""Every code name the prose docs put in backticks resolves: a dotted
``repro.*`` name imports, a ``Class.attr`` of a ``repro`` class exists, and
a repo path (glob included) matches a file.  A rename or deletion that
leaves a doc naming the old thing fails here."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
PATH_ROOTS = ("benchmarks/", "tests/", "src/", "examples/", ".github/")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
TICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(\.\w+)+")
CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")


def _references() -> list[tuple[str, str]]:
    """``(doc:line, span)`` for each backticked span outside fenced blocks."""
    out = []
    for doc in DOCS:
        text = FENCE.sub(lambda m: "\n" * m.group().count("\n"),
                         (ROOT / doc).read_text(encoding="utf-8"))
        for i, line in enumerate(text.splitlines(), 1):
            out += [(f"{doc}:{i}", m.group(1).strip()) for m in TICKED.finditer(line)]
    return out


def _repro_classes() -> dict[str, list[type]]:
    """Every class a ``repro`` module defines, by name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(name, []).append(obj)
    return classes


def _resolves_dotted(name: str) -> bool:
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def _has_attr(cls: type, attr: str) -> bool:
    """A class attribute, a dataclass field, or an instance attribute the
    class's own source assigns as ``self.attr``."""
    if hasattr(cls, attr) or (dataclasses.is_dataclass(cls)
                              and attr in {f.name for f in dataclasses.fields(cls)}):
        return True
    return any(re.search(rf"\bself\.{attr}\b\s*(:[^=\n]*)?=", inspect.getsource(c))
               for c in cls.__mro__ if c.__module__.startswith("repro."))


def _path_exists(token: str) -> bool:
    """A repo path or glob matches; a ``file.py::name`` suffix must name a
    function the file defines."""
    path, _, name = token.partition("::")
    if "*" in path:
        return any(ROOT.glob(path))
    file = ROOT / path
    if not name:
        return file.exists()
    return file.is_file() and f"def {name}(" in file.read_text(encoding="utf-8")


def _unresolved(refs: list[tuple[str, str]]) -> list[str]:
    """The references of ``refs`` that name a missing thing."""
    classes = _repro_classes()
    out = []
    for where, span in refs:
        token = span.split()[0].rstrip("(),;:")
        if token.startswith(PATH_ROOTS):
            ok = _path_exists(token)
        elif DOTTED.fullmatch(token.split("(")[0]):
            ok = _resolves_dotted(token.split("(")[0])
        elif (m := CLASS_ATTR.fullmatch(token.split("(")[0])) and m.group(1) in classes:
            ok = any(_has_attr(cls, m.group(2)) for cls in classes[m.group(1)])
        else:
            continue
        if not ok:
            out.append(f"{where}: `{span}`")
    return out


def test_every_backticked_code_name_resolves():
    assert _unresolved(_references()) == []


@pytest.mark.parametrize("span", [
    "repro.experiments.grids.no_such_name",
    "VMM.no_such_method()",
    "benchmarks/no_such_bench_*.py",
    "tests/test_cli.py::test_no_such_test",
])
def test_a_stale_name_is_caught(span):
    assert _unresolved([("DOC:1", span)]) == [f"DOC:1: `{span}`"]
