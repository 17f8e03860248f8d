"""Every ``python -m repro ...`` command the repository documents or runs
in CI must parse: the fenced blocks of README.md, EXPERIMENTS.md,
DESIGN.md and the verify skill, and the workflows' ``run:`` steps (with
their matrix templates filled in).  A deleted verb or flag cannot survive
in any of them, and each ``run GRID`` or ``races GRID`` command's
``--set`` values must build the grid's cells (no cell runs)."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.grids import GRIDS, grid_cells, settable

ROOT = Path(__file__).resolve().parent.parent
MARKER = "python -m repro "
#: A shell token that ends the command: a pipe, redirect, ``&&`` or ``;``.
SHELL_OP = re.compile(r"[|&;<>]|\d>")
TEMPLATE = re.compile(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}")


def _commands(script: str) -> list[list[str]]:
    """argv after ``python -m repro`` of each command in a shell script; a
    command continues past a trailing backslash or an open quote."""
    out, lines = [], iter(script.splitlines())
    for line in lines:
        if MARKER not in line:
            continue
        text = line[line.index(MARKER) + len(MARKER):]
        while (argv := _split(text)) is None:
            text = text.rstrip().removesuffix("\\") + "\n" + next(lines)
        out.append(list(_until_shell_op(argv)))
    return out


def _split(text: str):
    """``text`` as shell words; None while the command goes on (a trailing
    backslash or an open quote)."""
    if text.rstrip().endswith("\\"):
        return None
    try:
        return shlex.split(text, comments=True)
    except ValueError:  # an open quote
        return None


def _until_shell_op(argv):
    for token in argv:
        if SHELL_OP.match(token):
            return
        yield token


def _fenced(path: Path) -> str:
    """The contents of every fenced code block in a markdown file."""
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", path.read_text(encoding="utf-8"),
                                re.M | re.S))


def _workflow_scripts(path: Path) -> list[str]:
    """Each ``run:`` script of a workflow, once per matrix ``include``
    entry with that entry's ``${{ matrix.KEY }}`` values filled in; a
    step that names a key its entry lacks is skipped for that entry
    (its ``if:`` guards it), as is any script with another template."""
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    scripts = []
    for job in doc["jobs"].values():
        for entry in (job.get("strategy", {}).get("matrix", {}).get("include") or [{}]):
            for step in job.get("steps", []):
                run = step.get("run", "")
                if any(k not in entry for k in TEMPLATE.findall(run)):
                    continue
                run = TEMPLATE.sub(lambda m: str(entry[m.group(1)]), run)
                if "${{" not in run:
                    scripts.append(run)
    return scripts


SOURCES = {
    **{doc: (lambda doc=doc: [_fenced(ROOT / doc)])
       for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md")},
    ".claude/skills/verify/SKILL.md": lambda: [_fenced(ROOT / ".claude/skills/verify/SKILL.md")],
    **{f".github/workflows/{p.name}": (lambda p=p: _workflow_scripts(p))
       for p in sorted((ROOT / ".github" / "workflows").glob("*.yml"))},
}


def test_command_extraction_handles_continuations_and_shell_syntax():
    script = """
$ python -m repro races            # a comment
PYTHONPATH=src python -m repro run compare --set 'faults=[{"at_ns": 1,
    "kind": "vm_pause"}]' 2>/dev/null | tail
python -m repro trace --app is \\
    --slice 30 > out.txt
echo python -m repro-not-this
"""
    assert _commands(script) == [
        ["races"],
        ["run", "compare", "--set", 'faults=[{"at_ns": 1,\n    "kind": "vm_pause"}]'],
        ["trace", "--app", "is", "--slice", "30"],
    ]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_documented_commands_parse(source):
    commands = [argv for script in SOURCES[source]() for argv in _commands(script)]
    if source.endswith(("README.md", "EXPERIMENTS.md", "SKILL.md", "ci.yml")):
        assert commands, f"no `{MARKER.strip()}` command found in {source}"
    parser, bad = build_parser(), []
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            bad.append(f"repro {shlex.join(argv)}")
            continue
        if args.command in ("run", "races") and args.grid is not None:
            try:
                _resolve(args)
            except ValueError as exc:
                bad.append(f"repro {shlex.join(argv)}: {exc}")
    assert not bad, f"{source}: commands that do not parse or resolve: {bad}"


def _resolve(args) -> None:
    """Build the cells of a parsed ``run``/``races`` command.  A
    ``faults=`` plan file the reader is asked to write first (none is in
    the repository) is checked for its key only."""
    grid, sets = GRIDS[args.grid], []
    for pair in args.sets:
        key, _, value = pair.partition("=")
        if key == "faults" and not value.startswith(("random:", "[", "{")) \
                and not (ROOT / value).exists():
            if key not in settable(grid):
                raise ValueError(f"unknown key {key!r}")
        else:
            sets.append(pair)
    grid_cells(grid, sets, full_scale=getattr(args, "full_scale", False))


def test_a_set_the_grid_owns_fails_resolution():
    """A documented ``--set`` that parses but names a key the grid sets
    itself is caught."""
    args = build_parser().parse_args(
        ["run", "migrate", "--set", "horizon_s=2", "--set", "placement=pack"])
    with pytest.raises(ValueError, match="'placement' is set by the grid itself"):
        _resolve(args)
