"""Every ``python -m repro ...`` command the repository documents or runs
in CI must parse: README.md's fenced blocks, the workflows' ``run:``
steps (with their matrix templates filled in) and the verify skill's
fenced blocks.  A deleted verb or flag cannot survive in any of them."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

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
    "README.md": lambda: [_fenced(ROOT / "README.md")],
    ".claude/skills/verify/SKILL.md": lambda: [_fenced(ROOT / ".claude/skills/verify/SKILL.md")],
    **{f".github/workflows/{p.name}": (lambda p=p: _workflow_scripts(p))
       for p in sorted((ROOT / ".github" / "workflows").glob("*.yml"))},
}


def test_command_extraction_handles_continuations_and_shell_syntax():
    script = """
$ python -m repro races            # a comment
PYTHONPATH=src python -m repro typea --faults '[{"at_ns": 1,
    "kind": "vm_pause"}]' 2>/dev/null | tail
python -m repro trace --app is \\
    --slice 30 > out.txt
echo python -m repro-not-this
"""
    assert _commands(script) == [
        ["races"],
        ["typea", "--faults", '[{"at_ns": 1,\n    "kind": "vm_pause"}]'],
        ["trace", "--app", "is", "--slice", "30"],
    ]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_documented_commands_parse(source):
    commands = [argv for script in SOURCES[source]() for argv in _commands(script)]
    if source.endswith(("README.md", "SKILL.md", "ci.yml")):
        assert commands, f"no `{MARKER.strip()}` command found in {source}"
    parser, bad = build_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(f"repro {shlex.join(argv)}")
    assert not bad, f"{source}: commands that do not parse: {bad}"
