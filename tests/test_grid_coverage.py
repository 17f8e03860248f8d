"""Every grid reaches its claims through CI.  The smoke job runs each grid
but ``chaos`` (which needs a fault plan) at its ``cells()`` defaults, and
the second scales of ``attack`` and ``dfrs``; the nightly job runs each
at ``--full-scale``.  Every grid's paper-scale cells build."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from repro.experiments.grids import GRIDS, grid_cells, settable

WORKFLOWS = Path(__file__).resolve().parent.parent / ".github" / "workflows"
#: Grids without default cells, and the settings that give them cells.
REQUIRED = {"chaos": ["faults=random:1"]}
#: The second scale each of these grids is checked at, besides its defaults.
SECOND_SCALES = {
    "attack": ["n_nodes=2", "horizon_s=6"],
    "dfrs": ["n_nodes=6", "n_clusters=4", "vms_per_cluster=3", "n_nonparallel=2",
             "horizon_s=8", "modes=baseline,atc,dfrs,hybrid"],
}
DEFAULTS_GRIDS = sorted(set(GRIDS) - set(REQUIRED))


def _grid_entries(workflow: str, job: str) -> list[tuple[str, list[str], list[str]]]:
    """Per matrix entry of ``job`` that names a grid: the grid, its
    ``--set`` values, and its other arguments."""
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load((WORKFLOWS / workflow).read_text(encoding="utf-8"))
    out = []
    for entry in doc["jobs"][job]["strategy"]["matrix"]["include"]:
        if "grid" in entry:
            sets, rest, args = [], [], iter(shlex.split(str(entry.get("args", ""))))
            for arg in args:
                if arg == "--set":
                    sets.append(next(args))
                else:
                    rest.append(arg)
            out.append((entry["grid"], sets, rest))
    return out


def _only_jobs(rest: list[str]) -> bool:
    return rest == [] or (len(rest) == 2 and rest[0] == "--jobs" and rest[1].isdigit())


def test_smoke_checks_every_grid_at_its_defaults():
    entries = _grid_entries("ci.yml", "smoke")
    at_defaults = {grid for grid, sets, rest in entries if not sets and _only_jobs(rest)}
    assert not set(DEFAULTS_GRIDS) - at_defaults, "grids with no smoke entry at their defaults"
    for grid, scale in SECOND_SCALES.items():
        assert any(g == grid and sets == scale and _only_jobs(rest) for g, sets, rest in entries), \
            f"no smoke entry for {grid}'s second scale {scale}"


def test_nightly_checks_every_grid_at_paper_scale():
    full = {grid for grid, _, rest in _grid_entries("nightly.yml", "paper-scale")
            if "--full-scale" in rest}
    assert not set(DEFAULTS_GRIDS) - full, "grids with no nightly --full-scale entry"


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_every_grid_builds_its_paper_scale_cells(name):
    grid = GRIDS[name]
    assert set(grid.paper_scale) <= set(settable(grid))
    specs = grid_cells(grid, REQUIRED.get(name, []), full_scale=True)
    assert specs and all(s.scenario == grid.scenario for s in specs)
    defaults = grid_cells(grid, REQUIRED.get(name, []))
    assert len(specs) >= len(defaults)


def test_set_overrides_the_paper_scale():
    """``--full-scale`` lies beneath ``--set``: a set key wins, the other
    paper-scale keys stay."""
    specs = grid_cells(GRIDS["fig09"], ["horizon_s=2"], full_scale=True)
    assert [s.params["uniform_slice_ms"] for s in specs] == [30, 12, 6, 1, 0.3]
    assert all(s.params["horizon_s"] == 2.0 for s in specs)
