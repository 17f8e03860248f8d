"""Tests for the command-line interface."""

import inspect
import json
from collections.abc import Sequence as AbcSequence
from typing import Union, get_args, get_origin

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.grids import GRIDS, grid_cells, grid_settings, settable
from repro.experiments.runner import SCENARIOS
from repro.experiments.scenarios import scenario_keys


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--scheduler", "FIFO"])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--app", "linpack"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("CR", "ATC", "lu", "ep", "ft", *GRIDS):
        assert name in out


@pytest.mark.parametrize("verb", ["compare", "sweep", "chaos", "migrate", "dfrs", "serve",
                                  "attack", "typea", "mix", "typeb"])
def test_grid_verbs_are_gone(verb):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([verb])
    assert exc.value.code == 2


def test_typea_command(capsys):
    """One type-A cell is a one-scheduler compare run; its detail table
    carries the absolute values the normalized table cannot."""
    assert main(_run("compare", "apps=is", "schedulers=CR", "nodes=2", "rounds=1")) == 0
    out = capsys.readouterr().out
    assert "Type A — per cell" in out
    assert "compare:is/CR/2 | " in out and "avg spin (ms)" in out


def test_sweep_command(capsys):
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices=30,1"]) == 0
    out = capsys.readouterr().out
    assert "Slice sweep (Figure 5), class B" in out
    assert "30" in out and "1" in out


def test_sweep_rejects_a_non_positive_slice(capsys):
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices= -1", "--no-cache"]) == 1
    assert "ValueError: uniform_slice_ns must be > 0" in capsys.readouterr().err


#: Per out-of-range setting, the message that rejects it.
OUT_OF_RANGE = {
    # Unchecked, a negative horizon runs no event and prints n/a cells.
    "horizon_s=-1": "horizon_s must be >= 0, got -1.0",
    # Unchecked, a zero period livelocks at t=0 (each period tick arms the
    # next at the same instant) and a negative one fails only inside
    # VMM.start.
    "period_ns=0": "period_ns must be > 0, got 0",
    "period_ns=-5": "period_ns must be > 0, got -5",
    "tie_order=bogus": "tie_order must be one of ('fifo', 'reversed'), got 'bogus'",
    "placement=nowhere": "unknown placement policy 'nowhere'",
    "npb_class=Z": "npb_class must be one of A/B/C, got 'Z'",
    "vcpus_per_vm=0": "vcpus_per_vm must be > 0, got 0",
}


@pytest.mark.parametrize("setting", OUT_OF_RANGE)
def test_run_rejects_an_out_of_range_value_before_any_cell(setting, capsys, monkeypatch):
    """A value its key's declared range excludes exits 2 with one line,
    before any cell runs."""
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(_run("kernels", "apps=ep", "schedulers=CR", setting) + ["--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro run: kernels: {OUT_OF_RANGE[setting]}")
    assert err.count("\n") == 1


def test_a_zero_horizon_stays_valid():
    argv = _run("compare", "apps=is", "schedulers=CR", "nodes=1", "rounds=1", "horizon_s=0")
    assert main(argv + ["--no-cache"]) == 0


def test_check_reports_a_one_slice_sweep(tmp_path, capsys):
    export = str(tmp_path / "one.json")
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices=30", "--no-cache",
                 "--json", export]) == 0
    assert main(["check", "sweep", export]) == 1
    assert "CHECK FAILED: sweep:is: pearson(spin, time) = nan" in capsys.readouterr().err


def test_mix_command(capsys):
    assert main(_run("fig02", "schedulers=CR", "horizon_s=2")) == 0
    out = capsys.readouterr().out
    assert "Small mix — per cell" in out and "fig02:CR | " in out and "ping RTT (ms)" in out


def test_typeb_command(capsys):
    assert main(_run("fig11", "schedulers=CR", "n_nodes=4", "seed=0")) == 0
    out = capsys.readouterr().out
    details = out.partition("Mean round (ms) per VC")[2]
    assert "Figure 11" in out and "VC1 (" in details and "n/a" not in details


def test_fig04_command(capsys):
    """Fig. 4 is a grid; ``scheduler`` and ``n_probes`` set what the
    deleted ``probe`` verb's flags did."""
    assert main(_run("fig04", "scheduler=ATC", "n_probes=10", "horizon_s=1")) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "| ATC " in out and "end_to_end" in out
    with pytest.raises(SystemExit) as exc:
        main(["probe"])
    assert exc.value.code == 2


def _run(grid, *sets):
    return ["run", grid, *(a for s in sets for a in ("--set", s))]


GRID_RUNS = [
    (_run("chaos", "app_name=is", "rounds=1", "horizon_s=2", "faults=random:2:1"),
     ["Chaos", "Faults"]),
    (_run("migrate", "horizon_s=2"), ["Migration rebalance", "Moved VMs"]),
    # dfrs at its default 10 s horizon: at 2 s its claims hold on some
    # seeds and fail on others.
    (_run("dfrs"), ["DFRS comparator"]),
    (_run("serve", "admissions=fcfs-queue", "rate_per_s=2", "rounds=1", "horizon_s=5",
          "max_tenants=2"), ["Service", "Tenants"]),
    (_run("attack", "schedulers=CR", "horizon_s=1"), ["Adversarial tenancy"]),
    (_run("sweep", "apps=is", "slices=30,6"), ["Slice sweep"]),
    (_run("compare", "apps=is", "nodes=2", "rounds=1"), ["Figure 10"]),
]


@pytest.mark.parametrize("argv,titles", GRID_RUNS, ids=[a[1] for a, _ in GRID_RUNS])
def test_grid_verb_and_check(argv, titles, tmp_path, capsys, monkeypatch):
    """``repro run GRID`` prints the grid's table and detail tables and
    writes no file it was not asked for, and its short-horizon export
    satisfies the grid's claims under ``repro check``, which prints the
    same tables."""
    monkeypatch.chdir(tmp_path)
    export = tmp_path / "results.json"
    assert main(argv + ["--json", str(export)]) == 0
    out = capsys.readouterr().out
    assert all(title in out for title in titles)
    assert not (tmp_path / "chaos_salvage.json").exists()
    assert main(["check", argv[1], str(export)]) == 0
    cells = len(json.loads(export.read_text())["results"])
    assert capsys.readouterr().out == out + f"{argv[1]}: {cells} cells ok, every claim holds\n"


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_every_grid_builds_its_cells_through_set(name):
    grid = GRIDS[name]
    sets = ["horizon_s=1"] + (["faults=random:1"] if name == "chaos" else [])
    specs = grid_cells(grid, sets)
    assert specs and all(s.scenario == grid.scenario and s.params["horizon_s"] == 1.0
                         for s in specs)


def _settings(grid, *sets):
    return grid_settings(GRIDS[grid], sets)


def test_set_values_are_typed_by_their_annotation(tmp_path):
    from repro.faults.plan import parse_fault_spec
    from repro.sim.units import SEC

    horizon = _settings("dfrs", "horizon_s=4")["horizon_s"]
    assert horizon == 4.0 and isinstance(horizon, float)
    assert _settings("sweep", "slices=30,6")["slices"] == [30.0, 6.0]
    assert [s.label for s in GRIDS["sweep"].cells(**_settings("sweep", "apps=lu", "slices=30,6"))
            ] == ["sweep:lu@30.0ms", "sweep:lu@6.0ms"]
    assert _settings("attack", "schedulers=CR")["schedulers"] == ["CR"]
    assert _settings("dfrs", 'dfrs={"headroom": 1.5}')["dfrs"] == {"headroom": 1.5}
    assert _settings("kernels", 'sched_params={"atc": {}}')["sched_params"] == {"atc": {}}
    assert _settings("fig09", "slices=30,none")["slices"] == [30.0, None]
    assert _settings("dfrs", "sanitize=true")["sanitize"] is True
    trace = [{"at_ms": 0, "n_vms": 2, "app": "is", "rounds": 1}]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert _settings("serve", f"service_trace={path}")["service_trace"] == trace
    assert _settings("chaos", "faults=random:3:1")["faults"] == parse_fault_spec(
        "random:3:1", 2, 12 * SEC).to_dicts()
    # drawn against the n_nodes and horizon_s a grid's partial sets (fig11: 6 nodes, 8 s)
    assert _settings("fig11", "faults=random:3:1")["faults"] == parse_fault_spec(
        "random:3:1", 6, 8 * SEC).to_dicts()


@pytest.mark.parametrize("sets,why", [
    (_run("chaos", "faults=random:1", "bogus=1"), "unknown key 'bogus'"),
    (_run("chaos", "faults=random:1", "horizon_s=abc"), "bad value for horizon_s"),
    (_run("chaos", "faults=random:1", "sanitize=yes"), "bad value for sanitize"),
    (_run("chaos", "faults=random:1", "faults=random:x"), "bad value for faults"),
    (_run("chaos", "rounds=2"), "missing required key 'faults'"),
    # migrate's cells are static and demix: the policy is the grid's own
    (_run("migrate", "policy=evacuate"), "key 'policy' is set by the grid itself"),
    (_run("migrate", 'migration={"policy": "none"}'),
     "the migration dict may not set 'policy'"),
])
def test_run_rejects_bad_settings_before_any_cell(sets, why, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(sets) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro run: {sets[1]}: {why}") and err.count("\n") == 1
    assert "settable keys: app_name, " in err and "Traceback" not in err


def test_run_rejects_a_key_the_grid_sets_itself(capsys, monkeypatch):
    """compare's scheduler axis would silently replace ``scheduler=ATC``."""
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(_run("compare", "scheduler=ATC", "apps=is")) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro run: compare: key 'scheduler' is set by the grid itself")
    assert "settable keys: " in err and err.count("\n") == 1


#: Per grid, keys its cells() write themselves, with a value to try for each.
GRID_SET_KEYS = {
    "compare": {"scheduler": "ATC", "app_name": "is", "n_nodes": "4"},
    "fig09": {"scheduler": "ATC", "uniform_slice_ms": "6"},
    "attack": {"scheduler": "ATC"},
}


@pytest.mark.parametrize("grid", sorted(GRID_SET_KEYS))
def test_settable_keys_leave_out_the_keys_the_grid_sets(grid, capsys):
    """The settable keys line lists only keys ``repro run`` accepts."""
    fixed = GRID_SET_KEYS[grid]
    for key, value in fixed.items():
        assert main(_run(grid, f"{key}={value}")) == 2
        err = capsys.readouterr().err
        assert f"key {key!r} is set by the grid itself" in err
        listed = err.rpartition("settable keys: ")[2].strip().split(", ")
        assert "seed" in listed and not set(fixed) & set(listed)


def _probe(key: str, hint):
    """A valid value of ``hint`` for ``key`` that no grid sets itself."""
    if get_origin(hint) is Union:
        hint = get_args(hint)[0]
    if get_origin(hint) is AbcSequence:
        return [_probe(key, get_args(hint)[0])]
    return {"tie_order": "reversed", "placement": "striped", "npb_class": "A"}.get(
        key, {bool: True, int: 7, float: 0.25, str: "\0probe", dict: {"probe": 1}}[hint])


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_settable_scenario_keys_reach_every_cell(name):
    """Each scenario key ``--set`` offers reaches every cell's params
    unchanged, and each key the grid declares it sets does not: the
    cells overwrite it in some cell, and ``--set`` rejects it."""
    grid = GRIDS[name]
    keys = scenario_keys(SCENARIOS[grid.scenario].params)
    own = inspect.signature(grid.cells).parameters
    required = {"faults": []} if name == "chaos" else {}
    probes = {k: _probe(k, hint) for k, hint in keys.items() if k not in own}
    specs = grid.cells(**{k: v for k, v in probes.items() if k not in grid.sets}, **required)
    for key in set(probes) - set(grid.sets):
        assert all(s.params[key] == probes[key] for s in specs), key
    assert set(grid.sets) <= set(keys)
    for key in grid.sets:
        specs = grid.cells(**{key: probes[key]}, **required)
        assert not all(s.params.get(key) == probes[key] for s in specs), key
        with pytest.raises(ValueError, match=f"key {key!r} is set by the grid itself"):
            grid_settings(grid, [f"{key}=1"])


def test_fig08_shares_its_cells_with_eq1():
    """fig08 spells its slices 2 and 1 where eq1 spells 2.0 and 1.0: the
    declared float type makes them one cell, so one digest each."""
    eq1 = {s.digest(salt="") for s in GRIDS["eq1"].cells()}
    fig08 = [s.digest(salt="") for s in GRIDS["fig08"].cells()]
    assert len(fig08) == 16 and set(fig08) <= eq1


@pytest.mark.parametrize("grid,key,value", [
    ("compare", "uniform_slice_ns", "1000000"),  # run_type_a derives it
    ("attack", "vms_per_node", "4"),  # run_attack pins it
])
def test_run_rejects_a_world_key_the_builder_passes_itself(grid, key, value, capsys,
                                                          monkeypatch):
    """A world option the scenario builder passes to ``_world`` itself
    cannot also come through ``**world_opts``: the key is unknown and not
    listed, and ``repro run`` exits 2 before any cell."""
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(_run(grid, f"{key}={value}")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro run: {grid}: unknown key {key!r}")
    assert "settable keys: " in err and err.count("\n") == 1
    listed = err.rpartition("settable keys: ")[2].strip().split(", ")
    assert "seed" in listed and key not in listed


@pytest.mark.parametrize("grid,sets", [
    ("fig11", ("schedulers=CR", "np_slices=6", "n_nodes=4", "horizon_s=1")),
    ("table1", ("np_slices=6",)),
])
def test_np_slices_is_offered_only_where_a_cell_takes_it(grid, sets, capsys, monkeypatch):
    """Only fig12-14's mixed-tenancy scenario takes the administrator
    slice of the ATC(6ms) cell; elsewhere ``np_slices`` is an unknown key
    and ``repro run`` exits 2 before any cell."""
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", grid, "--no-cache", *(a for s in sets for a in ("--set", s))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro run: {grid}: unknown key 'np_slices'")
    assert "settable keys: " in err and err.count("\n") == 1
    assert "np_slices" not in err.rpartition("settable keys: ")[2].strip().split(", ")
    assert "np_slices" in settable(GRIDS["fig12"])


def test_run_rejects_a_config_class_value(capsys, monkeypatch):
    """A config class such as NodeParams has no --set form: its key is
    unknown and the settable keys do not list it; fail before any cell.
    ``sched_params`` is a JSON dict and is listed."""
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    for key in ("node_params", "net_params", "dom0_params"):
        assert main(_run("kernels", f'{key}={{"n_pcpus": 4}}')) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro run: kernels: unknown key {key!r}")
        assert "settable keys: " in err and err.count("\n") == 1
        listed = err.rpartition("settable keys: ")[2].strip().split(", ")
        assert "sched_params" in listed
        assert not {"node_params", "net_params", "dom0_params"} & set(listed)


def test_typea_rejects_a_malformed_fault_plan(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    plan = json.dumps([{"t_ns": 1000, "kind": "node_crash", "node": 0}])
    assert main(_run("compare", f"faults={plan}")) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro run: compare: bad value for faults: ") and "t_ns" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_single_cell_verbs_print_a_metric_with_no_sample_as_n_a(capsys):
    assert main(_run("fig02", "schedulers=CR", "horizon_s=0.005") + ["--no-cache"]) == 0
    details = capsys.readouterr().out.partition("Small mix — per cell")[2]
    assert details.count("| n/a") == 5


@pytest.fixture(scope="module")
def dfrs_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("dfrs") / "dfrs.json"
    assert main(["run", "dfrs", "--no-cache", "--json", str(path)]) == 0
    return json.loads(path.read_text())


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_names_a_failed_claim(dfrs_export, tmp_path, capsys):
    tampered = json.loads(json.dumps(dfrs_export))
    by = {r["spec"]["label"]: r["value"] for r in tampered["results"]}
    by["dfrs:hybrid"]["parallel_mean_round_ns"] = 2 * by["dfrs:baseline"]["parallel_mean_round_ns"]
    assert main(["check", "dfrs", _write(tmp_path / "t.json", tampered)]) == 1
    err = capsys.readouterr().err
    assert "CHECK FAILED" in err and "hybrid" in err


def test_check_repeat_names_the_differing_leaf(dfrs_export, tmp_path, capsys):
    good = _write(tmp_path / "a.json", dfrs_export)
    assert main(["check", "dfrs", good, good]) == 0
    assert "repeat identical" in capsys.readouterr().out
    repeat = json.loads(json.dumps(dfrs_export))
    repeat["results"][2]["value"]["events"] += 1
    assert main(["check", "dfrs", good, _write(tmp_path / "b.json", repeat)]) == 1
    err = capsys.readouterr().err
    assert "dfrs:dfrs" in err and "events" in err


def test_check_rejects_another_grids_export(dfrs_export, tmp_path, capsys):
    assert main(["check", "attack", _write(tmp_path / "a.json", dfrs_export)]) == 1
    assert "dfrs_compare" in capsys.readouterr().err


def _check_input_error(capsys, path) -> str:
    """``repro check`` on bad input exits 2 with a one-line message."""
    assert main(["check", "dfrs", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro check: ") and path in err
    assert "Traceback" not in err
    return err


def test_check_rejects_a_missing_file(tmp_path, capsys):
    err = _check_input_error(capsys, str(tmp_path / "absent.json"))
    assert "No such file" in err


def test_check_rejects_a_json_list(tmp_path, capsys):
    err = _check_input_error(capsys, _write(tmp_path / "list.json", []))
    assert '"results"' in err


def test_check_rejects_a_spec_with_an_unknown_key(dfrs_export, tmp_path, capsys):
    # exports once carried ``sanitize`` as a top-level spec field
    old = json.loads(json.dumps(dfrs_export))
    old["results"][0]["spec"]["sanitize"] = True
    err = _check_input_error(capsys, _write(tmp_path / "old.json", old))
    assert "results[0]" in err and "sanitize" in err


def test_extended_kernels_run():
    """ep (no communication) and ft (all-to-all) run end-to-end."""
    from repro.experiments.scenarios import run_type_a

    for app in ("ep", "ft"):
        r = run_type_a(app, "CR", 2, rounds=1, warmup_rounds=0, horizon_s=120)
        assert r["all_done"], app
    # ep has no messages at all
    r = run_type_a("ep", "CR", 2, rounds=1, warmup_rounds=0, horizon_s=120)
    assert r["cluster"]["messages_sent"] == 0


def test_new_spec_cpu_apps():
    from tests.conftest import add_guest_vm, make_node_world
    from repro.sim.rng import SimRNG
    from repro.sim.units import SEC
    from repro.workloads.nonparallel import CPU_APP_SPECS, CpuApp

    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2)
    mcf = CpuApp(sim, vm, CPU_APP_SPECS["mcf"], SimRNG(0))
    gobmk = CpuApp(sim, vm, CPU_APP_SPECS["gobmk"], SimRNG(1))
    mcf.start()
    gobmk.start()
    vmms[0].start()
    sim.run(until=2 * SEC)
    assert mcf.run_times and gobmk.run_times
    assert CPU_APP_SPECS["mcf"].cache_sensitivity > CPU_APP_SPECS["gobmk"].cache_sensitivity
