"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.grids import GRIDS, grid_settings


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["typea", "--scheduler", "FIFO"])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["typea", "--app", "linpack"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("CR", "ATC", "lu", "ep", "ft", *GRIDS):
        assert name in out


@pytest.mark.parametrize("verb", ["compare", "sweep", "chaos", "migrate", "dfrs", "serve",
                                  "attack"])
def test_grid_verbs_are_gone(verb):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([verb])
    assert exc.value.code == 2


def test_typea_command(capsys):
    assert main(["typea", "--app", "is", "--scheduler", "CR", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "Evaluation type A" in out
    assert "is" in out


def test_sweep_command(capsys):
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices=30,1"]) == 0
    out = capsys.readouterr().out
    assert "Slice sweep (Figure 5), class B" in out
    assert "30" in out and "1" in out


def test_sweep_rejects_a_non_positive_slice(capsys):
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices= -1", "--no-cache"]) == 1
    assert "ValueError: uniform_slice_ns must be > 0" in capsys.readouterr().err


def test_check_reports_a_one_slice_sweep(tmp_path, capsys):
    export = str(tmp_path / "one.json")
    assert main(["run", "sweep", "--set", "apps=is", "--set", "slices=30", "--no-cache",
                 "--json", export]) == 0
    assert main(["check", "sweep", export]) == 1
    assert "CHECK FAILED: sweep:is: pearson(spin, time) = nan" in capsys.readouterr().err


def test_mix_command(capsys):
    assert main(["mix", "--scheduler", "CR", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "ping RTT" in out


def test_typeb_command(capsys):
    assert main(["typeb", "--scheduler", "CR", "--nodes", "4", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "LLNL trace mix" in out


def test_probe_command(capsys):
    assert main(["probe", "--scheduler", "CR", "--probes", "10"]) == 0
    out = capsys.readouterr().out
    assert "end to end" in out


def _run(grid, *sets):
    return ["run", grid, *(a for s in sets for a in ("--set", s))]


GRID_RUNS = [
    (_run("chaos", "app_name=is", "rounds=1", "horizon_s=2", "faults=random:2:1"),
     ["Chaos", "Faults"]),
    (_run("migrate", "horizon_s=2"), ["Migration rebalance", "Moved VMs"]),
    (_run("dfrs", "horizon_s=2"), ["DFRS comparator"]),
    (_run("serve", "horizon_s=5", "max_tenants=2"), ["Service", "Tenants"]),
    (_run("attack", "schedulers=CR", "horizon_s=1"), ["Adversarial tenancy"]),
    (_run("sweep", "apps=is", "slices=30,6"), ["Slice sweep"]),
    (_run("compare", "apps=is", "rounds=1"), ["Figure 10"]),
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
    specs = grid.cells(**grid_settings(grid, sets))
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
    assert [s.label for s in GRIDS["sweep"].cells(**_settings("sweep", "slices=30,6"))] == [
        "sweep:lu@30.0ms", "sweep:lu@6.0ms"]
    assert _settings("attack", "schedulers=CR")["schedulers"] == ["CR"]
    assert _settings("dfrs", 'dfrs={"allow_moves": true}')["dfrs"] == {"allow_moves": True}
    assert _settings("fig09", "slices=30,none")["slices"] == [30.0, None]
    assert _settings("dfrs", "sanitize=true")["sanitize"] is True
    trace = [{"at_ms": 0, "n_vms": 2, "app": "is", "rounds": 1}]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert _settings("serve", f"service_trace={path}")["service_trace"] == trace
    assert _settings("chaos", "faults=random:3:1")["faults"] == parse_fault_spec(
        "random:3:1", 2, 12 * SEC).to_dicts()


@pytest.mark.parametrize("sets,why", [
    (["bogus=1"], "unknown key 'bogus'"),
    (["horizon_s=abc"], "bad value for horizon_s"),
    (["sanitize=yes"], "bad value for sanitize"),
    (["faults=random:x"], "bad value for faults"),
    (["rounds=2"], "missing required key 'faults'"),
])
def test_run_rejects_bad_settings_before_any_cell(sets, why, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a cell ran"))
    argv = _run("chaos", *sets) if why.startswith("missing") else _run(
        "chaos", "faults=random:1", *sets)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro run: chaos: {why}") and err.count("\n") == 1
    assert "settable keys: app_name, " in err and "Traceback" not in err


@pytest.fixture(scope="module")
def dfrs_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("dfrs") / "dfrs.json"
    assert main(["run", "dfrs", "--set", "horizon_s=2", "--no-cache", "--json", str(path)]) == 0
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
