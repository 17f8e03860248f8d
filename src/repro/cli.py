"""Command-line interface: run any of the paper's experiments directly.

Examples::

    python -m repro list
    python -m repro typea --app lu --scheduler ATC --nodes 2
    python -m repro run compare --set apps=lu --set nodes=2 --jobs 5
    python -m repro run sweep --set apps=lu --set slices=30,6,1,0.3 --jobs 4
    python -m repro run chaos --set app_name=is --set faults=random:3:1
    python -m repro run dfrs --set horizon_s=10 --json dfrs_a.json
    python -m repro mix --scheduler ATC --np-slice 6
    python -m repro typeb --scheduler ATC --nodes 6
    python -m repro probe --scheduler CR
    python -m repro check dfrs dfrs_a.json dfrs_b.json
    python -m repro trace --app is --slice 30
    python -m repro perf
    python -m repro lint src/repro benchmarks tests examples
    python -m repro races
    python -m repro races type_a --app lu --scheduler CR --nodes 2

``run``, ``typea``, ``typeb`` and ``mix`` execute their cells through
:mod:`repro.experiments.runner`: ``--jobs N``
fans the independent cells over N worker processes (bit-identical to
serial), results are cached under ``.repro_cache/`` (``--no-cache`` to
bypass), ``--json PATH`` exports the full result set, and ``--sanitize``
runs every cell under the runtime invariant sanitizer
(:mod:`repro.analysis.sanitizer` — read-only hooks, bit-identical
results, violations reported as structured cell failures).
``--cell-timeout S`` bounds each cell's host wall clock (hung workers
are killed, the sweep continues) and ``--salvage PATH`` writes the
structured partial-result report (:func:`repro.experiments.runner.salvage_report`).

``run GRID`` runs one grid of :mod:`repro.experiments.grids` (the paper's
figures and the chaos, migrate, dfrs, serve and attack extensions) and
prints its table and detail tables.  Each ``--set KEY=VALUE`` is a
keyword of the grid's ``cells()``, its scenario builder or the world
options the builder forwards, typed by the first annotation declared for
it (``faults`` takes a :mod:`repro.faults` spec: ``random:N[:SEED]``,
inline JSON or a plan file).  ``check GRID RESULTS.json [REPEAT.json]``
evaluates a grid's claims on a ``--json`` export (exit 1 on any failed
cell or claim) and, given a second export, requires equal spec/value
lists.

``trace`` runs one traced type-A cell (:mod:`repro.obs.trace`) and writes
a JSON-lines trace plus a Chrome ``trace_event`` file (open in Perfetto
or ``chrome://tracing``).  Tracing is read-only: a traced run is
bit-identical to an untraced one.

``perf`` runs the simulator self-profiling micro-suite
(:mod:`repro.obs.perfsuite`): events/sec, per-category callback
attribution and cancelled-event waste, written as ``BENCH_perf_*.json``
and optionally gated against ``benchmarks/perf/baseline.json``.

``lint`` runs the static determinism checker
(:mod:`repro.analysis.lint`) over the given paths.

``races`` runs the order-dependence detector
(:mod:`repro.analysis.races`): each cell executes twice — tie_order
``fifo`` and ``reversed`` — and the result dicts are diffed; any leaf
difference is a *confirmed* order dependence (exit 1).  The forward run
also records SAN008 tie-group suspects (heuristic non-commuting
same-timestamp pairs) unless ``--no-track``.  Without a scenario it
checks the curated invariant cell list.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.grids import (GRIDS, fault_dicts, grid_settings, load_results,
                                    repeat_diff, settable)
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    SCENARIOS,
    RunSpec,
    export_json,
    run_sweep,
    sweep_stats,
    write_salvage,
)
from repro.experiments.scenarios import run_packet_path_probe
from repro.schedulers.registry import scheduler_names
from repro.workloads.npb import NPB_EXTENDED

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (one subcommand per experiment)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Acceleration of Parallel "
        "Applications in Cloud Platforms by Adaptive Time-Slice Control' "
        "(IPDPS 2016) on a discrete-event virtualized-cluster simulator.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schedulers, kernels and experiments")

    def runner_opts(sp):
        sp.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent cells (default 1)")
        sp.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache (.repro_cache/)")
        sp.add_argument("--json", metavar="PATH", default=None,
                        help="export the full sweep results as JSON")
        sp.add_argument("--sanitize", action="store_true",
                        help="run cells under the runtime invariant sanitizer "
                        "(bit-identical results; violations fail the cell)")
        sp.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                        help="host wall-clock budget per cell; overdue workers "
                        "are killed and the cell fails, the sweep continues")
        sp.add_argument("--salvage", metavar="PATH", default=None,
                        help="write the structured salvage report (healthy + "
                        "failed cells) as JSON")

    sp = sub.add_parser("typea", help="evaluation type A (Figs. 1, 10)")
    sp.add_argument("--scheduler", default="ATC", choices=scheduler_names())
    sp.add_argument("--nodes", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--app", default="lu", choices=NPB_EXTENDED)
    sp.add_argument("--rounds", type=int, default=2)
    sp.add_argument("--npb-class", default="B", choices=["A", "B", "C"])
    sp.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault plan: random:N[:SEED], inline JSON, or a plan file")
    runner_opts(sp)

    sp = sub.add_parser("run", help="run one grid of repro.experiments.grids "
                        "and print its tables")
    sp.add_argument("grid", choices=sorted(GRIDS))
    sp.add_argument("--set", action="append", default=[], dest="sets", metavar="KEY=VALUE",
                    help="a keyword of the grid's cells(), its scenario builder or "
                    "the world options (repeatable)")
    runner_opts(sp)

    sp = sub.add_parser("mix", help="parallel + non-parallel coexistence (Figs. 2, 9)")
    sp.add_argument("--scheduler", default="ATC", choices=scheduler_names())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--horizon", type=float, default=6.0, help="virtual seconds")
    sp.add_argument("--np-slice", type=float, default=None, help="admin slice (ms) for non-parallel VMs under ATC")
    runner_opts(sp)

    sp = sub.add_parser("typeb", help="LLNL-trace cluster mix (Fig. 11)")
    sp.add_argument("--scheduler", default="ATC", choices=scheduler_names())
    sp.add_argument("--nodes", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--horizon", type=float, default=8.0)
    runner_opts(sp)

    sp = sub.add_parser("check", help="evaluate a grid's claims on a --json export "
                        "(repro.experiments.grids)")
    sp.add_argument("grid", choices=sorted(GRIDS))
    sp.add_argument("results", metavar="RESULTS.json",
                    help="--json export of `repro run GRID`")
    sp.add_argument("repeat", nargs="?", default=None, metavar="REPEAT.json",
                    help="second export of the same run; its spec/value lists "
                    "must equal RESULTS.json's")

    sp = sub.add_parser("probe", help="Fig. 4 packet-path hop decomposition")
    sp.add_argument("--scheduler", default="CR", choices=scheduler_names())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--probes", type=int, default=50)
    sp.add_argument("--slice", type=float, default=None, help="uniform slice (ms)")
    sp.add_argument("--sanitize", action="store_true",
                    help="run under the runtime invariant sanitizer")

    sp = sub.add_parser("trace", help="traced run: JSON-lines + Chrome trace_event export")
    sp.add_argument("--app", default="is", choices=NPB_EXTENDED)
    sp.add_argument("--scheduler", default="ATC", choices=scheduler_names())
    sp.add_argument("--nodes", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rounds", type=int, default=1)
    sp.add_argument("--slice", type=float, default=None,
                    help="uniform guest slice (ms; adaptive schedulers overwrite it)")
    sp.add_argument("--horizon", type=float, default=20.0, help="virtual seconds")
    sp.add_argument("--capacity", type=int, default=65536,
                    help="trace ring-buffer capacity (records; oldest evicted)")
    sp.add_argument("--out", default="trace_out/trace", metavar="PREFIX",
                    help="output prefix: writes PREFIX.jsonl and PREFIX.trace.json")

    sp = sub.add_parser("perf", help="simulator self-profiling micro-suite (BENCH_perf_*.json)")
    sp.add_argument("--cases", default=None, metavar="NAMES",
                    help="comma-separated case names (default: all)")
    sp.add_argument("--quick", action="store_true",
                    help="scaled-down workloads (CI smoke / tests)")
    sp.add_argument("--out", default="benchmarks/perf/results", metavar="DIR",
                    help="directory for BENCH_perf_*.json")
    sp.add_argument("--check", default=None, metavar="BASELINE",
                    help="fail if events/sec regresses vs this baseline.json")
    sp.add_argument("--tolerance", type=float, default=None,
                    help="allowed fractional regression for --check "
                    "(default 0.15)")
    sp.add_argument("--write-baseline", default=None, metavar="PATH",
                    help="record measured events/sec as the new baseline")
    sp.add_argument("--history", default=None, metavar="JSONL",
                    help="append one events/sec trend line per run "
                    "(e.g. benchmarks/perf/history.jsonl)")
    sp.add_argument("--label", default=None,
                    help="run label for --history (default: $GITHUB_SHA or 'local')")

    sp = sub.add_parser("lint", help="static determinism lint (RPR rules)")
    sp.add_argument("paths", nargs="*",
                    default=["src/repro", "benchmarks", "tests", "examples"],
                    help="files/directories to lint "
                    "(default: src/repro benchmarks tests examples)")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--select", default=None, metavar="CODES",
                    help="comma-separated rule codes to run (default: all)")
    sp.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")

    sp = sub.add_parser(
        "races",
        help="order-dependence detector: forward/reversed tie-order "
        "differential + SAN008 tie-group tracking (repro.analysis.races)",
    )
    sp.add_argument("scenario", nargs="?", default=None,
                    help="scenario to check (e.g. type_a); default: the "
                    "curated invariant cell list")
    sp.add_argument("--app", default="ep", choices=NPB_EXTENDED)
    sp.add_argument("--scheduler", default="ATC", choices=scheduler_names())
    sp.add_argument("--nodes", type=int, default=2)
    sp.add_argument("--rounds", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-track", action="store_true",
                    help="skip SAN008 attribute tracking; run only the "
                    "forward/reversed metric differential (faster)")
    sp.add_argument("--json", metavar="PATH", default=None,
                    help="write the full report as JSON")
    sp.add_argument("--suspects", type=int, default=5, metavar="N",
                    help="distinct SAN008 suspect patterns to print per "
                    "cell (default 5; 0 silences them)")
    return p


def _progress(done: int, total: int, result) -> None:
    state = "cached" if result.cached else ("ok" if result.ok else "FAILED")
    print(
        f"[{done}/{total}] {result.spec.label}: {state} ({result.wall_s:.2f}s)",
        file=sys.stderr,
    )


def _run_cells(args, specs: list[RunSpec]) -> Optional[list]:
    """Execute cells through the shared runner; None when any cell failed."""
    if args.sanitize:
        specs = [replace(spec, params={**spec.params, "sanitize": True}) for spec in specs]
    progress = _progress if (args.jobs > 1 or len(specs) > 1) else None
    results = run_sweep(
        specs,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        progress=progress,
        cell_timeout_s=getattr(args, "cell_timeout", None),
    )
    if args.json:
        export_json(results, args.json)
    if getattr(args, "salvage", None):
        print(f"salvage report: {write_salvage(results, args.salvage)}", file=sys.stderr)
    stats = sweep_stats(results)
    if len(specs) > 1:
        print(
            f"{stats['cells']} cells: {stats['ok']} ok "
            f"({stats['cached']} cached), {stats['failed']} failed, "
            f"{stats['wall_s']:.2f}s host cell wall time, {stats['events']} events",
            file=sys.stderr,
        )
    if _report_failures(results):
        return None
    return results


def _report_failures(results) -> list:
    """Print each failed cell's structured error record; returns them."""
    failed = [r for r in results if not r.ok]
    for r in failed:
        err = r.error or {}
        print(
            f"cell {r.spec.label} failed after {err.get('attempts', '?')} attempts: "
            f"{err.get('type')}: {err.get('message')}",
            file=sys.stderr,
        )
        for v in err.get("violations", [])[:10]:
            print(
                f"  {v['code']} @t={v['time_ns']}: {v['message']}",
                file=sys.stderr,
            )
    return failed


def _cmd_list() -> None:
    print("schedulers :", ", ".join(scheduler_names()))
    print("NPB kernels:", ", ".join(NPB_EXTENDED), "(classes A/B/C)")
    print("grids      :", ", ".join(GRIDS), "(repro run GRID [--set KEY=VALUE ...])")
    print("experiments: typea, mix, typeb, probe")
    print("tools      : trace (structured tracing + Perfetto export), "
          "perf (self-profiling micro-suite), "
          "check (grid claims on a --json export), "
          "lint (static determinism checks; --list-rules for codes), "
          "races (same-timestamp order-dependence detector)")


def _cmd_typea(args) -> int:
    params = dict(
        app_name=args.app, scheduler=args.scheduler, n_nodes=args.nodes,
        rounds=args.rounds, warmup_rounds=1, npb_class=args.npb_class, seed=args.seed,
    )
    faults = fault_dicts(args.faults, {"n_nodes": args.nodes}, SCENARIOS["type_a"])
    if faults:
        params["faults"] = faults
    spec = RunSpec("type_a", params)
    results = _run_cells(args, [spec])
    if results is None:
        return 1
    r = results[0].value
    print(
        format_table(
            ["app", "scheduler", "nodes", "mean round (ms)", "avg spin (ms)", "done"],
            [(r["app"], r["scheduler"], r["n_nodes"], r["mean_round_ns"] / 1e6,
              r["avg_spin_ns"] / 1e6, r["all_done"])],
            title="Evaluation type A",
        )
    )
    return 0


def _cmd_mix(args) -> int:
    spec = RunSpec("small_mix", dict(
        scheduler=args.scheduler, seed=args.seed, horizon_s=args.horizon,
        atc_np_slice_ms=args.np_slice,
    ))
    results = _run_cells(args, [spec])
    if results is None:
        return 1
    r = results[0].value
    rows = [
        ("parallel mean round (ms)", r["parallel_mean_round_ns"] / 1e6),
        ("sphinx3 run (ms)", r["sphinx3_mean_run_ns"] / 1e6),
        ("stream bandwidth (GB/s)", r["stream_bandwidth_Bps"] / 1e9),
        ("bonnie++ throughput (MB/s)", r["bonnie_throughput_Bps"] / 1e6),
        ("ping RTT (ms)", r["ping_mean_rtt_ns"] / 1e6),
    ]
    title = f"Mixed tenancy — {args.scheduler}"
    if args.np_slice is not None:
        title += f" (non-parallel slice {args.np_slice} ms)"
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def _cmd_typeb(args) -> int:
    spec = RunSpec("type_b", dict(
        scheduler=args.scheduler, n_nodes=args.nodes, seed=args.seed,
        horizon_s=args.horizon,
    ))
    results = _run_cells(args, [spec])
    if results is None:
        return 1
    r = results[0].value
    rows = [
        (vc["vc"], vc["app"], vc["n_vms"], vc["rounds"], vc["mean_round_ns"] / 1e6)
        for vc in r["vcs"]
    ]
    print(
        format_table(
            ["VC", "app", "VMs", "rounds", "mean round (ms)"],
            rows,
            title=f"Type B (LLNL trace mix) — {args.scheduler} on {args.nodes} nodes",
        )
    )
    return 0


def _print_tables(grid, results) -> None:
    """A grid's main table, then its detail tables."""
    for title, headers, rows in (grid.table(results), *grid.details(results)):
        print(format_table(headers, rows, title=title))


def _cmd_run(args) -> int:
    grid = GRIDS[args.grid]
    try:
        specs = grid.cells(**grid_settings(grid, args.sets))
    except ValueError as exc:
        print(f"repro run: {args.grid}: {exc}; settable keys: {', '.join(settable(grid))}",
              file=sys.stderr)
        return 2
    results = _run_cells(args, specs)
    if results is None:
        return 1
    _print_tables(grid, results)
    return 0


def _cmd_check(args) -> int:
    grid = GRIDS[args.grid]
    try:
        results = load_results(args.results)
        repeat = load_results(args.repeat) if args.repeat else None
    except ValueError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    scenarios = sorted({r.spec.scenario for r in results})
    if scenarios != [grid.scenario]:
        failures = [f"{args.results} holds {scenarios} cells, not [{grid.scenario!r}]"]
    elif _report_failures(results):
        failures = [f"{args.results} holds failed cells"]
    else:
        _print_tables(grid, results)
        failures = grid.claims(results)
    if repeat is not None:
        failures += repeat_diff(results, repeat)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"{args.grid}: {len(results)} cells ok, every claim holds"
          + (", repeat identical" if args.repeat else ""))
    return 0


def _cmd_probe(args) -> int:
    r = run_packet_path_probe(args.scheduler, uniform_slice_ms=args.slice,
                              n_probes=args.probes, seed=args.seed,
                              sanitize=args.sanitize)
    rows = [
        ("netback tx wait", r["mean_netback_tx_wait_ns"] / 1e3),
        ("wire", r["mean_wire_ns"] / 1e3),
        ("netback rx wait", r["mean_netback_rx_wait_ns"] / 1e3),
        ("guest consume wait", r["mean_consume_wait_ns"] / 1e3),
        ("end to end", r["mean_end_to_end_ns"] / 1e3),
    ]
    print(
        format_table(
            ["hop", "mean (us)"],
            rows,
            title=f"Packet-path probe — {args.scheduler} ({r['probes']} probes)",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.scenarios import run_type_a
    from repro.obs import trace as obstrace

    r = run_type_a(
        args.app, args.scheduler, args.nodes,
        rounds=args.rounds, warmup_rounds=0, seed=args.seed,
        horizon_s=args.horizon, uniform_slice_ms=args.slice,
        trace=True, trace_capacity=args.capacity,
    )
    tr = r["trace"]
    records = obstrace.records_from_dicts(tr["records"])
    jsonl_path = obstrace.write_jsonl(records, args.out + ".jsonl")
    chrome_path = obstrace.write_chrome_trace(records, args.out + ".trace.json")
    rows = [(kind, count) for kind, count in tr["by_kind"].items()]
    rows.append(("total", tr["total"]))
    rows.append(("retained", tr["retained"]))
    rows.append(("dropped (ring full)", tr["dropped"]))
    print(
        format_table(
            ["record kind", "count"],
            rows,
            title=f"Trace — {args.app} under {args.scheduler} "
            f"({r['sim_time_ns'] / 1e9:.2f} virtual s)",
        )
    )
    print(f"JSON-lines : {jsonl_path}")
    print(f"trace_event: {chrome_path}  (open in Perfetto / chrome://tracing)")
    return 0


def _cmd_perf(args) -> int:
    from repro.obs import perfsuite

    names = None if args.cases is None else args.cases.split(",")
    try:
        results = perfsuite.run_suite(names, quick=args.quick)
    except KeyError as exc:
        print(f"repro perf: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = [
        (r["name"], r["events"], f"{r['events_per_sec']:,.0f}", r["wall_s"],
         r["max_heap_depth"], f"{r['cancel_waste_ratio']:.3f}")
        for r in results
    ]
    print(
        format_table(
            ["case", "events", "events/sec", "wall (s)", "max heap", "cancel waste"],
            rows,
            title="Simulator self-profile" + (" (quick)" if args.quick else ""),
        )
    )
    for r in results:
        cat_rows = [
            (cat, c["calls"], c["wall_s"] * 1e3)
            for cat, c in sorted(
                r["categories"].items(), key=lambda kv: -kv[1]["wall_s"]
            )
        ]
        print()
        print(
            format_table(
                ["category", "calls", "wall (ms)"],
                cat_rows,
                title=f"{r['name']} — per-category callback attribution",
            )
        )
    paths = perfsuite.write_results(results, args.out)
    print()
    for p in paths:
        print(f"wrote {p}")
    if args.write_baseline:
        print(f"wrote {perfsuite.write_baseline(results, args.write_baseline)}")
    if args.history:
        print(f"appended {perfsuite.append_history(results, args.history, label=args.label)}")
    if args.check:
        failures = perfsuite.check_baseline(results, args.check, tolerance=args.tolerance)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"perf check vs {args.check}: ok")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import run_lint

    select = None if args.select is None else args.select.split(",")
    return run_lint(args.paths, fmt=args.format, select=select,
                    list_rules=args.list_rules)


def _cmd_races(args) -> int:
    import json as _json

    from repro.analysis.races import races_report

    if args.scenario is None:
        cells = None
    else:
        params = dict(
            app_name=args.app, scheduler=args.scheduler, n_nodes=args.nodes,
            rounds=args.rounds, warmup_rounds=1, seed=args.seed,
        )
        cells = [{"scenario": args.scenario, "params": params}]
    try:
        report = races_report(cells, track=not args.no_track)
    except KeyError as exc:
        print(f"repro races: unknown scenario {exc.args[0]!r}", file=sys.stderr)
        return 2
    rows = []
    for cell in report["cells"]:
        p = cell["params"]
        label = ":".join(
            str(p[k]) for k in ("app_name", "scheduler", "n_nodes") if k in p
        ) or cell["scenario"]
        rows.append((
            f"{cell['scenario']}:{label}",
            "identical" if cell["identical"] else f"{len(cell['confirmed'])} DIFFS",
            cell["suspects_total"], len(cell["suspects"]), cell["groups_checked"],
        ))
    print(
        format_table(
            ["cell", "forward vs reversed", "suspects", "distinct", "tie groups"],
            rows,
            title="Order-dependence differential (tie_order fifo vs reversed)",
        )
    )
    for cell in report["cells"]:
        for d in cell["confirmed"][:20]:
            print(
                f"CONFIRMED {cell['scenario']}: {d['path']}: "
                f"forward={d['forward']} reversed={d['reversed']}",
                file=sys.stderr,
            )
        if args.suspects:
            for s in cell["suspects"][: args.suspects]:
                print(f"suspect {s['code']} @t={s['time_ns']}: {s['message']}",
                      file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if report["clean"]:
        print("no confirmed order dependence "
              f"({report['suspects_total']} heuristic suspects recorded)")
        return 0
    print(f"{report['confirmed_total']} confirmed order-dependent metric(s)",
          file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _cmd_list()
        return 0
    handlers = {
        "typea": _cmd_typea,
        "run": _cmd_run,
        "mix": _cmd_mix,
        "typeb": _cmd_typeb,
        "check": _cmd_check,
        "probe": _cmd_probe,
        "trace": _cmd_trace,
        "perf": _cmd_perf,
        "lint": _cmd_lint,
        "races": _cmd_races,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
