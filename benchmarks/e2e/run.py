"""End-to-end simulator benchmark: host time, set-up time and memory of
whole scenario runs, plus a per-layer split from one traced rep.

Every rep runs in a fresh child process, one at a time.  Usage, from the
repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--reps N] [--workloads a,b] [--out F]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --compare A.json B.json

Both measuring forms run timed reps in rounds, one rep per workload per
round, interleaved round-robin.  The first runs ``--reps`` rounds, then
one traced rep per workload; it prints every metric and writes one
results JSON (default ``benchmarks/e2e/results/seed<N>.json``).  The
second runs one workload and prints one JSON line: with ``--trace 0``,
the end-to-end metrics of rounds run for about ``--seconds``; with
``--trace 1``, the per-layer metrics of one timed and one traced rep.
The third compares two results files metric by metric against the
bounds in ``BENCHMARK.json``.  See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import hostspeed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, nonfinite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Rep kinds: ``timed`` runs the scenario untraced; ``traced`` runs it
#: under the layer tracer and the scenario's profiler.
KINDS = ("timed", "traced")
MIN_ROUNDS = 3
MAX_ROUNDS = 30
REP_TIMEOUT_S = 150
#: Event categories (``Simulator.at(..., cat=...)``) reported per layer.
CATEGORIES = ("guest", "vmm.slice", "vmm.period", "dom0", "net", "sched.tickle", "service", "migration")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _use_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _now() -> float:
    return time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)


def result_digest(result: dict) -> str:
    """sha256 of the canonical result JSON without host-side keys."""
    body = {k: v for k, v in result.items() if k not in ("profile", "trace")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------
def run_rep(name: str, seed: int, kind: str = "timed", trace_path=None, **overrides) -> dict:
    """Run one rep of workload ``name`` in this process.

    ``setup_s`` runs from before repro is imported -- in a fresh child --
    to the first ``CloudWorld.run`` call, and ``wall_s`` from there until
    the scenario returns.  Both are host time at nominal host speed
    (:mod:`hostspeed`), sampled throughout the rep.  ``overrides``
    replace scenario parameters (tests shrink the horizon this way).
    """
    with hostspeed.Sampler() as sampler:
        t_start = _now()
        _use_source_tree()
        from repro.experiments import scenarios
        from repro.experiments.harness import CloudWorld

        workload = WORKLOADS[name]
        params = workload.params(seed, **overrides)
        scenario = getattr(scenarios, workload.scenario)
        first = {}
        plain_run = CloudWorld.run

        def observed_run(world, *args, **kwargs):
            if not first:
                first["t"] = _now()
                first["shape"] = {
                    "vms": len(world.vms), "vcpus": sum(len(vm.vcpus) for vm in world.vms),
                }
            return plain_run(world, *args, **kwargs)

        CloudWorld.run = observed_run
        try:
            if kind == "traced":
                with Tracer() as tracer:
                    t_scenario = _now()
                    result = scenario(**params, profile=True)
            else:
                result = scenario(**params)
            t_end = _now()
        finally:
            CloudWorld.run = plain_run

    migration = result.get("migration", {})
    rec = {
        "workload": name, "seed": seed, "kind": kind,
        "setup_s": hostspeed.nominal_s(sampler.samples, t_start, first["t"]),
        "wall_s": hostspeed.nominal_s(sampler.samples, first["t"], t_end),
        "raw_wall_s": t_end - first["t"],
        "slices": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": result["events"],
        "digest": result_digest(result),
        "problems": nonfinite(result) + workload.check(result, first["shape"]),
        "migrations_started": migration.get("started", 0),
        "migrations_completed": migration.get("completed", 0),
        "departed": result.get("service", {}).get("departed", 0),
    }
    if kind == "traced":
        rec["scenario_s"] = t_end - t_scenario
        rec["layers"] = tracer.aggregates()
        rec["run_subtree_self_s"] = tracer.subtree_self.get("sim.run", 0.0)
        rec["profile"] = result["profile"]
        if trace_path is not None:
            tracer.write_chrome(Path(trace_path), {"workload": name, "seed": seed})
    return rec


def spawn_rep(name: str, seed: int, kind: str) -> dict:
    """Run one rep in a fresh child process and return its record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--rep", name, "--seed", str(seed), "--kind", kind]
    rec = {"workload": name, "seed": seed, "kind": kind}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["error"] = f"timed out after {REP_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            rec = json.loads(lines[-1])
        else:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            rec["error"] = f"exit {proc.returncode}: {tail[0]}"
    print(f"{name} {kind}: {rec.get('error') or format(rec['wall_s'], '.3f') + ' s'}", file=sys.stderr)
    return rec


def _child(args) -> int:
    trace_path = RESULTS / f"trace_{args.rep}.json" if args.kind == "traced" else None
    try:
        rec = run_rep(args.rep, args.seed, args.kind, trace_path=trace_path)
    except Exception as exc:  # reported as a failed rep by the parent
        traceback.print_exc()
        rec = {"workload": args.rep, "seed": args.seed, "kind": args.kind,
               "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(rec))
    return 0


def run_rounds(names: list, seed: int, rounds: int = None, seconds: float = None) -> dict:
    """``name -> timed rep records``, from rounds of one rep per workload.

    Runs ``rounds`` rounds; given ``seconds`` instead, runs rounds while
    another is expected to fit, from ``MIN_ROUNDS`` to ``MAX_ROUNDS``.
    """
    records = {n: [] for n in names}
    marks = [_now()]
    while len(marks) <= (rounds or MAX_ROUNDS):
        lengths = [b - a for a, b in zip(marks, marks[1:])]
        if (rounds is None and len(lengths) >= MIN_ROUNDS
                and marks[-1] - marks[0] + statistics.median(lengths) > seconds):
            break
        for n in names:
            records[n].append(spawn_rep(n, seed, "timed"))
        marks.append(_now())
    return records


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def failures(records: list) -> list:
    """One message per failed rep.  A rep fails if it raised, if a check
    failed, or if its digest differs from the most common digest (ties go
    to the earliest rep, so an odd traced rep is the one blamed)."""
    digests = Counter(r["digest"] for r in records if "digest" in r)
    modal = digests.most_common(1)[0][0] if digests else None
    out = []
    for r in records:
        if "error" in r:
            why = r["error"]
        elif r["problems"]:
            why = "; ".join(r["problems"])
        elif r["digest"] != modal:
            why = f"digest {r['digest'][:12]} differs from {modal[:12]}"
        else:
            continue
        out.append(f"{r['workload']} seed {r['seed']} ({r['kind']}): {why}")
    return out


def ok(records: list, kind: str) -> list:
    return [r for r in records if r["kind"] == kind and "error" not in r]


def e2e_values(records: list) -> dict:
    """Values of the timed reps per end-to-end metric."""
    timed = ok(records, "timed")
    return {m: [r[m] for r in timed] for m in ("wall_s", "setup_s", "peak_rss_mb")}


def summary(values: list) -> dict:
    """Median, quartiles and count of the reps' values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def layer_values(records: list) -> dict:
    """Per-layer metrics from a run's traced rep.  Times are shares of the
    traced scenario time, so a layer a workload never enters reads 0 %,
    never a fixed 0 s."""
    traced = ok(records, "traced")[0]
    wall = statistics.median(e2e_values(records)["wall_s"])
    prof, layers = traced["profile"], traced["layers"]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced["scenario_s"]

    values = {
        "sim.events": traced["events"],
        "sim.ns_per_event": 1e9 * wall / traced["events"],
        "sim.engine_pct": pct(layers["sim.run"]["total_s"] - prof["callback_s"]),
        "sim.max_queue_depth": prof["max_heap_depth"],
        "sim.cancel_waste": prof["cancel_waste_ratio"],
        "trace.overhead": traced["wall_s"] / wall,
        "migration.useful_ratio": (
            traced["migrations_completed"] / traced["migrations_started"]
            if traced["migrations_started"] else 0.0
        ),
        "service.departed": traced["departed"],
    }
    for _, _, name in LAYERS:
        if name != "sim.run":  # always exactly one call
            values[f"{name}.calls"] = layers[name]["calls"]
        values[f"{name}.self_pct"] = pct(layers[name]["self_s"])
    for cat in CATEGORIES:
        c = prof["categories"].get(cat, {"calls": 0, "wall_s": 0.0})
        values[f"cat.{cat}.calls"] = c["calls"]
        values[f"cat.{cat}.pct"] = pct(c["wall_s"])
    return values


def checked(values: dict, spec_metrics: list) -> list:
    """``spec_metrics``, once the computed names are exactly the names
    ``BENCHMARK.json`` lists."""
    extra = set(values) ^ {m["name"] for m in spec_metrics}
    if extra:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(extra)}")
    return spec_metrics


def with_units(values: dict, spec_metrics: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in checked(values, spec_metrics)}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def bench_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload, one JSON line: end-to-end or per-layer metrics."""
    spec = load_spec()
    records = run_rounds([name], seed, rounds=1 if trace else None, seconds=seconds)[name]
    if trace:
        records.append(spawn_rep(name, seed, "traced"))
    failed = failures(records)
    for line in failed:
        print(line, file=sys.stderr)
    if not ok(records, "timed") or (trace and not ok(records, "traced")):
        return 1
    if trace:
        values, key = layer_values(records), "per_layer"
    else:
        values = {m: statistics.median(v) for m, v in e2e_values(records).items()}
        key = "end_to_end"
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": with_units(values, spec[key])}))
    return 0 if not failed else 1


def summarise_workload(records: list, spec: dict) -> dict:
    failed = failures(records)
    timed, traced = ok(records, "timed"), ok(records, "traced")
    out = {
        "attempted": len(records),
        "failed": len(failed),
        "failed_share": len(failed) / len(records),
        "failures": failed,
        "result_digest": Counter(r["digest"] for r in timed).most_common(1)[0][0] if timed else None,
        "events": timed[0]["events"] if timed else None,
    }
    if timed:
        out["raw_wall_s"] = summary([r["raw_wall_s"] for r in timed])
        values = e2e_values(records)
        out["end_to_end"] = {m["name"]: {**summary(values[m["name"]]), "unit": m["unit"]}
                             for m in checked(values, spec["end_to_end"])}
    if timed and traced:
        out["per_layer"] = with_units(layer_values(records), spec["per_layer"])
    return out


def manifest(seed: int, reps: int) -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--", "src")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "src_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "reps": reps,
        "traced_reps": 1,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def print_report(results: dict) -> None:
    for name, w in results["workloads"].items():
        print(f"== {name}: {w['attempted']} reps, failed_share {w['failed_share']:.3f}, "
              f"events {w['events']}, digest {(w['result_digest'] or '-')[:16]}")
        for line in w["failures"]:
            print(f"   FAILED {line}")
        for metric, s in w.get("end_to_end", {}).items():
            print(f"   {metric:<28} {s['median']:>12.6g} {s['unit']:<6} "
                  f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        for metric, s in w.get("per_layer", {}).items():
            print(f"   {metric:<28} {s['value']:>12.6g} {s['unit']}")


def bench_suite(names: list, seed: int, reps: int, out: Path) -> int:
    spec = load_spec()
    records = run_rounds(names, seed, rounds=reps)
    for n in names:
        records[n].append(spawn_rep(n, seed, "traced"))
    results = {
        "manifest": manifest(seed, reps),
        "workloads": {n: summarise_workload(records[n], spec) for n in names},
    }
    print_report(results)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["failed"] == 0 for w in results["workloads"].values()) else 1


def judge(a: dict, b: dict, bound: float) -> str:
    """Verdict on one lower-is-better metric, parent ``a`` vs change ``b``,
    by their medians."""
    limit = a["median"] * (1 + bound)
    if b["median"] > limit:
        return "WORSE"
    # A quartile range reaches past the bound: this pair of runs cannot tell.
    if b["q3"] > limit or a["q3"] - a["q1"] > bound * a["median"]:
        return "unresolved"
    return "better" if b["median"] * (1 + bound) < a["median"] else "unchanged"


def compare(path_a: Path, path_b: Path) -> int:
    spec = load_spec()
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    flagged = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            continue
        wa, wb = a[name], b[name]
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            verdict = judge(ma, mb, m["bound"])
            flagged += verdict == "WORSE"
            change = mb["median"] / ma["median"] - 1
            print(f"{name:<14} {m['name']:<12} {change:+7.1%} (bound {m['bound']:.0%}) {verdict:<10}"
                  + "".join(f"  {side} median {s['median']:.5g} IQR [{s['q1']:.5g}, {s['q3']:.5g}]"
                            for side, s in (("A", ma), ("B", mb))))
        if wb["failed_share"] > wa["failed_share"]:
            flagged += 1
            print(f"{name:<14} failed_share rose {wa['failed_share']:.3f} -> {wb['failed_share']:.3f}  WORSE")
        for key in ("result_digest", "events"):
            if wa[key] != wb[key]:
                print(f"{name:<14} {key} changed {wa[key]} -> {wb[key]} (information)")
    return 1 if flagged else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5, help="timed reps per workload")
    p.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated names")
    p.add_argument("--out", type=Path, help="results JSON (default results/seed<N>.json)")
    p.add_argument("--workload", help="run one workload and print one JSON line")
    p.add_argument("--seconds", type=float, help="measuring time for --workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    p.add_argument("--rep", help=argparse.SUPPRESS)
    p.add_argument("--kind", choices=KINDS, default="timed", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.rep:
        return _child(args)
    if args.compare:
        return compare(*args.compare)
    _use_source_tree()
    if args.workload:
        if args.workload not in WORKLOADS:
            p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        return bench_one(args.workload, args.seed, seconds, bool(args.trace))
    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.reps < 1:
        p.error(f"need --reps >= 1 and workloads from {', '.join(WORKLOADS)}; got {unknown}")
    return bench_suite(names, args.seed, args.reps, args.out or RESULTS / f"seed{args.seed}.json")


if __name__ == "__main__":
    sys.exit(main())
