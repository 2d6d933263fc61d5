"""perfbench: the simulator's speed, end to end and layer by layer.

Usage::

    python perfbench/run.py [--workload NAME]... [--seed N] [--runs N]
                            [--seconds S] [--scale full|smoke]
                            [--trace 0|1] [--out FILE]
    python perfbench/run.py compare A.json B.json
    python perfbench/run.py reference [--scale NAME]...

Every run is a fresh child process (``child.py``), one at a time.  The
untraced rounds run in interleaved order (w1..w4, w1..w4, ...) and give
the end-to-end metrics: the median run, with the quartiles and the best
run beside it.  One traced round then gives the per-layer metrics.
``--seconds`` sets the number of rounds from a time budget instead of
``--runs``.  Each run's simulated digest is checked
against ``reference.json`` at the reference seed, and runs of one
workload must agree with each other at any seed.  Units, directions
and bounds come from BENCHMARK.json.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  The exit code is 0 when every run was correct, 1 when
one was not, and 2 when the repository's ``src/repro`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import LAYERS, edges, layer_metrics
from workloads import REFERENCE_SEED, SCALES, WORKLOADS, Scale, digest_mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

#: planned seconds per untraced run: ``--seconds S`` runs ``S // ROUND_S``
#: rounds.  A constant, not a measured time, so the number of runs, and
#: with it the best of them, does not depend on how fast the code is.
ROUND_S = 5.0

#: fewest untraced rounds ``--seconds`` runs, so quartiles exist.
MIN_BUDGET_ROUNDS = 3

#: end-to-end metrics whose result-line value is the best run, not the
#: median.  The host's speed drifts by up to 1.6x over minutes, and a
#: slow phase only ever lowers a throughput, so the best of a fixed
#: number of runs is the steadiest estimate of what the replay costs
#: (README, "Spread").  ``setup_s`` and ``peak_rss_mb`` report medians.
BEST_OF = ("pages_per_s", "replay_requests_per_s")

#: units of the reported metrics BENCHMARK.json does not list whose
#: name does not end in ``_s``, ``_us`` or stand for a count.
UNITS = {
    "sim.us_per_event": "us",
    "ftl.waf": "ratio",
    "ftl.cmt_hit_ratio": "ratio",
    "ftl.trans_ops_per_host_op": "ops/op",
    "core.fast_read_fraction": "fraction",
    "reliability.retry_steps_per_read": "steps/read",
    "sim.kiops": "kIOPS",
    "sim.util_max": "fraction",
    "sim.bus_util_max": "fraction",
}


def unit_of(name: str, benchmark: dict[str, Any]) -> str:
    """Unit of a per-layer or simulated metric: BENCHMARK.json's if it
    lists the metric, else :data:`UNITS` or the name's suffix."""
    for metric in benchmark["per_layer"]:
        if metric["name"] == name:
            return str(metric["unit"])
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    return "count"


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def spawn(workload: str, scale: Scale, seed: int, traced: bool) -> dict[str, Any]:
    """Run one child to completion; returns its record with ``ok`` set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        scale.name,
        str(seed),
        str(int(traced)),
        repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=scale.timeout_s
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"timed out after {scale.timeout_s:g} s"}
    lines = proc.stdout.strip().splitlines()
    record = None
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            pass
    if record is None:
        sys.stderr.write(proc.stderr)
        last = (proc.stderr.strip().splitlines() or ["no result"])[-1]
        return {"ok": False, "traced": traced, "error": f"exit {proc.returncode}: {last}"}
    record.update(ok=True, traced=traced)
    return record


def rounds_for(seconds: float) -> int:
    """Untraced rounds of a ``--seconds`` budget."""
    return max(MIN_BUDGET_ROUNDS, int(seconds // ROUND_S))


def run_rounds(
    workloads: list[str], scale: Scale, seed: int, runs: int
) -> dict[str, list[dict[str, Any]]]:
    """``runs`` untraced rounds in interleaved order (w1..w4, w1..w4, ...)."""
    records: dict[str, list[dict[str, Any]]] = {name: [] for name in workloads}
    for _ in range(runs):
        for name in workloads:
            records[name].append(spawn(name, scale, seed, traced=False))
    return records


def describe(values: list[float], better: str) -> dict[str, Any]:
    """Median, quartiles, spread ((q3 - q1) / median) and the best run."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "best": min(values) if better == "lower" else max(values),
        "values": values,
    }


def summarize(
    untraced: list[dict[str, Any]],
    traced: dict[str, Any] | None,
    expected: dict[str, Any] | None,
    end_to_end: list[dict[str, Any]],
) -> dict[str, Any]:
    """One workload's report: correctness, end-to-end and per-layer metrics.

    ``expected`` is the reference digest; without one (off the reference
    seed) the first correct run's digest is the one the others must match.
    ``end_to_end`` is BENCHMARK.json's list of end-to-end metrics.
    """
    checked_against = "reference.json" if expected is not None else "first run"
    records = [*untraced, *([traced] if traced else [])]
    errors: list[str] = []
    failed = 0
    for index, record in enumerate(records):
        label = "traced run" if record["traced"] else f"run {index + 1}"
        if not record["ok"]:
            problems = [record["error"]]
        elif expected is None:
            expected = record["digest"]
            continue
        else:
            problems = digest_mismatches(expected, record["digest"])
        if problems:
            record["ok"] = False
            failed += 1
            more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
            errors.append(f"{label}: " + "; ".join(problems[:3]) + more)

    good = [record for record in untraced if record["ok"]]
    report: dict[str, Any] = {
        "spec": next((record["spec"] for record in records if "spec" in record), None),
        "checked_against": checked_against,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "errors": errors,
        "end_to_end": {},
        "per_layer": {},
    }
    if good:
        values = {
            "setup_s": [r["setup_s"] for r in good],
            "pages_per_s": [r["pages"] / r["exec_s"] for r in good],
            "replay_requests_per_s": [r["requests"] / r["replay_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        for metric in end_to_end:
            report["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                **describe(values[metric["name"]], metric["better"]),
            }
        report["digest"] = good[0]["digest"]
        report["per_layer"].update(
            (key, value)
            for key, value in good[0]["digest"].items()
            if "." in key and not key.startswith("extra.")
        )
    if traced and traced["ok"]:
        layers = layer_metrics(traced["trace"], traced["requests"])
        if good:
            median_wall = statistics.median(r["work_s"] for r in good)
            layers["trace.overhead"] = traced["work_s"] / median_wall - 1.0
        report["per_layer"].update(layers)
        report["edges"] = edges(traced["trace"])
        report["missing"] = traced["trace"]["missing"]
    report["runs"] = [
        {key: value for key, value in record.items() if key not in ("digest", "trace")}
        for record in records
    ]
    return report


def measure(
    workloads: list[str],
    scale: Scale,
    seed: int,
    benchmark: dict[str, Any],
    runs: int = 5,
    trace: bool = True,
    reference: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run the benchmark; returns the JSON report (see perfbench/README.md).

    ``benchmark`` is the loaded BENCHMARK.json.
    """
    untraced = run_rounds(workloads, scale, seed, runs)
    traced = {name: spawn(name, scale, seed, traced=True) for name in workloads} if trace else {}
    expected = {}
    if seed == REFERENCE_SEED and reference is not None:
        expected = reference.get("scales", {}).get(scale.name, {})
    return {
        "schema": 1,
        "scale": scale.name,
        "seed": seed,
        "runs": runs,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workloads": {
            name: summarize(
                untraced[name], traced.get(name), expected.get(name), benchmark["end_to_end"]
            )
            for name in workloads
        },
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def render(report: dict[str, Any], benchmark: dict[str, Any]) -> str:
    """The human-readable tables of one report."""
    lines = [
        f"perfbench: scale {report['scale']}, seed {report['seed']}, "
        f"python {report['python']}, {report['nproc']} cpus"
    ]
    for name, workload in report["workloads"].items():
        runs = len(workload["runs"]) - (1 if report["trace"] else 0)
        lines += [
            "",
            f"== {name}: {workload['spec']}",
            f"   {runs} untraced runs{' + 1 traced' if report['trace'] else ''}, "
            f"{workload['failed']} failed, error_rate {workload['error_rate']:g} fraction",
        ]
        lines += [f"   ERROR {error}" for error in workload["errors"]]
        if workload["end_to_end"]:
            lines.append(
                f"   {'end to end':<22} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
                f"{'spread':>7} {'best':>12}"
            )
            for metric, stats in workload["end_to_end"].items():
                lines.append(
                    f"   {metric:<22} {stats['unit']:<8} {stats['median']:>12.4f} "
                    f"{stats['q1']:>12.4f} {stats['q3']:>12.4f} {stats['spread']:>7.1%} "
                    f"{stats['best']:>12.4f}"
                )
        per_layer = workload["per_layer"]
        if "trace.wall_s" in per_layer:
            wall = per_layer["trace.wall_s"]
            overhead = per_layer.get("trace.overhead", 0.0)
            unattributed = per_layer["trace.unattributed_s"]
            lines.append(
                f"   traced run: wall {wall:.3f} s, overhead {overhead:.2f}, "
                f"unattributed {unattributed:.3f} s"
            )
            lines.append(
                f"   {'layer':<12} {'self_s':>9} {'share':>7} {'calls':>10} {'us/call':>9}"
            )
            for layer in LAYERS:
                own = per_layer[f"{layer}.self_s"]
                calls = per_layer[f"{layer}.calls"]
                per_call = own / calls * 1e6 if calls else 0.0
                lines.append(
                    f"   {layer:<12} {own:>9.3f} {own / wall:>7.1%} {calls:>10} {per_call:>9.2f}"
                )
            lines.append(f"   {'edge':<24} {'calls':>10} {'wall_s':>9} {'self_s':>9}")
            for edge in workload["edges"]:
                label = f"{edge['parent']} -> {edge['layer']}"
                lines.append(
                    f"   {label:<24} {edge['calls']:>10} {edge['wall_s']:>9.3f} "
                    f"{edge['self_s']:>9.3f}"
                )
            if workload["missing"]:
                lines.append(f"   trace.missing: {', '.join(workload['missing'])}")
        if per_layer:
            lines.append(f"   {'per-layer metric':<34} {'unit':<11} value")
            for metric in sorted(per_layer):
                unit = unit_of(metric, benchmark)
                lines.append(f"   {metric:<34} {unit:<11} {per_layer[metric]:.6g}")
    return "\n".join(lines)


def result_line(report: dict[str, Any], benchmark: dict[str, Any]) -> dict[str, Any]:
    """The closing JSON object: BENCHMARK.json's metrics of this report,
    end-to-end ones as their median or, for :data:`BEST_OF`, best run."""
    section = "per_layer" if report["trace"] else "end_to_end"
    workloads = report["workloads"]
    metrics: dict[str, Any] = {}
    for name, workload in workloads.items():
        for metric in benchmark[section]:
            statistic = "best" if metric["name"] in BEST_OF else "median"
            value = (
                workload["per_layer"].get(metric["name"])
                if report["trace"]
                else workload["end_to_end"].get(metric["name"], {}).get(statistic)
            )
            if value is None:
                continue
            key = metric["name"] if len(workloads) == 1 else f"{name}/{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    failed = sum(w["failed"] for w in workloads.values())
    return {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def verdict(base: dict[str, Any], cand: dict[str, Any], better: str, bound: float) -> str:
    """better, worse or within bound, by how far the medians differ; or
    unresolved when the run-to-run spread is wider than the bound, unless
    every run of ``cand`` beats (better) or trails (worse) every run of
    ``base``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cand["median"] - base["median"]) / base["median"]
    if max(base["spread"], cand["spread"]) > bound:
        # cost: larger is worse, whichever way the metric points
        base_cost = [sign * value for value in base["values"]]
        cand_cost = [sign * value for value in cand["values"]]
        if max(cand_cost) < min(base_cost):
            return "better"
        if min(cand_cost) > max(base_cost):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(base_path: str, cand_path: str, benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric (plus error_rate)."""
    base = load_json(base_path)["workloads"]
    cand = load_json(cand_path)["workloads"]
    rows = []
    for workload in [name for name in base if name in cand]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old = base[workload]["end_to_end"].get(name)
            new = cand[workload]["end_to_end"].get(name)
            row = {"workload": workload, "metric": name, "bound": metric["bound"]}
            if old is None or new is None:
                row.update(verdict="missing")
            else:
                row.update(
                    base=old["median"],
                    cand=new["median"],
                    change=new["median"] / old["median"] - 1.0,
                    spread=max(old["spread"], new["spread"]),
                    verdict=verdict(old, new, metric["better"], metric["bound"]),
                )
            rows.append(row)
        old_rate, new_rate = base[workload]["error_rate"], cand[workload]["error_rate"]
        if new_rate > old_rate:
            rate_verdict = "worse"
        elif new_rate < old_rate:
            rate_verdict = "better"
        else:
            rate_verdict = "within bound"
        rows.append(
            {
                "workload": workload,
                "metric": "error_rate",
                "bound": 0.0,
                "base": old_rate,
                "cand": new_rate,
                "change": new_rate - old_rate,
                "spread": 0.0,
                "verdict": rate_verdict,
            }
        )
    return rows


def render_compare(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<22} {'metric':<22} {'base median':>12} {'cand median':>12} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<22} {row['metric']:<22} {'':>56}  missing")
            continue
        lines.append(
            f"{row['workload']:<22} {row['metric']:<22} {row['base']:>12.4f} "
            f"{row['cand']:>12.4f} {row['change']:>+8.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# reference
# ----------------------------------------------------------------------


def write_reference(scales: list[str]) -> int:
    """Run every workload once at the reference seed; store the digests."""
    reference = load_json(REFERENCE) if REFERENCE.exists() else {"seed": REFERENCE_SEED}
    reference.setdefault("scales", {})
    for scale_name in scales:
        digests = {}
        for name in WORKLOADS:
            record = spawn(name, SCALES[scale_name], REFERENCE_SEED, traced=False)
            if not record["ok"]:
                sys.stderr.write(f"{scale_name}/{name}: {record['error']}\n")
                return 1
            digests[name] = record["digest"]
            print(f"{scale_name}/{name}: {record['spec']}")
        reference["scales"][scale_name] = digests
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def load_json(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable; default all"
    )
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--runs", type=int, default=5, help="untraced rounds (default 5)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="about this many seconds of untraced runs per workload: replaces --runs "
        f"with seconds // {ROUND_S:g} rounds, at least {MIN_BUDGET_ROUNDS}",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1, help="1: also run the traced round"
    )
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.stderr.write(f"perfbench: no src/repro under {ROOT}; run from a repro checkout\n")
        return 2
    benchmark = load_json(BENCHMARK)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: perfbench/run.py compare A.json B.json\n")
            return 2
        rows = compare(argv[1], argv[2], benchmark)
        print(render_compare(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    if argv[:1] == ["reference"]:
        parser = argparse.ArgumentParser(prog="perfbench/run.py reference")
        parser.add_argument("--scale", action="append", choices=sorted(SCALES))
        return write_reference(parser.parse_args(argv[1:]).scale or sorted(SCALES))

    args = parse_args(argv)
    report = measure(
        list(dict.fromkeys(args.workload or WORKLOADS)),
        SCALES[args.scale],
        args.seed,
        benchmark,
        runs=args.runs if args.seconds is None else rounds_for(args.seconds),
        trace=bool(args.trace),
        reference=load_json(REFERENCE),
    )
    print(render(report, benchmark))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    line = result_line(report, benchmark)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
