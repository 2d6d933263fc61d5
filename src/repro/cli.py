"""Command-line interface: ``repro-flash`` / ``python -m repro``.

Subcommands
-----------
``figure {table1,12,...,18,all}``
    Regenerate a paper artifact and print the paper-style report.
``scenario run FILE``
    Execute a declarative scenario file (``.toml``/``.json``; see
    :mod:`repro.scenario`): a single run, or — when the file carries
    ``[[sweep]]`` axes — the expanded cross-product.  ``--set
    path=value`` overrides any dotted field for quick variations;
    ``--smoke`` clamps the size for CI.  The reliability and placement
    sweeps are files: ``examples/scenarios/reliability_sweep.toml``
    (speed ratio x retention age x refresh) and
    ``examples/scenarios/placement_frontier.toml`` (speed ratio x
    hotness skew x PPB reliability weight x FTL).
``sweep``
    The generic sweep engine: ``--set path=v1,v2,...`` turns any dotted
    scenario field (``device.speed_ratio``, ``ppb.reliability_weight``,
    ``reread_age_s``...) into an axis and runs the cross-product
    through the memoized replay runner, from defaults or from a
    ``--spec`` file.  With only single-value ``--set`` flags it replays
    one workload on one FTL and prints the run summary.
``characterize``
    Print trace statistics for a synthetic workload (or an MSRC CSV).
``spec``
    Print the Table 1 device description.
``lint [paths] [--rule ID] [--format text|json]``
    Run the AST-based determinism & simulator-invariant analyzer (see
    :mod:`repro.lint`) over the shipped package tree or the given
    files/directories.  Exits 0 when clean, 1 with findings.

The sweep subcommands take ``--workers N`` to fan their replay grids
across worker processes (output is byte-identical to ``--workers 1``,
memo line included; see :mod:`repro.scenario.memo`).

The simulator's own speed is measured outside the package, by
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.bench.figures import FIGURES, FULL_SCALE, SMOKE_SCALE
from repro.bench.reporting import render_reports, run_figures
from repro.errors import ConfigError
from repro.nand.spec import table1_spec
from repro.scenario.memo import ReplayRunner
from repro.scenario.report import summarize_result, sweep_table
from repro.scenario.serialize import ScenarioFile, load_scenario_file
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import (
    SweepAxis,
    get_path,
    list_paths,
    parse_set_arg,
    set_paths,
    sweep,
)
from repro.traces.msr import read_msr_csv
from repro.traces.stats import characterize
from repro.traces.workloads import WORKLOADS as _WORKLOADS

#: ``--smoke`` caps (CI-fast): requests and device blocks are clamped.
SMOKE_MAX_REQUESTS = 1_500
SMOKE_MAX_BLOCKS = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flash",
        description=(
            "Reproduction of the DAC'17 PPB strategy for 3D charge trap "
            "NAND with asymmetric page access speed"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig.add_argument("id", choices=sorted(FIGURES) + ["all"])
    fig.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="simulation size (smoke is CI-fast)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="work with declarative scenario files (.toml/.json)",
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scen_run = scen_sub.add_parser(
        "run", help="execute a scenario file (single run or its [[sweep]] grid)"
    )
    scen_run.add_argument("file", help="path to a .toml/.json scenario file")
    scen_run.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="PATH=VALUE[,VALUE...]",
        help="override a dotted field (one value), or add/replace a sweep "
        "axis (comma-separated values); repeatable",
    )
    scen_run.add_argument(
        "--smoke",
        action="store_true",
        help=f"clamp to CI size (<= {SMOKE_MAX_REQUESTS} requests, "
        f"<= {SMOKE_MAX_BLOCKS} blocks per chip)",
    )
    scen_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep grids (1 = in-process)",
    )
    scen_paths = scen_sub.add_parser(
        "paths",
        help="list every sweepable dotted path with its type and default",
    )
    scen_paths.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="scenario file whose paths (tenants, kwargs) to enumerate "
        "(defaults to the stock ScenarioSpec)",
    )

    gen_sweep = sub.add_parser(
        "sweep",
        help="cross-product sweep over any dotted scenario fields",
    )
    gen_sweep.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="base scenario file (defaults to the stock ScenarioSpec)",
    )
    gen_sweep.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="PATH=VALUE[,VALUE...]",
        help="set a dotted field (one value) or sweep it (comma-separated "
        "values); repeatable, axes cross-multiply in the order given",
    )
    gen_sweep.add_argument(
        "--smoke",
        action="store_true",
        help=f"clamp to CI size (<= {SMOKE_MAX_REQUESTS} requests, "
        f"<= {SMOKE_MAX_BLOCKS} blocks per chip)",
    )
    gen_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep grid (1 = in-process)",
    )

    char = sub.add_parser("characterize", help="print trace statistics")
    char.add_argument("--workload", choices=sorted(_WORKLOADS), default=None)
    char.add_argument("--msr-csv", default=None, help="path to an MSRC CSV trace")
    char.add_argument("--requests", type=int, default=50_000)
    char.add_argument("--page-size", type=int, default=16 * 1024)

    sub.add_parser("spec", help="print the paper's Table 1 device")

    lint = sub.add_parser(
        "lint",
        help="run the determinism & simulator-invariant analyzer",
        description="AST-based static analysis of the simulator tree: "
        "determinism (DET001-DET003) and simulator invariants "
        "(SPEC001, REG001, OPLOG001).  Suppress one audited line with "
        "'# repro-lint: disable=RULE'.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: the installed repro "
        "package; add tests/ to self-check test determinism)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule ID (repeatable); overrides the "
        "tests-directory rule scoping",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    return parser


def _apply_sets(
    base: ScenarioSpec, axes: list[SweepAxis], set_args: list[str]
) -> tuple[ScenarioSpec, list[SweepAxis]]:
    """Fold ``--set`` arguments into a (base, axes) pair.

    A single-value ``--set`` overrides the base spec (and cancels any
    axis on the same path); a multi-value one adds or replaces an axis.
    All overrides apply as one batch (:func:`set_paths`) and axes
    validate per *final* grid point inside :func:`sweep`, so no valid
    combination depends on the order the flags were given in.
    """
    axes = list(axes)
    overrides: list[tuple[str, object]] = []
    for arg in set_args:
        axis = parse_set_arg(arg)
        if len(axis.values) == 1:
            overrides.append((axis.path, axis.values[0]))
            axes = [a for a in axes if a.path != axis.path]
        else:
            replaced = False
            for i, existing in enumerate(axes):
                if existing.path == axis.path:
                    axes[i] = axis
                    replaced = True
            if not replaced:
                axes.append(axis)
    if overrides:
        base = set_paths(base, overrides)
    for axis in axes:
        get_path(base, axis.path)  # misspelled paths fail before any replay
    return base, axes


#: dotted paths --smoke clamps, with their caps.
_SMOKE_CAPS = {
    "num_requests": SMOKE_MAX_REQUESTS,
    "device.blocks_per_chip": SMOKE_MAX_BLOCKS,
}


def _apply_smoke(
    base: ScenarioSpec, axes: list[SweepAxis]
) -> tuple[ScenarioSpec, list[SweepAxis]]:
    """Clamp a bundle to CI-smoke size (never grows a small scenario).

    Axes on the size knobs are clamped too — otherwise a sweep over
    ``num_requests`` would reapply full-scale values right after the
    base was clamped, turning the CI scenario-smoke job into a
    full-scale run.
    """
    if base.num_requests > SMOKE_MAX_REQUESTS:
        base = base.with_(num_requests=SMOKE_MAX_REQUESTS)
    if base.device.blocks_per_chip > SMOKE_MAX_BLOCKS:
        base = base.with_(device=base.device.replace(blocks_per_chip=SMOKE_MAX_BLOCKS))
    if base.tenants:
        # tenants carry their own budgets: split the smoke cap evenly.
        per_tenant = max(1, SMOKE_MAX_REQUESTS // len(base.tenants))
        base = base.with_(
            tenants=tuple(
                dataclasses.replace(t, num_requests=min(t.num_requests, per_tenant))
                for t in base.tenants
            )
        )
    if base.precondition:
        base = base.with_(
            precondition=tuple(
                dataclasses.replace(p, num_requests=min(p.num_requests, SMOKE_MAX_REQUESTS))
                for p in base.precondition
            )
        )
    clamped: list[SweepAxis] = []
    for axis in axes:
        cap = _SMOKE_CAPS.get(axis.path)
        if cap is not None:
            values: list[object] = []
            for value in axis.values:
                # Clamp only numbers; anything else stays put for the
                # sweep expansion to reject with a path-named ConfigError.
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    value = min(value, cap)
                if value not in values:  # dedupe collapsed points
                    values.append(value)
            axis = SweepAxis(axis.path, tuple(values))
        clamped.append(axis)
    return base, clamped


def _run_scenario_bundle(
    base: ScenarioSpec,
    axes: list[SweepAxis],
    workers: int,
    title: str,
) -> int:
    """Execute a base spec (plus optional axes) and print the report."""
    with ReplayRunner(workers=workers) as runner:
        if axes:
            specs = sweep(base, axes)
            results = runner.run_many(specs)
            print(
                sweep_table(
                    specs, results, axes, memo=runner.stats, title=title or "Sweep"
                )
            )
        else:
            result = runner.run(base)
            if title:
                print(f"== {title} ==")
            print(summarize_result(base, result))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    try:
        if args.scenario_command == "paths":
            return _cmd_scenario_paths(args)
        bundle: ScenarioFile = load_scenario_file(args.file)
        base, axes = _apply_sets(bundle.base, list(bundle.axes), args.sets)
        if args.smoke:
            base, axes = _apply_smoke(base, axes)
        title = bundle.name or args.file
        return _run_scenario_bundle(base, axes, args.workers, title)
    except ConfigError as exc:
        print(f"repro-flash scenario: error: {exc}", file=sys.stderr)
        return 2


def _cmd_scenario_paths(args: argparse.Namespace) -> int:
    from repro.analysis.tables import ascii_table

    base = load_scenario_file(args.spec).base if args.spec else None
    rows = list_paths(base)
    print(ascii_table(["path", "type", "default"], rows))
    print(
        f"{len(rows)} sweepable paths; use them with --set PATH=VALUE "
        "or in a [[sweep]] block"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.spec:
            bundle = load_scenario_file(args.spec)
            base, axes = bundle.base, list(bundle.axes)
            title = bundle.name or args.spec
        else:
            base, axes, title = ScenarioSpec(), [], "Sweep"
        base, axes = _apply_sets(base, axes, args.sets)
        if args.smoke:
            base, axes = _apply_smoke(base, axes)
        return _run_scenario_bundle(base, axes, args.workers, title)
    except ConfigError as exc:
        print(f"repro-flash sweep: error: {exc}", file=sys.stderr)
        return 2


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = FULL_SCALE if args.scale == "full" else SMOKE_SCALE
    ids = None if args.id == "all" else [args.id]
    reports = run_figures(ids, scale=scale)
    print(render_reports(reports))
    return 0 if all(r.all_checks_pass for r in reports) else 1


def _cmd_characterize(args: argparse.Namespace) -> int:
    if args.msr_csv:
        trace = read_msr_csv(args.msr_csv)
    else:
        workload = args.workload or "web-sql"
        trace = _WORKLOADS[workload](num_requests=args.requests).generate()
    print(characterize(trace, page_size=args.page_size).describe())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    try:
        report = run_lint(paths=args.paths or None, rules=args.rule)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_json() if args.format == "json" else report.render_text())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "spec":
        print(table1_spec().describe())
        return 0
    if args.command == "lint":
        return _cmd_lint(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
