"""Command-line interface: ``repro-flash`` / ``python -m repro``.

Subcommands
-----------
``figure {table1,12,...,18,all}``
    Regenerate a paper artifact and print the paper-style report.
``run``
    Replay one workload on one FTL and print the run summary.
``reliability``
    Sweep speed-ratio x retention-age through the reliability stack
    (process variation, retention RBER, ECC read-retry, refresh) and
    print the lifetime/latency trade-off report.
``placement``
    Sweep speed-ratio x hotness-skew across all three FTLs plus PPB at
    several reliability weights, and print the speed-vs-lifetime
    placement frontier.
``scenario run FILE``
    Execute a declarative scenario file (``.toml``/``.json``; see
    :mod:`repro.scenario`): a single run, or — when the file carries
    ``[[sweep]]`` axes — the expanded cross-product.  ``--set
    path=value`` overrides any dotted field for quick variations;
    ``--smoke`` clamps the size for CI.
``sweep``
    The generic sweep engine: ``--set path=v1,v2,...`` turns any dotted
    scenario field (``device.speed_ratio``, ``ppb.reliability_weight``,
    ``reread_age_s``...) into an axis and runs the cross-product
    through the memoized replay runner, from defaults or from a
    ``--spec`` file.
``perf``
    Time the paper-figure replays (wall-clock, pages/sec), write the
    ``BENCH_perf.json`` digest, and optionally gate against a committed
    baseline — the CI perf-smoke regression guard.
``characterize``
    Print trace statistics for a synthetic workload (or an MSRC CSV).
``spec``
    Print the Table 1 device description.
``lint [paths] [--rule ID] [--format text|json]``
    Run the AST-based determinism & simulator-invariant analyzer (see
    :mod:`repro.lint`) over the shipped package tree or the given
    files/directories.  Exits 0 when clean, 1 with findings.

The sweep subcommands take ``--workers N`` to fan their replay grids
across worker processes (results are byte-identical to ``--workers 1``;
the pool is spawned once and reused across the invocation's sweeps —
see :mod:`repro.bench.memo`).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.bench.experiment import FULL_SCALE, SMOKE_SCALE, ExperimentRunner
from repro.bench.figures import FIGURES
from repro.bench.memo import ReplayRunner
from repro.bench.perf import (
    DEFAULT_REPORT,
    DEFAULT_TOLERANCE,
    compare_to_baseline,
    load_baseline,
    perf_scale,
    run_perf,
    write_report,
)
from repro.bench.placement import (
    DEFAULT_SKEWS,
    DEFAULT_WEIGHTS,
    SKEWABLE_WORKLOADS,
    PlacementSweepSpec,
    run_placement_sweep,
)
from repro.bench.reliability import (
    DEFAULT_AGES_HOURS,
    DEFAULT_SPEED_RATIOS,
    ReliabilitySweepSpec,
    run_reliability_sweep,
)
from repro.bench.reporting import render_reports, run_figures
from repro.errors import ConfigError
from repro.nand.spec import sim_spec, table1_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.report import summarize_result, sweep_table, timed_summary_lines
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
from repro.scenario.run import build_trace, execute_scenario
from repro.sim.arrival import ArrivalSpec
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

    run = sub.add_parser("run", help="replay one workload on one FTL")
    run.add_argument("--workload", choices=sorted(_WORKLOADS), default="web-sql")
    run.add_argument(
        "--ftl", choices=["conventional", "fast", "ppb", "dftl"], default="ppb"
    )
    run.add_argument("--requests", type=int, default=FULL_SCALE.num_requests)
    run.add_argument("--speed-ratio", type=float, default=2.0)
    run.add_argument("--page-size", type=int, default=16 * 1024)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--mode",
        choices=["sequential", "timed"],
        default="sequential",
        help="timed mode queues requests at trace timestamps and "
        "reports response-time percentiles",
    )
    run.add_argument(
        "--chips", type=int, default=1, help="NAND chips (timed mode overlaps them)"
    )
    run.add_argument(
        "--channels",
        type=int,
        default=1,
        help="host-interface channels (must divide --chips)",
    )
    run.add_argument(
        "--planes",
        type=int,
        default=1,
        help="planes per chip (timed mode overlaps them; FTLs stripe "
        "writes across per-plane append points)",
    )
    run.add_argument(
        "--arrival-mode",
        choices=["open", "closed"],
        default="open",
        help="timed mode: open replays trace timestamps; closed keeps "
        "a fixed --queue-depth population outstanding",
    )
    run.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        help="timed mode: bound on in-flight requests (0 = unbounded; "
        "closed mode: the outstanding population, required >= 1)",
    )
    run.add_argument(
        "--arrival-scale",
        type=float,
        default=1.0,
        help="timed mode: divide trace inter-arrival gaps by this "
        "(open-loop intensity knob)",
    )

    rel = sub.add_parser(
        "reliability",
        help="sweep speed-ratio x retention-age through the reliability stack",
    )
    rel.add_argument("--workload", choices=sorted(_WORKLOADS), default="web-sql")
    rel.add_argument(
        "--ftl", choices=["conventional", "fast", "ppb", "dftl"], default="conventional"
    )
    rel.add_argument("--requests", type=int, default=8_000)
    rel.add_argument("--blocks", type=int, default=96, help="blocks per chip")
    rel.add_argument(
        "--speed-ratios",
        type=_float_list,
        default=DEFAULT_SPEED_RATIOS,
        metavar="R1,R2,...",
        help="speed-difference sweep points (default: 2,4)",
    )
    rel.add_argument(
        "--ages",
        type=_float_list,
        default=DEFAULT_AGES_HOURS,
        metavar="H1,H2,...",
        help="retention ages in hours (default: 0,24,720,2160)",
    )
    rel.add_argument("--seed", type=int, default=42)
    rel.add_argument(
        "--base-rber",
        type=float,
        default=ReliabilityConfig().base_rber,
        help="RBER of a fresh median bottom-layer page",
    )
    rel.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep grid (1 = in-process)",
    )

    place = sub.add_parser(
        "placement",
        help="sweep speed-ratio x hotness-skew; the placement frontier across FTLs",
    )
    place.add_argument(
        "--workload", choices=sorted(SKEWABLE_WORKLOADS), default="web-sql"
    )
    place.add_argument("--requests", type=int, default=8_000)
    place.add_argument("--blocks", type=int, default=96, help="blocks per chip")
    place.add_argument(
        "--speed-ratios",
        type=_float_list,
        default=DEFAULT_SPEED_RATIOS,
        metavar="R1,R2,...",
        help="speed-difference sweep points (default: 2,4)",
    )
    place.add_argument(
        "--skews",
        type=_float_list,
        default=DEFAULT_SKEWS,
        metavar="T1,T2,...",
        help="hotness-skew (Zipf theta in (0,1)) sweep points",
    )
    place.add_argument(
        "--weights",
        type=_float_list,
        default=DEFAULT_WEIGHTS,
        metavar="W1,W2,...",
        help="reliability_weight values for PPB (must include 0)",
    )
    place.add_argument(
        "--age",
        type=float,
        default=720.0,
        help="shelf age (hours) between the fresh replay and the aged re-read",
    )
    place.add_argument("--seed", type=int, default=42)
    place.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep grid (1 = in-process)",
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

    perf = sub.add_parser(
        "perf",
        help="time the paper-figure replays and gate against a baseline",
    )
    perf.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default=None,
        help="workload size (default: smoke when REPRO_BENCH_SMOKE=1, else full)",
    )
    perf.add_argument(
        "--repeats", type=int, default=2, help="repeats per case (best kept)"
    )
    perf.add_argument(
        "--output",
        default=DEFAULT_REPORT,
        metavar="PATH",
        help=f"where to write the JSON digest (default {DEFAULT_REPORT})",
    )
    perf.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="gate against this committed BENCH_perf.json",
    )
    perf.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="max fractional throughput regression before failing "
        f"(default {DEFAULT_TOLERANCE})",
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


def _float_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of floats (argparse type)."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


def _cmd_reliability(args: argparse.Namespace) -> int:
    try:
        sweep = ReliabilitySweepSpec(
            workload=args.workload,
            ftl=args.ftl,
            speed_ratios=tuple(args.speed_ratios),
            ages_hours=tuple(args.ages),
            num_requests=args.requests,
            blocks_per_chip=args.blocks,
            seed=args.seed,
            config=ReliabilityConfig(base_rber=args.base_rber),
        )
        with ReplayRunner(workers=args.workers) as runner:
            report = run_reliability_sweep(sweep, runner)
    except ConfigError as exc:
        print(f"repro-flash reliability: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.all_checks_pass else 1


def _cmd_placement(args: argparse.Namespace) -> int:
    try:
        sweep = PlacementSweepSpec(
            workload=args.workload,
            speed_ratios=tuple(args.speed_ratios),
            skews=tuple(args.skews),
            weights=tuple(args.weights),
            num_requests=args.requests,
            blocks_per_chip=args.blocks,
            retention_age_hours=args.age,
            seed=args.seed,
        )
        with ReplayRunner(workers=args.workers) as runner:
            report = run_placement_sweep(sweep, runner)
    except ConfigError as exc:
        print(f"repro-flash placement: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.all_checks_pass else 1


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


def _cmd_perf(args: argparse.Namespace) -> int:
    try:
        scale = perf_scale(None if args.scale is None else args.scale == "smoke")
        report = run_perf(scale=scale, repeats=args.repeats)
        write_report(report, args.output)
        print(report.render())
        print(f"wrote {args.output}")
        if args.baseline:
            failures = compare_to_baseline(
                report, load_baseline(args.baseline), tolerance=args.tolerance
            )
            if failures:
                for failure in failures:
                    print(f"perf regression: {failure}", file=sys.stderr)
                return 1
            print(
                f"within {args.tolerance * 100.0:.0f}% of baseline {args.baseline}"
            )
    except (ConfigError, OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError from a corrupt baseline.
        print(f"repro-flash perf: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = FULL_SCALE if args.scale == "full" else SMOKE_SCALE
    ids = None if args.id == "all" else [args.id]
    reports = run_figures(ids, runner=ExperimentRunner(), scale=scale)
    print(render_reports(reports))
    return 0 if all(r.all_checks_pass for r in reports) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = ScenarioSpec(
            workload=args.workload,
            num_requests=args.requests,
            seed=args.seed,
            device=sim_spec(
                speed_ratio=args.speed_ratio,
                page_size=args.page_size,
                num_chips=args.chips,
                num_channels=args.channels,
                planes_per_chip=args.planes,
            ),
            ftl=args.ftl,
            warm_fill_fraction=0.9,
            mode=args.mode,
            arrival=ArrivalSpec(
                mode=args.arrival_mode,
                queue_depth=args.queue_depth,
                scale=args.arrival_scale,
            ),
        )
        result = execute_scenario(scenario, build_trace(scenario))
    except ConfigError as exc:
        print(f"repro-flash run: error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    ftl = result.ftl  # type: ignore[attr-defined]
    print(f"host read total   {ftl.stats.host_read_us / 1e6:.3f} s")
    print(f"host write total  {ftl.stats.host_write_us / 1e6:.3f} s")
    print(f"gc total          {ftl.stats.gc_us / 1e6:.3f} s")
    print(f"erased blocks     {ftl.stats.erase_count}")
    print(f"write amp.        {ftl.stats.write_amplification:.3f}")
    if hasattr(ftl, "fast_page_read_fraction"):
        print(f"fast-half reads   {ftl.fast_page_read_fraction():.3f}")
    for line in timed_summary_lines(result):
        print(line)
    return 0


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
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "reliability":
        return _cmd_reliability(args)
    if args.command == "placement":
        return _cmd_placement(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "perf":
        return _cmd_perf(args)
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
