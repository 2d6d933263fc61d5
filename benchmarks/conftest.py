"""Shared fixtures for the paper-figure benchmarks.

Each benchmark regenerates one table/figure of the paper at smoke
scale, asserts its shape checks, and prints the paper-style report
(run pytest with ``-s`` to see them).  Results are cached in a shared
replay runner, so figures built from the same simulations (e.g.
Figs. 13 and 16) pay for them once per session.

CI hooks
--------
``REPRO_BENCH_SMOKE=1``
    Shrinks the simulations further (fewer requests on the same block
    count, so the erase-count comparisons stay fair) — the geometry the
    ``bench-smoke`` CI job runs to catch sweep regressions in PRs
    without slowing tier-1.
``REPRO_BENCH_REPORT=<path>``
    Where to write the JSON digest of every report the session produced
    (default ``bench-report.json`` in the working directory); CI
    uploads it as an artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.bench.figures import SMOKE_SCALE
from repro.bench.memo import ReplayRunner
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec

#: The CI-smoke geometry: same block count as SMOKE_SCALE (the Fig. 18
#: erase comparison needs it for fair over-provisioning), fewer
#: requests.  Selected by REPRO_BENCH_SMOKE=1.
CI_SMOKE_SCALE = replace(SMOKE_SCALE, name="ci-smoke", num_requests=28_000)

#: Reports collected by :func:`report_and_check` this session.
_COLLECTED: list[dict] = []


def pytest_collection_modifyitems(items):
    """Tag every figure replay so `-m 'not bench'` can skip them."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def runner() -> ReplayRunner:
    """One shared, memoizing replay runner per benchmark session."""
    return ReplayRunner()


@pytest.fixture(scope="session")
def scale():
    """The benchmark simulation scale."""
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return CI_SMOKE_SCALE
    return SMOKE_SCALE


@pytest.fixture(scope="session")
def ablation_spec(scale) -> ScenarioSpec:
    """The ablations' base point: web-sql at a 4x speed difference."""
    return ScenarioSpec(
        workload="web-sql",
        num_requests=scale.num_requests,
        device=sim_spec(speed_ratio=4.0, blocks_per_chip=scale.blocks_per_chip),
    )


def compare(runner, spec):
    """Replay a conventional-FTL ``spec`` as is and under PPB; returns
    the two FTLs, baseline first."""
    base = runner.run(spec).ftl
    ppb = runner.run(spec.with_(ftl="ppb")).ftl
    return base, ppb


def read_gain(base, ppb) -> float:
    """PPB's relative host-read time saving over the baseline."""
    return (base.stats.host_read_us - ppb.stats.host_read_us) / base.stats.host_read_us


def report_and_check(report, benchmark_output=True):
    """Print a figure report, record it for the JSON digest, assert checks."""
    print()
    print(report.render())
    _COLLECTED.append(
        {
            "figure_id": report.figure_id,
            "title": report.title,
            "headers": list(report.headers),
            "rows": [[_plain(cell) for cell in row] for row in report.rows],
            "checks": [{"name": name, "pass": bool(ok)} for name, ok in report.checks],
        }
    )
    failed = [name for name, ok in report.checks if not ok]
    assert not failed, f"shape checks failed: {failed}"


def _plain(cell):
    """JSON-friendly view of one table cell."""
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


def pytest_sessionfinish(session, exitstatus):
    """Write the JSON digest of every collected report."""
    if not _COLLECTED:
        return
    path = os.environ.get("REPRO_BENCH_REPORT", "bench-report.json")
    payload = {
        "smoke": bool(os.environ.get("REPRO_BENCH_SMOKE")),
        "exit_status": int(exitstatus),
        "reports": _COLLECTED,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
