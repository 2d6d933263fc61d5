"""Golden CLI output: the reliability and placement sweep files.

The files under ``tests/golden/data/`` pin what ``repro scenario run``
prints for ``reliability_sweep.toml`` and ``placement_frontier.toml``
at smoke size, narrowed to one speed ratio: every simulated number and
the memo's hit/miss line.  Their measured numbers (read latencies,
retries, erases, refreshed blocks, fast-page reads, diverts) are the
ones the sweeps have printed since before the scenario engine existed.

Regenerate only when a change is *meant* to alter results::

    PYTHONPATH=src python -m repro scenario run \\
        examples/scenarios/reliability_sweep.toml --smoke \\
        --set device.speed_ratio=2 --set retention_age_s=0,2592000 \\
        > tests/golden/data/cli_reliability_smoke.txt
    PYTHONPATH=src python -m repro scenario run \\
        examples/scenarios/placement_frontier.toml --smoke \\
        --set device.speed_ratio=2 --set workload_kwargs.zipf_theta=0.5,0.95 \\
        --set ppb.reliability_weight=0,8 \\
        > tests/golden/data/cli_placement_smoke.txt
"""

import os

import pytest

from repro.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scenarios")

CASES = {
    "cli_reliability_smoke.txt": [
        "scenario", "run",
        os.path.join(SCENARIO_DIR, "reliability_sweep.toml"),
        "--smoke",
        "--set", "device.speed_ratio=2",
        "--set", "retention_age_s=0,2592000",
    ],
    "cli_placement_smoke.txt": [
        "scenario", "run",
        os.path.join(SCENARIO_DIR, "placement_frontier.toml"),
        "--smoke",
        "--set", "device.speed_ratio=2",
        "--set", "workload_kwargs.zipf_theta=0.5,0.95",
        "--set", "ppb.reliability_weight=0,8",
    ],
}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_cli_output_is_byte_identical(golden_name, capsys):
    with open(os.path.join(DATA_DIR, golden_name), encoding="utf-8") as handle:
        expected = handle.read()
    assert main(CASES[golden_name]) == 0
    actual = capsys.readouterr().out
    assert actual == expected, f"{golden_name}: CLI output drifted from golden"


def test_goldens_predate_the_scenario_engine():
    """Both goldens exist and are non-trivial (guards against an empty
    capture silently passing the equality test).  Their measured
    numbers are the ones first captured before the scenario engine."""
    for name in CASES:
        path = os.path.join(DATA_DIR, name)
        assert os.path.getsize(path) > 500, f"{name} looks truncated"
