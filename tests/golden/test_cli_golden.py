"""Golden CLI output: the reliability and placement sweep files, the
two timed saturation files, the DFTL cache sweep, and the dotted-path
listing.

The ``cli_*_smoke.txt`` files under ``tests/golden/data/`` pin what
``repro scenario run`` prints for ``reliability_sweep.toml`` and
``placement_frontier.toml`` at smoke size, narrowed to one speed ratio:
every simulated number and the memo's hit/miss line.  Their measured
numbers (read latencies, retries, erases, refreshed blocks, fast-page
reads, diverts) are the ones the sweeps have printed since before the
scenario engine existed.

The ``cli_qd_smoke.txt`` and ``cli_queueing_smoke.txt`` files pin the
timed mode's event calendar end to end: ``qd_saturation.toml`` (closed
loop, QD 1/16/64, on 1- and 4-plane devices) and
``queueing_saturation.toml`` (open loop through 64 host-queue slots, at
native and 16x load, per FTL), both narrowed to about a second.  Every
percentile column moves if one calendar entry runs out of order.

The ``cli_dftl_smoke.txt`` file pins the demand-paged mapping FTL's
translation traffic on the multi-chip timed path: ``dftl_cache.toml``
replays the same workload at cache ratios 0.02, 0.1 and 1 through the
4-chip timed overlay, so its hit-rate and translation-read columns move
if one mapping-cache step changes.

The ``cli_paths_*.txt`` files pin ``repro scenario paths``: every
sweepable dotted path with its type and default, for the stock spec
and for ``multi_tenant.toml`` (the one committed file with tenants and
preconditioning phases).

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
    PYTHONPATH=src python -m repro scenario run \\
        examples/scenarios/qd_saturation.toml --smoke \\
        --set device.planes_per_chip=1,4 --set arrival.queue_depth=1,16,64 \\
        > tests/golden/data/cli_qd_smoke.txt
    PYTHONPATH=src python -m repro scenario run \\
        examples/scenarios/queueing_saturation.toml --smoke \\
        --set device.speed_ratio=2 --set arrival.scale=1,16 \\
        --set arrival.queue_depth=64 \\
        > tests/golden/data/cli_queueing_smoke.txt
    PYTHONPATH=src python -m repro scenario run \\
        examples/scenarios/dftl_cache.toml --smoke \\
        --set device.speed_ratio=2 \\
        > tests/golden/data/cli_dftl_smoke.txt
    PYTHONPATH=src python -m repro scenario paths \\
        > tests/golden/data/cli_paths_default.txt
    PYTHONPATH=src python -m repro scenario paths \\
        --spec examples/scenarios/multi_tenant.toml \\
        > tests/golden/data/cli_paths_multi_tenant.txt
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
    "cli_qd_smoke.txt": [
        "scenario", "run",
        os.path.join(SCENARIO_DIR, "qd_saturation.toml"),
        "--smoke",
        "--set", "device.planes_per_chip=1,4",
        "--set", "arrival.queue_depth=1,16,64",
    ],
    "cli_queueing_smoke.txt": [
        "scenario", "run",
        os.path.join(SCENARIO_DIR, "queueing_saturation.toml"),
        "--smoke",
        "--set", "device.speed_ratio=2",
        "--set", "arrival.scale=1,16",
        "--set", "arrival.queue_depth=64",
    ],
    "cli_dftl_smoke.txt": [
        "scenario", "run",
        os.path.join(SCENARIO_DIR, "dftl_cache.toml"),
        "--smoke",
        "--set", "device.speed_ratio=2",
    ],
    "cli_paths_default.txt": ["scenario", "paths"],
    "cli_paths_multi_tenant.txt": [
        "scenario", "paths",
        "--spec", os.path.join(SCENARIO_DIR, "multi_tenant.toml"),
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
    """Every golden exists and is non-trivial (guards against an empty
    capture silently passing the equality test).  The reliability and
    placement goldens' measured numbers are the ones first captured
    before the scenario engine."""
    for name in CASES:
        path = os.path.join(DATA_DIR, name)
        assert os.path.getsize(path) > 500, f"{name} looks truncated"
