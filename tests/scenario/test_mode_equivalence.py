"""Sequential and timed mode do the same FTL work on every shipped scenario.

Timed mode only schedules the requests the FTL serves; it must never
change what the FTL does.  Each committed ``examples/scenarios/*.toml``
base spec, clamped to CI-smoke size the way ``--smoke`` clamps it, runs
in both modes and must end with equal FTL stats and an equal L2P map.
"""

import dataclasses
import glob
import os

import pytest

from repro.cli import _apply_smoke
from repro.scenario.run import build_trace, execute_scenario
from repro.scenario.serialize import load_scenario_file

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scenarios")
SCENARIO_FILES = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.toml")))


def _run(spec):
    return execute_scenario(spec, build_trace(spec))


def test_every_scenario_file_is_covered():
    assert len(SCENARIO_FILES) >= 8


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=os.path.basename)
def test_sequential_and_timed_mode_do_the_same_ftl_work(path):
    bundle = load_scenario_file(path)
    base, _ = _apply_smoke(bundle.base, list(bundle.axes))
    sequential = _run(dataclasses.replace(base, mode="sequential", arrival=None))
    timed = _run(dataclasses.replace(base, mode="timed"))
    assert timed.ftl.stats.snapshot() == sequential.ftl.stats.snapshot()
    assert list(timed.ftl.map.l2p) == list(sequential.ftl.map.l2p)
