"""Declarative scenario layer: one spec to configure, serialize, sweep
and cache every experiment.

:class:`ScenarioSpec` (:mod:`repro.scenario.spec`) is the canonical,
frozen description of a run — workload, device geometry, FTL, PPB and
reliability knobs, and the phase schedule (warm fill, pre-age, replay,
shelf-age + re-read).  It round-trips losslessly through dicts and
JSON/TOML files (:mod:`repro.scenario.serialize`), expands into sweeps
by dotted field path (:mod:`repro.scenario.sweep`), executes through
:mod:`repro.scenario.run`, and serves directly as the memoization cache
key of :class:`~repro.scenario.memo.ReplayRunner`, which runs every
replay of a figure, sweep or CLI call (in a worker pool with
``workers > 1``).

Quick tour::

    from repro.scenario import ScenarioSpec, SweepAxis, run_scenario, sweep

    spec = ScenarioSpec(workload="web-sql", ftl="ppb", num_requests=4000)
    result = run_scenario(spec)

    from repro.scenario import load_scenario_file
    bundle = load_scenario_file("examples/scenarios/retention_abtest.toml")
    specs = bundle.scenarios()          # the file's sweep cross-product
"""

from repro.scenario.memo import run_scenario, run_scenarios
from repro.scenario.serialize import load_scenario_file, spec_from_toml, spec_to_toml
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepAxis, sweep

__all__ = [
    "ScenarioSpec",
    "SweepAxis",
    "load_scenario_file",
    "run_scenario",
    "run_scenarios",
    "spec_from_toml",
    "spec_to_toml",
    "sweep",
]
