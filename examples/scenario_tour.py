#!/usr/bin/env python3
"""A tour of the declarative scenario API.

One frozen :class:`~repro.scenario.spec.ScenarioSpec` describes an
entire experiment — workload, device geometry, FTL, reliability stack,
phase schedule — and that one object serializes to TOML/JSON, expands
into sweeps by dotted field path, and keys the replay memo.  This tour:

1. builds a spec and runs it;
2. round-trips it through TOML (what `repro scenario run` consumes);
3. sweeps two dotted axes through the shared memoized runner and shows
   that repeated points are served from cache, never replayed;
4. loads the committed retention A/B scenario file and prints the grid
   it would expand to.

Run:  python examples/scenario_tour.py      (~20 s, smoke-sized)
"""

from repro.nand.spec import sim_spec
from repro.scenario import (
    ScenarioSpec,
    SweepAxis,
    load_scenario_file,
    run_scenario,
    spec_from_toml,
    spec_to_toml,
    sweep,
)
from repro.scenario.memo import ReplayRunner
from repro.scenario.report import summarize_result, sweep_table

#: smoke-sized base every step reuses (64 blocks, 1200 requests).
BASE = ScenarioSpec(
    workload="web-sql",
    num_requests=1_200,
    device=sim_spec(blocks_per_chip=64, speed_ratio=2.0),
    ftl="ppb",
)


def one_run() -> None:
    print("=== 1. one spec, one run " + "=" * 40)
    result = run_scenario(BASE)
    print(summarize_result(BASE, result))
    print()


def toml_round_trip() -> None:
    print("=== 2. the same spec as a TOML file " + "=" * 29)
    text = spec_to_toml(BASE)
    print(text)
    assert spec_from_toml(text) == BASE  # lossless: files cannot drift
    print("(parsed back: identical spec, identical cache key)")
    print()


def dotted_sweep() -> None:
    print("=== 3. dotted-path sweep through the memo " + "=" * 23)
    axes = [
        SweepAxis("device.speed_ratio", (2.0, 4.0)),
        SweepAxis("ftl", ("conventional", "ppb")),
    ]
    specs = sweep(BASE, axes)
    with ReplayRunner() as runner:
        results = runner.run_many(specs)
        # ask for the whole grid again: every point is a memo hit
        runner.run_many(specs)
        print(sweep_table(specs, results, axes, memo=runner.stats,
                          title="speed ratio x FTL (smoke scale)"))
        assert runner.stats.hits >= len(specs)
    print()


def committed_scenario_file() -> None:
    print("=== 4. the committed retention A/B scenario " + "=" * 21)
    bundle = load_scenario_file("examples/scenarios/retention_abtest.toml")
    print(f"{bundle.name}: {bundle.description}")
    for axis in bundle.axes:
        print(f"  axis {axis.path} = {list(axis.values)}")
    grid = bundle.scenarios()
    print(f"expands to {len(grid)} scenarios, e.g.:")
    for spec in grid[:3]:
        print(f"  - {spec.describe()}")
    print("(run it: python -m repro scenario run "
          "examples/scenarios/retention_abtest.toml --smoke)")


if __name__ == "__main__":
    one_run()
    toml_round_trip()
    dotted_sweep()
    committed_scenario_file()
