"""Scenario files: parsing, metadata, sweep axes — and example rot guard."""

import glob
import os

import pytest

from repro.errors import ConfigError
from repro.scenario.serialize import (
    load_scenario_file,
    parse_scenario_file,
    save_scenario_file,
)
from repro.scenario.spec import ScenarioSpec

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SCENARIO_DIR = os.path.join(REPO_ROOT, "examples", "scenarios")


class TestParsing:
    def test_minimal_toml(self):
        bundle = parse_scenario_file('workload = "uniform"\n', fmt="toml")
        assert bundle.base.workload == "uniform"
        assert not bundle.is_sweep
        assert bundle.scenarios() == [bundle.base]

    def test_metadata_and_axes(self):
        text = """
name = "demo"
description = "a demo"
ftl = "ppb"

[device]
speed_ratio = 4.0

[[sweep]]
path = "seed"
values = [1, 2, 3]
"""
        bundle = parse_scenario_file(text, fmt="toml")
        assert bundle.name == "demo"
        assert bundle.is_sweep
        specs = bundle.scenarios()
        assert [s.seed for s in specs] == [1, 2, 3]
        assert all(s.ftl == "ppb" and s.device.speed_ratio == 4.0 for s in specs)

    def test_json_scenarios_parse_too(self):
        text = '{"workload": "uniform", "sweep": [{"path": "seed", "values": [1, 2]}]}'
        bundle = parse_scenario_file(text, fmt="json")
        assert len(bundle.scenarios()) == 2

    def test_bad_axis_path_fails_at_load(self):
        text = '[[sweep]]\npath = "device.speed_ration"\nvalues = [2.0]\n'
        with pytest.raises(ConfigError, match="speed_ration"):
            parse_scenario_file(text, fmt="toml")

    def test_axis_needs_path_and_values(self):
        with pytest.raises(ConfigError, match="values"):
            parse_scenario_file('[[sweep]]\npath = "seed"\n', fmt="toml")
        with pytest.raises(ConfigError, match="path"):
            parse_scenario_file("[[sweep]]\nvalues = [1]\n", fmt="toml")
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario_file(
                '[[sweep]]\npath = "seed"\nvalues = [1]\nstep = 2\n', fmt="toml"
            )

    def test_unknown_spec_field_in_file_is_fatal(self):
        with pytest.raises(ConfigError, match="worklod"):
            parse_scenario_file('worklod = "web-sql"\n', fmt="toml")

    def test_invalid_toml_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            parse_scenario_file("= broken", fmt="toml")


class TestFileIo:
    def test_save_and_load_roundtrip(self, tmp_path):
        spec = ScenarioSpec(seed=7, ftl="fast")
        for name in ("spec.toml", "spec.json"):
            path = str(tmp_path / name)
            save_scenario_file(spec, path)
            assert load_scenario_file(path).base == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="suffix"):
            load_scenario_file(str(tmp_path / "spec.yaml"))

    def test_missing_file_reports_cleanly(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario_file("/nonexistent/spec.toml")


class TestCommittedExamples:
    """Every committed example scenario must load and expand (rot guard;
    CI's scenario-smoke job additionally *runs* them)."""

    def _example_files(self):
        return sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.toml")))

    def test_examples_exist(self):
        names = [os.path.basename(p) for p in self._example_files()]
        assert "retention_abtest.toml" in names
        assert "queueing_saturation.toml" in names

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.toml"))),
        ids=os.path.basename,
    )
    def test_example_loads_and_expands(self, path):
        bundle = load_scenario_file(path)
        assert bundle.name, f"{path} should carry a name"
        specs = bundle.scenarios()
        assert specs, f"{path} expands to no scenarios"
        for spec in specs:
            assert isinstance(spec, ScenarioSpec)

    def test_retention_abtest_is_the_two_phase_harness(self):
        """The ROADMAP scenario: an A/B axis over the re-read shelf age."""
        bundle = load_scenario_file(
            os.path.join(SCENARIO_DIR, "retention_abtest.toml")
        )
        paths = [axis.path for axis in bundle.axes]
        assert "reread_age_s" in paths
        ages = dict(zip(paths, bundle.axes))["reread_age_s"].values
        assert 0.0 in ages and max(ages) > 0.0  # a control arm and aged arms
        assert bundle.base.reliability is not None
        # the expansion produces runnable two-phase specs
        aged = [s for s in bundle.scenarios() if s.reread_age_s > 0]
        assert aged and all(s.reliability is not None for s in aged)

    def test_queueing_saturation_is_the_channel_parallel_sweep(self):
        """The PR 5 headline scenario: timed mode on a multi-chip
        device, swept over FTL x speed ratio x arrival intensity."""
        bundle = load_scenario_file(
            os.path.join(SCENARIO_DIR, "queueing_saturation.toml")
        )
        base = bundle.base
        assert base.mode == "timed"
        assert base.device.num_chips > 1
        assert base.device.num_channels > 1
        paths = [axis.path for axis in bundle.axes]
        assert "ftl" in paths and "arrival.scale" in paths
        scales = dict(zip(paths, bundle.axes))["arrival.scale"].values
        assert all(s > 0 for s in scales) and max(scales) > 1.0
        # The base spec round-trips losslessly through TOML (it is the
        # memo cache key; a lossy trip would fork the cache).
        from repro.scenario.serialize import spec_from_toml, spec_to_toml

        assert spec_from_toml(spec_to_toml(base)) == base

    @pytest.mark.parametrize("value", ["0.0", "-2.5"])
    def test_non_positive_arrival_scale_rejected_with_dotted_path(self, value):
        with pytest.raises(ConfigError, match=r"arrival\.scale"):
            parse_scenario_file(
                f'mode = "timed"\n[arrival]\nscale = {value}\n', fmt="toml"
            )

    @pytest.mark.parametrize("key", ["queue_depth", "arrival_scale"])
    def test_top_level_queue_knobs_are_unknown_fields(self, key):
        # The [arrival] section is the only spelling of the queue knobs.
        with pytest.raises(ConfigError, match=f"unknown scenario field '{key}'"):
            parse_scenario_file(f'mode = "timed"\n{key} = 4\n', fmt="toml")
