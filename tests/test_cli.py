"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSpec:
    def test_spec_prints_table1(self, capsys):
        assert main(["spec"]) == 0
        out = capsys.readouterr().out
        assert "64.00 GiB" in out
        assert "384" in out


class TestCharacterize:
    def test_synthetic(self, capsys):
        assert main(["characterize", "--workload", "uniform", "--requests", "2000"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out

    def test_msr_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("0,h,0,Read,0,4096,0\n10,h,0,Write,4096,4096,0\n")
        assert main(["characterize", "--msr-csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2" in out


class TestRun:
    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "uniform",
                "--ftl",
                "ppb",
                "--requests",
                "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "erased blocks" in out
        assert "fast-half reads" in out

    def test_run_conventional(self, capsys):
        code = main(
            ["run", "--workload", "uniform", "--ftl", "conventional",
             "--requests", "1000"]
        )
        assert code == 0


class TestFigure:
    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])


#: the committed reliability and placement sweep files.
RELIABILITY_FILE = "examples/scenarios/reliability_sweep.toml"
PLACEMENT_FILE = "examples/scenarios/placement_frontier.toml"


def _run_file(path, *sets):
    """``scenario run PATH --smoke`` at one speed ratio, plus ``--set``s."""
    args = ["scenario", "run", path, "--smoke", "--set", "device.speed_ratio=2"]
    for assignment in sets:
        args += ["--set", assignment]
    return main(args)


class TestReliability:
    def test_sweep_small(self, capsys):
        code = _run_file(RELIABILITY_FILE, "retention_age_s=0,2592000")
        out = capsys.readouterr().out
        assert code == 0, out
        assert "== reliability-sweep ==" in out
        assert "retry us/pg" in out and "refr blk" in out
        assert "4 replays run, 0 served from memo" in out

    def test_bad_float_list_rejected(self, capsys):
        assert _run_file(RELIABILITY_FILE, "retention_age_s=not,numbers") == 2
        assert "retention_age_s" in capsys.readouterr().err

    def test_bad_config_reports_cleanly(self, capsys):
        assert _run_file(RELIABILITY_FILE, "reliability.base_rber=-1") == 2
        err = capsys.readouterr().err
        assert "base_rber" in err

    def test_age_zero_only_sweep_is_valid(self, capsys):
        code = _run_file(RELIABILITY_FILE, "retention_age_s=0")
        out = capsys.readouterr().out
        assert code == 0, out
        assert "2 replays run" in out

    def test_fast_ftl_accepted(self, capsys):
        """FastFTL runs under the reliability stack via the hook protocol."""
        code = _run_file(
            RELIABILITY_FILE, "ftl=fast", "num_requests=1200", "retention_age_s=0,2592000"
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "4 replays run" in out

    def test_sweep_files_replace_the_subcommands(self, capsys):
        for command in ("reliability", "placement"):
            with pytest.raises(SystemExit) as exit_info:
                main([command])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestPlacement:
    def test_sweep_small(self, capsys):
        code = _run_file(
            PLACEMENT_FILE,
            "workload_kwargs.zipf_theta=0.95",
            "ppb.reliability_weight=0,4",
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "== placement-frontier ==" in out
        assert "fast rd" in out and "diverts" in out
        # conventional and fast replay once; their weight-4 rows are memo hits
        assert "4 replays run, 2 served from memo" in out

    def test_bad_config_reports_cleanly(self, capsys):
        assert _run_file(PLACEMENT_FILE, "ppb.reliability_weight=-1,2") == 2
        err = capsys.readouterr().err
        assert "reliability_weight" in err

    def test_unskewable_workload_rejected(self, capsys):
        assert _run_file(PLACEMENT_FILE, "workload=uniform") == 2
        assert "zipf_theta" in capsys.readouterr().err


class TestScenario:
    def _write(self, tmp_path, text, name="scenario.toml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_single_run(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            'name = "demo"\nworkload = "uniform"\nnum_requests = 800\n'
            "[device]\nblocks_per_chip = 64\n",
        )
        assert main(["scenario", "run", path]) == 0
        out = capsys.readouterr().out
        assert "== demo ==" in out
        assert "erased blocks" in out

    def test_sweep_file_prints_axis_columns(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            'workload = "uniform"\nnum_requests = 800\n'
            "[device]\nblocks_per_chip = 64\n"
            '[[sweep]]\npath = "device.speed_ratio"\nvalues = [2.0, 4.0]\n',
        )
        assert main(["scenario", "run", path]) == 0
        out = capsys.readouterr().out
        assert "speed_ratio" in out
        assert "replays run" in out

    def test_set_overrides_and_smoke_clamp(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            'workload = "uniform"\nnum_requests = 50000\n'
            "[device]\nblocks_per_chip = 256\n",
        )
        code = main(
            ["scenario", "run", path, "--smoke", "--set", "seed=7"]
        )
        assert code == 0
        assert "erased blocks" in capsys.readouterr().out

    def test_bad_field_reports_cleanly(self, tmp_path, capsys):
        path = self._write(tmp_path, 'worklod = "web-sql"\n')
        assert main(["scenario", "run", path]) == 2
        assert "worklod" in capsys.readouterr().err

    def test_missing_file_reports_cleanly(self, capsys):
        assert main(["scenario", "run", "/nonexistent.toml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_committed_retention_abtest_runs_at_smoke_scale(self, capsys):
        """The ROADMAP's retention A/B scenario, from the committed file."""
        code = main(
            [
                "scenario", "run",
                "examples/scenarios/retention_abtest.toml",
                "--smoke",
                "--set", "num_requests=800",
                "--set", "device.speed_ratio=2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "reread_age_s" in out
        assert "aged rd (us/pg)" in out

    def test_committed_multi_tenant_runs_at_smoke_scale(self, capsys):
        """The headline multi-tenant sweep, clamped to CI size."""
        code = main(
            [
                "scenario", "run",
                "examples/scenarios/multi_tenant.toml",
                "--smoke",
                "--set", "arrival.scale=4.0",
                "--set", "tenants.logger.workload_kwargs.read_fraction=0.05,0.95",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        # per-tenant percentile columns made it into the sweep table
        assert "db p50" in out and "db p99" in out
        assert "logger p50" in out and "logger p99" in out

    def test_tenant_budgets_clamped_by_smoke(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "[device]\nblocks_per_chip = 64\n"
            '[[tenants]]\nname = "a"\nworkload = "uniform"\nnum_requests = 90000\n'
            '[[tenants]]\nname = "b"\nworkload = "uniform"\nnum_requests = 90000\n',
        )
        assert main(["scenario", "run", path, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "1500 requests" in out  # 2 x 750, not 2 x 90000


class TestScenarioPaths:
    def test_lists_sweepable_paths(self, capsys):
        assert main(["scenario", "paths"]) == 0
        out = capsys.readouterr().out
        for path in ("workload", "device.speed_ratio", "reliability.base_rber"):
            assert path in out
        assert "sweepable paths" in out

    def test_spec_file_adds_tenant_paths(self, capsys):
        code = main(
            [
                "scenario", "paths",
                "--spec", "examples/scenarios/multi_tenant.toml",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tenants.db.num_requests" in out
        assert "tenants.logger.share" in out
        assert "precondition.0.num_requests" in out

    def test_bad_spec_file_reports_cleanly(self, capsys):
        assert main(["scenario", "paths", "--spec", "/nonexistent.toml"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestGenericSweep:
    def test_sweep_from_defaults(self, capsys):
        code = main(
            [
                "sweep",
                "--set", "num_requests=800",
                "--set", "device.blocks_per_chip=64",
                "--set", "workload=uniform",
                "--set", "device.speed_ratio=2,4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "speed_ratio" in out
        assert "replays run" in out

    def test_single_value_sets_are_a_plain_run(self, capsys):
        code = main(
            [
                "sweep",
                "--set", "num_requests=800",
                "--set", "device.blocks_per_chip=64",
                "--set", "workload=uniform",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "erased blocks" in out

    def test_reliability_axis_auto_attaches_the_stack(self, capsys):
        code = main(
            [
                "sweep",
                "--set", "num_requests=800",
                "--set", "device.blocks_per_chip=64",
                "--set", "workload=uniform",
                "--set", "retention_age_s=0,2.6e6",
                "--set", "reliability.base_rber=2e-4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "retries/rd" in out

    def test_bad_path_reports_cleanly(self, capsys):
        assert main(["sweep", "--set", "device.speed_ratioo=2,4"]) == 2
        assert "speed_ratioo" in capsys.readouterr().err


class TestReviewRegressions:
    """Pins for review findings on the scenario CLI plumbing."""

    def test_bad_workload_kwarg_key_is_a_clean_config_error(self, capsys):
        """A misspelled workload_kwargs key must not escape as TypeError."""
        code = main(
            [
                "sweep",
                "--set", "num_requests=800",
                "--set", "device.blocks_per_chip=64",
                "--set", "workload_kwargs.zipf_thet=0.5,0.9",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "zipf_thet" in err

    def test_smoke_clamps_sweep_axes_on_size_knobs(self, tmp_path, capsys):
        """An axis over num_requests must not reapply full scale after --smoke."""
        path = tmp_path / "big.toml"
        path.write_text(
            'workload = "uniform"\n'
            "[device]\nblocks_per_chip = 64\n"
            '[[sweep]]\npath = "num_requests"\nvalues = [40000, 60000]\n'
        )
        code = main(["scenario", "run", str(path), "--smoke"])
        out = capsys.readouterr().out
        assert code == 0, out
        # both axis values collapse to the clamp; the dedup leaves one row
        assert out.count("| 1500") == 1
        assert "40000" not in out and "60000" not in out

    def test_set_args_are_order_independent(self, capsys):
        """An axis needing a section attached by a later --set must work."""
        args = [
            "--set", "num_requests=800",
            "--set", "device.blocks_per_chip=64",
            "--set", "workload=uniform",
            "--set", "reread_age_s=86400,172800",
            "--set", "reliability.base_rber=2e-4",
        ]
        code = main(["sweep"] + args)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "aged rd (us/pg)" in out


class TestBuildTraceKwargGuard:
    def test_build_trace_raises_config_error_for_unknown_kwarg(self):
        from repro.errors import ConfigError
        from repro.nand.spec import sim_spec
        from repro.scenario.run import build_trace
        from repro.scenario.spec import ScenarioSpec

        spec = ScenarioSpec(
            workload="uniform",
            num_requests=100,
            device=sim_spec(blocks_per_chip=64),
            workload_kwargs=(("zipf_thet", 0.5),),
        )
        with pytest.raises(ConfigError, match="zipf_thet"):
            build_trace(spec)

    def test_axis_order_independent_for_joint_validity(self, capsys):
        """reread axis before the reliability axis that permits it."""
        code = main(
            [
                "sweep",
                "--set", "num_requests=300",
                "--set", "device.blocks_per_chip=64",
                "--set", "workload=uniform",
                "--set", "reread_age_s=0,86400",
                "--set", "reliability.base_rber=1e-4,2e-4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out

    def test_smoke_clamp_survives_non_numeric_axis_values(self, capsys):
        """Garbage in a size axis must die as ConfigError, not TypeError."""
        code = main(
            [
                "sweep", "--smoke",
                "--set", "workload=uniform",
                "--set", "device.blocks_per_chip=64",
                "--set", "num_requests=800,99999x",
            ]
        )
        assert code == 2
        assert "num_requests" in capsys.readouterr().err
