"""Dotted-path access and cross-product expansion."""

import os
import typing

import pytest

from repro.errors import ConfigError
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.serialize import load_scenario_file
from repro.scenario.spec import PreconditionPhase, ScenarioSpec, TenantSpec
from repro.scenario.sweep import (
    SweepAxis,
    axis_values,
    get_path,
    list_paths,
    parse_scalar,
    parse_set_arg,
    set_paths,
    sweep,
)


class TestGetSetPath:
    def test_top_level_field(self):
        spec = set_paths(ScenarioSpec(), [("seed", 7)])
        assert spec.seed == 7
        assert get_path(spec, "seed") == 7

    def test_nested_device_field(self):
        spec = set_paths(ScenarioSpec(), [("device.speed_ratio", 4)])
        assert spec.device.speed_ratio == 4.0
        assert isinstance(spec.device.speed_ratio, float)  # coerced
        assert get_path(spec, "device.speed_ratio") == 4.0

    def test_setting_under_absent_section_instantiates_defaults(self):
        spec = ScenarioSpec()
        assert spec.reliability is None
        swept = set_paths(spec, [("reliability.base_rber", 1e-4)])
        assert swept.reliability == ReliabilityConfig(base_rber=1e-4)
        swept = set_paths(spec, [("ppb.reliability_weight", 2.0)])
        assert swept.ppb is not None and swept.ppb.reliability_weight == 2.0

    def test_get_under_absent_section_reads_the_default(self):
        assert get_path(ScenarioSpec(), "reliability.base_rber") == (
            ReliabilityConfig().base_rber
        )

    def test_workload_kwargs_path(self):
        spec = set_paths(ScenarioSpec(), [("workload_kwargs.zipf_theta", 0.95)])
        assert spec.workload_kwargs == (("zipf_theta", 0.95),)
        assert get_path(spec, "workload_kwargs.zipf_theta") == 0.95

    def test_unknown_path_names_the_dotted_field(self):
        with pytest.raises(ConfigError, match=r"device\.speed_ratioo"):
            set_paths(ScenarioSpec(), [("device.speed_ratioo", 2.0)])
        with pytest.raises(ConfigError, match="sede"):
            get_path(ScenarioSpec(), "sede")

    def test_cannot_set_a_whole_section(self):
        with pytest.raises(ConfigError, match="config section"):
            set_paths(ScenarioSpec(), [("device", 2.0)])

    def test_cannot_descend_into_a_scalar(self):
        with pytest.raises(ConfigError, match="cannot descend"):
            set_paths(ScenarioSpec(), [("seed.deeper", 2)])

    def test_set_revalidates_the_spec(self):
        with pytest.raises(ConfigError, match="speed_ratio"):
            set_paths(ScenarioSpec(), [("device.speed_ratio", 0.25)])


class TestSweepExpansion:
    def test_no_axes_is_the_base(self):
        base = ScenarioSpec()
        assert sweep(base, []) == [base]

    def test_cross_product_order_first_axis_outermost(self):
        grid = sweep(
            ScenarioSpec(),
            [
                SweepAxis("device.speed_ratio", (2.0, 4.0)),
                SweepAxis("seed", (1, 2, 3)),
            ],
        )
        assert len(grid) == 6
        assert [s.device.speed_ratio for s in grid] == [2.0] * 3 + [4.0] * 3
        assert [s.seed for s in grid] == [1, 2, 3, 1, 2, 3]

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            sweep(
                ScenarioSpec(),
                [SweepAxis("seed", (1,)), SweepAxis("seed", (2,))],
            )

    def test_axis_values_reads_the_swept_coordinates(self):
        axes = [SweepAxis("device.speed_ratio", (2.0, 4.0))]
        grid = sweep(ScenarioSpec(), axes)
        assert [axis_values(s, axes) for s in grid] == [[2.0], [4.0]]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="at least one value"):
            SweepAxis("seed", ())

    def test_axis_label_is_last_segment(self):
        assert SweepAxis("ppb.reliability_weight", (0.0,)).label == "reliability_weight"


class TestCliParsing:
    def test_parse_scalar_types(self):
        assert parse_scalar("2") == 2 and isinstance(parse_scalar("2"), int)
        assert parse_scalar("2.5") == 2.5
        assert parse_scalar("2.6e6") == 2.6e6
        assert parse_scalar("true") is True
        assert parse_scalar("false") is False
        assert parse_scalar("web-sql") == "web-sql"

    def test_parse_set_arg(self):
        axis = parse_set_arg("reliability.base_rber=1e-4,2e-4")
        assert axis.path == "reliability.base_rber"
        assert axis.values == (1e-4, 2e-4)

    def test_parse_set_arg_single_value(self):
        assert parse_set_arg("ftl=ppb").values == ("ppb",)

    def test_parse_set_arg_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_set_arg("no-equals-sign")
        with pytest.raises(ConfigError):
            parse_set_arg("path=")
        with pytest.raises(ConfigError):
            parse_set_arg("=1,2")


class TestBatchSetPaths:
    """set_paths / sweep validate final specs only (order independence)."""

    def test_set_paths_applies_interdependent_edits_in_any_order(self):
        from repro.scenario.sweep import set_paths

        for order in (
            [("reread_age_s", 86400.0), ("reliability.base_rber", 2e-4)],
            [("reliability.base_rber", 2e-4), ("reread_age_s", 86400.0)],
        ):
            spec = set_paths(ScenarioSpec(), order)
            assert spec.reread_age_s == 86400.0
            assert spec.reliability is not None
        # Selectors resolve against the input spec, so renaming a tenant
        # does not orphan another edit that names it.
        for order in (
            [("tenants.db.name", "x"), ("tenants.db.share", 3.0)],
            [("tenants.db.share", 3.0), ("tenants.db.name", "x")],
        ):
            spec = set_paths(TENANTED, order)
            assert (spec.tenants[0].name, spec.tenants[0].share) == ("x", 3.0)
            assert spec.tenants[1] == TENANTED.tenants[1]

    def test_set_paths_rejects_unknown_paths_before_mutating(self):
        from repro.scenario.sweep import set_paths

        with pytest.raises(ConfigError, match="speed_ratioo"):
            set_paths(ScenarioSpec(), [("device.speed_ratioo", 2.0)])

    def test_sweep_axis_order_does_not_matter_for_joint_validity(self):
        """A reread axis listed before the reliability axis that permits
        it must still expand (only final grid points validate)."""
        reread = SweepAxis("reread_age_s", (0.0, 86400.0))
        rber = SweepAxis("reliability.base_rber", (1e-4, 2e-4))
        for axes in ([reread, rber], [rber, reread]):
            grid = sweep(ScenarioSpec(), axes)
            assert len(grid) == 4
            assert all(s.reliability is not None for s in grid)

    def test_sweep_still_rejects_invalid_final_points(self):
        with pytest.raises(ConfigError, match="reread_age_s requires"):
            sweep(ScenarioSpec(), [SweepAxis("reread_age_s", (0.0, 86400.0))])


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scenarios")

#: two-tenant base for the list-path tests.
TENANTED = ScenarioSpec(
    tenants=(
        TenantSpec(name="db", workload="web-sql", num_requests=900),
        TenantSpec(name="logger", workload="uniform", num_requests=600, share=0.5),
    ),
    precondition=(PreconditionPhase(workload="uniform", num_requests=1000),),
)


class TestTenantPaths:
    def test_get_by_index_and_by_name(self):
        assert get_path(TENANTED, "tenants.0.num_requests") == 900
        assert get_path(TENANTED, "tenants.logger.share") == 0.5
        assert get_path(TENANTED, "precondition.0.num_requests") == 1000

    def test_set_by_name_rebuilds_the_tuple(self):
        swept = set_paths(TENANTED, [("tenants.logger.share", 2.0)])
        assert swept.tenants[1].share == 2.0
        assert swept.tenants[0] == TENANTED.tenants[0]  # untouched
        assert TENANTED.tenants[1].share == 0.5  # original intact

    def test_set_by_index(self):
        swept = set_paths(TENANTED, [("tenants.0.num_requests", 50)])
        assert swept.tenants[0].num_requests == 50

    def test_tenant_kwargs_path(self):
        swept = set_paths(TENANTED, [("tenants.logger.workload_kwargs.read_fraction", 0.2)])
        assert dict(swept.tenants[1].workload_kwargs) == {"read_fraction": 0.2}
        assert get_path(swept, "tenants.logger.workload_kwargs.read_fraction") == 0.2

    def test_sweep_over_a_tenant_axis(self):
        grid = sweep(
            TENANTED, [SweepAxis("tenants.logger.num_requests", (100, 200, 300))]
        )
        assert [s.tenants[1].num_requests for s in grid] == [100, 200, 300]
        # the device and the other tenant are shared across points
        assert all(s.tenants[0] == TENANTED.tenants[0] for s in grid)

    def test_unknown_tenant_name_lists_the_choices(self):
        with pytest.raises(ConfigError, match="db.*logger|logger.*db"):
            get_path(TENANTED, "tenants.nope.share")

    def test_index_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            get_path(TENANTED, "tenants.5.share")

    def test_cannot_set_a_whole_tenant(self):
        with pytest.raises(ConfigError, match="config section"):
            set_paths(TENANTED, [("tenants.0", 2.0)])

    def test_unknown_tenant_field_names_the_path(self):
        with pytest.raises(ConfigError, match="shar"):
            set_paths(TENANTED, [("tenants.db.shar", 2.0)])

    def test_set_revalidates_tenant_invariants(self):
        with pytest.raises(ConfigError, match="share"):
            set_paths(TENANTED, [("tenants.db.share", -1.0)])


class TestListPaths:
    def test_plain_spec_covers_the_flat_fields(self):
        rows = list_paths(ScenarioSpec())
        paths = [path for path, _, _ in rows]
        assert "seed" in paths
        assert "device.speed_ratio" in paths
        assert "reliability.base_rber" in paths  # absent section: defaults
        # placeholders mark the open-ended families
        assert any(p.startswith("workload_kwargs.") for p in paths)
        assert any(p.startswith("tenants.") for p in paths)

    def test_tenanted_spec_enumerates_per_tenant_paths(self):
        rows = list_paths(TENANTED)
        paths = [path for path, _, _ in rows]
        assert "tenants.db.num_requests" in paths
        assert "tenants.logger.share" in paths
        assert "precondition.0.num_requests" in paths

    def test_every_concrete_path_round_trips_through_get(self):
        """Every listed path reads, and writing the read value back is
        the identity — except that a path under an absent optional
        section attaches that section with its defaults."""
        bases = {"TENANTED": TENANTED, "ScenarioSpec()": ScenarioSpec()}
        for name in sorted(os.listdir(SCENARIO_DIR)):
            if name.endswith(".toml"):
                bases[name] = load_scenario_file(os.path.join(SCENARIO_DIR, name)).base
        assert len(bases) > 2
        failures = []
        for label, base in bases.items():
            for path, _, _ in list_paths(base):
                if "<" in path:
                    continue  # placeholder rows are documentation, not paths
                section = path.split(".", 1)[0]
                expected = base
                if "." in path and getattr(base, section) is None:
                    hint = typing.get_type_hints(ScenarioSpec)[section]
                    defaults = next(a for a in typing.get_args(hint) if a is not type(None))
                    expected = base.with_(**{section: defaults()})
                if set_paths(base, [(path, get_path(base, path))]) != expected:
                    failures.append(f"{label}: {path}")
        assert failures == []

    def test_rows_carry_type_and_default(self):
        rows = {path: (kind, default) for path, kind, default in list_paths(TENANTED)}
        kind, default = rows["tenants.logger.share"]
        assert "float" in kind
        assert "0.5" in str(default)


class TestArrivalAxis:
    """The [arrival] section is sweepable and auto-attached."""

    def test_set_path_auto_attaches_the_section(self):
        spec = set_paths(ScenarioSpec(mode="timed"), [("arrival.queue_depth", 16)])
        assert spec.arrival is not None
        assert spec.arrival.queue_depth == 16
        assert get_path(spec, "arrival.queue_depth") == 16

    def test_qd_sweep_expands(self):
        base = ScenarioSpec(mode="timed")
        axis = SweepAxis("arrival.queue_depth", (1, 4, 16, 64))
        specs = sweep(base, [axis])
        assert [s.effective_arrival.queue_depth for s in specs] == [1, 4, 16, 64]
        assert axis_values(specs[2], [axis]) == [16]

    def test_closed_mode_sweepable(self):
        base = ScenarioSpec(
            mode="timed",
        )
        specs = sweep(
            base,
            [
                SweepAxis("arrival.mode", ("closed",)),
                SweepAxis("arrival.queue_depth", (8, 32)),
            ],
        )
        assert all(s.effective_arrival.is_closed for s in specs)

    def test_bad_arrival_path_names_itself(self):
        with pytest.raises(ConfigError, match=r"arrival\.queue_dpeth"):
            set_paths(ScenarioSpec(mode="timed"), [("arrival.queue_dpeth", 4)])

    def test_list_paths_documents_the_section(self):
        paths = [path for path, _, _ in list_paths(ScenarioSpec())]
        assert "arrival.mode" in paths
        assert "arrival.queue_depth" in paths
        assert "arrival.scale" in paths
