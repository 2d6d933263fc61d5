"""Property tests: ScenarioSpec -> dict/JSON/TOML -> ScenarioSpec is identity.

These pin the tentpole contract of the declarative layer: a spec is a
value that survives serialization *exactly* (it is the memoization cache
key — a lossy round trip would silently fork the cache), and malformed
input dies with a :class:`ConfigError` naming the bad dotted path.
"""

import json

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.nand.spec import NandSpec
from repro.reliability.faults import FAULT_TARGETS, FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.serialize import (
    parse_scenario_file,
    spec_from_dict,
    spec_from_toml,
    spec_to_dict,
    spec_to_toml,
)
from repro.scenario.spec import PreconditionPhase, ScenarioSpec, TenantSpec
from repro.sim.arrival import ArrivalSpec
from repro.traces.workloads import MIN_FOOTPRINT_BYTES


def json_roundtrip(spec):
    """The spec back from JSON text of its dict form, as a file loads it."""
    return parse_scenario_file(json.dumps(spec_to_dict(spec)), fmt="json").base


# -- strategies --------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)

#: mixed-type workload kwargs: the widened int/float/str/bool contract.
kwarg_values = st.one_of(
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    st.sampled_from(["write:seq | mixed:zipf", "read:snake", "w:seq,t:rand"]),
    st.booleans(),
)


def kwargses() -> st.SearchStrategy[dict]:
    return st.dictionaries(
        st.sampled_from(["zipf_theta", "read_fraction", "phases", "flag"]),
        kwarg_values,
        max_size=2,
    )


def _with_tenants(spec: ScenarioSpec) -> st.SearchStrategy[ScenarioSpec]:
    # Every tenant partition must clear the workload floor, so tenant
    # lists are conditioned on how many floors the footprint holds
    # (1 MiB of slack per floor covers the 4 KiB partition rounding).
    room = spec.footprint_bytes / (MIN_FOOTPRINT_BYTES + 2**20)
    if room < 1:
        return st.just(spec)
    # a second tenant (share 1.0) fits when a's share s keeps both
    # slices above one floor: 1 / (room - 1) <= s <= room - 1.
    low, high = 0.1, 8.0
    if room >= 2:
        low, high = max(low, 1 / (room - 1)), min(high, room - 1)
    tenant = st.builds(
        TenantSpec,
        name=st.just("a"),
        workload=st.sampled_from(["web-sql", "uniform"]),
        num_requests=st.integers(min_value=1, max_value=10_000),
        workload_kwargs=st.dictionaries(
            st.sampled_from(["zipf_theta", "read_fraction"]),
            st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
            max_size=1,
        ),
        seed=st.integers(min_value=-1, max_value=100),
        share=st.floats(min_value=low, max_value=high, allow_nan=False),
    )
    options = [st.just(spec), st.tuples(tenant).map(lambda t: spec.with_(tenants=t))]
    if room >= 2:
        second = st.builds(
            TenantSpec,
            name=st.just("b"),
            workload=st.sampled_from(["media-server", "uniform"]),
            num_requests=st.integers(min_value=1, max_value=10_000),
        )
        options.append(
            st.tuples(tenant, second).map(lambda t: spec.with_(tenants=t))
        )
    return st.one_of(*options)


def precondition_lists() -> st.SearchStrategy[tuple]:
    phase = st.builds(
        PreconditionPhase,
        workload=st.sampled_from(["uniform", "web-sql"]),
        num_requests=st.integers(min_value=1, max_value=50_000),
        seed=st.integers(min_value=-1, max_value=100),
    )
    return st.one_of(st.just(()), st.tuples(phase), st.tuples(phase, phase))


def devices() -> st.SearchStrategy[NandSpec]:
    return st.builds(
        NandSpec,
        page_size=st.sampled_from([8 * 1024, 16 * 1024]),
        blocks_per_chip=st.integers(min_value=48, max_value=512),
        num_chips=st.sampled_from([1, 2, 4]),
        speed_ratio=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
        latency_profile=st.sampled_from(["linear", "geometric", "physical"]),
        op_ratio=st.floats(min_value=0.05, max_value=0.2, allow_nan=False),
    )


def ppbs() -> st.SearchStrategy[PPBConfig]:
    return st.builds(
        PPBConfig,
        vb_split=st.integers(min_value=2, max_value=4),
        identifier=st.sampled_from(["size_check", "two_level_lru", "multi_hash"]),
        reliability_weight=st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        gc_migration_batch=st.integers(min_value=0, max_value=64),
    )


def reliabilities() -> st.SearchStrategy[ReliabilityConfig]:
    return st.builds(
        ReliabilityConfig,
        base_rber=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
        variation_profile=st.sampled_from(["tapered", "uniform"]),
        disturb_coeff=st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        max_retries=st.integers(min_value=1, max_value=12),
    )


def faultspecs(enabled: bool) -> st.SearchStrategy[FaultSpec]:
    rate = (
        st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)
        if enabled
        else st.just(0.0)
    )
    return st.builds(
        FaultSpec,
        rate=rate,
        burst=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        target=st.sampled_from(FAULT_TARGETS),
    )


def _with_faults(spec: ScenarioSpec) -> st.SearchStrategy[ScenarioSpec]:
    # rate > 0 requires the reliability stack, so the fault strategy is
    # conditioned on the spec it lands on.
    return st.one_of(
        st.just(spec),
        faultspecs(spec.reliability is not None).map(
            lambda faults: spec.with_(faults=faults)
        ),
    )


def open_arrivals() -> st.SearchStrategy[ArrivalSpec]:
    return st.builds(
        ArrivalSpec,
        queue_depth=st.integers(min_value=0, max_value=256),
        scale=st.floats(min_value=0.1, max_value=64.0, allow_nan=False),
    )


def _with_arrival(spec: ScenarioSpec) -> st.SearchStrategy[ScenarioSpec]:
    # closed mode is only legal on timed specs, so the arrival strategy
    # is conditioned on the spec it lands on.
    options = [
        st.just(spec),
        open_arrivals().map(lambda a: spec.with_(arrival=a)),
    ]
    if spec.mode == "timed":
        options.append(
            st.integers(min_value=1, max_value=128).map(
                lambda qd: spec.with_(
                    arrival=ArrivalSpec(mode="closed", queue_depth=qd)
                )
            )
        )
    return st.one_of(*options)


def scenarios() -> st.SearchStrategy[ScenarioSpec]:
    return (
        _scenario_bases()
        .flatmap(_with_tenants)
        .flatmap(_with_faults)
        .flatmap(_with_arrival)
    )


def _spec_or_reject(**fields) -> ScenarioSpec:
    """The spec, or a rejected draw when its device could starve the
    FTL's GC (specs refuse those when built)."""
    try:
        return ScenarioSpec(**fields)
    except ConfigError as exc:
        if not str(exc).startswith(("device.planes_per_chip: ", "device.op_ratio: ")):
            raise
        reject()


def _scenario_bases() -> st.SearchStrategy[ScenarioSpec]:
    reliability = st.one_of(st.none(), reliabilities())
    return st.builds(
        _spec_or_reject,
        workload=st.sampled_from(["web-sql", "media-server", "uniform"]),
        num_requests=st.integers(min_value=1, max_value=200_000),
        workload_kwargs=kwargses(),
        precondition=precondition_lists(),
        footprint_fraction=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
        device=devices(),
        ftl=st.sampled_from(["conventional", "fast", "ppb"]),
        ppb=st.one_of(st.none(), ppbs()),
        reliability=reliability,
        refresh=st.booleans(),
        warm_fill_fraction=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
        retention_age_s=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        mode=st.sampled_from(["sequential", "timed"]),
    )


# -- identity properties -----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(spec=scenarios())
def test_dict_roundtrip_is_identity(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
def test_json_roundtrip_is_identity(spec):
    assert json_roundtrip(spec) == spec


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
def test_toml_roundtrip_is_identity(spec):
    assert spec_from_toml(spec_to_toml(spec)) == spec


def test_reread_age_survives_roundtrip():
    spec = ScenarioSpec(reread_age_s=2.6e6, reliability=ReliabilityConfig())
    assert spec_from_toml(spec_to_toml(spec)) == spec


def test_fault_and_qos_knobs_survive_roundtrip():
    spec = ScenarioSpec(
        reliability=ReliabilityConfig(
            state_skew=2.0,
            randomizer=0.5,
            refresh_triage="holds",
            gc_risk_weight=4.0,
        ),
        faults=FaultSpec(rate=0.01, burst=4, seed=7, target="mixed"),
    )
    assert spec_from_toml(spec_to_toml(spec)) == spec
    assert json_roundtrip(spec) == spec


def test_channel_topology_and_queueing_knobs_survive_roundtrip():
    spec = ScenarioSpec(
        device=NandSpec(num_chips=4, num_channels=2),
        mode="timed",
        arrival=ArrivalSpec(queue_depth=64, scale=16.0),
    )
    assert spec_from_toml(spec_to_toml(spec)) == spec
    assert json_roundtrip(spec) == spec


def test_closed_loop_and_planes_survive_roundtrip():
    spec = ScenarioSpec(
        device=NandSpec(num_chips=4, num_channels=2, planes_per_chip=4),
        mode="timed",
        arrival=ArrivalSpec(mode="closed", queue_depth=32),
    )
    assert spec_from_toml(spec_to_toml(spec)) == spec
    assert json_roundtrip(spec) == spec


def test_queueing_knobs_serialize_in_the_arrival_section():
    """The queue knobs have one spelling, the [arrival] section: that is
    where they serialize, and a top-level spelling does not parse."""
    spec = ScenarioSpec(mode="timed", arrival=ArrivalSpec(queue_depth=64, scale=16.0))
    as_dict = spec_to_dict(spec)
    assert as_dict["arrival"]["queue_depth"] == 64
    assert as_dict["arrival"]["scale"] == 16.0
    assert "queue_depth" not in as_dict and "arrival_scale" not in as_dict
    with pytest.raises(ConfigError, match="unknown scenario field 'queue_depth'"):
        spec_from_dict({"mode": "timed", "queue_depth": 64})


# -- error reporting ---------------------------------------------------

class TestBadInput:
    def test_unknown_top_level_key_names_itself(self):
        with pytest.raises(ConfigError, match="unknown scenario field 'worklod'"):
            spec_from_dict({"worklod": "web-sql"})

    def test_unknown_nested_key_names_the_dotted_path(self):
        with pytest.raises(ConfigError, match=r"reliability\.base_rberr"):
            spec_from_dict({"reliability": {"base_rberr": 1e-4}})
        with pytest.raises(ConfigError, match=r"device\.speed_ration"):
            spec_from_dict({"device": {"speed_ration": 2.0}})
        with pytest.raises(ConfigError, match=r"ppb\.vb_splitt"):
            spec_from_dict({"ppb": {"vb_splitt": 2}})
        with pytest.raises(ConfigError, match=r"faults\.ratee"):
            spec_from_dict({"faults": {"ratee": 0.5}})

    def test_type_errors_name_the_path(self):
        with pytest.raises(ConfigError, match="num_requests"):
            spec_from_dict({"num_requests": "many"})
        with pytest.raises(ConfigError, match=r"device\.speed_ratio"):
            spec_from_dict({"device": {"speed_ratio": "fast"}})
        with pytest.raises(ConfigError, match="refresh"):
            spec_from_dict({"refresh": "yes"})

    def test_int_widens_to_float_fields(self):
        spec = spec_from_dict({"device": {"speed_ratio": 4}})
        assert spec.device.speed_ratio == 4.0
        assert isinstance(spec.device.speed_ratio, float)

    def test_bool_does_not_pass_as_number(self):
        with pytest.raises(ConfigError, match="retention_age_s"):
            spec_from_dict({"retention_age_s": True})

    def test_section_must_be_a_table(self):
        with pytest.raises(ConfigError, match="device"):
            spec_from_dict({"device": "big"})

    def test_invalid_values_still_hit_config_validation(self):
        with pytest.raises(ConfigError, match="speed_ratio"):
            spec_from_dict({"device": {"speed_ratio": 0.5}})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_scenario_file("{not json", fmt="json")

    def test_invalid_toml_text(self):
        with pytest.raises(ConfigError, match="TOML"):
            spec_from_toml("= broken =")

    def test_tenants_must_be_a_list(self):
        with pytest.raises(ConfigError, match="tenants"):
            spec_from_dict({"tenants": "db"})

    def test_tenant_entry_must_be_a_table(self):
        with pytest.raises(ConfigError, match=r"tenants\[0\]"):
            spec_from_dict({"tenants": ["db"]})

    def test_tenant_unknown_key_names_the_indexed_path(self):
        with pytest.raises(ConfigError, match=r"tenants\[1\]\.shar"):
            spec_from_dict(
                {
                    "tenants": [
                        {"name": "a"},
                        {"name": "b", "shar": 2.0},
                    ]
                }
            )

    def test_precondition_unknown_key_names_the_indexed_path(self):
        with pytest.raises(ConfigError, match=r"precondition\[0\]\.workloda"):
            spec_from_dict({"precondition": [{"workloda": "uniform"}]})

    def test_kwarg_value_types_enforced(self):
        with pytest.raises(ConfigError, match="int/float/str/bool"):
            spec_from_dict({"workload_kwargs": {"phases": [1, 2]}})


class TestWidenedKwargs:
    def test_mixed_types_survive_all_three_formats(self):
        spec = ScenarioSpec(
            workload="pattern-suite",
            workload_kwargs={
                "phases": "write:seq | trim:rand*0.5",
                "num_zones": 4,
                "zipf_theta": 0.95,
            },
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert json_roundtrip(spec) == spec
        assert spec_from_toml(spec_to_toml(spec)) == spec
        # types survive exactly: 4 stays int, 0.95 stays float
        back = spec_from_toml(spec_to_toml(spec))
        kwargs = dict(back.workload_kwargs)
        assert kwargs["num_zones"] == 4 and isinstance(kwargs["num_zones"], int)
        assert isinstance(kwargs["zipf_theta"], float)
        assert kwargs["phases"] == "write:seq | trim:rand*0.5"


def test_tenanted_spec_toml_uses_array_of_tables():
    spec = ScenarioSpec(
        tenants=(
            TenantSpec(name="db", workload="web-sql", num_requests=900),
            TenantSpec(
                name="logger",
                workload="uniform",
                num_requests=600,
                workload_kwargs={"read_fraction": 0.05},
                share=0.5,
            ),
        ),
        precondition=(PreconditionPhase(workload="uniform", num_requests=1000),),
    )
    text = spec_to_toml(spec)
    assert "[[tenants]]" in text
    assert "[[precondition]]" in text
    assert spec_from_toml(text) == spec
