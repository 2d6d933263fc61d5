"""Property tests of the plane-granular timed overlay across topologies.

The golden runs pin a handful of fixed topologies; these draw the chip,
channel and plane counts and the arrival discipline, and check what
must hold for every one of them: each request completes exactly once,
utilizations stay within capacity, the overlay never changes the FTL's
work, and a replay is deterministic.  A drawn geometry too small for
its append points must be rejected when the spec is built.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.run import build_trace, execute_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec

_ARRIVALS = st.one_of(
    st.builds(
        ArrivalSpec,
        scale=st.sampled_from([1.0, 8.0]),
        queue_depth=st.sampled_from([0, 4]),
    ),
    st.builds(
        ArrivalSpec,
        mode=st.just("closed"),
        queue_depth=st.sampled_from([1, 4, 16]),
    ),
)


@st.composite
def _timed_spec_kwargs(draw):
    device = sim_spec(
        blocks_per_chip=draw(st.sampled_from([16, 32])),
        num_chips=draw(st.sampled_from([2, 4])),
        num_channels=draw(st.sampled_from([1, 2])),
        planes_per_chip=draw(st.sampled_from([1, 2, 4])),
    )
    return dict(
        workload="web-sql",
        num_requests=draw(st.integers(min_value=100, max_value=300)),
        seed=draw(st.integers(min_value=0, max_value=3)),
        device=device,
        mode="timed",
        arrival=draw(_ARRIVALS),
    )


def _replay(spec):
    return execute_scenario(spec, build_trace(spec))


@settings(max_examples=25, deadline=None)
@given(kwargs=_timed_spec_kwargs())
def test_overlay_invariants_hold_on_every_topology(kwargs):
    try:
        spec = ScenarioSpec(**kwargs)
    except ConfigError as exc:
        assert str(exc).startswith(("device.planes_per_chip: ", "device.op_ratio: "))
        return
    timed = _replay(spec)

    # Every request completes exactly once, in exactly one class.
    assert timed.num_requests == spec.num_requests
    assert len(timed.response_times_us) == spec.num_requests
    per_class = (
        timed.read_response_times_us,
        timed.write_response_times_us,
        timed.trim_response_times_us,
    )
    assert sum(len(times) for times in per_class) == spec.num_requests
    assert min(timed.response_times_us) >= 0.0

    # No resource is busier than its capacity.
    for key, value in timed.extra.items():
        if key.startswith("timed.") and "_util_" in key:
            assert 0.0 <= value <= 1.0 + 1e-12, key

    # The overlay only times the FTL's work; it never changes it.
    sequential = _replay(dataclasses.replace(spec, mode="sequential", arrival=None))
    assert timed.ftl.stats.snapshot() == sequential.ftl.stats.snapshot()
    assert list(timed.ftl.map.l2p) == list(sequential.ftl.map.l2p)

    # Deterministic: the same spec gives the same ordered responses.
    again = _replay(spec)
    assert again.response_times_us == timed.response_times_us
    assert again.read_response_times_us == timed.read_response_times_us
    assert again.write_response_times_us == timed.write_response_times_us
    assert again.simulated_us == timed.simulated_us
