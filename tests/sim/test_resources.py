"""Tests for FCFS resources."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource


def _hold(engine, resource, hold, log=None, name=None):
    """Request ``resource``, hold it for ``hold``, release; logs
    ``(name, granted, released)`` when given a log."""

    def granted(_):
        start = engine.now
        engine.timeout(hold, released, start)

    def released(start):
        resource.release()
        if log is not None:
            log.append((name, start, engine.now))

    resource.request(granted)


def _noop(_):
    pass


class TestResource:
    def test_grant_when_free(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        grants = []

        def worker(_):
            grants.append(engine.now)
            resource.release()

        resource.request(worker)
        engine.run()
        assert grants == [0.0]

    def test_serializes_contenders(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        log = []
        _hold(engine, resource, 5.0, log, "a")
        _hold(engine, resource, 3.0, log, "b")
        engine.run()
        assert log == [("a", 0.0, 5.0), ("b", 5.0, 8.0)]

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        log = []
        for name in ("a", "b", "c"):
            _hold(engine, resource, 4.0, log, name)
        engine.run()
        assert [(name, end) for name, _, end in log] == [("a", 4.0), ("b", 4.0), ("c", 8.0)]

    def test_queue_length(self):
        # a zero-length hold still queues behind the holder, then drains
        engine = Engine()
        resource = Resource(engine, capacity=1)
        log = []
        _hold(engine, resource, 10.0, log, "a")
        _hold(engine, resource, 0.0, log, "b")
        engine.run(until=5.0)
        assert log == []
        engine.run()
        assert log == [("a", 0.0, 10.0), ("b", 10.0, 10.0)]

    def test_release_without_request_rejected(self):
        engine = Engine()
        resource = Resource(engine)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)


class TestAccounting:
    def test_busy_integral_and_utilization(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _hold(engine, resource, 4.0)
        engine.timeout(10.0, _noop)  # idle tail
        engine.run()
        assert resource.busy_us == pytest.approx(4.0)
        assert resource.utilization(10.0) == pytest.approx(0.4)

    def test_wait_time_accrues_only_when_queued(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _hold(engine, resource, 5.0)
        _hold(engine, resource, 3.0)
        engine.run()
        assert resource.grants == 2
        assert resource.wait_us == pytest.approx(5.0)  # second waited 5

    def test_handoff_keeps_busy_continuous(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _hold(engine, resource, 5.0)
        _hold(engine, resource, 3.0)
        engine.run()
        # Busy from 0 to 8 without a gap at the handoff instant.
        assert resource.busy_us == pytest.approx(8.0)
        assert resource.utilization(8.0) == pytest.approx(1.0)

    def test_utilization_counts_inflight_holders(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        _hold(engine, resource, 10.0)
        engine.run(until=5.0)
        # One of two units held for the whole window so far.
        assert resource.utilization() == pytest.approx(0.5)

    def test_utilization_zero_before_time_passes(self):
        engine = Engine()
        assert Resource(engine).utilization() == 0.0
