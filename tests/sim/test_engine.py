"""Tests for the discrete-event simulation kernel."""

import doctest

import pytest

import repro.sim.engine
from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource


def test_module_example_runs():
    failures, tried = doctest.testmod(repro.sim.engine)
    assert tried > 0
    assert failures == 0


def _noop(_):
    pass


class TestTimeouts:
    def test_timeouts_fire_in_order(self):
        engine = Engine()
        log = []

        def worker(name):
            log.append((engine.now, name))

        engine.timeout(5.0, worker, "late")
        engine.timeout(2.0, worker, "early")
        engine.run()
        assert log == [(2.0, "early"), (5.0, "late")]

    def test_zero_delay(self):
        engine = Engine()
        log = []
        engine.timeout(0.0, log.append, "now")
        engine.run()
        assert log == ["now"]
        assert engine.now == 0.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0, _noop)

    def test_sequential_timeouts_accumulate(self):
        engine = Engine()
        times = []

        def tick(remaining):
            times.append(engine.now)
            if remaining > 1:
                engine.timeout(1.5, tick, remaining - 1)

        engine.timeout(1.5, tick, 3)
        engine.run()
        assert times == [1.5, 3.0, 4.5]


class TestEvents:
    def test_manual_event_wakes_waiter(self):
        """A one-count join is a gate someone else opens."""
        engine = Engine()
        log = []
        gate = engine.all_of(1, lambda value: log.append((engine.now, value)), "go")
        engine.timeout(3.0, gate)
        engine.run()
        assert log == [(3.0, "go")]

    def test_join_hook_called_too_often_rejected(self):
        engine = Engine()
        gate = engine.all_of(1, _noop)
        gate(None)
        with pytest.raises(SimulationError):
            gate(None)
        empty = engine.all_of(0, _noop)
        with pytest.raises(SimulationError):
            empty(None)

    def test_process_is_awaitable_event(self):
        """A parent waits for a child process through its join hook."""
        engine = Engine()
        log = []
        child_done = engine.all_of(1, lambda _: log.append((engine.now, "parent")))

        def child(_):
            engine.timeout(2.0, child_done)

        engine.process(child)
        engine.run()
        assert log == [(2.0, "parent")]

    def test_callback_exception_propagates(self):
        engine = Engine()

        def bad(_):
            raise KeyError("boom")

        engine.timeout(1.0, bad)
        with pytest.raises(KeyError, match="boom"):
            engine.run()
        assert engine.now == 1.0

    def test_same_instant_entries_run_in_scheduling_order(self):
        """process, timeout(0) and a resource hand-off due at one
        instant run in the order they were scheduled."""
        engine = Engine()
        resource = Resource(engine)
        log = []

        def holder(_):
            log.append("granted-holder")
            engine.timeout(2.0, hand_off)

        def hand_off(_):
            # Due at t=2, in this order: a process, the hand-off to the
            # waiter, a zero timeout, another process.
            engine.process(log.append, "process-1")
            resource.release()
            engine.timeout(0.0, log.append, "timeout-0")
            engine.process(log.append, "process-2")

        resource.request(holder)
        engine.timeout(1.0, lambda _: resource.request(log.append, "granted-waiter"))
        engine.run()
        assert log == [
            "granted-holder",
            "process-1",
            "granted-waiter",
            "timeout-0",
            "process-2",
        ]
        assert engine.now == 2.0

    def test_process_runs_after_entries_already_due(self):
        engine = Engine()
        log = []

        def first(_):
            engine.process(log.append, "late")

        engine.process(first)
        engine.process(log.append, "early")
        engine.run()
        assert log == ["early", "late"]


class TestRunControl:
    def test_run_until_stops_clock(self):
        engine = Engine()
        engine.timeout(10.0, _noop)
        engine.run(until=4.0)
        assert engine.now == 4.0
        assert engine.peek() == pytest.approx(10.0)
        engine.run()
        assert engine.now == 10.0

    def test_peek_empty(self):
        assert Engine().peek() is None

    def test_many_processes_interleave(self):
        engine = Engine()
        log = []

        def worker(state):
            name, period, remaining = state
            log.append(name)
            if remaining > 1:
                engine.timeout(period, worker, (name, period, remaining - 1))

        engine.timeout(2.0, worker, ("a", 2.0, 3))
        engine.timeout(3.0, worker, ("b", 3.0, 2))
        engine.run()
        # at t=6 both fire; b's timeout was scheduled first (at t=3) so
        # the FIFO tie-break runs it first
        assert log == ["a", "b", "a", "b", "a"]


class TestAllOf:
    def test_waits_for_every_event(self):
        engine = Engine()
        log = []
        done = engine.all_of(3, lambda _: log.append(engine.now))
        for delay in (5.0, 2.0, 9.0):
            engine.timeout(delay, done)
        engine.run()
        assert log == [9.0]

    def test_empty_list_triggers_immediately(self):
        """A join over zero completions fires at once."""
        engine = Engine()
        log = []

        def joiner(_):
            engine.all_of(0, lambda _: log.append(engine.now))

        engine.timeout(2.0, joiner)
        engine.run()
        assert log == [2.0]

    def test_already_dispatched_events_count_as_done(self):
        """Completions reported before anyone runs still count: the join
        fires as a new entry at the instant of the last one."""
        engine = Engine()
        log = []

        def joiner(_):
            done = engine.all_of(2, lambda _: log.append(engine.now))
            done(None)
            done(None)
            assert log == []

        engine.timeout(3.0, joiner)
        engine.run()
        assert log == [3.0]

    def test_single_event_passthrough(self):
        engine = Engine()
        log = []
        engine.timeout(4.0, engine.all_of(1, lambda _: log.append(engine.now)))
        engine.run()
        assert log == [4.0]

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            Engine().all_of(-1, _noop)
