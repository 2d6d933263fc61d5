"""Tests for the discrete-event simulation kernel."""

import doctest
import heapq
import itertools
import math
import random
from collections import deque

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

    def test_nan_delay_rejected(self):
        """A NaN delay fails every comparison; accepting it would run
        its entry first and set the clock to NaN."""
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(float("nan"), _noop)
        log = []
        engine.timeout(5.0, log.append, "five")
        engine.timeout(1.0, log.append, "one")
        engine.run()
        assert log == ["one", "five"]
        assert engine.now == 5.0

    def test_delay_absorbed_by_a_large_clock_is_due_now(self):
        engine = Engine()
        engine.now = 2.0**60
        log = []
        engine.timeout(1.0, log.append, "absorbed")
        engine.process(log.append, "process")
        assert engine.peek() == 2.0**60
        engine.run()
        assert log == ["absorbed", "process"]
        assert engine.now == 2.0**60

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

    def test_peek_sees_entries_due_now(self):
        engine = Engine()
        engine.timeout(3.0, _noop)
        engine.process(_noop)
        assert engine.peek() == 0.0
        engine.run(until=0.0)
        assert engine.now == 0.0
        assert engine.peek() == 3.0

    def test_run_until_now_runs_entries_due_now(self):
        engine = Engine()
        log = []
        engine.timeout(4.0, log.append, "later")
        engine.run(until=2.0)
        engine.process(log.append, "now")
        engine.timeout(0.0, log.append, "zero")
        engine.run(until=2.0)
        assert log == ["now", "zero"]
        assert engine.now == 2.0

    def test_run_until_before_now_rejected(self):
        engine = Engine()
        log = []
        engine.timeout(10.0, log.append, "later")
        engine.run(until=6.0)
        engine.process(log.append, "now")
        with pytest.raises(SimulationError, match="before now"):
            engine.run(until=2.0)
        with pytest.raises(SimulationError):
            engine.run(until=math.nan)
        assert engine.now == 6.0  # the clock never moves back
        assert log == []  # and nothing ran at a rolled-back time
        engine.run()
        assert log == ["now", "later"]
        assert engine.now == 10.0

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


# -- differential test against a heap-only calendar ---------------------


class _HeapEngine:
    """Oracle: the calendar as one ``(time, seq, fn, arg)`` heap, every
    entry due now included (the kernel before its FIFO of entries due
    now).  Kept here only to check that the FIFO changes no order."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = itertools.count()

    def process(self, fn, arg=None):
        heapq.heappush(self._heap, (self.now, next(self._sequence), fn, arg))

    _wake = process

    def timeout(self, delay, fn, arg=None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), fn, arg))

    def all_of(self, count, fn, arg=None):
        pending = count
        wake = self._wake

        def done(_=None):
            nonlocal pending
            if pending == 0:
                raise SimulationError("join completed too often")
            pending -= 1
            if pending == 0:
                wake(fn, arg)

        if count == 0:
            wake(fn, arg)
        return done

    def run(self, until=None):
        heap = self._heap
        if until is None:
            while heap:
                self.now, _, fn, arg = heapq.heappop(heap)
                fn(arg)
            return
        while heap:
            if heap[0][0] > until:
                self.now = until
                return
            self.now, _, fn, arg = heapq.heappop(heap)
            fn(arg)
        self.now = max(self.now, until)

    def peek(self):
        return self._heap[0][0] if self._heap else None


class _HeapResource:
    """Oracle resource: grants scheduled through the heap engine."""

    def __init__(self, engine, capacity=1):
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters = deque()
        self.grants = 0
        self.wait_us = 0.0
        self.busy_us = 0.0
        self._last_change = engine.now

    def _accrue(self):
        now = self.engine.now
        if self.in_use:
            self.busy_us += self.in_use * (now - self._last_change)
        self._last_change = now

    def request(self, fn, arg=None):
        if self.in_use < self.capacity:
            self._accrue()
            self.in_use += 1
            self.grants += 1
            self.engine._wake(fn, arg)
        else:
            self._waiters.append((fn, arg, self.engine.now))

    def release(self):
        if self._waiters:
            fn, arg, enqueued = self._waiters.popleft()
            self.wait_us += self.engine.now - enqueued
            self.grants += 1
            self.engine._wake(fn, arg)
        else:
            self._accrue()
            self.in_use -= 1

    def utilization(self, now):
        busy = self.busy_us + self.in_use * (now - self._last_change)
        return busy / (self.capacity * now)


def _random_model(engine_cls, resource_cls, seed):
    """Drive one engine with a seeded random model; returns its log,
    resource accounting, clock and ``peek()`` readings.

    Each step schedules children through ``process``, ``timeout(0)``,
    tied positive delays, resource holds (capacity 1-3, some of zero
    length) and ``all_of`` joins whose completions are called inline or
    scheduled.  Every third seed starts the clock at 2**60, where delays
    below 128 leave it where it is.  Both engines consume the model's
    random stream in the order their callbacks run, so any reordering
    shows up in the log.
    """
    rng = random.Random(seed)
    engine = engine_cls()
    if seed % 3 == 0:
        engine.now = 2.0**60
    delays = (0.5, 1.0, 1.0, 2.0, 300.0, 512.0)
    resources = [resource_cls(engine, rng.randint(1, 3)) for _ in range(3)]
    log = []
    budget = [250]

    def step(label):
        log.append((engine.now, label))
        if budget[0] <= 0:
            return
        budget[0] -= 1
        for index in range(rng.randint(0, 3)):
            child = f"{label}.{index}"
            kind = rng.randrange(6)
            if kind == 0:
                engine.process(step, child)
            elif kind == 1:
                engine.timeout(0.0, step, child)
            elif kind == 2:
                engine.timeout(rng.choice(delays), step, child)
            elif kind == 3:
                hold = rng.choice((0.0, 1.0, 2.0, 300.0))
                engine.process(acquire, (child, rng.randrange(len(resources)), hold))
            elif kind == 4:
                which = rng.randrange(len(resources))
                resources[which].request(granted, (child, which, rng.choice((0.0, 1.0))))
            else:
                count = rng.randint(0, 3)
                done = engine.all_of(count, step, child + "j")
                for _ in range(count):
                    how = rng.randrange(3)
                    if how == 0:
                        done(None)
                    elif how == 1:
                        engine.process(done)
                    else:
                        engine.timeout(rng.choice(delays), done)

    def acquire(arg):
        label, which, _ = arg
        log.append((engine.now, label + "?"))
        resources[which].request(granted, arg)

    def granted(arg):
        label, which, hold = arg
        log.append((engine.now, label + "+"))
        engine.timeout(hold, released, arg)

    def released(arg):
        label, which, _ = arg
        resources[which].release()
        step(label)

    # Kick off at the start clock, then alternate bounded runs (some
    # with entries due now still pending) with outside scheduling.
    for index in range(3):
        engine.process(step, f"p{index}")
        engine.timeout(rng.choice(delays), step, f"t{index}")
    peeks = [engine.peek()]
    for _ in range(6):
        engine.run(until=engine.now + rng.choice((0.0, 0.5, 1.0, 300.0)))
        peeks.append((engine.now, engine.peek()))
        engine.process(step, f"outside@{len(log)}")
        peeks.append(engine.peek())
    engine.run()
    accounting = [
        (r.grants, r.wait_us, r.busy_us, r.in_use, r.utilization(engine.now + 1.0))
        for r in resources
    ]
    return log, accounting, engine.now, peeks


@pytest.mark.parametrize("seed", range(60))
def test_calendar_order_matches_a_single_heap(seed):
    expected = _random_model(_HeapEngine, _HeapResource, seed)
    actual = _random_model(Engine, Resource, seed)
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    assert actual[2:] == expected[2:]
    assert len(actual[0]) > 50
