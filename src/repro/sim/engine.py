"""A small discrete-event simulation kernel: a callback event calendar.

Entries due later wait in a binary heap of ``(time, seq, fn, arg)``
(``seq`` counts its pushes); entries due now — :meth:`Engine.process`,
resource grants, join firings, and any :meth:`Engine.timeout` that
leaves the clock where it is — wait in a FIFO of ``(fn, arg)``.
:meth:`Engine.run` drains the FIFO, then moves the clock to the heap's
earliest time, runs every heap entry due then, and repeats.  That is
the ``(time, seq)`` order of one heap of every entry: a heap entry due
at ``now`` was pushed before the clock got there, so it precedes all
that was scheduled during ``now``.  Entries due at one instant thus
run in scheduling order.  A model is a set of small callbacks that
schedule one another over its own records — no event or process
objects, no generators, and no simpy (not available offline).

Example
-------
>>> engine = Engine()
>>> log = []
>>> both = engine.all_of(2, lambda name: log.append((engine.now, name)), "join")
>>> def worker(name):
...     log.append((engine.now, name))
...     engine.process(both)
>>> engine.timeout(5.0, worker, "a")
>>> engine.timeout(2.0, worker, "b")
>>> engine.run()
>>> log
[(2.0, 'b'), (5.0, 'a'), (5.0, 'join')]
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import ReproError

#: A calendar callback: called with the ``arg`` it was scheduled with.
Callback = Callable[[Any], object]


class SimulationError(ReproError):
    """The simulation kernel was driven incorrectly."""


class Engine:
    """Event calendar + clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callback, Any]] = []
        #: entries due now.  Resources and joins append to it directly,
        #: so calls of :meth:`process` count only a model's own starts.
        self._due: deque[tuple[Callback, Any]] = deque()
        self._sequence = itertools.count()

    # -- scheduling -----------------------------------------------------

    def process(self, fn: Callback, arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current instant, after every entry
        already due now."""
        self._due.append((fn, arg))

    def timeout(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` time units from now."""
        now = self.now
        when = now + delay
        if when > now:
            heappush(self._heap, (when, next(self._sequence), fn, arg))
        elif delay >= 0:  # 0, or too small to move a large clock
            self._due.append((fn, arg))
        else:  # negative or NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")

    def all_of(self, count: int, fn: Callback, arg: Any = None) -> Callable[[Any], None]:
        """A join over ``count`` completions: returns the completion hook,
        whose ``count``-th call schedules ``fn(arg)`` for now (at once
        when ``count == 0``) and whose calls beyond that raise.  The SSD
        overlay joins a request's chip/plane visits this way.
        """
        if count < 0:
            raise SimulationError(f"negative join count {count}")
        pending = count
        due = self._due

        def done(_: Any = None) -> None:
            nonlocal pending
            if pending == 0:
                raise SimulationError(f"join of {count} completed more than {count} times")
            pending -= 1
            if pending == 0:
                due.append((fn, arg))

        if count == 0:
            due.append((fn, arg))
        return done

    # -- execution --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Run callbacks until the calendar drains or ``until`` is reached.

        ``until`` may equal ``now`` (run what is due now) but never lie
        before it: the clock does not move back.  An exception raised by
        a callback propagates out of ``run``.
        """
        if until is not None and not until >= self.now:  # also NaN
            raise SimulationError(f"run(until={until}) is before now ({self.now})")
        heap = self._heap
        due = self._due
        popleft = due.popleft
        limit = math.inf if until is None else until
        while True:
            while due:
                fn, arg = popleft()
                fn(arg)
            if not heap or heap[0][0] > limit:
                break
            self.now = when = heap[0][0]
            while heap and heap[0][0] == when:  # all before the FIFO
                _, _, fn, arg = heappop(heap)
                fn(arg)
        if until is not None:
            self.now = until

    def peek(self) -> float | None:
        """Time of the next scheduled entry, or None if idle."""
        if self._due:
            return self.now
        return self._heap[0][0] if self._heap else None
