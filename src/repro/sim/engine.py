"""A small discrete-event simulation kernel: a callback event calendar.

The calendar is a binary heap of ``(time, seq, fn, arg)`` entries;
:meth:`Engine.run` pops the earliest and calls ``fn(arg)``.  ``seq``
counts pushes, so entries due at one instant run in scheduling order.
A model is a set of small callbacks that schedule one another over its
own records — no event or process objects, no generators, and no
simpy (not available offline).

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

import heapq
import itertools
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
        self._sequence = itertools.count()

    # -- scheduling -----------------------------------------------------

    def process(self, fn: Callback, arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current instant, after every entry
        already due now."""
        heapq.heappush(self._heap, (self.now, next(self._sequence), fn, arg))

    #: :meth:`process` for resource grants and join firings, so call
    #: counts of ``process`` count only the starts a model asks for.
    _wake = process

    def timeout(self, delay: float, fn: Callback, arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), fn, arg))

    def all_of(self, count: int, fn: Callback, arg: Any = None) -> Callable[[Any], None]:
        """A join over ``count`` completions: returns the completion hook,
        whose ``count``-th call runs ``process(fn, arg)`` (at once when
        ``count == 0``) and whose calls beyond that raise.  The SSD
        overlay joins a request's chip/plane visits this way.
        """
        if count < 0:
            raise SimulationError(f"negative join count {count}")
        pending = count
        wake = self._wake

        def done(_: Any = None) -> None:
            nonlocal pending
            if pending == 0:
                raise SimulationError(f"join of {count} completed more than {count} times")
            pending -= 1
            if pending == 0:
                wake(fn, arg)

        if count == 0:
            wake(fn, arg)
        return done

    # -- execution --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Run callbacks until the calendar drains or ``until`` is reached.

        An exception raised by a callback propagates out of ``run``.
        """
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                self.now, _, fn, arg = pop(heap)
                fn(arg)
            return
        while heap:
            if heap[0][0] > until:
                self.now = until
                return
            self.now, _, fn, arg = pop(heap)
            fn(arg)
        self.now = max(self.now, until)

    def peek(self) -> float | None:
        """Time of the next scheduled entry, or None if idle."""
        return self._heap[0][0] if self._heap else None
