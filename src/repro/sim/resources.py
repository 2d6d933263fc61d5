"""FCFS resources for the DES kernel.

:class:`Resource` models a unit (or pool) that a model must hold while
using it — the SSD front end uses one per plane (array busy), one per
die port and one per channel (bus transfers), and optionally one
counted pool for the host queue depth when replaying with queueing.

Each resource keeps the accounting the queueing reports need: grant
count, total time spent waiting in its queue, and the busy-time
integral (``in_use`` integrated over simulated time), from which
:meth:`Resource.utilization` derives the fraction-of-time-busy number
the saturation studies plot.

A grant goes onto the engine's FIFO of entries due now, as
:meth:`Engine.process` would put it; calling it inline instead would
run it ahead of entries already due.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Callback, Engine, SimulationError


class Resource:
    """A counted resource with first-come-first-served queueing."""

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[tuple[Callback, Any, float]] = deque()
        #: grants handed out (immediate or after queueing).
        self.grants = 0
        #: total time grants spent queued before being served.
        self.wait_us = 0.0
        #: integral of ``in_use`` over time (see :meth:`utilization`).
        self.busy_us = 0.0
        self._last_change = engine.now
        self._due = engine._due

    def request(self, fn: Callback, arg: Any = None) -> None:
        """Ask for one unit; ``fn(arg)`` is scheduled once it is granted
        (for now if a unit is free, else by the :meth:`release` that
        hands it over, in request order)."""
        if self.in_use < self.capacity:
            now = self.engine.now
            if self.in_use:
                self.busy_us += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use += 1
            self.grants += 1
            self._due.append((fn, arg))
        else:
            self._waiters.append((fn, arg, self.engine.now))

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self._waiters:
            # Hand the unit straight over: in_use stays constant, so the
            # busy integral continues uninterrupted.
            fn, arg, enqueued = self._waiters.popleft()
            self.wait_us += self.engine.now - enqueued
            self.grants += 1
            self._due.append((fn, arg))
        elif self.in_use > 0:
            now = self.engine.now
            self.busy_us += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use -= 1
        else:
            raise SimulationError("release without a matching request")

    def utilization(self, now: float | None = None) -> float:
        """Fraction of capacity-time spent busy up to ``now``.

        Defaults to the engine's current clock; returns 0.0 before any
        time has passed.
        """
        if now is None:
            now = self.engine.now
        if now <= 0.0:
            return 0.0
        busy = self.busy_us
        if self.in_use:
            busy += self.in_use * (now - self._last_change)
        return busy / (self.capacity * now)
