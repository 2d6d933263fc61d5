"""The host-facing SSD: byte requests in, latencies out.

Splits each byte-addressed trace request into logical page operations
against an FTL, accounts service time, and aggregates the quantities
the paper's figures report (total read latency, total write latency,
erased block count).

Replay modes
------------
``sequential`` (default)
    Requests are serviced back-to-back in trace order; per-request
    latency is the sum of its page operations.  The paper's "latency
    (sec)" axes are exactly such sums.
``timed``
    Requests arrive through an arrival process and queue for the
    device in the DES kernel; response time = queueing + service.
    Closer to a real device under load; provided for studies beyond
    the paper.

Timed-mode device models
------------------------
Every replay is one FTL pass, :meth:`SSD._served`, which serves the
trace's requests in trace order and yields one record per request: its
latency and, when a timing model needs them, the (chip, plane) units it
busied.  Sequential mode sums those records.  Timed mode hands them to
one of two timing models; the arrival process pulls the next record
only when it admits that request, so no calendar callback ever calls
the FTL, and FTL state evolves exactly as in a sequential replay.

*Serialized* (1 chip x 1 channel x 1 plane): the back end is one FCFS
resource, and every request — including one that touches no flash at
all — holds it for its summed service time.

*Plane-granular overlay* (every other topology): the device op log
reports the (chip, plane) units the request busied, split into array
time and bus-transfer time.  Each unit visit holds its plane for
transfer + array time, and holds the chip's die port and its channel's
bus only during the transfer, so requests on different chips or planes
proceed in parallel while transfers still serialize per die and per
bus.  A request that logs no device op (a RAM-map TRIM, a read of an
unmapped page) completes at once instead of waiting its FCFS turn —
which is why the single-unit device keeps its own model rather than
being a one-unit overlay.

Both models are small callbacks on the DES kernel's event calendar,
stepping a per-request :class:`_Job` (and, in the overlay, a
per-visit :class:`_Visit`) through its resource grants and timeouts.

The arrival process is an :class:`~repro.sim.arrival.ArrivalSpec`: an
*open* loop walks the trace timestamps (``scale`` divides the gaps,
``queue_depth`` bounds the submission queue), while a *closed* loop
keeps a fixed population of ``queue_depth`` requests outstanding and
admits the next one on each completion — the fio-style saturation
driver whose ``throughput_kiops`` at QD = N is the QD-sweep metric.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import ConfigError
from repro.sim.arrival import ArrivalSpec
from repro.sim.engine import Callback, Engine
from repro.sim.resources import Resource
from repro.traces.record import READ, TRIM, Trace

if TYPE_CHECKING:
    from repro.ftl.base import BaseFTL


@dataclass
class RunResult:
    """Aggregates of one trace replay (units: microseconds)."""

    ftl_name: str
    trace_name: str
    num_requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    #: sum of host-visible read service time.
    read_us: float = 0.0
    #: sum of host-visible write service time (including GC stalls).
    write_us: float = 0.0
    #: GC time (also folded into write_us stalls' accounting upstream).
    gc_us: float = 0.0
    erase_count: int = 0
    gc_copied_pages: int = 0
    write_amplification: float = 1.0
    #: mean per-page service times, for sanity checks.
    mean_read_page_us: float = 0.0
    mean_write_page_us: float = 0.0
    #: TRIM/discard requests and their host-visible service time (zero
    #: for RAM-map FTLs; DFTL pays translation traffic to invalidate).
    trim_requests: int = 0
    trim_us: float = 0.0
    #: response times from timed mode, one ``array('d')`` entry per
    #: request in completion order (empty in sequential mode).
    response_times_us: array = field(default_factory=partial(array, "d"))
    #: timed-mode response times split by request class, same columns.
    read_response_times_us: array = field(default_factory=partial(array, "d"))
    write_response_times_us: array = field(default_factory=partial(array, "d"))
    trim_response_times_us: array = field(default_factory=partial(array, "d"))
    #: per-tenant aggregates (multi-tenant scenarios only; keyed by
    #: tenant name).  Requests and summed service time fill in both
    #: replay modes; response times (an ``array('d')`` column per
    #: tenant) only in timed mode.
    tenant_requests: dict[str, int] = field(default_factory=dict)
    tenant_service_us: dict[str, float] = field(default_factory=dict)
    tenant_response_times_us: dict[str, array] = field(default_factory=dict)
    #: simulated makespan of a timed replay (0.0 in sequential mode);
    #: ``num_requests / simulated_us`` is the replay's throughput.
    simulated_us: float = 0.0
    #: strategy-specific counters snapshot.
    extra: dict[str, float] = field(default_factory=dict)

    def response_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of the timed-mode response times (us).

        Empty dict in sequential mode (no queueing, so per-request
        latency is just service time and the percentiles would repeat
        ``mean_read_page_us``-style information).  Linear interpolation
        between order statistics, matching ``numpy.percentile``'s
        default method.
        """
        return _percentiles(self.response_times_us)

    def class_response_percentiles(self) -> dict[str, dict[str, float]]:
        """Timed-mode response percentiles per request class.

        ``{"read": {...}, "write": {...}}`` with the same keys as
        :meth:`response_percentiles`; classes with no requests are
        omitted, and the dict is empty in sequential mode.
        """
        out: dict[str, dict[str, float]] = {}
        for name, times in (
            ("read", self.read_response_times_us),
            ("write", self.write_response_times_us),
            ("trim", self.trim_response_times_us),
        ):
            if times:
                out[name] = _percentiles(times)
        return out

    def tenant_response_percentiles(self) -> dict[str, dict[str, float]]:
        """Timed-mode response percentiles per tenant.

        ``{"db": {"p50_us": ...}, ...}`` for multi-tenant replays;
        empty in sequential mode or single-tenant scenarios.
        """
        return {
            name: _percentiles(times)
            for name, times in self.tenant_response_times_us.items()
            if times
        }

    @property
    def throughput_kiops(self) -> float:
        """Timed-mode throughput in thousands of requests per second."""
        if self.simulated_us <= 0.0:
            return 0.0
        return self.num_requests / self.simulated_us * 1e3

    @property
    def read_seconds(self) -> float:
        """Total read latency in seconds (the paper's Fig. 13/14 axis)."""
        return self.read_us / 1e6

    @property
    def write_seconds(self) -> float:
        """Total write latency in seconds (the paper's Fig. 16/17 axis)."""
        return self.write_us / 1e6

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.ftl_name:>12} on {self.trace_name}: "
            f"read {self.read_seconds:.2f} s, write {self.write_seconds:.2f} s, "
            f"erases {self.erase_count}, WAF {self.write_amplification:.2f}"
        )


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _percentiles(times: Sequence[float]) -> dict[str, float]:
    """p50/p95/p99 dict of a response-time column (empty -> {})."""
    if not times:
        return {}
    ordered = sorted(times)
    return {
        "p50_us": _quantile(ordered, 0.50),
        "p95_us": _quantile(ordered, 0.95),
        "p99_us": _quantile(ordered, 0.99),
    }


def _timed_extras(
    makespan: float,
    slots: Resource | None,
    units: Sequence[Resource] = (),
    ports: Sequence[Resource] = (),
    buses: Sequence[Resource] = (),
    plane_granular: bool = False,
) -> dict[str, float]:
    """The ``timed.*`` extras of one timed replay.

    The serialized model passes no units, so it reports only the
    admission wait, and only when a queue bound exists.  The overlay
    adds, once simulated time has passed, per-unit utilization and wait
    plus the bus utilization and wait.  Units are named ``chip_*`` with
    one plane per chip and ``plane_*`` otherwise, where
    ``chip_wait_us`` then reports the die-port wait.
    """
    extra: dict[str, float] = {}
    if units and makespan > 0.0:
        unit = "plane" if plane_granular else "chip"
        utils = [resource.utilization(makespan) for resource in units]
        extra[f"timed.{unit}_util_mean"] = sum(utils) / len(utils)
        extra[f"timed.{unit}_util_max"] = max(utils)
        extra["timed.bus_util_max"] = max(bus.utilization(makespan) for bus in buses)
        extra[f"timed.{unit}_wait_us"] = sum(resource.wait_us for resource in units)
        if plane_granular:
            extra["timed.chip_wait_us"] = sum(port.wait_us for port in ports)
        extra["timed.bus_wait_us"] = sum(bus.wait_us for bus in buses)
    if slots is not None:
        extra["timed.admission_wait_us"] = slots.wait_us
    return extra


#: The (chip, plane) units one request busied, each with its
#: ``[transfer_us, array_us]`` totals.
_Units = dict[tuple[int, int], list[float]]

#: One served request, as :meth:`SSD._served` yields it:
#: ``(op code, offset, latency_us, units, timestamp_us)``; ``units`` is
#: None unless the pass is profiled.
_Record = tuple[int, int, float, _Units | None, float]


@dataclass(slots=True)
class _Job:
    """One served request in flight through a timed replay."""

    #: the request's op code (see ``OPS``) and byte offset.
    op: int
    offset: int
    #: its summed service time.
    latency_us: float
    #: the units it busied (overlay only; None in the serialized model).
    units: _Units | None
    #: when the request arrived, before any admission wait.
    arrival_us: float


@dataclass(slots=True)
class _Visit:
    """One (chip, plane) unit visit of an overlay request."""

    unit: Resource
    port: Resource
    bus: Resource
    transfer_us: float
    array_us: float
    #: the request's join hook, scheduled when the visit completes.
    done: Callback


#: How a finished timed request is accounted: ``account(job, response_us)``.
_Account = Callable[[_Job, float], None]


class _Arrivals:
    """The arrival process both timed models share.

    ``start(job)`` begins a request in the device model, which hands the
    job back to :meth:`complete` when the request is done.

    *Open* loop: requests enter at their (scaled) trace timestamps,
    through a host queue of ``queue_depth`` slots when that bounds it.
    The arrival time is taken *before* any admission wait, so the wait
    counts toward the response time.  Gaps run from the latest timestamp
    seen so far: a request stamped earlier than its predecessor arrives
    at once and does not delay the requests after it.

    *Closed* loop: timestamps are ignored and ``queue_depth`` requests
    stay in flight, each completion admitting the next one.  Response
    time = completion - admission (a population slot *is* admission).

    Either way the served records are pulled lazily, one at a time and
    in trace order, so the FTL serves a request only when the arrival
    process reaches it, and a :class:`_Job` exists only while its
    request is in flight.
    """

    def __init__(
        self,
        engine: Engine,
        records: Iterator[_Record],
        arrival: ArrivalSpec,
        start: Callback,
        account: _Account,
    ) -> None:
        self.engine = engine
        self.start = start
        self.account = account
        self.closed = arrival.is_closed
        #: the open-loop host queue bound (None when unbounded or closed).
        self.slots: Resource | None = None
        self._records = records
        self._scale = arrival.scale
        self._latest = 0.0
        if self.closed:
            for op, offset, latency, units, _ in itertools.islice(records, arrival.queue_depth):
                engine.process(start, _Job(op, offset, latency, units, engine.now))
            return
        if arrival.queue_depth:
            self.slots = Resource(engine, arrival.queue_depth)
        engine.process(self._walk)

    def _walk(self, arrived: _Record | None = None) -> None:
        """Open loop: start requests in trace order until one must wait
        (first ``arrived``, when its gap has just elapsed)."""
        if arrived is not None and not self._admit(arrived):
            return
        for record in self._records:
            stamp = record[4]
            gap = stamp - self._latest
            if gap > 0.0:
                self._latest = stamp
                if self._scale != 1.0:
                    gap /= self._scale
                if gap:
                    self.engine.timeout(gap, self._walk, record)
                    return
            if not self._admit(record):
                return

    def _admit(self, record: _Record) -> bool:
        """Start ``record``'s request now, or queue it for a host slot (False)."""
        op, offset, latency, units, _ = record
        job = _Job(op, offset, latency, units, self.engine.now)
        if self.slots is None:
            self.engine.process(self.start, job)
            return True
        self.slots.request(self._admitted, job)
        return False

    def _admitted(self, job: _Job) -> None:
        self.engine.process(self.start, job)
        self._walk()

    def complete(self, job: _Job) -> None:
        """Account a finished request; free its host slot (open loop) or
        admit the next request (closed loop)."""
        self.account(job, self.engine.now - job.arrival_us)
        if self.slots is not None:
            self.slots.release()
        elif self.closed:
            record = next(self._records, None)
            if record is not None:
                op, offset, latency, units, _ = record
                self.engine.process(self.start, _Job(op, offset, latency, units, self.engine.now))


class SSD:
    """Byte-addressed front end over an FTL."""

    def __init__(self, ftl: BaseFTL) -> None:
        self.ftl = ftl
        self.page_size = ftl.spec.page_size
        self.capacity_bytes = ftl.num_lpns * self.page_size
        #: hoisted for the per-request loop in :meth:`_serve`.
        self._num_lpns = ftl.num_lpns
        #: active tenant partitions ((start, end, name) per tenant),
        #: set for the duration of a multi-tenant replay.
        self._tenant_ranges: tuple[tuple[int, int, str], ...] = ()

    # ------------------------------------------------------------------
    # The FTL pass
    # ------------------------------------------------------------------

    def _serve(self, op: int, offset: int, size: int) -> float:
        """Service one trace row (op code, offset, size); returns its
        latency in microseconds.

        The page range is computed and clamped to the logical capacity
        once per request (the old per-LPN bounds check re-read
        ``ftl.num_lpns`` every iteration of the hot loop).
        """
        page_size = self.page_size
        first = offset // page_size
        last = (offset + size - 1) // page_size
        max_lpn = self._num_lpns - 1
        if last > max_lpn:
            last = max_lpn
        latency = 0.0
        if op == READ:
            host_read = self.ftl.host_read
            for lpn in range(first, last + 1):
                latency += host_read(lpn)
        elif op == TRIM:
            trim = self.ftl.trim
            for lpn in range(first, last + 1):
                latency += trim(lpn)
        else:
            host_write = self.ftl.host_write
            for lpn in range(first, last + 1):
                latency += host_write(lpn, nbytes=size)
        return latency

    def _served(self, trace: Trace, profiled: bool) -> Iterator[_Record]:
        """Serve every trace row in trace order, one record per row.

        This is the one FTL pass of every replay mode.  With
        ``profiled`` set, the device op log is armed around each request
        and the record's ``units`` sums it per ``(chip, plane)`` —
        GC/merge/refresh work the request triggered included, the
        synchronous stall a real device would impose.  Fused multi-plane
        commands report one segment per plane sharing the array time,
        so each plane is held for the real (overlapped) duration.
        """
        serve = self._serve
        rows = zip(trace.ops, trace.offsets, trace.sizes, trace.timestamps_us)
        if not profiled:
            for op, offset, size, stamp in rows:
                yield op, offset, serve(op, offset, size), None, stamp
            return
        device = self.ftl.device
        for op, offset, size, stamp in rows:
            device.begin_oplog()
            latency = serve(op, offset, size)
            units: _Units = {}
            for chip, plane, array_us, transfer_us in device.end_oplog():
                totals = units.get((chip, plane))
                if totals is None:
                    units[(chip, plane)] = [transfer_us, array_us]
                else:
                    totals[0] += transfer_us
                    totals[1] += array_us
            yield op, offset, latency, units, stamp

    # ------------------------------------------------------------------
    # Whole-trace replay
    # ------------------------------------------------------------------

    def warm_fill(self, fraction: float = 1.0, chunk_pages: int = 64) -> None:
        """Pre-fill the device sequentially, simulating an aged drive.

        Filled data presents as large (cold-classified) writes, so PPB
        starts from the same "everything is icy-cold" state an aged
        device would be in.  Timing of the fill is not accounted.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0,1], got {fraction}")
        limit = int(self.ftl.num_lpns * fraction)
        nbytes = chunk_pages * self.page_size
        host_write = self.ftl.host_write
        for lpn in range(limit):
            host_write(lpn, nbytes=nbytes)
        self._reset_stats()

    def precondition(self, trace: Trace) -> None:
        """Replay a trace purely for its device-state side effects.

        Used by the scenario engine's steady-state preconditioning
        phases: the requests fragment the blocks, exercise GC and age
        the wear state exactly as a measured replay would, but none of
        it is accounted — stats reset afterwards, like a warm fill.
        """
        for _ in self._served(trace, False):
            pass
        self._reset_stats()

    def _reset_stats(self) -> None:
        """Zero the FTL's accounting (after warm fill)."""
        self.ftl.stats = type(self.ftl.stats)()

    def replay(
        self,
        trace: Trace,
        mode: str = "sequential",
        tenants: tuple[tuple[str, int, int], ...] = (),
        arrival: ArrivalSpec | None = None,
    ) -> RunResult:
        """Replay a trace; returns aggregated :class:`RunResult`.

        ``arrival`` (timed mode) is the arrival discipline — open-loop
        trace timestamps or a closed fixed-QD population (see
        :class:`~repro.sim.arrival.ArrivalSpec`); ``None`` means the
        open-loop defaults.  Sequential replays ignore it.

        ``tenants`` — ``(name, start_byte, size_bytes)`` LBA partitions
        — turns on per-tenant accounting: each request is attributed to
        the partition containing its offset, filling the result's
        ``tenant_*`` aggregates.
        """
        if arrival is None:
            arrival = ArrivalSpec()
        self._tenant_ranges = tuple(
            (start, start + size, name) for name, start, size in tenants
        )
        try:
            if mode == "sequential":
                return self._replay_sequential(trace)
            if mode == "timed":
                return self._replay_timed(trace, arrival)
        finally:
            self._tenant_ranges = ()
        raise ConfigError(f"unknown replay mode {mode!r}")

    def _tenant_of(self, offset: int) -> str | None:
        """Name of the tenant partition containing ``offset`` (few
        tenants, so a linear scan beats a bisect's overhead)."""
        for start, end, name in self._tenant_ranges:
            if start <= offset < end:
                return name
        return None

    def _account(self, result: RunResult, op: int, offset: int, latency: float) -> str | None:
        """Fold one served request into the counts and service sums;
        returns its tenant's name (None outside every partition)."""
        result.num_requests += 1
        if op == READ:
            result.read_requests += 1
            result.read_us += latency
        elif op == TRIM:
            result.trim_requests += 1
            result.trim_us += latency
        else:
            result.write_requests += 1
            result.write_us += latency
        if not self._tenant_ranges:
            return None
        name = self._tenant_of(offset)
        if name is not None:
            result.tenant_requests[name] = result.tenant_requests.get(name, 0) + 1
            result.tenant_service_us[name] = result.tenant_service_us.get(name, 0.0) + latency
        return name

    def _base_result(self, trace: Trace) -> RunResult:
        return RunResult(ftl_name=self.ftl.name, trace_name=trace.name)

    def _replay_sequential(self, trace: Trace) -> RunResult:
        result = self._base_result(trace)
        account = self._account
        for op, offset, latency, _, _ in self._served(trace, False):
            account(result, op, offset, latency)
        self._finalize(result)
        return result

    def _replay_timed(self, trace: Trace, arrival: ArrivalSpec) -> RunResult:
        result = self._base_result(trace)
        spec = self.ftl.spec
        if spec.num_chips == 1 and spec.num_channels == 1 and spec.planes_per_chip == 1:
            timed_extra = self._replay_timed_serialized(trace, result, arrival)
        else:
            timed_extra = self._replay_timed_overlay(trace, result, arrival)
        self._finalize(result)  # rebuilds result.extra from the FTL stats
        result.extra.update(timed_extra)
        return result

    def _account_timed(self, result: RunResult, job: _Job, response_us: float) -> None:
        """Fold one completed timed request into the aggregates (in
        completion order, so the service sums are added in that order)."""
        result.response_times_us.append(response_us)
        if job.op == READ:
            result.read_response_times_us.append(response_us)
        elif job.op == TRIM:
            result.trim_response_times_us.append(response_us)
        else:
            result.write_response_times_us.append(response_us)
        name = self._account(result, job.op, job.offset, job.latency_us)
        if name is not None:
            result.tenant_response_times_us.setdefault(name, array("d")).append(response_us)

    def _replay_timed_serialized(
        self,
        trace: Trace,
        result: RunResult,
        arrival: ArrivalSpec,
    ) -> dict[str, float]:
        """Timed replay on one chip x one channel x one plane.

        The back end is a single capacity-1 FCFS resource and a request
        holds it for its whole summed service time.  This is a different
        model from the overlay, not a one-unit special case of it: a
        request that logs no device op (a RAM-map TRIM, a read of an
        unmapped page) still waits its FCFS turn here, whereas the
        overlay completes it at once.
        """
        engine = Engine()
        device = Resource(engine, capacity=1)

        def hold(job: _Job) -> None:
            engine.timeout(job.latency_us, served, job)

        def served(job: _Job) -> None:
            device.release()
            arrivals.complete(job)

        start = partial(device.request, hold)
        account = partial(self._account_timed, result)
        arrivals = _Arrivals(engine, self._served(trace, False), arrival, start, account)
        engine.run()
        result.simulated_us = engine.now
        return _timed_extras(engine.now, arrivals.slots)

    def _replay_timed_overlay(
        self,
        trace: Trace,
        result: RunResult,
        arrival: ArrivalSpec,
    ) -> dict[str, float]:
        """Plane-granular timed replay (every multi-unit topology).

        Each request arrives already served, with the (chip, plane)
        units its FTL work busied, and the overlay queues those visits.
        A visit holds its plane for transfer + array time; the chip's
        die port and the channel bus are held only during the transfer.
        Sibling planes therefore overlap their array times while their
        transfers serialize through the die and the bus, and with one
        plane per chip the plane *is* the chip.  A request completes
        when its last visit does — at once if it logged none.
        """
        engine = Engine()
        spec = self.ftl.spec
        num_chips, planes_per_chip = spec.num_chips, spec.planes_per_chip
        channel_of = self.ftl.device.geometry.channel_of_chip
        ports = [Resource(engine) for _ in range(num_chips)]
        buses = [Resource(engine) for _ in range(spec.num_channels)]
        bus_of = [buses[channel_of(chip)] for chip in range(num_chips)]
        # chip-major: unit (chip, plane) is units[chip * planes_per_chip + plane].
        units = [Resource(engine) for _ in range(num_chips * planes_per_chip)]
        process = engine.process
        timeout = engine.timeout

        def start(job: _Job) -> None:
            per_unit = job.units
            if not per_unit:
                arrivals.complete(job)
                return
            done = engine.all_of(len(per_unit), arrivals.complete, job)
            for (chip, plane), (transfer_us, array_us) in per_unit.items():
                unit = units[chip * planes_per_chip + plane]
                process(
                    enter, _Visit(unit, ports[chip], bus_of[chip], transfer_us, array_us, done)
                )

        # A visit: unit -> (die port -> bus -> transfer -> release bus
        # and port) -> array -> release unit -> the request's join hook.
        def enter(visit: _Visit) -> None:
            visit.unit.request(on_unit, visit)

        def on_unit(visit: _Visit) -> None:
            if visit.transfer_us > 0.0:
                visit.port.request(on_port, visit)
            elif visit.array_us > 0.0:
                timeout(visit.array_us, leave, visit)
            else:
                leave(visit)

        def on_port(visit: _Visit) -> None:
            visit.bus.request(on_bus, visit)

        def on_bus(visit: _Visit) -> None:
            timeout(visit.transfer_us, transferred, visit)

        def transferred(visit: _Visit) -> None:
            visit.bus.release()
            visit.port.release()
            if visit.array_us > 0.0:
                timeout(visit.array_us, leave, visit)
            else:
                leave(visit)

        def leave(visit: _Visit) -> None:
            visit.unit.release()
            process(visit.done)

        account = partial(self._account_timed, result)
        arrivals = _Arrivals(engine, self._served(trace, True), arrival, start, account)
        engine.run()
        result.simulated_us = engine.now
        return _timed_extras(
            engine.now, arrivals.slots, units, ports, buses, plane_granular=planes_per_chip > 1
        )

    def _finalize(self, result: RunResult) -> None:
        stats = self.ftl.stats
        result.gc_us = stats.gc_us
        result.erase_count = stats.erase_count
        result.gc_copied_pages = stats.gc_copied_pages
        result.write_amplification = stats.write_amplification
        result.mean_read_page_us = stats.mean_read_us
        result.mean_write_page_us = stats.mean_write_us
        result.extra = dict(stats.extra)
        if self.ftl.reliability is not None:
            result.extra.update(self.ftl.reliability.result_extras())
