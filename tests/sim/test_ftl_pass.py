"""Every replay mode drives the FTL through one pass, in trace order.

Sequential replay, ``precondition`` and both timed models consume the
records of ``SSD._served``.  These tests record the rows ``SSD._serve``
receives and check that every mode serves the trace's rows in trace
order, and that nothing drives the FTL outside ``_serve``.
"""

import numpy as np
import pytest

from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec
from repro.sim.arrival import ArrivalSpec
from repro.sim.ssd import SSD
from repro.traces.record import OPS, IORequest, Trace

DEVICES = {
    "1x1x1": tiny_spec(),
    "2chip-2plane": tiny_spec(num_chips=2, planes_per_chip=2, blocks_per_chip=32),
}

MODES = {
    "sequential": ("sequential", None),
    "open": ("timed", ArrivalSpec()),
    "open-qd2-x8": ("timed", ArrivalSpec(queue_depth=2, scale=8.0)),
    "closed-qd4": ("timed", ArrivalSpec(mode="closed", queue_depth=4)),
}


def _trace(spec, num_requests=400, seed=7):
    """Mixed reads, writes and TRIMs of 1-4 pages, some unaligned, with
    bursts of equal stamps and a few stamps that step backwards."""
    rng = np.random.default_rng(seed)
    page = spec.page_size
    pages = spec.logical_pages
    stamps = np.cumsum(rng.choice([0.0, 100.0, 1000.0], size=num_requests))
    stamps[rng.random(num_requests) < 0.05] -= 300.0
    requests = []
    for stamp in stamps:
        op = OPS[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
        offset = int(rng.integers(0, pages - 4)) * page + int(rng.choice([0, page // 2]))
        size = int(rng.integers(1, 5)) * page
        requests.append(IORequest(op, offset, size, timestamp_us=float(max(stamp, 0.0))))
    return Trace(requests, name="mixed")


def _recorded(spec):
    """A warm-filled SSD that records the ``(op, offset, size)`` rows its
    ``_serve`` receives, and whose FTL fails any host call made outside
    ``_serve``."""
    ssd = SSD(ConventionalFTL(NandDevice(spec)))
    ssd.warm_fill(0.7)
    rows = []
    serving = [False]
    serve = ssd._serve

    def recording(op, offset, size):
        rows.append((op, offset, size))
        serving[0] = True
        try:
            return serve(op, offset, size)
        finally:
            serving[0] = False

    def guarded(method):
        def call(*args, **kwargs):
            assert serving[0], f"{method.__name__} called outside SSD._serve"
            return method(*args, **kwargs)

        return call

    ssd._serve = recording
    for name in ("host_read", "host_write", "trim"):
        setattr(ssd.ftl, name, guarded(getattr(ssd.ftl, name)))
    return ssd, rows


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_mode_serves_the_trace_in_trace_order(device, mode):
    spec = DEVICES[device]
    trace = _trace(spec)
    ssd, rows = _recorded(spec)
    replay_mode, arrival = MODES[mode]
    result = ssd.replay(trace, mode=replay_mode, arrival=arrival)
    assert result.num_requests == len(trace)
    assert rows == list(zip(trace.ops, trace.offsets, trace.sizes))


def test_precondition_is_the_same_pass():
    spec = DEVICES["1x1x1"]
    trace = _trace(spec)
    ssd, rows = _recorded(spec)
    ssd.precondition(trace)
    assert rows == list(zip(trace.ops, trace.offsets, trace.sizes))
    assert ssd.ftl.stats.host_write_pages == 0  # stats reset
