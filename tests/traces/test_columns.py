"""The columnar :class:`Trace` against a list-of-records reference.

The reference below is the container a trace used to be: a plain list
of :class:`IORequest` with every transformation written out request by
request.  The columnar trace must agree with it on every operation, and
bad offsets and sizes must still raise :class:`TraceError` however a
trace is built.
"""

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.scenario.run import build_trace
from repro.scenario.spec import ScenarioSpec
from repro.traces.msr import read_msr_csv
from repro.traces.record import OPS, IORequest, OpType, Trace
from repro.traces.workloads import MediaServerWorkload


def ref_fit_to(requests, capacity, align):
    out = []
    for r in requests:
        offset = (r.offset % capacity) // align * align
        size = min(r.size, capacity - offset)
        if size > 0:
            out.append(IORequest(r.op, offset, size, r.timestamp_us))
    return out


_REQUESTS = st.lists(
    st.builds(
        IORequest,
        op=st.sampled_from(OPS),
        offset=st.integers(min_value=0, max_value=1 << 40),
        size=st.integers(min_value=1, max_value=1 << 22),
        timestamp_us=st.floats(min_value=0.0, max_value=1e12),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    requests=_REQUESTS,
    capacity=st.integers(min_value=1, max_value=1 << 34),
    align=st.sampled_from([1, 512, 4096]),
    n=st.integers(min_value=-3, max_value=45),
)
def test_columns_match_the_list_reference(requests, capacity, align, n):
    trace = Trace(requests, name="t")
    assert list(trace) == requests
    assert len(trace) == len(requests)
    assert [trace[i] for i in range(-len(requests), len(requests))] == requests + requests

    assert trace.read_count == sum(r.is_read for r in requests)
    assert trace.write_count == sum(r.op is OpType.WRITE for r in requests)
    assert trace.bytes_read == sum(r.size for r in requests if r.is_read)
    assert trace.bytes_written == sum(r.size for r in requests if r.op is OpType.WRITE)
    assert trace.footprint_bytes() == max((r.end_offset for r in requests), default=0)

    fitted = trace.fit_to(capacity, align)
    assert list(fitted) == ref_fit_to(requests, capacity, align)
    assert fitted.name == f"t[fit {capacity // 2**20}MiB]"
    assert list(trace.head(n)) == requests[:n]
    assert list(trace.reads_only()) == [r for r in requests if r.is_read]
    assert list(trace) == requests  # transformations leave the source alone


def test_untouched_fit_shares_the_columns():
    trace = Trace([IORequest(OpType.WRITE, 4096, 4096)])
    fitted = trace.fit_to(1 << 20)
    assert fitted.offsets is trace.offsets and fitted.ops is trace.ops


def _columns(offsets, sizes):
    return (
        bytearray(len(offsets)),
        array("q", offsets),
        array("q", sizes),
        array("d", [0.0] * len(offsets)),
    )


class TestTraceErrors:
    @pytest.mark.parametrize(
        "offsets,sizes,message",
        [
            ([0, -1], [4096, 4096], "negative offset -1"),
            ([0, 0], [4096, 0], "non-positive size 0"),
            ([0, 0], [4096, -8], "non-positive size -8"),
            # the first bad row wins, offset checked before size, as the
            # records would raise
            ([0, -4], [0, 4096], "non-positive size 0"),
            ([-4, 0], [0, 4096], "negative offset -4"),
        ],
    )
    def test_constructor_checks_rows_like_records(self, offsets, sizes, message):
        with pytest.raises(TraceError, match=f"^{message}$"):
            Trace.from_columns(*_columns(offsets, sizes))
        with pytest.raises(TraceError, match=f"^{message}$"):
            Trace(IORequest(OpType.READ, o, s) for o, s in zip(offsets, sizes))

    def test_ragged_or_unknown_columns_rejected(self):
        ops, offsets, sizes, stamps = _columns([0, 0], [1, 1])
        with pytest.raises(TraceError):
            Trace.from_columns(ops, offsets, sizes[:1], stamps)
        with pytest.raises(TraceError):
            Trace.from_columns(bytearray([0, len(OPS)]), offsets, sizes, stamps)

    def test_generator_with_empty_requests_raises(self):
        workload = MediaServerWorkload(num_requests=200, stream_request_bytes=0, seed=1)
        with pytest.raises(TraceError, match="non-positive size 0"):
            workload.generate()

    def test_msr_negative_offset_raises_and_empty_rows_skip(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "100,h,0,Read,4096,0,0\n"  # zero size: skipped, as ever
            "200,h,0,Write,-4096,4096,0\n"
        )
        with pytest.raises(TraceError, match="negative offset -4096"):
            read_msr_csv(path)
        path.write_text("100,h,0,Read,4096,0,0\n300,h,0,Write,8192,4096,0\n")
        (request,) = read_msr_csv(path)
        assert request == IORequest(OpType.WRITE, 8192, 4096, 0.0)


def test_web_sql_trace_keeps_at_most_32_bytes_a_request():
    """Columns cost 25 B a request; one object per request cost ~130."""
    build_trace(ScenarioSpec(workload="web-sql", num_requests=100))  # imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = build_trace(ScenarioSpec(workload="web-sql", num_requests=100_000))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 100_000
    assert kept / len(trace) <= 32
