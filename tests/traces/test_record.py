"""Tests for I/O records and trace containers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.traces.record import IORequest, OpType, Trace


class TestOpType:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("R", OpType.READ),
            ("read", OpType.READ),
            ("Read", OpType.READ),
            ("W", OpType.WRITE),
            ("Write", OpType.WRITE),
            ("wr", OpType.WRITE),
        ],
    )
    def test_parse(self, text, expected):
        assert OpType.parse(text) is expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(TraceError):
            OpType.parse("steal")


class TestIORequest:
    def test_basic_properties(self):
        req = IORequest(OpType.READ, offset=4096, size=8192)
        assert req.is_read
        assert req.end_offset == 4096 + 8192

    def test_negative_offset_rejected(self):
        with pytest.raises(TraceError):
            IORequest(OpType.READ, offset=-1, size=10)

    def test_zero_size_rejected(self):
        with pytest.raises(TraceError):
            IORequest(OpType.WRITE, offset=0, size=0)

    def test_pages_single(self):
        req = IORequest(OpType.READ, offset=0, size=100)
        assert list(req.pages(4096)) == [0]

    def test_pages_span(self):
        req = IORequest(OpType.READ, offset=4000, size=200)
        assert list(req.pages(4096)) == [0, 1]

    def test_pages_aligned_span(self):
        req = IORequest(OpType.WRITE, offset=8192, size=8192)
        assert list(req.pages(4096)) == [2, 3]

    @given(
        offset=st.integers(min_value=0, max_value=10**9),
        size=st.integers(min_value=1, max_value=10**6),
        page=st.sampled_from([2048, 4096, 16384]),
    )
    @settings(max_examples=100)
    def test_pages_cover_request(self, offset, size, page):
        req = IORequest(OpType.READ, offset, size)
        pages = req.pages(page)
        assert pages.start * page <= offset
        assert (pages.stop) * page >= req.end_offset


class TestTrace:
    def _trace(self):
        return Trace(
            [
                IORequest(OpType.WRITE, 0, 4096),
                IORequest(OpType.READ, 0, 4096),
                IORequest(OpType.READ, 8192, 4096),
            ],
            name="t",
        )

    def test_counts(self):
        trace = self._trace()
        assert len(trace) == 3
        assert trace.read_count == 2
        assert trace.write_count == 1
        assert trace.read_fraction == pytest.approx(2 / 3)

    def test_footprint(self):
        assert self._trace().footprint_bytes() == 8192 + 4096

    def test_byte_totals(self):
        trace = self._trace()
        assert trace.bytes_read == 8192
        assert trace.bytes_written == 4096

    def test_filters(self):
        trace = self._trace()
        assert len(trace.reads_only()) == 2
        assert len(trace.head(2)) == 2

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.read_fraction == 0.0
        assert trace.footprint_bytes() == 0

    def test_fit_to_wraps_offsets(self):
        trace = Trace([IORequest(OpType.WRITE, 10 * 4096, 4096)])
        fitted = trace.fit_to(5 * 4096)
        assert len(fitted) == 1
        assert fitted[0].offset < 5 * 4096

    def test_fit_to_clamps_size(self):
        trace = Trace([IORequest(OpType.WRITE, 3 * 4096, 4 * 4096)])
        fitted = trace.fit_to(4 * 4096)
        assert fitted[0].end_offset <= 4 * 4096

    def test_fit_to_rejects_bad_capacity(self):
        with pytest.raises(TraceError):
            self._trace().fit_to(0)
