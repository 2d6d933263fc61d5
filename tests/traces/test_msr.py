"""Tests for the MSR Cambridge trace format reader/writer."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.traces.msr import read_msr_csv, read_msr_stream, write_msr_csv
from repro.traces.record import IORequest, OpType, Trace
from repro.traces.workloads import UniformWorkload


class TestParsing:
    def test_single_line(self):
        trace = read_msr_stream(
            io.StringIO("128166372003061629,hm,1,Read,383496192,32768,113736")
        )
        assert len(trace) == 1
        req = trace[0]
        assert req.is_read
        assert req.offset == 383496192
        assert req.size == 32768

    def test_write_line(self):
        trace = read_msr_stream(io.StringIO("0,hm,0,Write,4096,4096,0"))
        assert trace[0].op is OpType.WRITE

    def test_timestamps_normalized_to_zero(self):
        trace = read_msr_stream(io.StringIO("1000,h,0,Read,0,512,0\n3000,h,0,Read,512,512,0\n"))
        assert trace[0].timestamp_us == 0.0
        assert trace[1].timestamp_us == pytest.approx(200.0)  # 2000 ticks

    def test_blank_and_comment_lines_skipped(self):
        trace = read_msr_stream(io.StringIO("\n# header\n0,h,0,Read,0,512,0\n"))
        assert len(trace) == 1

    def test_zero_size_requests_dropped(self):
        trace = read_msr_stream(io.StringIO("0,h,0,Read,0,0,0"))
        assert len(trace) == 0

    def test_malformed_line_raises(self):
        with pytest.raises(TraceFormatError):
            read_msr_stream(io.StringIO("only,three,fields"))

    def test_bad_numbers_raise(self):
        with pytest.raises(TraceFormatError):
            read_msr_stream(io.StringIO("abc,h,0,Read,0,512,0"))

    def test_disk_filter(self):
        stream = io.StringIO(
            "0,h,0,Read,0,512,0\n100,h,1,Read,0,512,0\n200,h,0,Read,0,512,0\n"
        )
        trace = read_msr_stream(stream, disk_filter=0)
        assert len(trace) == 2

    def test_max_requests(self):
        stream = io.StringIO("\n".join(f"{i},h,0,Read,0,512,0" for i in range(10)))
        trace = read_msr_stream(stream, max_requests=3)
        assert len(trace) == 3


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        original = Trace(
            [
                IORequest(OpType.WRITE, 0, 4096, 0.0),
                IORequest(OpType.READ, 4096, 8192, 1500.5),
            ],
            name="orig",
        )
        path = tmp_path / "trace.csv"
        write_msr_csv(original, path)
        loaded = read_msr_csv(path)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.op == b.op
            assert a.offset == b.offset
            assert a.size == b.size
            assert a.timestamp_us == pytest.approx(b.timestamp_us, abs=0.1)

    def test_synthetic_workload_round_trips(self, tmp_path):
        trace = UniformWorkload(num_requests=500, footprint_bytes=32 * 2**20).generate()
        text = write_msr_csv(trace)
        loaded = read_msr_stream(io.StringIO(text))
        assert len(loaded) == len(trace)
        assert loaded.read_count == trace.read_count
        assert loaded.footprint_bytes() == trace.footprint_bytes()
