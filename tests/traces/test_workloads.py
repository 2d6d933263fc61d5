"""Tests for the synthetic enterprise workload generators.

These assert the *characteristics* the paper's narrative depends on:
read/write mix, size mix relative to the page size (first-stage size
check), sequentiality of media streams, and re-access skew.
"""

import pytest

from repro.errors import ConfigError
from repro.traces.stats import characterize
from repro.traces.record import OpType
from repro.traces.workloads import (
    WORKLOADS,
    MediaServerWorkload,
    PatternSuiteWorkload,
    SyntheticWorkload,
    UniformWorkload,
    WebSqlWorkload,
)

_MB = 1024 * 1024


@pytest.fixture(scope="module")
def media_trace():
    return MediaServerWorkload(num_requests=20_000, footprint_bytes=512 * _MB).generate()


@pytest.fixture(scope="module")
def web_trace():
    return WebSqlWorkload(num_requests=20_000, footprint_bytes=512 * _MB).generate()


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = WebSqlWorkload(num_requests=2000, footprint_bytes=64 * _MB, seed=9).generate()
        b = WebSqlWorkload(num_requests=2000, footprint_bytes=64 * _MB, seed=9).generate()
        assert [(r.op, r.offset, r.size) for r in a] == [
            (r.op, r.offset, r.size) for r in b
        ]

    def test_different_seed_different_trace(self):
        a = WebSqlWorkload(num_requests=2000, footprint_bytes=64 * _MB, seed=1).generate()
        b = WebSqlWorkload(num_requests=2000, footprint_bytes=64 * _MB, seed=2).generate()
        assert [(r.offset) for r in a] != [(r.offset) for r in b]

    def test_exact_request_count(self, media_trace, web_trace):
        assert len(media_trace) == 20_000
        assert len(web_trace) == 20_000


class TestMediaServerShape:
    def test_read_dominant(self, media_trace):
        assert media_trace.read_fraction > 0.7

    def test_streams_are_sequential(self, media_trace):
        sequential = 0
        reads = 0
        previous = None
        for req in media_trace:
            if req.is_read and req.size >= 64 * 1024:
                if previous is not None and req.offset == previous:
                    sequential += 1
                reads += 1
                previous = req.end_offset
            else:
                previous = None
        assert sequential / reads > 0.5

    def test_has_small_metadata_traffic(self, media_trace):
        # Stream events emit long request runs, so metadata's share of
        # *requests* is much smaller than its share of events; a few
        # percent of small requests is the expected signature.
        small = [r for r in media_trace if r.size <= 8 * 1024]
        assert len(small) > 0.03 * len(media_trace)

    def test_footprint_respected(self, media_trace):
        assert media_trace.footprint_bytes() <= 512 * _MB


class TestWebSqlShape:
    def test_mixed_read_write(self, web_trace):
        assert 0.35 < web_trace.read_fraction < 0.8

    def test_requests_are_small(self, web_trace):
        sizes = [r.size for r in web_trace]
        assert sorted(sizes)[len(sizes) // 2] <= 16 * 1024  # median <= one page

    def test_strong_read_skew(self, web_trace):
        stats = characterize(web_trace, page_size=16 * 1024)
        assert stats.read_skew["10%"] > 0.4

    def test_size_check_splits_hot_cold(self, web_trace):
        stats = characterize(web_trace, page_size=16 * 1024)
        # a meaningful share of writes is below page size (hot)...
        assert stats.small_write_fraction > 0.2
        # ...but not everything.
        assert stats.small_write_fraction < 0.9

    def test_page_size_dependence_of_size_check(self, web_trace):
        at16k = characterize(web_trace, page_size=16 * 1024).small_write_fraction
        at8k = characterize(web_trace, page_size=8 * 1024).small_write_fraction
        assert at16k > at8k  # Fig. 12's page-size effect enters here


class TestUniformWorkload:
    def test_reads_only_touch_written_data(self):
        trace = UniformWorkload(num_requests=5000, footprint_bytes=64 * _MB).generate()
        written = set()
        for req in trace:
            if req.op is OpType.WRITE:
                written.add(req.offset)
            else:
                assert req.offset in written

    def test_read_fraction_parameter(self):
        trace = UniformWorkload(
            num_requests=5000, footprint_bytes=64 * _MB, read_fraction=0.2
        ).generate()
        assert trace.read_fraction < 0.4

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ConfigError):
            UniformWorkload(read_fraction=1.5)


class TestBaseValidation:
    def test_rejects_zero_requests(self):
        with pytest.raises(ConfigError):
            SyntheticWorkload(num_requests=0)

    def test_rejects_tiny_footprint(self):
        with pytest.raises(ConfigError):
            SyntheticWorkload(footprint_bytes=1024)

    def test_timestamps_monotone(self, web_trace):
        stamps = [r.timestamp_us for r in web_trace]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))


@pytest.mark.parametrize(
    "cls,known", [(WebSqlWorkload, "index"), (MediaServerWorkload, "stream")]
)
class TestEventWeights:
    """Bad ``event_weights`` fail when the generator is built, naming the key."""

    def test_unknown_event_rejected(self, cls, known):
        # Used to emit "bogus" events through the last branch of _emit.
        with pytest.raises(ConfigError, match="'bogus'"):
            cls(event_weights={known: 1, "bogus": 1})

    def test_negative_weight_rejected(self, cls, known):
        # Used to fail only inside generate(), with numpy's ValueError.
        with pytest.raises(ConfigError, match=f"'{known}'"):
            cls(event_weights={known: -0.5})

    def test_all_zero_weights_rejected(self, cls, known):
        with pytest.raises(ConfigError, match="all be zero"):
            cls(event_weights={known: 0.0})

    def test_zero_weight_events_never_drawn(self, cls, known):
        weights = dict.fromkeys(cls._EMITTERS, 0.0)
        weights[known] = 1.0
        mixed = cls(num_requests=500, footprint_bytes=64 * _MB, event_weights=weights)
        alone = cls(num_requests=500, footprint_bytes=64 * _MB, event_weights={known: 1.0})
        assert [(r.op, r.offset) for r in mixed.generate()] == [
            (r.op, r.offset) for r in alone.generate()
        ]


class TestPatternSuite:
    def make(self, **kw):
        kw.setdefault("num_requests", 1000)
        kw.setdefault("footprint_bytes", 64 * _MB)
        return PatternSuiteWorkload(**kw)

    def test_registered(self):
        assert WORKLOADS["pattern-suite"] is PatternSuiteWorkload

    def test_exact_request_count_with_weights(self):
        trace = self.make(phases="write:seq | read:rand*0.3 | mixed:zipf*1.7").generate()
        assert len(trace) == 1000

    def test_quotas_follow_weights(self):
        workload = self.make(phases="write:seq*3 | read:rand")
        assert workload._quotas == [750, 250]

    def test_pure_phases_emit_one_op_class(self):
        trace = self.make(phases="write:seq | read:seq | trim:seq").generate()
        ops = [r.op for r in trace]
        third = len(trace) // 3
        assert set(ops[:third]) == {OpType.WRITE}
        assert set(ops[third:2 * third]) == {OpType.READ}
        assert set(ops[2 * third:]) == {OpType.TRIM}

    def test_sequential_phase_walks_the_footprint(self):
        workload = self.make(phases="write:seq", num_zones=1)
        trace = workload.generate()
        step = workload.request_bytes
        offsets = [r.offset for r in trace]
        assert offsets[:4] == [0, step, 2 * step, 3 * step]

    def test_zone_subset_bounds_offsets(self):
        workload = self.make(phases="write:rand@2-3", num_zones=4)
        trace = workload.generate()
        zone_bytes = workload.slots_per_zone * workload.request_bytes
        for req in trace:
            assert 2 * zone_bytes <= req.offset < 4 * zone_bytes

    def test_phase_barrier_jumps_the_clock(self):
        workload = self.make(phases="write:seq | read:seq", barrier_us=1e6)
        trace = workload.generate()
        stamps = [r.timestamp_us for r in trace]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert max(gaps) >= 1e6  # exactly one barrier in the stream
        assert sum(1 for g in gaps if g >= 1e6) == 1

    def test_mixed_phase_draws_all_three_ops(self):
        trace = self.make(
            phases="mixed:zipf", read_fraction=0.5, trim_fraction=0.2
        ).generate()
        ops = {r.op for r in trace}
        assert ops == {OpType.READ, OpType.WRITE, OpType.TRIM}

    def test_deterministic_per_seed(self):
        a = self.make(seed=5).generate()
        b = self.make(seed=5).generate()
        assert [(r.op, r.offset) for r in a] == [(r.op, r.offset) for r in b]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_zones=0),
            dict(read_fraction=1.2),
            dict(trim_fraction=-0.1),
            dict(read_fraction=0.7, trim_fraction=0.5),
            dict(phases="write:seq@0-9", num_zones=4),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            self.make(**kw)

    def test_footprint_too_small_for_zones(self):
        with pytest.raises(ConfigError, match="too small"):
            self.make(footprint_bytes=16 * _MB, num_zones=2048)
