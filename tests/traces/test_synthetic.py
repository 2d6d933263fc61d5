"""Tests for the samplers and the access-pattern algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.traces.synthetic import (
    PatternPhase,
    RandomPattern,
    ScrambledZipfian,
    SequentialPattern,
    SnakePattern,
    StridePattern,
    UniformSampler,
    WeightedChoice,
    ZipfianGenerator,
    fnv1a_64,
    make_pattern,
    parse_phases,
)


class TestZipfian:
    def test_range(self):
        gen = ZipfianGenerator(100, 0.99, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(2000)])
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_rank_zero_most_popular(self):
        gen = ZipfianGenerator(1000, 0.99, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(20000)])
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()

    def test_skew_increases_with_theta(self):
        def top_share(theta):
            gen = ZipfianGenerator(1000, theta, np.random.default_rng(1))
            return np.mean([gen.next() < 10 for _ in range(10000)])

        assert top_share(0.99) > top_share(0.5)

    def test_deterministic_for_seed(self):
        a, b = (ZipfianGenerator(100, 0.9, np.random.default_rng(7)) for _ in range(2))
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_single_item(self):
        gen = ZipfianGenerator(1, 0.9, np.random.default_rng(0))
        assert all(gen.next() == 0 for _ in range(50))

    @pytest.mark.parametrize("bad", [0, -5])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ConfigError):
            ZipfianGenerator(bad)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5])
    def test_rejects_bad_theta(self, theta):
        with pytest.raises(ConfigError):
            ZipfianGenerator(10, theta)


class TestScrambledZipfian:
    def test_range(self):
        gen = ScrambledZipfian(500, 0.99, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(5000)])
        assert samples.min() >= 0
        assert samples.max() < 500

    def test_hot_items_not_clustered_at_low_indices(self):
        gen = ScrambledZipfian(1000, 0.99, np.random.default_rng(2))
        samples = np.array([gen.next() for _ in range(20000)])
        counts = np.bincount(samples, minlength=1000)
        hottest = int(np.argmax(counts))
        assert hottest > 10  # scrambling moved rank 0 away from index 0

    def test_still_skewed(self):
        gen = ScrambledZipfian(1000, 0.99, np.random.default_rng(3))
        samples = np.array([gen.next() for _ in range(20000)])
        counts = np.sort(np.bincount(samples, minlength=1000))[::-1]
        assert counts[:10].sum() > 0.2 * len(samples)


class TestUniformSampler:
    def test_range_and_spread(self):
        gen = UniformSampler(50, np.random.default_rng(0))
        samples = np.array([gen.next() for _ in range(5000)])
        assert samples.min() >= 0 and samples.max() < 50
        counts = np.bincount(samples, minlength=50)
        assert counts.min() > 0  # every slot hit eventually

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigError):
            UniformSampler(0)


class TestHelpers:
    @given(value=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=100)
    def test_fnv_is_deterministic_64bit(self, value):
        a = fnv1a_64(value)
        assert a == fnv1a_64(value)
        assert 0 <= a < 2**64

    def test_fnv_spreads_consecutive_inputs(self):
        hashes = {fnv1a_64(i) % 1000 for i in range(100)}
        assert len(hashes) > 80

    def test_weighted_choice_respects_weights(self):
        choice = WeightedChoice({"a": 0.9, "b": 0.1}, np.random.default_rng(0))
        picks = [choice.next() for _ in range(500)]
        assert picks.count("a") > picks.count("b")

    def test_weighted_choice_rejects_empty(self):
        with pytest.raises(ConfigError):
            WeightedChoice({}, np.random.default_rng(0))

    def test_weighted_choice_rejects_negative(self):
        with pytest.raises(ConfigError, match="'a'"):
            WeightedChoice({"a": -1.0, "b": 2.0}, np.random.default_rng(0))

    def test_weighted_choice_rejects_all_zero(self):
        with pytest.raises(ConfigError, match="all be zero"):
            WeightedChoice({"a": 0.0, "b": 0}, np.random.default_rng(0))

    @given(
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=1e6),
                st.integers(min_value=1, max_value=1000),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_weighted_choice_draws_as_numpy_choice(self, weights, seed):
        # Same picks from the same bit stream as rng.choice(n, p=...),
        # and the stream is left at the same position afterwards.
        keys = [f"k{i}" for i in range(len(weights))]
        p = np.array(weights)
        p = p / p.sum()
        reference = np.random.default_rng(seed)
        expected = [keys[int(reference.choice(len(keys), p=p))] for _ in range(200)]
        rng = np.random.default_rng(seed)
        choice = WeightedChoice(dict(zip(keys, weights)), rng)
        assert [choice.next() for _ in range(200)] == expected
        assert rng.random() == reference.random()


def walk(pattern, count):
    return [pattern.next() for _ in range(count)]


class TestPatterns:
    def test_sequential_wraps(self):
        assert walk(SequentialPattern(4), 6) == [0, 1, 2, 3, 0, 1]

    def test_snake_reverses_odd_rows(self):
        # rows of 3 over 9 slots: 0,1,2 then 5,4,3 then 6,7,8
        assert walk(SnakePattern(9, row=3), 9) == [0, 1, 2, 5, 4, 3, 6, 7, 8]

    def test_snake_short_last_row_clamps(self):
        # 7 slots, rows of 3: last (reversed) row is just 6
        assert walk(SnakePattern(7, row=3), 7) == [0, 1, 2, 5, 4, 3, 6]

    def test_stride_covers_all_slots(self):
        seen = walk(StridePattern(10, stride=3), 10)
        assert sorted(seen) == list(range(10))

    def test_stride_visits_every_strideth_slot_first(self):
        assert walk(StridePattern(12, stride=4), 3) == [0, 4, 8]

    @pytest.mark.parametrize("name", ["seq", "rand", "stride", "snake", "zipf"])
    def test_every_pattern_stays_in_range(self, name):
        pattern = make_pattern(name, 37, np.random.default_rng(0), row=5)
        assert all(0 <= slot < 37 for slot in walk(pattern, 200))

    def test_aliases_resolve(self):
        assert isinstance(make_pattern("sequential", 4, None), SequentialPattern)
        rng = np.random.default_rng(0)
        assert isinstance(make_pattern("random", 4, rng), RandomPattern)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError, match="unknown access pattern"):
            make_pattern("spiral", 10, None)

    @pytest.mark.parametrize("cls", [SequentialPattern, SnakePattern, StridePattern])
    def test_bad_n_rejected(self, cls):
        with pytest.raises(ConfigError):
            cls(0)


class TestPhaseGrammar:
    def test_single_phase(self):
        (phase,) = parse_phases("write:seq")
        assert phase == PatternPhase(op="write", pattern="seq")

    def test_full_program(self):
        phases = parse_phases("write:seq | read:snake@0-3 | mixed:zipf*2")
        assert [p.op for p in phases] == ["write", "read", "mixed"]
        assert phases[1].zones == (0, 3)
        assert phases[2].weight == 2.0

    def test_comma_separator_and_aliases(self):
        phases = parse_phases("w:seq, t:rand, rw:zipf")
        assert [p.op for p in phases] == ["write", "trim", "mixed"]

    def test_single_zone_shorthand(self):
        (phase,) = parse_phases("read:seq@2")
        assert phase.zones == (2, 2)

    def test_discard_alias(self):
        (phase,) = parse_phases("discard:rand")
        assert phase.op == "trim"

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("", "empty phase program"),
            ("write", "must be op:pattern"),
            ("fly:seq", "unknown op"),
            ("write:spiral", "unknown pattern"),
            ("write:seq*zero", "bad weight"),
            ("write:seq*-1", "weight must be > 0"),
            ("write:seq@x-y", "bad zone range"),
            ("write:seq@3-1", "bad zone range"),
        ],
    )
    def test_bad_programs_name_the_token(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            parse_phases(bad)
