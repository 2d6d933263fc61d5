"""Tests for the asymmetric latency model — the paper's core premise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.nand.latency import LatencyModel
from repro.nand.spec import tiny_spec, table1_spec


class TestLinearProfile:
    def test_first_page_is_slowest(self):
        model = LatencyModel(tiny_spec(speed_ratio=3.0))
        assert model.read_us_by_page[0] == model.read_us_by_page.max()

    def test_last_page_is_fastest(self):
        model = LatencyModel(tiny_spec(speed_ratio=3.0))
        assert model.read_us_by_page[-1] == model.read_us_by_page.min()

    def test_endpoints_hit_speed_ratio(self):
        spec = tiny_spec(speed_ratio=4.0)
        model = LatencyModel(spec)
        assert model.slowest_page_read_us() == pytest.approx(4.0 * spec.read_us)
        assert model.fastest_page_read_us() == pytest.approx(spec.read_us)

    def test_monotone_nonincreasing(self):
        model = LatencyModel(table1_spec(speed_ratio=5.0))
        diffs = np.diff(model.read_us_by_page)
        assert np.all(diffs <= 1e-9)

    @given(ratio=st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=50)
    def test_mean_is_midpoint(self, ratio):
        spec = tiny_spec(speed_ratio=ratio)
        model = LatencyModel(spec)
        expected = spec.read_us * (1 + ratio) / 2
        array_mean = float(np.mean(model.read_us_by_page))
        assert array_mean == pytest.approx(expected, rel=0.02)


class TestOtherProfiles:
    @pytest.mark.parametrize("profile", ["geometric", "physical"])
    def test_endpoints_exact(self, profile):
        spec = tiny_spec(speed_ratio=3.0, latency_profile=profile)
        model = LatencyModel(spec)
        assert model.slowest_page_read_us() == pytest.approx(3.0 * spec.read_us)
        assert model.fastest_page_read_us() == pytest.approx(spec.read_us)

    @pytest.mark.parametrize("profile", ["geometric", "physical"])
    def test_monotone(self, profile):
        spec = table1_spec(speed_ratio=4.0, latency_profile=profile)
        model = LatencyModel(spec)
        assert np.all(np.diff(model.read_us_by_page) <= 1e-9)

    def test_uniform_profile_has_no_asymmetry(self):
        spec = tiny_spec(speed_ratio=3.0, latency_profile="uniform")
        model = LatencyModel(spec)
        assert model.slowest_page_read_us() == pytest.approx(
            model.fastest_page_read_us()
        )

    def test_uniform_preserves_linear_mean(self):
        linear = LatencyModel(tiny_spec(speed_ratio=3.0))
        uniform = LatencyModel(tiny_spec(speed_ratio=3.0, latency_profile="uniform"))
        assert np.mean(uniform.read_us_by_page) == pytest.approx(
            np.mean(linear.read_us_by_page), rel=0.02
        )


class TestProgramAsymmetry:
    def test_default_programs_are_constant(self):
        model = LatencyModel(tiny_spec(speed_ratio=5.0))
        assert model.program_us_by_page.min() == model.program_us_by_page.max()

    def test_full_asymmetry_follows_reads(self):
        spec = tiny_spec(speed_ratio=5.0, program_asymmetry=1.0)
        model = LatencyModel(spec)
        ratio = model.program_us_by_page[0] / model.program_us_by_page[-1]
        assert ratio == pytest.approx(5.0)

    def test_partial_asymmetry_interpolates(self):
        spec = tiny_spec(speed_ratio=3.0, program_asymmetry=0.5)
        model = LatencyModel(spec)
        ratio = model.program_us_by_page[0] / model.program_us_by_page[-1]
        assert 1.0 < ratio < 3.0


class TestTransferAndErase:
    def test_read_includes_transfer_by_default(self):
        spec = tiny_spec()
        model = LatencyModel(spec)
        with_transfer = model.read_total_us[0]
        without = model.read_array_us[0]
        assert with_transfer == pytest.approx(without + spec.transfer_us())

    def test_erase_is_layer_independent(self):
        model = LatencyModel(tiny_spec(speed_ratio=5.0))
        assert model.erase_us() == tiny_spec().erase_us


class TestSpeedClasses:
    def test_two_classes_split_in_half(self):
        spec = tiny_spec()  # 16 pages per block
        model = LatencyModel(spec)
        classes = [model.speed_class(p, 2) for p in range(16)]
        assert classes == [0] * 8 + [1] * 8

    def test_class_zero_is_slowest(self):
        spec = tiny_spec(speed_ratio=4.0)
        model = LatencyModel(spec)
        slow = [model.read_us_by_page[p] for p in range(16) if model.speed_class(p, 2) == 0]
        fast = [model.read_us_by_page[p] for p in range(16) if model.speed_class(p, 2) == 1]
        assert min(slow) >= max(fast)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_k_classes_cover_and_order(self, k):
        model = LatencyModel(tiny_spec())
        classes = [model.speed_class(p, k) for p in range(16)]
        assert set(classes) == set(range(k))
        assert classes == sorted(classes)

    def test_invalid_inputs(self):
        model = LatencyModel(tiny_spec())
        with pytest.raises(ConfigError):
            model.speed_class(0, 0)
        with pytest.raises(ConfigError):
            model.speed_class(99, 2)


class TestRetryReads:
    def test_zero_steps_cost_nothing(self):
        model = LatencyModel(tiny_spec())
        assert model.retry_read_us(0, 0) == 0.0
        assert model.retry_read_us(0, -1) == 0.0

    def test_step_costs_array_read_plus_transfer(self):
        spec = tiny_spec(speed_ratio=3.0)
        model = LatencyModel(spec)
        expected = model.read_array_us[5] + spec.transfer_us()
        assert model.retry_read_us(5, 1) == pytest.approx(expected)
        assert model.retry_read_us(5, 3) == pytest.approx(3 * expected)

    def test_retries_inherit_page_asymmetry(self):
        model = LatencyModel(tiny_spec(speed_ratio=4.0))
        last = tiny_spec().pages_per_block - 1
        assert model.retry_read_us(0, 2) > model.retry_read_us(last, 2)
