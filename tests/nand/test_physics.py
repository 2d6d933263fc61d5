"""Tests for the tapered-channel physical model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.nand.physics import TaperedChannelModel


class TestGeometryOfTaper:
    def test_top_is_widest(self):
        model = TaperedChannelModel(num_layers=8, speed_ratio=2.0)
        radii = [model.radius_nm(layer) for layer in range(8)]
        assert radii[0] == max(radii)
        assert radii[-1] == min(radii)

    def test_radius_endpoints(self):
        model = TaperedChannelModel(8, 2.0, top_radius_nm=100.0, bottom_radius_nm=50.0)
        assert model.radius_nm(0) == pytest.approx(100.0)
        assert model.radius_nm(7) == pytest.approx(50.0)

    def test_linear_taper(self):
        model = TaperedChannelModel(5, 2.0, top_radius_nm=100.0, bottom_radius_nm=60.0)
        assert model.radius_nm(2) == pytest.approx(80.0)


class TestFieldConcentration:
    def test_bottom_layer_strongest_field(self):
        model = TaperedChannelModel(8, 3.0)
        fields = [model.field_enhancement(l) for l in range(8)]
        assert fields[-1] == max(fields)
        assert fields[-1] == pytest.approx(1.0)

    def test_field_inverse_to_radius(self):
        model = TaperedChannelModel(4, 2.0, top_radius_nm=120.0, bottom_radius_nm=60.0)
        assert model.field_enhancement(0) == pytest.approx(0.5)


class TestLatencyCalibration:
    @given(
        ratio=st.floats(min_value=1.0, max_value=6.0),
        layers=st.integers(min_value=2, max_value=128),
    )
    @settings(max_examples=60)
    def test_endpoints_hit_speed_ratio_exactly(self, ratio, layers):
        model = TaperedChannelModel(layers, ratio)
        mults = model.multipliers()
        assert mults[0] == pytest.approx(ratio)
        assert mults[-1] == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        model = TaperedChannelModel(64, 5.0)
        assert np.all(np.diff(model.multipliers()) <= 1e-12)

    def test_ratio_one_means_flat(self):
        model = TaperedChannelModel(16, 1.0)
        assert np.allclose(model.multipliers(), 1.0)

    def test_single_layer(self):
        model = TaperedChannelModel(1, 3.0)
        assert model.multipliers().shape == (1,)


class TestValidation:
    def test_rejects_bad_layers(self):
        with pytest.raises(ConfigError):
            TaperedChannelModel(0, 2.0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            TaperedChannelModel(8, 0.9)

    def test_rejects_inverted_taper(self):
        with pytest.raises(ConfigError):
            TaperedChannelModel(8, 2.0, top_radius_nm=50.0, bottom_radius_nm=100.0)

    def test_describe(self):
        assert "layers=8" in TaperedChannelModel(8, 2.0).describe()
