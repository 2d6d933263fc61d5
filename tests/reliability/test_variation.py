"""Tests for the spatial process-variation model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nand.spec import tiny_spec
from repro.reliability.variation import VARIATION_PROFILES, VariationModel


class TestLayerVariation:
    def test_bottom_layer_is_reference(self):
        model = VariationModel(tiny_spec(), block_sigma=0.0)
        assert model.layer_multipliers[-1] == pytest.approx(1.0)

    def test_bottom_fast_layers_err_most(self):
        """Field stress rises toward the narrow (fast) channel bottom."""
        model = VariationModel(tiny_spec(), block_sigma=0.0)
        assert np.all(np.diff(model.layer_multipliers) >= -1e-12)
        assert model.layer_multipliers[0] < model.layer_multipliers[-1]

    def test_zero_exponent_flattens_layers(self):
        model = VariationModel(tiny_spec(), layer_exponent=0.0, block_sigma=0.0)
        assert np.allclose(model.layer_multipliers, 1.0)

    def test_page_multipliers_follow_layer_map(self):
        spec = tiny_spec()
        model = VariationModel(spec, block_sigma=0.0)
        for page in range(spec.pages_per_block):
            layer = spec.layer_of_page(page)
            assert model.page_multipliers[page] == model.layer_multipliers[layer]


class TestBlockVariation:
    def test_deterministic_per_seed(self):
        a = VariationModel(tiny_spec(), seed=7)
        b = VariationModel(tiny_spec(), seed=7)
        assert np.array_equal(a.block_multipliers, b.block_multipliers)

    def test_seed_changes_draw(self):
        a = VariationModel(tiny_spec(), seed=1)
        b = VariationModel(tiny_spec(), seed=2)
        assert not np.array_equal(a.block_multipliers, b.block_multipliers)

    def test_sigma_zero_means_no_spread(self):
        model = VariationModel(tiny_spec(), block_sigma=0.0)
        assert np.allclose(model.block_multipliers, 1.0)

    def test_lognormal_median_near_one(self):
        spec = tiny_spec(blocks_per_chip=512)
        model = VariationModel(spec, block_sigma=0.3)
        assert np.median(model.block_multipliers) == pytest.approx(1.0, rel=0.15)

    def test_multiplier_combines_block_and_page(self):
        model = VariationModel(tiny_spec(), seed=3)
        assert model.multiplier(5, 3) == pytest.approx(
            float(model.block_multipliers[5] * model.page_multipliers[3])
        )


class TestUniformNullModel:
    def test_profiles_registry(self):
        assert "uniform" in VARIATION_PROFILES

    def test_all_multipliers_one(self):
        spec = tiny_spec()
        model = VariationModel(spec, profile="uniform")
        assert np.all(model.block_multipliers == 1.0)
        assert np.all(model.page_multipliers == 1.0)
        for pbn in range(4):
            for page in range(spec.pages_per_block):
                assert model.multiplier(pbn, page) == 1.0


class TestValidation:
    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            VariationModel(tiny_spec(), profile="banana")

    def test_negative_exponent(self):
        with pytest.raises(ConfigError):
            VariationModel(tiny_spec(), layer_exponent=-1.0)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            VariationModel(tiny_spec(), block_sigma=-0.1)

    def test_describe_mentions_profile(self):
        assert "tapered" in VariationModel(tiny_spec()).describe()
