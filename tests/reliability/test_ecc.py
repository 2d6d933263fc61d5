"""Tests for the ECC / read-retry staircase."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.reliability.ecc import EccModel


class TestRetryStaircase:
    def test_below_limit_needs_no_retry(self):
        ecc = EccModel(rber_limit=1e-3)
        assert ecc.retries_needed(5e-4) == (0, False)
        assert ecc.retries_needed(1e-3) == (0, False)

    def test_each_gain_step_adds_one_retry(self):
        ecc = EccModel(rber_limit=1e-3, retry_gain=2.0, max_retries=8)
        assert ecc.retries_needed(2e-3) == (1, False)
        assert ecc.retries_needed(4e-3) == (2, False)
        assert ecc.retries_needed(3e-3) == (2, False)

    def test_budget_exhaustion_is_uncorrectable(self):
        ecc = EccModel(rber_limit=1e-3, retry_gain=2.0, max_retries=3)
        limit = 8e-3  # rber_limit * retry_gain ** max_retries
        assert ecc.retries_needed(limit * 0.99) == (3, False)
        steps, uncorrectable = ecc.retries_needed(limit * 1.01)
        assert steps == 3
        assert uncorrectable

    def test_zero_budget(self):
        ecc = EccModel(rber_limit=1e-3, max_retries=0)
        assert ecc.retries_needed(1e-4) == (0, False)
        assert ecc.retries_needed(2e-3) == (0, True)

    @given(
        rber=st.floats(min_value=1e-9, max_value=0.5),
        extra=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=80)
    def test_monotone_in_rber(self, rber, extra):
        """A worse channel can never need fewer retries."""
        ecc = EccModel()
        low_steps, low_unc = ecc.retries_needed(rber)
        high_steps, high_unc = ecc.retries_needed(rber * extra)
        assert high_steps >= low_steps
        assert high_unc >= low_unc


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rber_limit": 0.0},
            {"rber_limit": -1e-3},
            {"retry_gain": 1.0},
            {"retry_gain": 0.5},
            {"max_retries": -1},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            EccModel(**kwargs)

    def test_describe_mentions_budget(self):
        assert "budget=8" in EccModel().describe()
