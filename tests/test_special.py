import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from jointpo.special import chi2_sf, expit, regularized_gamma_p, regularized_gamma_q

from helpers import poisson_sum_chi2_sf


class TestChiSquareTail:
    def test_table_values_to_three_decimals(self):
        assert round(chi2_sf(4.190, 8), 3) == 0.840
        assert round(chi2_sf(8.793, 8), 3) == 0.360

    def test_fine_values_against_poisson_oracle(self):
        for x in (4.190, 8.793):
            assert chi2_sf(x, 8) == pytest.approx(
                poisson_sum_chi2_sf(x, 8), abs=1e-8
            )

    def test_twenty_pairs_against_independent_oracles(self):
        rng = np.random.default_rng(20260809)
        pairs = [(float(rng.uniform(0.01, 60)), int(rng.integers(1, 40))) for _ in range(20)]
        for x, df in pairs:
            ours = chi2_sf(x, df)
            assert ours == pytest.approx(stats.chi2.sf(x, df), abs=1e-8)
            if df % 2 == 0:
                assert ours == pytest.approx(poisson_sum_chi2_sf(x, df), abs=1e-8)

    def test_at_zero_and_monotone_decreasing(self):
        assert chi2_sf(0.0, 5) == 1.0
        grid = np.linspace(0.0, 40.0, 200)
        values = [chi2_sf(x, 7) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        x=st.floats(min_value=1e-6, max_value=200.0),
        df=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_everywhere(self, x, df):
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-10)

    @pytest.mark.parametrize("df", (1, 8, 40))
    def test_nan_and_infinite_statistics(self, df):
        assert np.isnan(chi2_sf(float("nan"), df))
        assert chi2_sf(float("inf"), df) == 0.0 == stats.chi2.sf(np.inf, df)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            regularized_gamma_q(-1.0, 2.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -2.0)


def test_gamma_p_q_complementary():
    for a in (0.5, 1.0, 4.0, 17.5):
        for x in (0.1, 1.0, 5.0, 30.0):
            assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == pytest.approx(1.0, abs=1e-12)


def test_expit_known_values():
    assert float(expit(0.0)) == pytest.approx(0.5)
    assert float(expit(-0.5)) == pytest.approx(0.3775406687981454, abs=1e-15)
    assert float(expit(0.5)) == pytest.approx(0.6224593312018546, abs=1e-15)
