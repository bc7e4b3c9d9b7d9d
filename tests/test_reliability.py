import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath.errors import DataError, NotPositiveDefiniteError

from conftest import v_names

# Reference standardized loadings for the bundled survey model, with the
# published CR/AVE they must reproduce under error variances 1 - lambda^2.
REFERENCE_LOADINGS = {
    "ConsEth": [0.515, 0.742, 0.838, 0.836, 0.546, 0.807],
    "EnvSt": [0.703, 0.647, 0.585],
    "PBC": [0.661, 0.631, 0.524],
    "PerVa": [0.647, 0.626, 0.594, 0.634],
    "PB": [0.754, 0.774, 0.669, 0.594, 0.776],
}
REFERENCE_CR = {
    "ConsEth": 0.8662, "EnvSt": 0.6821, "PBC": 0.6356,
    "PerVa": 0.7198, "PB": 0.8397,
}
REFERENCE_AVE = {
    "ConsEth": 0.5277, "EnvSt": 0.4183, "PBC": 0.3699,
    "PerVa": 0.3913, "PB": 0.5140,
}


def spreadsheet_alpha(X):
    """Cronbach's alpha the long way: explicit cell arithmetic."""
    n, k = X.shape
    means = [sum(X[:, j]) / n for j in range(k)]
    item_vars = [
        sum((X[i, j] - means[j]) ** 2 for i in range(n)) / (n - 1)
        for j in range(k)
    ]
    totals = [sum(X[i, :]) for i in range(n)]
    tmean = sum(totals) / n
    tvar = sum((t - tmean) ** 2 for t in totals) / (n - 1)
    return (k / (k - 1)) * (1 - sum(item_vars) / tvar)


class TestCronbachAlpha:
    def test_identical_columns_give_one(self):
        col = np.array([1.0, 4.0, 2.0, 3.0])
        X = np.column_stack([col, col, col])
        assert lp.cronbach_alpha(X) == pytest.approx(1.0)

    def test_orthogonal_equal_variance_columns_give_zero(self):
        # exactly uncorrelated on this constructed sample
        X = np.array([
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, 1.0],
            [-1.0, -1.0, -1.0],
        ])
        mom = lp.covariance(lp.Dataset(v_names(3), X))
        assert np.allclose(mom.S, np.eye(3) * mom.S[0, 0])
        assert lp.cronbach_alpha(X) == pytest.approx(0.0, abs=1e-12)

    def test_hand_dataset_matches_spreadsheet_oracle(self):
        X = np.array([
            [3.0, 4.0, 3.0],
            [5.0, 5.0, 4.0],
            [2.0, 3.0, 2.0],
            [4.0, 5.0, 5.0],
            [1.0, 2.0, 2.0],
        ])
        assert lp.cronbach_alpha(X) == pytest.approx(spreadsheet_alpha(X), abs=1e-12)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        shifted = X + np.array([0.0, 100.0, -3.0, 7.5])
        assert lp.cronbach_alpha(X) == pytest.approx(lp.cronbach_alpha(shifted))

    def test_zero_total_variance(self):
        X = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        with pytest.raises(DataError, match="zero total variance"):
            lp.cronbach_alpha(X)

    @pytest.mark.parametrize("X", [np.ones(4), np.ones((4, 1))], ids=["vector", "one_item"])
    def test_fewer_than_two_items_rejected(self, X):
        with pytest.raises(DataError, match="^need an n x k block with k >= 2 items$"):
            lp.cronbach_alpha(X)

    def test_one_observation_rejected(self):
        with pytest.raises(DataError, match="^need at least 2 observations$"):
            lp.cronbach_alpha(np.array([[1.0, 2.0, 3.0]]))


class TestCompositeReliability:
    @pytest.mark.parametrize("construct", sorted(REFERENCE_LOADINGS))
    def test_reference_cr(self, construct):
        cr = lp.composite_reliability(REFERENCE_LOADINGS[construct])
        assert cr == pytest.approx(REFERENCE_CR[construct], abs=5e-4)

    @pytest.mark.parametrize("construct", sorted(REFERENCE_LOADINGS))
    def test_reference_ave(self, construct):
        ave = lp.average_variance_extracted(REFERENCE_LOADINGS[construct])
        assert ave == pytest.approx(REFERENCE_AVE[construct], abs=5e-4)

    def test_perfect_loadings(self):
        # unit standardized loadings leave no error variance
        assert lp.composite_reliability([1.0, 1.0]) == 1.0
        assert lp.average_variance_extracted([1.0, 1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            lp.composite_reliability([])
        with pytest.raises(DataError):
            lp.average_variance_extracted([])

    def test_loading_above_one_rejected(self):
        # a standardized loading of 1.2 leaves an error variance of -0.44
        for statistic in (lp.composite_reliability, lp.average_variance_extracted):
            with pytest.raises(DataError, match="^error variances must be nonnegative$"):
                statistic([1.2, 0.5])

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_item_order_irrelevant(self, perm):
        lam = np.array(REFERENCE_LOADINGS["PerVa"])
        assert lp.composite_reliability(lam[list(perm)]) == pytest.approx(
            lp.composite_reliability(lam))
        assert lp.average_variance_extracted(lam[list(perm)]) == pytest.approx(
            lp.average_variance_extracted(lam))


def compound_symmetric(p, rho):
    return (1 - rho) * np.eye(p) + rho * np.ones((p, p))


class TestKmo:
    def test_identity_is_undefined(self):
        with pytest.raises(DataError, match="undefined"):
            lp.kmo(np.eye(4))

    def test_three_by_three_against_explicit_inverse(self):
        # R = (1-rho) I + rho J has inverse (I - rho J / (1+(p-1)rho)) / (1-rho)
        p, rho = 3, 0.5
        R = compound_symmetric(p, rho)
        Rinv = (np.eye(p) - rho * np.ones((p, p)) / (1 + (p - 1) * rho)) / (1 - rho)
        np.testing.assert_allclose(Rinv, np.linalg.inv(R), atol=1e-12)
        d = np.sqrt(np.diag(Rinv))
        Q = -Rinv / np.outer(d, d)
        off = ~np.eye(p, dtype=bool)
        expected = (R[off] ** 2).sum() / ((R[off] ** 2).sum() + (Q[off] ** 2).sum())
        assert lp.kmo(R) == pytest.approx(expected, abs=1e-12)
        assert lp.kmo(R) == pytest.approx(9 / 13, abs=1e-12)

    def test_one_factor_structure_scores_high(self):
        lam = 0.85
        p = 6
        R = np.full((p, p), lam * lam)
        np.fill_diagonal(R, 1.0)
        assert lp.kmo(R) > 0.7

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="^correlation matrix is singular$"):
            lp.kmo(np.ones((3, 3)))

    def test_non_symmetric_rejected(self):
        R = np.eye(3)
        R[0, 1] = 0.2
        with pytest.raises(DataError, match="symmetric"):
            lp.kmo(R)


class TestBartlett:
    def test_identity_gives_zero(self):
        chi2, df, p = lp.bartlett(np.eye(5), n=100)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert df == 10
        assert p == pytest.approx(1.0)

    def test_two_variable_closed_form(self):
        # -(n-1-(2p+5)/6) ln(1-r^2) at r=0.5, n=100
        chi2, df, _ = lp.bartlett(compound_symmetric(2, 0.5), n=100)
        expected = -(99 - 1.5) * math.log(0.75)
        assert chi2 == pytest.approx(expected, abs=1e-10)
        assert df == 1

    def test_strong_correlation_is_significant(self):
        R = compound_symmetric(5, 0.6)
        chi2, df, p = lp.bartlett(R, n=519)
        assert p < 0.01

    def test_nonnegative_and_zero_iff_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.standard_normal((40, 4))
            R = lp.covariance(lp.Dataset(v_names(4), X)).R
            chi2, _, _ = lp.bartlett(R, n=40)
            assert chi2 >= 0
        chi2_id, _, _ = lp.bartlett(np.eye(4), n=40)
        assert chi2_id == pytest.approx(0.0, abs=1e-12)

    def test_negative_statistic_keeps_unit_p_value(self):
        # at n = 3 the factor n - 1 - (2p + 5)/6 is negative, so chi2 < 0;
        # the upper tail of a negative statistic is 1, not NaN
        chi2, df, p = lp.bartlett(compound_symmetric(6, 0.3), n=3)
        assert chi2 == pytest.approx(-0.7226, abs=1e-4)
        assert df == 15
        assert p == 1.0

    def test_non_pd_rejected(self):
        R = compound_symmetric(3, -0.9)  # negative definite pattern
        with pytest.raises(NotPositiveDefiniteError):
            lp.bartlett(R, n=50)


class TestFornellLarcker:
    def test_sqrt_ave_diagonal(self):
        fl = lp.fornell_larcker({"PB": 0.514}, np.array([[1.0]]), ["PB"])
        assert fl.matrix[0, 0] == pytest.approx(0.717, abs=1e-3)

    def test_pass_and_fail_flags(self):
        names = ["ConsEth", "PerVa", "EnvSt"]
        corr = np.array([
            [1.0, 0.205, 0.175],
            [0.205, 1.0, 0.786],
            [0.175, 0.786, 1.0],
        ])
        fl = lp.fornell_larcker(
            {"ConsEth": 0.5277, "PerVa": 0.3913, "EnvSt": 0.4183}, corr, names)
        assert fl.passed["ConsEth"]          # 0.726 > 0.205
        assert not fl.passed["PerVa"]        # 0.626 < 0.786
        assert not fl.all_passed

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            lp.fornell_larcker({"A": 0.5}, np.eye(2), ["A"])

    def test_names_default_to_the_order_of_ave(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        fl = lp.fornell_larcker({"B": 0.64, "A": 0.25}, corr)
        assert fl.names == ["B", "A"]
        assert fl.matrix[0, 0] == pytest.approx(0.8) and fl.matrix[1, 1] == pytest.approx(0.5)

    def test_names_that_are_not_the_ave_keys_rejected(self):
        with pytest.raises(DataError, match="^AVE keys do not match construct names$"):
            lp.fornell_larcker({"A": 0.5}, np.eye(1), ["B"])
