import math

import numpy as np
import pytest

import latentpath as lp
from latentpath.errors import NotPositiveDefiniteError

from conftest import one_factor_spec


class TestBaseline:
    def test_diagonal_sample_gives_zero(self):
        S = np.diag([1.0, 2.0, 0.5])
        chisq_null, df_null = lp.baseline(S, n=100)
        assert chisq_null == pytest.approx(0.0, abs=1e-12)
        assert df_null == 3

    def test_two_variable_closed_form(self):
        # unit variances, correlation r: F_null = -ln(1 - r^2)
        r = 0.5
        S = np.array([[1.0, r], [r, 1.0]])
        chisq_null, df_null = lp.baseline(S, n=101)
        assert chisq_null == pytest.approx(-100 * math.log(1 - r * r), abs=1e-10)
        assert chisq_null == pytest.approx(28.768, abs=1e-3)
        assert df_null == 1

    def test_null_dominates_fitted_model(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        chisq_null, df_null = lp.baseline(res.S, res.n)
        assert chisq_null >= res.chisq
        assert df_null >= 0

    def test_scale_free_of_units(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 3))
        S = np.cov(X, rowvar=False)
        scale = np.diag([2.0, 0.5, 7.0])
        a, _ = lp.baseline(S, n=40)
        b, _ = lp.baseline(scale @ S @ scale, n=40)
        assert a == pytest.approx(b, rel=1e-10)


    def test_non_pd_sample_rejected(self):
        with pytest.raises(NotPositiveDefiniteError,
                           match="^sample covariance is not positive definite$"):
            lp.baseline(np.array([[1.0, 2.0], [2.0, 1.0]]), n=100)

    def test_nonpositive_variances_rejected(self):
        # -I has a positive determinant, so only its diagonal gives it away
        with pytest.raises(NotPositiveDefiniteError,
                           match="^sample covariance has nonpositive variances$"):
            lp.baseline(-np.eye(2), n=100)


class TestIndices:
    def test_rmsea_from_ratio_independent_of_df(self):
        n = 519
        for df in (10, 179, 400):
            chisq = 2.727 * df
            rep = lp.indices(chisq, df, chisq_null=10 * chisq, df_null=df + 5,
                             n=n, S=np.eye(3), sigma_hat=np.eye(3))
            assert rep.rmsea == pytest.approx(math.sqrt(1.727 / 518), abs=1e-12)
            assert rep.rmsea == pytest.approx(0.0577, abs=1e-3)

    def test_perfect_fit_boundary(self):
        rep = lp.indices(chisq=50.0, df=50, chisq_null=500.0, df_null=55,
                         n=200, S=np.eye(4), sigma_hat=np.eye(4))
        assert rep.rmsea == pytest.approx(0.0)
        assert rep.cfi == pytest.approx(1.0)

    def test_gfi_agfi_at_equality(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        S = A @ A.T + np.eye(4)
        rep = lp.indices(chisq=10.0, df=5, chisq_null=100.0, df_null=6,
                         n=100, S=S, sigma_hat=S)
        assert rep.gfi == pytest.approx(1.0, abs=1e-12)
        assert rep.agfi == pytest.approx(1.0, abs=1e-12)

    def test_rmsea_equals_population_discrepancy_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(50, 1000))
            df = int(rng.integers(1, 60))
            chisq = float(rng.uniform(0, 4) * df)
            f_min = chisq / (n - 1)
            f0 = max(f_min - df / (n - 1), 0.0)
            rep = lp.indices(chisq, df, chisq_null=chisq + 100, df_null=df + 5,
                             n=n, S=np.eye(2), sigma_hat=np.eye(2))
            assert rep.rmsea == pytest.approx(math.sqrt(f0 / df), abs=1e-12)

    def test_cfi_at_least_nfi_on_simulated_fits(self):
        rng = np.random.default_rng(17)
        spec = one_factor_spec(4)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        for rep_i in range(8):
            lam = rng.uniform(0.5, 0.9)
            theta = lp.theta_from_config(
                m, {}, dict(loading=lam, error_variance=1 - lam * lam,
                            latent_variance=1.0))
            data = lp.simulate(m, theta, 300, seed=int(rng.integers(1, 1 << 30)))
            res = lp.fit(spec, lp.covariance(data), compute_se=False)
            rep = lp.from_fit(res)
            assert rep.cfi >= rep.nfi - 1e-12

    def test_variable_reordering_invariance(self, survey_spec, planted):
        m, theta = planted
        data = lp.simulate(m, theta, 600, seed=8)
        res_a = lp.fit(survey_spec, lp.covariance(data), compute_se=False)
        rep_a = lp.from_fit(res_a)
        order = list(reversed(data.names))
        idx = [data.names.index(v) for v in order]
        res_b = lp.fit(survey_spec,
                       lp.covariance(lp.Dataset(order, data.values[:, idx])),
                       compute_se=False)
        rep_b = lp.from_fit(res_b)
        for key, value in rep_a.values().items():
            other = rep_b.values()[key]
            if value is None:
                assert other is None
            else:
                assert other == pytest.approx(value, abs=1e-6)

    def test_pass_flags_follow_thresholds(self):
        rep = lp.indices(chisq=273.0, df=100, chisq_null=2730.0, df_null=110,
                         n=519, S=np.eye(3), sigma_hat=np.eye(3))
        assert rep.passed["chisq_df"] is True     # 2.73 < 5
        assert rep.passed["rmsea"] is True        # 0.058 < 0.08
        assert rep.passed["pnfi"] == (rep.pnfi > 0.5)
        assert rep.passed["cfi"] == (rep.cfi > 0.9)

    def test_undefined_indices_with_zero_df(self):
        rep = lp.indices(chisq=0.0, df=0, chisq_null=10.0, df_null=3,
                         n=50, S=np.eye(2), sigma_hat=np.eye(2))
        assert rep.chisq_df is None
        assert rep.rmsea is None
        assert rep.agfi is None
        assert rep.passed["chisq_df"] is None

    def test_null_model_that_fits(self):
        # a diagonal S gives the independence model chi-square 0
        rep = lp.indices(chisq=0.0, df=1, chisq_null=0.0, df_null=3,
                         n=50, S=np.eye(3), sigma_hat=np.eye(3))
        assert rep.nfi is None and rep.pnfi is None
        assert rep.cfi == 1.0

    def test_nfi_clamped(self):
        rep = lp.indices(chisq=120.0, df=4, chisq_null=100.0, df_null=6,
                         n=50, S=np.eye(2), sigma_hat=np.eye(2))
        assert rep.nfi == 0.0
        assert 0.0 <= rep.cfi <= 1.0

    def test_from_fit_consistent(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        rep = lp.from_fit(res)
        assert rep.chisq == pytest.approx(res.chisq)
        assert rep.df == res.df
        chisq_null, df_null = lp.baseline(res.S, res.n)
        assert rep.chisq_null == pytest.approx(chisq_null)
        assert rep.df_null == df_null
