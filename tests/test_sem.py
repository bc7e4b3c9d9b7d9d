import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath.errors import NotPositiveDefiniteError, UnderIdentifiedError
from latentpath.model import VARIANCE_KINDS
from latentpath.sem import _Objective

from conftest import evaluate, log_likelihood, one_factor_spec
from test_model import count_free_by_enumeration, free_cell, random_specs_with_covariance


def numerical_hessian(obj, theta):
    """Central differences on the analytic gradient: the observed information."""
    t = theta.size
    H = np.zeros((t, t))
    for j in range(t):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        H[:, j] = (evaluate(obj, up)[1] - evaluate(obj, down)[1]) / (2.0 * h)
    return (H + H.T) / 2.0


def toy_two_param():
    """One latent, two indicators, free loading and latent variance."""
    spec = lp.parse_model("F =~ 1*a + b\na ~~ 0.5*a\nb ~~ 0.5*b")
    m = lp.build_matrices(spec, ["a", "b"])
    assert sorted(m.labels) == ["F=~b", "F~~F"]
    return m


class TestImpliedCovariance:
    def test_decoupled_model_is_block_diagonal(self):
        spec = lp.parse_model(
            "Ey =~ 1*y1\nXx =~ 1*x1\nEy ~ 0*Xx\ny1 ~~ 0*y1\nx1 ~~ 0*x1"
        )
        m = lp.build_matrices(spec, ["y1", "x1"])
        theta = lp.theta_from_config(
            m, {"Ey~~Ey": 2.0, "Xx~~Xx": 3.0})
        sigma = lp.implied_covariance(m, theta)
        np.testing.assert_allclose(sigma, np.diag([2.0, 3.0]), atol=1e-12)

    def test_one_factor_hand_computation(self):
        spec = lp.parse_model("F =~ 1*a + 0.8*b\nF ~~ 1*F\na ~~ 0.5*a\nb ~~ 0.5*b")
        m = lp.build_matrices(spec, ["a", "b"])
        assert m.n_free == 0
        sigma = lp.implied_covariance(m, np.zeros(0))
        np.testing.assert_allclose(sigma, [[1.5, 0.8], [0.8, 1.14]], atol=1e-12)

    def test_random_theta_symmetric_pd(self, survey_spec, planted):
        m, theta = planted
        rng = np.random.default_rng(77)
        for _ in range(10):
            t = theta + 0.05 * rng.standard_normal(theta.size)
            sigma = lp.implied_covariance(m, t)
            assert np.max(np.abs(sigma - sigma.T)) < 1e-12
            assert np.linalg.eigvalsh(sigma).min() > 0

    def test_matches_explicit_block_recomputation(self, survey_spec, planted):
        m, theta = planted
        rng = np.random.default_rng(3)
        t = theta + 0.03 * rng.standard_normal(theta.size)
        # the LISREL blocks, cut from the RAM matrices
        RA, RS = m.A.materialize(t), m.S.materialize(t)
        spec = m.spec
        eta = [m.variables.index(v) for v in spec.endogenous]
        xi = [m.variables.index(v) for v in spec.exogenous]
        y_vars = [v for lat in spec.latents if lat.name in spec.endogenous
                  for v in lat.indicators]
        y = [m.variables.index(v) for v in m.variable_order if v in y_vars]
        x = [m.variables.index(v) for v in m.variable_order if v not in y_vars]
        ly, lx = RA[np.ix_(y, eta)], RA[np.ix_(x, xi)]
        B, G = RA[np.ix_(eta, eta)], RA[np.ix_(eta, xi)]
        Phi, Psi = RS[np.ix_(xi, xi)], RS[np.ix_(eta, eta)]
        A = np.linalg.inv(np.eye(B.shape[0]) - B)
        yy = ly @ A @ (G @ Phi @ G.T + Psi) @ A.T @ ly.T + RS[np.ix_(y, y)]
        yx = ly @ A @ G @ Phi @ lx.T
        xx = lx @ Phi @ lx.T + RS[np.ix_(x, x)]
        block = np.block([[yy, yx], [yx.T, xx]])
        order = [m.variables[i] for i in y + x]
        perm = [order.index(v) for v in m.variable_order]
        np.testing.assert_allclose(
            lp.implied_covariance(m, t), block[np.ix_(perm, perm)], atol=1e-12)


class TestDiscrepancy:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4))
        S = np.cov(X, rowvar=False)
        assert lp.f_ml(S, S) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case(self):
        S = np.eye(2)
        sigma = 2.0 * np.eye(2)
        expected = 2 * math.log(2) + 1.0 - 0.0 - 2.0
        assert lp.f_ml(sigma, S) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_over_random_pd_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            S = A @ A.T + 1e-2 * np.eye(4)
            sigma = B @ B.T + 1e-2 * np.eye(4)
            assert lp.f_ml(sigma, S) >= -1e-12

    def test_non_pd_sigma_rejected(self):
        S = np.eye(2)
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="implied"):
            lp.f_ml(sigma, S)

    def test_non_pd_sample_rejected(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="sample"):
            lp.f_ml(np.eye(2), S)


class TestLogLikelihood:
    def test_scalar_case(self):
        value = log_likelihood(np.eye(1), np.eye(1), n=2)
        assert value == pytest.approx(-(1.0 + math.log(2 * math.pi)), abs=1e-12)

    def test_equivalence_with_discrepancy(self):
        m = toy_two_param()
        rng = np.random.default_rng(21)
        S = np.array([[1.3, 0.6], [0.6, 1.1]])
        n = 57
        for _ in range(100):
            t1 = np.array([rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.0)])
            t2 = np.array([rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.0)])
            s1, s2 = lp.implied_covariance(m, t1), lp.implied_covariance(m, t2)
            lhs = lp.f_ml(s1, S) - lp.f_ml(s2, S)
            rhs = -(2.0 / n) * (log_likelihood(s1, S, n) - log_likelihood(s2, S, n))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_grid_extremes_coincide(self):
        m = toy_two_param()
        S = np.array([[1.3, 0.6], [0.6, 1.1]])
        lams = np.linspace(0.3, 1.2, 25)
        phis = np.linspace(0.4, 2.0, 25)
        best_f, best_l = None, None
        for lam in lams:
            for phi in phis:
                theta = np.zeros(2)
                theta[m.labels.index("F=~b")] = lam
                theta[m.labels.index("F~~F")] = phi
                sigma = lp.implied_covariance(m, theta)
                f = lp.f_ml(sigma, S)
                ll = log_likelihood(sigma, S, n=40)
                if best_f is None or f < best_f[0]:
                    best_f = (f, lam, phi)
                if best_l is None or ll > best_l[0]:
                    best_l = (ll, lam, phi)
        assert best_f[1:] == best_l[1:]


class TestGradient:
    def test_matches_central_differences(self, survey_spec, survey_sim_moments):
        m = lp.build_matrices(survey_spec, survey_sim_moments.names)
        S = survey_sim_moments.S
        obj = _Objective(m, S)
        theta0 = lp.start_values(m, S)
        rng = np.random.default_rng(99)
        for _ in range(5):
            theta = theta0 + 0.05 * rng.standard_normal(theta0.size)
            f, g, _ = evaluate(obj, theta)
            assert np.isfinite(f)
            step = 1e-5
            fd = np.zeros_like(g)
            for j in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (evaluate(obj, up)[0] - evaluate(obj, down)[0]) / (2 * step)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel < 1e-4


CROSS_COVARIANCE_MODELS = {
    # an exogenous latent with an endogenous one's disturbance; M makes it
    # identified as an instrument
    "exo_endo_latents": (
        "X =~ x1 + x2 + x3\nM =~ m1 + m2 + m3\nY =~ y1 + y2 + y3\n"
        "M ~ X\nY ~ M\nX ~~ Y",
        {"M~X": 0.5, "Y~M": 0.4, "X~~Y": 0.3},
        "X~~Y",
    ),
    "latent_indicator": (
        "F =~ f1 + f2 + f3\nG =~ g1 + g2 + g3\nF ~~ g1",
        {"F~~G": 0.4, "F~~g1": 0.25},
        "F~~g1",
    ),
    "exo_endo_errors": (
        "X =~ x1 + x2 + x3\nY =~ y1 + y2 + y3\nY ~ X\nx1 ~~ y1",
        {"Y~X": 0.5, "x1~~y1": 0.2},
        "x1~~y1",
    ),
}


def planted_cross_covariance(name):
    text, values, label = CROSS_COVARIANCE_MODELS[name]
    spec = lp.parse_model(text)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, values, dict(loading=0.75, error_variance=0.4375))
    return spec, m, theta, label


@pytest.mark.parametrize("name", sorted(CROSS_COVARIANCE_MODELS))
class TestCrossCovariances:
    """Covariances the RAM form represents: exogenous-endogenous latent,
    latent-indicator, and error covariances across latent blocks."""

    def test_compiles_with_gradient(self, name):
        spec, m, theta, label = planted_cross_covariance(name)
        a, b = label.split("~~")
        i, j = m.variables.index(a), m.variables.index(b)
        assert free_cell(m.S, m.labels.index(label)) == (max(i, j), min(i, j))
        S = lp.implied_covariance(m, theta)
        obj = _Objective(m, S + 0.05 * np.eye(S.shape[0]))
        rng = np.random.default_rng(8)
        point = theta + 0.05 * rng.standard_normal(theta.size)
        f, g, _ = evaluate(obj, point)
        assert np.isfinite(f)
        fd = np.empty_like(g)
        for k in range(point.size):
            up, down = point.copy(), point.copy()
            up[k] += 1e-5
            down[k] -= 1e-5
            fd[k] = (evaluate(obj, up)[0] - evaluate(obj, down)[0]) / 2e-5
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    def test_recovers_planted_values(self, name):
        spec, m, theta, label = planted_cross_covariance(name)
        data = lp.simulate(m, theta, 5000, seed=11)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        assert res.converged
        assert res.labels == m.labels
        np.testing.assert_allclose(res.theta, theta, atol=0.05)
        assert np.all(np.isfinite(res.se))


class TestInformation:
    """The expected information against the observed one (the Hessian of F)."""

    @pytest.mark.parametrize("model", ["survey_marker", "survey_std_lv", "exo_endo_latents"])
    def test_equals_hessian_at_model_covariance(self, model, survey_spec, planted):
        # at S = Sigma(theta) the expected and observed information coincide;
        # the cross-covariance model adds an off-diagonal latent S cell
        # (weight 1, as in A; a variance's cell on S's diagonal weighs 1/2)
        # to the paths and loadings in A
        if model == "exo_endo_latents":
            _, m, theta, _ = planted_cross_covariance(model)
        else:
            m = lp.build_matrices(survey_spec, survey_spec.indicator_names,
                                  standardize_latents=model == "survey_std_lv")
            data = lp.simulate(*planted, 500, seed=3)
            theta = lp.fit(survey_spec, lp.covariance(data), compute_se=False,
                           standardize_latents=model == "survey_std_lv").theta
        obj = _Objective(m, lp.implied_covariance(m, theta))
        assert np.any(m.S.rows != m.S.cols)
        np.testing.assert_allclose(evaluate(obj, theta)[2], numerical_hessian(obj, theta),
                                   rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("std_lv", [False, True])
    def test_standard_errors_invert_the_information_at_theta_hat(self, survey_spec, planted,
                                                                 std_lv):
        # fit reads the information off the optimizer's last accepted point;
        # a fresh evaluation at theta-hat gives the same SEs, bit for bit
        data = lp.simulate(*planted, 519, seed=42)
        res = lp.fit(survey_spec, lp.covariance(data), standardize_latents=std_lv)
        _, _, info = evaluate(_Objective(res.matrices, res.S), res.theta)
        se = np.sqrt(np.diag(np.linalg.inv(((res.n - 1) / 2.0) * info)))
        assert se.tobytes() == res.se.tobytes()

    def test_large_n_standard_errors_match_observed_information(self, survey_spec, planted):
        n = 20_000
        res = lp.fit(survey_spec, lp.covariance(lp.simulate(*planted, n, seed=1)))
        H = ((n - 1) / 2.0) * numerical_hessian(_Objective(res.matrices, res.S), res.theta)
        se_observed = np.sqrt(np.diag(np.linalg.inv(H)))
        np.testing.assert_allclose(res.se, se_observed, rtol=0.02)


class TestKernelOracle:
    """The objective's kernel on random RAM models, against finite
    differences and against one call per member of a stack."""

    @staticmethod
    def draw_theta(m, rng):
        # S, and so Sigma, is PD: S is diagonally dominant, with variances
        # of at least 1 and at most four covariances of at most 0.2 a row
        theta = np.empty(m.n_free)
        for k, par in enumerate(m.parameters):
            if par.kind == "loading":
                theta[k] = rng.uniform(0.6, 1.0)
            elif par.kind == "path":
                theta[k] = rng.uniform(-0.4, 0.4)
            elif par.kind in VARIANCE_KINDS:
                theta[k] = rng.uniform(1.0, 2.0)
            else:
                theta[k] = rng.uniform(-0.2, 0.2)
        return theta

    @given(random_specs_with_covariance(), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_models(self, text, std_lv, seed):
        spec = lp.parse_model(text)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=std_lv)
        assert m.n_free == count_free_by_enumeration(spec, std_lv)
        rng = np.random.default_rng(seed)
        theta = self.draw_theta(m, rng)
        sigma = lp.implied_covariance(m, theta)
        obj = _Objective(m, sigma)
        np.testing.assert_allclose(evaluate(obj, theta)[2], numerical_hessian(obj, theta),
                                   rtol=1e-5, atol=1e-7)

        # the gradient vanishes at theta, so check it a step away
        point = theta + 0.05 * rng.standard_normal(theta.size)
        fd = np.empty(theta.size)
        for k in range(theta.size):
            h = 1e-5 * max(1.0, abs(point[k]))
            up, down = point.copy(), point.copy()
            up[k] += h
            down[k] -= h
            fd[k] = (evaluate(obj, up)[0] - evaluate(obj, down)[0]) / (2.0 * h)
        np.testing.assert_allclose(evaluate(obj, point)[1], fd, rtol=1e-5, atol=1e-7)

        thetas = np.stack([theta, point, self.draw_theta(m, rng)])
        S = np.stack([sigma, lp.implied_covariance(m, thetas[2]), sigma + 0.1 * np.eye(len(sigma))])
        stacked = _Objective(m, S)
        pt = stacked.point(thetas, np.arange(3))
        g, info = stacked.gradients(pt), stacked.informations(pt)
        for b in range(3):
            one = _Objective(m, S[b])
            pt_b = one.point(thetas[b:b + 1], np.zeros(1, dtype=int))
            np.testing.assert_array_equal(pt.f[b:b + 1], pt_b.f)
            np.testing.assert_array_equal(g[b:b + 1], one.gradients(pt_b))
            np.testing.assert_array_equal(info[b:b + 1], one.informations(pt_b))

        # Sigma follows variable_order: the same theta, matched by label,
        # over shuffled indicators gives Sigma permuted
        perm = rng.permutation(m.n_observed)
        order = [m.variable_order[k] for k in perm]
        shuffled = lp.build_matrices(spec, order, standardize_latents=std_lv)
        at = [m.labels.index(label) for label in shuffled.labels]
        np.testing.assert_allclose(lp.implied_covariance(shuffled, theta[at]),
                                   sigma[np.ix_(perm, perm)], rtol=1e-12)


class TestFit:
    def test_one_factor_recovery(self):
        spec = one_factor_spec(3)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        theta_true = lp.theta_from_config(
            m,
            {"F=~f1": 0.7, "F=~f2": 0.6, "F=~f3": 0.8,
             "f1~~f1": 1 - 0.49, "f2~~f2": 1 - 0.36, "f3~~f3": 1 - 0.64},
        )
        data = lp.simulate(m, theta_true, 5000, seed=314)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        assert res.converged
        for label, value in zip(m.labels, theta_true):
            assert res.estimates[label] == pytest.approx(value, abs=0.05)

    def test_saturated_model_fits_perfectly(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((120, 3)) @ np.array(
            [[1.0, 0.4, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        names = ["u", "v", "w"]
        lines = [f"L{c} =~ 1*{c}" for c in names]
        lines += [f"{c} ~~ 0*{c}" for c in names]
        lines += ["Lu ~~ Lv", "Lu ~~ Lw", "Lv ~~ Lw"]
        spec = lp.parse_model("\n".join(lines))
        res = lp.fit(spec, lp.covariance(lp.Dataset(names, X)))
        assert res.df == 0
        assert abs(res.f_min) < 1e-10
        assert abs(res.chisq) < 1e-8

    def test_survey_converges_in_few_scoring_steps(self, survey_spec, planted):
        data = lp.simulate(*planted, 519, seed=42)
        res = lp.fit(survey_spec, lp.covariance(data), compute_se=False)
        assert res.converged
        assert res.iterations <= 12

    def test_history_is_monotone(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        hist = np.array(res.f_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_chisq_is_multiplier_times_f(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        assert res.chisq == pytest.approx((res.n - 1) * res.f_min, abs=1e-12)
        opts = lp.EstimationOptions(chisq_multiplier="n")
        res_n = lp.fit(survey_spec, survey_sim_moments, opts, compute_se=False)
        assert res_n.chisq == pytest.approx(res_n.n * res_n.f_min, abs=1e-12)

    def test_under_identified_raises(self):
        spec = lp.parse_model("Lx =~ 1*x\nLy =~ 1*y\nLx ~~ Ly")
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 2))
        with pytest.raises(UnderIdentifiedError):
            lp.fit(spec, lp.covariance(lp.Dataset(["x", "y"], X)))

    def test_singular_information_raises(self):
        # df = 1, but F~~F and F~~f1 trade off along a flat ridge
        spec = lp.parse_model("F =~ f1 + f2 + f3 + f4\nF ~~ f1")
        m = lp.build_matrices(spec, spec.indicator_names)
        theta = lp.theta_from_config(m, {}, dict(
            loading=0.8, latent_variance=1.0, error_variance=0.4, error_covariance=0.0))
        data = lp.simulate(m, theta, 500, seed=1)
        with pytest.raises(UnderIdentifiedError, match="not identified") as info:
            lp.fit(spec, lp.covariance(data))
        assert "F~~f1" in str(info.value)
        # without standard errors the identification check never runs, and
        # the floored scoring step still converges on the ridge
        assert lp.fit(spec, lp.covariance(data), compute_se=False).converged

    def test_identification_check_ignores_units(self):
        # an identified model with one indicator on a 100x wider scale
        # (years next to Likert items) puts the raw information matrix's
        # eigenvalue ratio near 5e-9; the check must not read that as a
        # flat ridge
        spec = lp.parse_model("F =~ f1 + f2 + f3 + f4")
        m = lp.build_matrices(spec, spec.indicator_names)
        theta = lp.theta_from_config(m, {}, dict(
            loading=0.8, latent_variance=1.0, error_variance=0.4))
        data = lp.simulate(m, theta, 500, seed=1)
        base = lp.fit(spec, lp.covariance(data))
        X = data.values.copy()
        X[:, data.names.index("f3")] *= 100.0
        res = lp.fit(spec, lp.covariance(lp.Dataset(data.names, X)))
        assert res.converged
        assert np.all(np.isfinite(res.se)) and np.all(res.se > 0)
        k = res.labels.index("F=~f3")
        assert res.se[k] == pytest.approx(100.0 * base.se[k], rel=1e-3)

    def test_acov_carries_the_standard_errors(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments)
        t = len(res.labels)
        assert res.acov.shape == (t, t)
        np.testing.assert_allclose(res.acov, res.acov.T, atol=1e-12)
        np.testing.assert_array_equal(res.se, np.sqrt(np.diag(res.acov)))
        assert np.all(np.isnan(lp.fit(survey_spec, survey_sim_moments,
                                      compute_se=False).acov))

    def test_indicator_reordering_invariance(self, survey_spec, planted):
        m, theta = planted
        data = lp.simulate(m, theta, 800, seed=5)
        mom = lp.covariance(data)
        res_a = lp.fit(survey_spec, mom, compute_se=False)

        order = list(reversed(data.names))
        idx = [data.names.index(v) for v in order]
        data_b = lp.Dataset(order, data.values[:, idx])
        res_b = lp.fit(survey_spec, lp.covariance(data_b), compute_se=False)
        assert res_a.f_min == pytest.approx(res_b.f_min, abs=1e-8)
        for label in res_a.labels:
            assert res_a.estimates[label] == pytest.approx(
                res_b.estimates[label], abs=1e-5)

    def test_standard_errors_positive(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments)
        assert np.all(np.isfinite(res.se))
        assert np.all(res.se > 0)
        assert np.all(np.isfinite(res.p_values))

    def test_heywood_flagging(self):
        # saturated one-factor triad with s12*s13/s23 > s11: the exact ML
        # solution needs a negative error variance on the first indicator
        spec = lp.parse_model("F =~ 1*a + b + c")
        S = np.array([
            [1.0, 0.8, 0.8],
            [0.8, 1.0, 0.5],
            [0.8, 0.5, 1.0],
        ])
        assert np.linalg.eigvalsh(S).min() > 0
        mom = lp.SampleMoments(S=S, R=S, n=200, names=["a", "b", "c"])
        res = lp.fit(spec, mom, compute_se=False)
        assert "a~~a" in res.heywood
        assert res.estimates["a~~a"] == pytest.approx(1 - 1.28, abs=1e-3)


class TestStandardize:
    def test_marker_loading_example(self):
        spec = lp.parse_model("F =~ 1*f1 + f2")
        m = lp.build_matrices(spec, ["f1", "f2"])
        theta = lp.theta_from_config(
            m, {"F=~f2": 1.0, "F~~F": 0.64, "f1~~f1": 0.36, "f2~~f2": 0.36})
        std = lp.standardize(m, theta)
        assert std["F=~f1"] == pytest.approx(0.8, abs=1e-12)

    def test_standardized_model_unchanged(self):
        spec = one_factor_spec(3)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        lam = {"F=~f1": 0.7, "F=~f2": 0.6, "F=~f3": 0.8}
        errs = {"f1~~f1": 1 - 0.49, "f2~~f2": 1 - 0.36, "f3~~f3": 1 - 0.64}
        theta = lp.theta_from_config(m, {**lam, **errs})
        std = lp.standardize(m, theta)
        for label, value in lam.items():
            assert std[label] == pytest.approx(value, abs=1e-12)

    def test_recovered_loadings_match_sqrt_correlations(self):
        spec = one_factor_spec(3)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        lam = 0.72
        theta_true = lp.theta_from_config(
            m, {}, dict(loading=lam, error_variance=1 - lam * lam,
                        latent_variance=1.0))
        data = lp.simulate(m, theta_true, 5000, seed=2718)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        R = lp.covariance(data).R
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert math.sqrt(R[i, j]) == pytest.approx(lam, abs=0.05)
        for label in ("F=~f1", "F=~f2", "F=~f3"):
            assert res.standardized[label] == pytest.approx(lam, abs=0.05)

    def test_from_fit_result(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        std = lp.standardize(res.matrices, res.theta)
        assert std == res.standardized
        # standardized latent variances are one by construction
        for name in ("ConsEth", "EnvSt", "PBC", "PerVa", "PB"):
            assert std[f"{name}~~{name}"] <= 1.0 + 1e-9


class TestSimulate:
    def test_seed_determinism(self, planted):
        m, theta = planted
        a = lp.simulate(m, theta, 100, seed=9)
        b = lp.simulate(m, theta, 100, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_large_sample_matches_sigma(self):
        spec = one_factor_spec(3)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        theta = lp.theta_from_config(
            m, {}, dict(loading=0.75, error_variance=0.4375, latent_variance=1.0))
        sigma = lp.implied_covariance(m, theta)
        data = lp.simulate(m, theta, 200_000, seed=1234)
        S = lp.covariance(data).S
        assert np.max(np.abs(S - sigma)) < 0.02

    def test_non_pd_theta_rejected(self):
        spec = one_factor_spec(2)
        m = lp.build_matrices(spec, spec.indicator_names)
        theta = lp.theta_from_config(
            m, {"F=~f2": 1.0, "F~~F": 1.0, "f1~~f1": -2.0, "f2~~f2": 0.5})
        with pytest.raises(NotPositiveDefiniteError):
            lp.simulate(m, theta, 10, seed=0)
