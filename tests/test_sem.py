import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath import sem
from latentpath.errors import EstimationError, NotPositiveDefiniteError, UnderIdentifiedError
from latentpath.model import VARIANCE_KINDS
from latentpath.sem import _check_identified, _Objective

from conftest import (check_identified_by_eigh, derived_fit_values, evaluate, log_likelihood,
                      one_factor_spec)
from test_effects import planted_mediation_data
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

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_theta_of_the_wrong_length_is_a_data_error(self, extra):
        m = lp.build_matrices(lp.parse_model("F =~ a + b + c"), ["a", "b", "c"])
        with pytest.raises(lp.DataError, match=f"^theta must have length {m.n_free}, got") as exc:
            lp.implied_covariance(m, np.ones(m.n_free + extra))
        assert isinstance(exc.value, lp.LatentPathError)

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
        info = stacked.informations(pt)
        for b in range(3):
            one = _Objective(m, S[b])
            pt_b = one.point(thetas[b:b + 1], np.zeros(1, dtype=int))
            np.testing.assert_array_equal(pt.f[b:b + 1], pt_b.f)
            np.testing.assert_array_equal(pt.g[b:b + 1], pt_b.g)
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

    def test_capped_fits_descend_monotonically(self, survey_spec, survey_sim_moments):
        # a fit capped at k iterations takes the full fit's first k, so its F
        # never rises with k, and at the full count it is the full fit's F
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        f_min = [lp.fit(survey_spec, survey_sim_moments, lp.EstimationOptions(max_iter=k),
                        compute_se=False).f_min for k in range(1, res.iterations + 1)]
        assert res.iterations > 1
        assert np.all(np.diff(f_min) <= 0.0)
        assert f_min[-1] == res.f_min

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

    def test_latent_without_loadings(self):
        moments = lp.covariance(two_factor_data())
        spec = lp.parse_model(ZERO_LOADINGS_MODEL)
        with pytest.raises(UnderIdentifiedError, match="not identified"):
            lp.fit(spec, moments)
        # not converged, so no identification check: what is left is the
        # information that would not invert, and no standard error at all
        res = lp.fit(spec, moments, lp.EstimationOptions(max_iter=1))
        assert not res.converged
        assert np.isnan(res.acov).all() and np.isnan(res.se).all()

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

    def test_parameter_table_rows_name_their_two_variables(self, survey_spec,
                                                           survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
        table = res.parameter_table()
        assert len(table) == len(res.matrices.parameters)
        for row, par in zip(table, res.matrices.parameters):
            assert row["label"] == par.label
            assert (row["lhs"], row["rhs"]) == (par.lhs, par.rhs)
        paths = res.parameter_table("path")
        assert len(paths) == len(survey_spec.regressions)
        for row in paths:
            assert row["label"] == f"{row['lhs']}~{row['rhs']}"

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
        mom = lp.SampleMoments(S=S, n=200, names=["a", "b", "c"])
        res = lp.fit(spec, mom, compute_se=False)
        assert "a~~a" in res.heywood
        assert res.estimates["a~~a"] == pytest.approx(1 - 1.28, abs=1e-3)


WIDE_MODEL = "\n".join(
    [f"{f} =~ " + " + ".join(f"{f.lower()}{i}" for i in range(1, 7)) for f in "ABCDEFGH"]
    + ["D ~ A + B + C", "E ~ A + B + C", "F ~ D + E + A", "G ~ D + E + B", "H ~ F + G + C"])


def wide_moments() -> tuple[lp.ModelSpec, lp.SampleMoments]:
    """Eight latents of six indicators each and five structural equations
    (p = 48, t = 114), simulated at n = 2000."""
    spec = lp.parse_model(WIDE_MODEL)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, {f"{r.dependent}~{r.predictor}": 0.3 for r in spec.regressions},
        dict(loading=0.75, latent_variance=1.0, latent_covariance=0.25,
             disturbance_variance=0.5, error_variance=0.4375))
    return spec, lp.covariance(lp.simulate(m, theta, 2000, seed=42))


def information_with_ratio(t: int, ratio: float, seed: int, spread: float) -> np.ndarray:
    """A symmetric t x t matrix whose unit-diagonal scaling has eigenvalues
    from ratio to 1 (before normalizing to trace t), its rows and columns
    scaled by 10^U(-spread, spread)."""
    from scipy.stats import random_correlation

    rng = np.random.default_rng(seed)
    lam = np.concatenate([[ratio, 1.0], rng.uniform(ratio, 1.0, t - 2)])
    C = random_correlation.rvs(lam * t / lam.sum(), random_state=rng)
    d = 10.0 ** rng.uniform(-spread, spread, t)
    H = d[:, None] * C * d[None, :]
    return (H + H.T) / 2.0


@pytest.fixture
def no_eigh(monkeypatch):
    """np.linalg.eigh raises for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


class TestIdentificationCertificate:
    """``_check_identified`` decides as the eigendecomposition alone does."""

    @staticmethod
    def outcome(check, *args):
        try:
            check(*args)
        except UnderIdentifiedError as exc:
            return str(exc)
        return None

    @settings(max_examples=20, deadline=None)
    @given(t=st.integers(2, 40),
           ratio=st.sampled_from([0.3, 1e-2, 1e-4, 3e-5, 1.001e-6, 1e-6, 0.999e-6, 1e-9, 0.0]),
           seed=st.integers(0, 2**16), spread=st.sampled_from([0.0, 1.0, 4.0]),
           diagonal=st.sampled_from([None, 0.0, -1.0]))
    # the edges: at t = 2 the bound certifies a ratio just above 1e-6; at
    # t = 40 a ratio just below it must reach eigh, and so does 1e-5, which
    # the bound cannot certify but eigh passes; non-positive diagonals
    @example(t=2, ratio=1.001e-6, seed=0, spread=0.0, diagonal=None)
    @example(t=40, ratio=0.999e-6, seed=1, spread=4.0, diagonal=None)
    @example(t=40, ratio=1e-5, seed=0, spread=1.0, diagonal=None)
    @example(t=3, ratio=1e-6, seed=2, spread=1.0, diagonal=None)
    @example(t=5, ratio=0.3, seed=3, spread=1.0, diagonal=0.0)
    @example(t=5, ratio=0.3, seed=3, spread=1.0, diagonal=-1.0)
    def test_agrees_with_the_eigendecomposition(self, t, ratio, seed, spread, diagonal):
        H = information_with_ratio(t, ratio, seed, spread)
        if diagonal is not None:
            H[seed % t, seed % t] *= diagonal  # a zero or a negative diagonal entry
        try:
            acov = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            acov = np.full_like(H, np.nan)
        labels = [f"p{k}" for k in range(t)]
        assert (self.outcome(_check_identified, H, acov, labels)
                == self.outcome(check_identified_by_eigh, H, labels))

    def test_certified_information_skips_eigh(self, no_eigh):
        H = information_with_ratio(30, 0.2, seed=3, spread=3.0)
        _check_identified(H, np.linalg.inv(H), [f"p{k}" for k in range(30)])

    def test_uninverted_information_falls_back_to_eigh(self):
        H = information_with_ratio(6, 0.0, seed=1, spread=1.0)
        labels = [f"p{k}" for k in range(6)]
        with pytest.raises(UnderIdentifiedError) as info:
            _check_identified(H, np.full_like(H, np.nan), labels)
        assert str(info.value) == self.outcome(check_identified_by_eigh, H, labels)

    @pytest.mark.parametrize("workload", ["wide", "survey", "mediation"])
    @pytest.mark.parametrize("structural", [True, False], ids=["sem", "cfa"])
    def test_identified_fits_never_call_eigh(self, workload, structural, survey_spec, planted,
                                             no_eigh):
        if workload == "wide":
            spec, moments = wide_moments()
        elif workload == "survey":
            spec, moments = survey_spec, lp.covariance(lp.simulate(*planted, 519, seed=42))
        else:
            spec, data = planted_mediation_data(0.5, 0.0, 0.4, 500, seed=42)
            moments = lp.covariance(data)
        if not structural:
            spec = spec.without_regressions()
        res = lp.fit(spec, moments)
        assert res.converged
        assert np.all(np.isfinite(res.se)) and np.all(res.se > 0)


STORED_FIELDS = ["theta", "f_min", "n", "iterations", "gradient_norm", "converged",
                 "acov", "matrices", "options", "S"]
DERIVED = ["labels", "p", "df", "chisq", "se", "crit_ratio", "implied", "heywood"]


class TestDerivedValues:
    """A FitResult stores what the fit found and computes the rest on read."""

    @pytest.fixture(scope="class")
    def workloads(self, survey_spec, survey_sim_moments):
        spec, data = planted_mediation_data(0.5, 0.3, 0.2, 300, seed=7)
        # the saturated triad of test_heywood_flagging, whose error variance of a is negative
        triad = lp.SampleMoments(S=np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]]),
                                 n=200, names=["a", "b", "c"])
        return {"survey": (survey_spec, survey_sim_moments), "wide": wide_moments(),
                "mediation": (spec, lp.covariance(data)),
                "heywood": (lp.parse_model("F =~ 1*a + b + c"), triad)}

    def test_fields_are_what_the_fit_found(self):
        assert [f.name for f in dataclasses.fields(lp.FitResult)] == STORED_FIELDS
        for name in DERIVED + ["p_values", "chisq_p", "standardized", "estimates"]:
            assert isinstance(getattr(lp.FitResult, name), property), name

    @pytest.mark.parametrize("compute_se", [True, False], ids=["se", "no-se"])
    @pytest.mark.parametrize("multiplier", ["n-1", "n"])
    @pytest.mark.parametrize("workload", ["survey", "wide", "mediation", "heywood"])
    def test_each_bit_as_computed_from_the_fields(self, workloads, workload, multiplier,
                                                  compute_se):
        spec, moments = workloads[workload]
        res = lp.fit(spec, moments, lp.EstimationOptions(chisq_multiplier=multiplier),
                     compute_se=compute_se)
        ref = derived_fit_values(res)
        for name in ("labels", "p", "df", "chisq", "heywood"):
            assert getattr(res, name) == ref[name], name
        assert type(res.p) is type(res.df) is int
        for name in ("se", "crit_ratio", "implied"):
            assert np.array_equal(getattr(res, name), ref[name], equal_nan=True), name
        assert np.isnan(res.se).all() != compute_se
        assert (res.heywood == ["a~~a"]) == (workload == "heywood")

    def test_a_replaced_theta_carries_its_derived_values(self, survey_spec, survey_sim_moments,
                                                         planted):
        m, theta = planted  # the generator's values, standardized latents
        res = lp.fit(survey_spec, survey_sim_moments, standardize_latents=True)
        assert res.labels == m.labels and res.heywood == []
        theta = theta.copy()
        k = m.labels.index("CE1~~CE1")
        theta[k] = -0.05
        moved = dataclasses.replace(res, theta=theta)
        assert moved.heywood == ["CE1~~CE1"]
        assert np.array_equal(moved.crit_ratio, theta / res.se)
        assert np.array_equal(moved.implied, lp.implied_covariance(m, theta))
        assert not np.array_equal(moved.implied, res.implied)
        assert np.array_equal(moved.se, res.se)


ABC_MODEL = "F =~ a + b + c"

# four latents on the survey simulation's columns joined by fixed paths of
# 1e200: the powers of A_ll in the series (I - A_ll)^-1 overflow to inf and NaN
CHAIN_MODEL = """P =~ CE1 + CE3 + CE4
Q =~ ES1 + ES3 + ES4
R =~ PBC1 + PBC2 + PBC3
T =~ PV1 + PV2 + PV3
Q ~ 1e200*P
R ~ 1e200*Q
T ~ 1e200*R
"""


def abc_rows(seed: int = 0) -> np.ndarray:
    """200 rows of three indicators a, b, c of one factor."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(200)
    return np.column_stack([f + rng.standard_normal(200) for _ in range(3)])


def abc_moments() -> lp.SampleMoments:
    """Moments of ``abc_rows()``."""
    return lp.covariance(lp.Dataset(["a", "b", "c"], abc_rows()))


# G's loadings are all fixed at 0, so neither its variance nor the path into
# it moves Sigma: the information has an exact zero row, and inverting it raises
ZERO_LOADINGS_MODEL = "F =~ a + b + c\nG =~ 0*d + 0*e + 0*f\nG ~ F\n"


def two_factor_data() -> lp.Dataset:
    """200 rows of a, b, c on one factor and d, e, f on another."""
    rng = np.random.default_rng(0)
    f = rng.standard_normal((200, 2))
    X = np.column_stack([f[:, k // 3] + rng.standard_normal(200) for k in range(6)])
    return lp.Dataset(list("abcdef"), X)


def minimize(objective_class, text: str, members: int = 1, opts=None, moments=None, **kwargs):
    """``_minimize`` on ``members`` copies of the moments (by default the a,
    b, c ones), with an objective of ``objective_class`` built from (m, S, **kwargs)."""
    spec = lp.parse_model(text)
    S, names = sem.align_moments(spec, moments or abc_moments())
    m = lp.build_matrices(spec, names)
    S = np.repeat(S[None], members, axis=0)
    return sem._minimize(objective_class(m, S, **kwargs), sem.start_values(m, S),
                         opts or lp.EstimationOptions())


class Refusing(_Objective):
    """Rejects every trial point of the members ``refuse`` (their starts pass)."""

    def __init__(self, m, S, refuse):
        super().__init__(m, S)
        self.refuse, self.started = refuse, False

    def point(self, theta, rows):
        pt = super().point(theta, rows)
        if self.started:
            pt.f[np.isin(rows, self.refuse)] = np.inf
        self.started = True
        return pt


class Raising(_Objective):
    """Raises LinAlgError from the ``from_call``-th point on."""

    def __init__(self, m, S, from_call=1):
        super().__init__(m, S)
        self.from_call, self.calls = from_call, 0

    def point(self, theta, rows):
        self.calls += 1
        if self.calls >= self.from_call:
            raise np.linalg.LinAlgError("Singular matrix")
        return super().point(theta, rows)


class TestStopCodes:
    """Each stop code of ``_minimize``, reached by a real input where one is
    known, and what ``fit`` makes of it."""

    def test_gtol_at_the_start(self):
        opts = lp.EstimationOptions(gtol=1e3)
        opt = minimize(_Objective, ABC_MODEL, opts=opts)
        assert opt.stop.tolist() == [sem.GTOL] and opt.iterations.tolist() == [0]
        res = lp.fit(lp.parse_model(ABC_MODEL), abc_moments(), opts)
        assert res.converged and res.iterations == 0

    def test_stalled(self):
        # with a fixed loading of 1e150, F stops moving while the gradient is above gtol
        opt = minimize(_Objective, "F =~ a + 1e150*b + c")
        assert opt.stop.tolist() == [sem.STALLED]
        assert 0 < opt.iterations[0] < 500
        res = lp.fit(lp.parse_model("F =~ a + 1e150*b + c"), abc_moments(), compute_se=False)
        assert not res.converged and res.iterations == opt.iterations[0]

    def test_max_iter(self):
        opt = minimize(_Objective, "F =~ a + 1e30*b + c")
        assert opt.stop.tolist() == [sem.MAX_ITER] and opt.iterations.tolist() == [500]
        res = lp.fit(lp.parse_model("F =~ a + 1e30*b + c"), abc_moments(), compute_se=False)
        assert not res.converged and res.iterations == 500

    # no real input is known to exhaust the 60 halvings, so a stub refuses every trial
    def test_no_acceptable_step_alone(self):
        opt = minimize(Refusing, ABC_MODEL, refuse=[0])
        assert opt.stop.tolist() == [sem.NO_STEP] and opt.iterations.tolist() == [0]

    def test_no_acceptable_step_beside_a_member_that_moves(self):
        opt = minimize(Refusing, ABC_MODEL, members=2, refuse=[0])
        lone = minimize(_Objective, ABC_MODEL)
        assert opt.stop.tolist() == [sem.NO_STEP, sem.GTOL]
        assert opt.iterations[0] == 0
        assert opt.at.theta[1].tobytes() == lone.at.theta[0].tobytes()

    def test_non_pd_start_values(self):
        opt = minimize(_Objective, "F =~ a + b + c\na ~~ -1*a")
        assert opt.stop.tolist() == [sem.NONPD_START] and opt.iterations.tolist() == [0]
        # the member keeps its start theta, with no F or gradient
        spec = lp.parse_model("F =~ a + b + c\na ~~ -1*a")
        S, names = sem.align_moments(spec, abc_moments())
        start = sem.start_values(lp.build_matrices(spec, names), S)
        assert opt.at.theta[0].tobytes() == start.tobytes()
        assert opt.at.f.tolist() == [np.inf] and np.isnan(opt.at.g).all()
        with pytest.raises(EstimationError, match="^starting values give a "
                                                  "non-positive-definite implied covariance$"):
            lp.fit(lp.parse_model("F =~ a + b + c\na ~~ -1*a"), abc_moments())

    # c a copy of a makes S singular; at seed 0 its Cholesky factorization
    # succeeds by roundoff, leaving c 1e-16 of its variance after a and b
    @pytest.mark.parametrize("seed", range(6))
    def test_singular_sample_covariance(self, seed):
        X = abc_rows(seed)
        X[:, 2] = X[:, 0]
        moments = lp.covariance(lp.Dataset(["a", "b", "c"], X))
        opt = minimize(_Objective, ABC_MODEL, moments=moments)
        assert opt.stop.tolist() == [sem.NONPD_SAMPLE] and opt.iterations.tolist() == [0]
        with pytest.raises(NotPositiveDefiniteError,
                           match="^sample covariance is not positive definite$"):
            lp.fit(lp.parse_model(ABC_MODEL), moments)
        with pytest.raises(NotPositiveDefiniteError, match="sample"):
            lp.f_ml(np.eye(3), moments.S)

    # no linear-algebra routine fails on the chain: its start is not PD. The
    # stub raises from its first call (the start) or its second (the first
    # iteration's first trial), and the whole fit stops as an EstimationError
    @pytest.mark.parametrize("from_call", [pytest.param(None, id="chain"), 1, 2])
    def test_linalg_error(self, from_call, monkeypatch, survey_sim_moments):
        if from_call is None:
            text, moments, objective = CHAIN_MODEL, survey_sim_moments, _Objective
            opt = minimize(objective, text, moments=moments)
            assert opt.stop.tolist() == [sem.NONPD_START] and opt.iterations.tolist() == [0]
            message = "^starting values give a non-positive-definite implied covariance$"
        else:
            text, moments = ABC_MODEL, abc_moments()
            objective = functools.partial(Raising, from_call=from_call)
            message = r"^a linear-algebra routine failed during the fit \(LinAlgError\)$"
            with pytest.raises(EstimationError, match=message):
                minimize(objective, text, moments=moments)
        monkeypatch.setattr(sem, "_Objective", objective)
        with pytest.raises(EstimationError, match=message):
            lp.fit(lp.parse_model(text), moments)


class TestEstimationOptions:
    @pytest.mark.parametrize("gtol", [0.0, -1e-6, math.inf, math.nan])
    def test_gtol_must_be_finite_and_positive(self, gtol):
        with pytest.raises(EstimationError, match="^gtol must be finite and positive$") as exc:
            lp.EstimationOptions(gtol=gtol)
        assert isinstance(exc.value, lp.LatentPathError)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_must_be_positive(self, max_iter):
        with pytest.raises(EstimationError, match="^max_iter must be positive$") as exc:
            lp.EstimationOptions(max_iter=max_iter)
        assert isinstance(exc.value, lp.LatentPathError)

    def test_chisq_multiplier_must_be_n_1_or_n(self):
        with pytest.raises(EstimationError, match="^chisq_multiplier must be 'n-1' or 'n'$") as exc:
            lp.EstimationOptions(chisq_multiplier="N")
        assert isinstance(exc.value, lp.LatentPathError)


def std_cell(A_std, S_std, m, label: str) -> float:
    """The cell of a standardized solution that a label names."""
    pos = {name: i for i, name in enumerate(m.variables)}
    if "~~" in label:
        a, b = label.split("~~")
        return S_std[pos[a], pos[b]]
    if "=~" in label:
        latent, item = label.split("=~")
        return A_std[pos[item], pos[latent]]
    dependent, predictor = label.split("~")
    return A_std[pos[dependent], pos[predictor]]


class TestStandardize:
    def test_marker_loading_example(self):
        spec = lp.parse_model("F =~ 1*f1 + f2")
        m = lp.build_matrices(spec, ["f1", "f2"])
        theta = lp.theta_from_config(
            m, {"F=~f2": 1.0, "F~~F": 0.64, "f1~~f1": 0.36, "f2~~f2": 0.36})
        A_std, S_std = lp.standardize(m, theta)
        assert std_cell(A_std, S_std, m, "F=~f1") == pytest.approx(0.8, abs=1e-12)

    def test_standardized_model_unchanged(self):
        spec = one_factor_spec(3)
        m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
        lam = {"F=~f1": 0.7, "F=~f2": 0.6, "F=~f3": 0.8}
        errs = {"f1~~f1": 1 - 0.49, "f2~~f2": 1 - 0.36, "f3~~f3": 1 - 0.64}
        theta = lp.theta_from_config(m, {**lam, **errs})
        A_std, S_std = lp.standardize(m, theta)
        for label, value in lam.items():
            assert std_cell(A_std, S_std, m, label) == pytest.approx(value, abs=1e-12)

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
        m = res.matrices
        A_std, S_std = lp.standardize(m, res.theta)
        std = res.standardized
        assert set(m.labels) < set(std)  # markers and fixed cells too
        for label, value in std.items():
            assert value == std_cell(A_std, S_std, m, label), label
        # standardized latent variances are one by construction
        for name in ("ConsEth", "EnvSt", "PBC", "PerVa", "PB"):
            assert std_cell(A_std, S_std, m, f"{name}~~{name}") <= 1.0 + 1e-9

    def test_parameter_table_reads_each_parameter_at_its_cell(self):
        # a free and a fixed path, an error covariance, loadings and variances
        spec = lp.parse_model(
            "X =~ x1 + x2 + x3\nM =~ m1 + m2 + m3\nY =~ y1 + y2 + y3\n"
            "M ~ X\nY ~ M + 0.5*X\nx1 ~~ m1\n")
        m = lp.build_matrices(spec, spec.indicator_names)
        theta = lp.theta_from_config(m, {}, dict(
            loading=0.8, path=0.4, latent_variance=1.0, disturbance_variance=0.6,
            error_variance=0.5, error_covariance=0.1))
        res = lp.fit(spec, lp.covariance(lp.simulate(m, theta, 500, seed=3)))
        m = res.matrices
        A_std, S_std = lp.standardize(m, res.theta)
        pos = {name: i for i, name in enumerate(m.variables)}
        table = res.parameter_table()
        kinds = {par.kind for par in m.parameters}
        assert {"loading", "path", "error_covariance", "error_variance",
                "latent_variance", "disturbance_variance"} <= kinds
        for row in table:
            i, j = pos[row["lhs"]], pos[row["rhs"]]
            cell = {"loading": A_std[j, i], "path": A_std[i, j],
                    "covariance": S_std[i, j]}[row["kind"]]
            assert row["standardized"] == cell, row["label"]
        # the fixed path is in the standardized solution, not in the table
        assert res.standardized["Y~X"] == A_std[pos["Y"], pos["X"]] != 0.0
        assert "Y~X" not in [row["label"] for row in table]


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
