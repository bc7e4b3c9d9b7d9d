import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import latentpath as lp
from latentpath import effects, sem
from latentpath.errors import EstimationError, ModelSpecificationError, NotPositiveDefiniteError

from conftest import sobel_variance


def ram_latent_block(B, Gamma):
    """The latent block of A, endogenous then exogenous: [[B, Gamma], [0, 0]]."""
    m_eta, m_xi = Gamma.shape
    return np.block([[B, Gamma], [np.zeros((m_xi, m_eta + m_xi))]])


def enumerate_paths(A, names, source, target):
    """Sum of edge-weight products over every directed route, brute force."""
    weight = {}
    for i, dep in enumerate(names):
        for j, pred in enumerate(names):
            if A[i, j] != 0:
                weight[(pred, dep)] = A[i, j]

    total = 0.0
    # depth-first enumeration of simple paths (graph is acyclic)
    stack = [(source, 1.0)]
    while stack:
        node, acc = stack.pop()
        for (a, b), w in weight.items():
            if a != node:
                continue
            if b == target:
                total += acc * w
            else:
                stack.append((b, acc * w))
    return total


def random_dags(count=20, seed=42):
    """(A, eta_names, xi_names) of random acyclic latent blocks [[B, Gamma], [0, 0]]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m_eta = int(rng.integers(2, 4))
        m_xi = int(rng.integers(1, 4))
        B = np.zeros((m_eta, m_eta))
        for i in range(m_eta):
            for j in range(i):  # strictly lower triangular: acyclic
                if rng.random() < 0.6:
                    B[i, j] = rng.normal()
        Gamma = np.where(rng.random((m_eta, m_xi)) < 0.7,
                         rng.normal(size=(m_eta, m_xi)), 0.0)
        yield (ram_latent_block(B, Gamma), [f"E{i}" for i in range(m_eta)],
               [f"X{j}" for j in range(m_xi)])


def dag_matrices(A, names, free=False):
    """The model of one indicator per latent whose paths are A's nonzero
    cells, fixed at their values (or free), compiled."""
    lines = [f"{name} =~ {name.lower()}" for name in names]
    lines += [f"{names[i]} ~ {'' if free else f'{float(A[i, j])!r}*'}{names[j]}"
              for i, j in zip(*np.nonzero(A))]
    spec = lp.parse_model("\n".join(lines))
    return lp.build_matrices(spec, spec.indicator_names)


class TestDecompose:
    def test_no_mediation_paths(self):
        B = np.zeros((2, 2))
        Gamma = np.array([[0.5, 0.2], [0.1, 0.4]])
        eff = lp.decompose(ram_latent_block(B, Gamma))
        np.testing.assert_allclose(eff.total - eff.direct, 0.0)
        np.testing.assert_allclose(eff.total[:2, 2:], Gamma)

    def test_survey_totals_match_published_rounding(self):
        B = np.array([[0.0, 0.0], [0.438, 0.0]])
        Gamma = np.array([[0.124, 0.587, 0.264], [0.156, 0.301, 0.034]])
        eff = lp.decompose(ram_latent_block(B, Gamma),
                           ["PerVa", "PB", "ConsEth", "EnvSt", "PBC"])
        tot, dire, ind = eff.effect("PBC", "PB")
        assert dire == pytest.approx(0.034)
        assert ind == pytest.approx(0.116, abs=5e-4)
        assert tot == pytest.approx(0.150, abs=5e-4)
        tot, dire, ind = eff.effect("ConsEth", "PB")
        assert dire == pytest.approx(0.156)
        assert ind == pytest.approx(0.055, abs=2e-3)
        assert tot == pytest.approx(0.210, abs=2e-3)

    def test_singular_path_matrix_rejected(self):
        with pytest.raises(ModelSpecificationError, match="cycle"):
            lp.decompose(ram_latent_block(np.eye(2), np.zeros((2, 1))))
        # I - A is invertible, but the series A + A^2 + ... has no end
        with pytest.raises(ModelSpecificationError, match="cycle"):
            lp.decompose(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_matches_path_enumeration_on_random_dags(self):
        for A, eta_names, xi_names in random_dags():
            eff = lp.decompose(A, eta_names + xi_names)
            for src, dst in itertools.product(xi_names + eta_names, eta_names):
                if src == dst:
                    continue
                tot, dire, ind = eff.effect(src, dst)
                expected = enumerate_paths(A, eta_names + xi_names, src, dst)
                assert tot == pytest.approx(expected, abs=1e-10)
                assert tot - dire - ind == pytest.approx(0.0, abs=1e-10)

    def test_additivity_identity(self):
        B = np.array([[0.0, 0.0], [0.7, 0.0]])
        Gamma = np.array([[0.3, 0.1], [0.2, 0.6]])
        eff = lp.decompose(ram_latent_block(B, Gamma))
        indirect = np.array([[eff.effect(s, t)[2] for s in eff.names] for t in eff.names])
        np.testing.assert_allclose(eff.total - eff.direct - indirect, 0.0, atol=1e-12)


class TestSeries:
    """The finite series that stands for (I - A)^-1 in ``sem._ram`` and ``decompose``."""

    def test_ram_matches_the_inverse_on_random_dags(self):
        for A, eta_names, xi_names in random_dags():
            m = dag_matrices(A, eta_names + xi_names)
            A_all, _, E = sem._ram(m, sem.start_values(m, np.eye(m.n_observed)))
            expected = np.linalg.inv(np.eye(len(m.variables)) - A_all)
            assert np.abs(E - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_members_with_zero_paths_keep_their_bits_in_a_stack(self):
        # the sum stops when a power is zero in every member, so a member
        # whose paths are all zero (start values) adds zero powers in a stack
        for A, eta_names, xi_names in random_dags():
            names = eta_names + xi_names
            m = dag_matrices(A, names, free=True)
            start = sem.start_values(m, np.eye(m.n_observed))
            moved = start.copy()
            for k, par in enumerate(m.parameters):
                if par.kind == "path":
                    moved[k] = A[names.index(par.lhs), names.index(par.rhs)]
            stack = np.array([start, moved, start])
            _, _, E = sem._ram(m, stack)
            for b, theta in enumerate(stack):
                assert E[b].tobytes() == sem._ram(m, theta)[2].tobytes(), b


class TestDeltaVariance:
    def test_zero_variances(self):
        assert sobel_variance(0.8, 0.4, 0.0, 0.0) == 0.0

    def test_plug_in(self):
        assert sobel_variance(0.0, 1.0, 0.04, 0.01) == pytest.approx(0.0404)

    def test_matches_monte_carlo_for_independent_normals(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            g = rng.uniform(0.2, 1.5)
            b = rng.uniform(0.2, 1.5)
            sg = rng.uniform(0.1, 0.8)
            sb = rng.uniform(0.1, 0.8)
            draws_g = rng.normal(g, sg, size=1_000_000)
            draws_b = rng.normal(b, sb, size=1_000_000)
            mc = np.var(draws_g * draws_b)
            formula = sobel_variance(g, b, sg**2, sb**2)
            assert formula == pytest.approx(mc, rel=0.02)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sobel_variance(0.5, 0.5, -0.1, 0.2)


MEDIATION_MODEL = """
X =~ x1 + x2 + x3
M =~ m1 + m2 + m3
Y =~ y1 + y2 + y3
M ~ X
Y ~ M + X
"""


def planted_mediation_data(a, b, c, n, seed):
    spec = lp.parse_model(MEDIATION_MODEL)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, {"M~X": a, "Y~M": b, "Y~X": c},
        dict(loading=0.75, latent_variance=1.0, disturbance_variance=0.6,
             error_variance=0.4375),
    )
    return spec, lp.simulate(m, theta, n, seed=seed)


TWO_MEDIATOR_MODEL = """
X =~ x1 + x2 + x3
M1 =~ m1 + m2 + m3
M2 =~ k1 + k2 + k3
Y =~ y1 + y2 + y3
M1 ~ X
M2 ~ X
Y ~ M1 + M2 + X
"""


def planted_two_mediator_data(n, seed):
    spec = lp.parse_model(TWO_MEDIATOR_MODEL)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, {"M1~X": 0.5, "M2~X": 0.4, "Y~M1": 0.45, "Y~M2": 0.5, "Y~X": 0.2},
        dict(loading=0.75, latent_variance=1.0, disturbance_variance=0.6,
             error_variance=0.4375),
    )
    return spec, lp.simulate(m, theta, n, seed=seed)


class TestSpecificIndirect:
    """SRC:MED:DST reports the effect through MED, not every indirect route."""

    def check(self, decs, est):
        through = {}
        for d in decs:
            med = d.mediator
            ab = est[f"{med}~X"] * est[f"Y~{med}"]
            assert d.indirect == pytest.approx(ab, abs=1e-10)
            through[med] = d.indirect
        # the two mediators carry every indirect route between them
        assert through["M1"] + through["M2"] == pytest.approx(
            decs[0].total - decs[0].direct, abs=1e-10)
        assert abs(through["M1"] - through["M2"]) > 0.01

    def test_delta_ci(self):
        spec, data = planted_two_mediator_data(800, seed=3)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        decs = lp.delta_ci(res, [("X", "M1", "Y"), ("X", "M2", "Y")])
        self.check(decs, res.estimates)

    def test_bootstrap_ci(self):
        spec, data = planted_two_mediator_data(800, seed=3)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True,
                     compute_se=False)
        decs = lp.bootstrap_ci(data, spec, [("X", "M1", "Y"), ("X", "M2", "Y")],
                               replicates=100, seed=5, standardize_latents=True)
        self.check(decs, res.estimates)
        # each interval is centred on its own specific effect
        for d in decs:
            lo, hi = d.indirect_bounds
            assert lo < d.indirect < hi
        assert decs[0].indirect_bounds != decs[1].indirect_bounds


CHAIN_MODEL = """
X =~ x1 + x2 + x3
M1 =~ m1 + m2 + m3
M2 =~ k1 + k2 + k3
Y =~ y1 + y2 + y3
M1 ~ X
M2 ~ M1
Y ~ M2
"""


def planted_chain_data(n, seed):
    spec = lp.parse_model(CHAIN_MODEL)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, {"M1~X": 0.5, "M2~M1": 0.6, "Y~M2": 0.5},
        dict(loading=0.75, latent_variance=1.0, disturbance_variance=0.6,
             error_variance=0.4375),
    )
    return spec, lp.simulate(m, theta, n, seed=seed)


def effect_at(m, theta, src, med, dst):
    p = m.n_observed
    eff = lp.decompose(m.A.materialize(theta)[p:, p:], m.latent_names)
    return np.array(eff.effect(src, dst, med))


class TestFullCovarianceDelta:
    """delta_ci's variance is g' acov g with the analytic gradient g."""

    def test_total_bounds_do_not_depend_on_mediator(self):
        spec, data = planted_two_mediator_data(800, seed=3)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        via_m1, via_m2 = lp.delta_ci(res, [("X", "M1", "Y"), ("X", "M2", "Y")])
        assert via_m1.total_bounds == via_m2.total_bounds
        assert via_m1.direct_bounds == via_m2.direct_bounds

    @pytest.mark.parametrize("planted,triples", [
        (planted_two_mediator_data, [("X", "M1", "Y"), ("X", "M2", "Y")]),
        (planted_chain_data, [("X", "M1", "Y"), ("X", "M2", "Y"), ("M1", "M2", "Y")]),
    ])
    def test_gradient_matches_central_differences(self, planted, triples):
        spec, data = planted(800, seed=3)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True,
                     compute_se=False)
        m, theta = res.matrices, res.theta
        eff = lp.decompose_fit(res)
        for src, med, dst in triples:
            analytic = np.array(effects._effect_gradients(m, eff, src, med, dst))
            numeric = np.zeros_like(analytic)
            for k in range(m.n_free):
                h = 1e-6 * max(1.0, abs(theta[k]))
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                numeric[:, k] = (effect_at(m, up, src, med, dst)
                                 - effect_at(m, down, src, med, dst)) / (2.0 * h)
            assert np.any(analytic != 0.0)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_chain_without_free_mediator_paths(self):
        # X:M1:Y has no M1 -> Y path; M2 carries every route
        spec, data = planted_chain_data(800, seed=3)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        for d in lp.delta_ci(res, [("X", "M1", "Y"), ("X", "M2", "Y")]):
            assert d.indirect == pytest.approx(d.total, abs=1e-12)
            for bounds, center in ((d.total_bounds, d.total),
                                   (d.indirect_bounds, d.indirect)):
                lo, hi = bounds
                assert np.isfinite(lo) and np.isfinite(hi)
                assert lo < center < hi
            assert d.direct_bounds == (0.0, 0.0)  # no X -> Y path to vary

    def test_single_mediator_matches_product_formula_with_covariance(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 800, seed=21)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        d = lp.delta_ci(res, [("X", "M", "Y")])[0]
        ia, ib = (res.matrices.labels.index(label) for label in ("M~X", "Y~M"))
        a, b = res.theta[ia], res.theta[ib]
        va, vb, cab = res.acov[ia, ia], res.acov[ib, ib], res.acov[ia, ib]
        expected = sobel_variance(a, b, va, vb) - va * vb + 2 * a * b * cab
        z = stats.norm.ppf(0.975)
        sd = (d.indirect_bounds[1] - d.indirect_bounds[0]) / (2 * z)
        assert sd**2 == pytest.approx(expected, abs=1e-12)


class TestBootstrap:
    def test_programming_errors_propagate(self, monkeypatch):
        # a bug inside the stacked replicate refits surfaces; it is not a drop
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)

        class BrokenObjective(sem._Objective):
            def informations(self, pt):
                if len(self.S_obs) > 1:
                    raise TypeError("bug in a replicate")
                return super().informations(pt)

        # the full-sample fit, a stack of one, stays real; only the replicates' stacks break
        monkeypatch.setattr(sem, "_Objective", BrokenObjective)
        with pytest.raises(TypeError, match="bug in a replicate"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=2)

    def test_failure_error_counts_drops_by_reason(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        with pytest.raises(EstimationError, match=r"100/100 replicates were dropped "
                                                  r"\(limit 20%; 100 not converged\)"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=2,
                            opts=lp.EstimationOptions(max_iter=1))
        # x1 is constant but for two rows; a resample without both has a
        # singular sample covariance, and the others barely fit
        X = data.values.copy()
        X[:, 0] = 0.0
        X[:2, 0] = (1.0, -1.0)
        with pytest.raises(EstimationError) as err:
            lp.bootstrap_ci(lp.Dataset(data.names, X), spec, [("X", "M", "Y")],
                            replicates=100, seed=2, opts=lp.EstimationOptions(max_iter=30))
        counts = re.search(r"(\d+)/100 .*; (\d+) not converged, (\d+) sample covariance "
                           r"is not positive definite\)", str(err.value))
        assert counts is not None, str(err.value)
        dropped, not_converged, not_pd = map(int, counts.groups())
        assert not_pd > 0 and not_converged + not_pd == dropped

    def test_seed_determinism_and_worker_invariance(self):
        spec, data = planted_mediation_data(0.5, 0.3, 0.2, 300, seed=55)
        kwargs = dict(replicates=120, level=0.9, seed=7, standardize_latents=True)
        a = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], workers=1, **kwargs)
        b = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], workers=1, **kwargs)
        c = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], workers=3, **kwargs)
        for other in (b, c):
            assert a[0].indirect_bounds == other[0].indirect_bounds
            assert a[0].total_bounds == other[0].total_bounds
            assert a[0].direct_bounds == other[0].direct_bounds

    def test_point_estimates_additive_per_replicate(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 300, seed=77)
        decs = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=120,
                               seed=3, standardize_latents=True)
        # one mediator carries every indirect route: total = direct + indirect
        d = decs[0]
        assert abs(d.total - d.direct - d.indirect) <= 1e-12
        lo, hi = decs[0].indirect_bounds
        assert lo <= hi

    def test_reads_only_the_model_columns(self, planted, survey_spec):
        # an all-missing column the model does not use must drop no row
        m, theta = planted
        data = lp.simulate(m, theta, 519, seed=42)
        gender = lp.Dataset([*data.names, "gender"],
                            np.column_stack([data.values, np.full(data.n, np.nan)]))
        kwargs = dict(replicates=100, seed=1)
        base = lp.bootstrap_ci(data, survey_spec, [("EnvSt", "PerVa", "PB")], **kwargs)
        extra = lp.bootstrap_ci(gender, survey_spec, [("EnvSt", "PerVa", "PB")], **kwargs)
        assert extra == base

    def test_mediator_validation(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        with pytest.raises(ModelSpecificationError, match="does not mediate"):
            lp.bootstrap_ci(data, spec, [("Y", "M", "X")], replicates=100, seed=2,
                            standardize_latents=True)

    def test_replicate_floor(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        with pytest.raises(EstimationError, match="100"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=50, seed=2)

    def test_level_outside_unit_interval_raises(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        with pytest.raises(EstimationError, match="level"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, level=1.5)

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_seed_checked_before_fitting(self, monkeypatch, seed):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the seed")

        monkeypatch.setattr(effects, "fit", no_fit)
        with pytest.raises(EstimationError, match="seed must be a non-negative integer"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=seed)

    @pytest.mark.parametrize("name, value", [
        ("replicates", 150.0), ("replicates", "200"), ("replicates", None),
        ("level", "0.9"), ("level", None), ("level", float("nan")),
    ])
    def test_replicates_and_level_checked_before_fitting(self, monkeypatch, name, value):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)

        def no_fit(*args, **kwargs):
            raise AssertionError(f"fitted before checking {name}")

        monkeypatch.setattr(effects, "fit", no_fit)
        kwargs = dict(replicates=100, level=0.95, seed=2) | {name: value}
        with pytest.raises(EstimationError, match=f"{name} must be an? (integer|real number)"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], **kwargs)

    def test_empty_effects_list_fits_nothing(self, monkeypatch):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted for no effect")

        monkeypatch.setattr(effects, "fit", no_fit)
        assert lp.bootstrap_ci(data, spec, [], replicates=100, seed=2) == []
        # the arguments are still checked first
        with pytest.raises(EstimationError, match="replicates must be an integer"):
            lp.bootstrap_ci(data, spec, [], replicates=5)

    def test_one_estimation_for_the_sample_and_each_block(self, monkeypatch):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        calls = []
        real = sem._estimate

        def spy(m, S, opts):
            calls.append((m, len(S)))
            return real(m, S, opts)

        monkeypatch.setattr(sem, "_estimate", spy)
        lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=2)
        m = calls[0][0]
        width = max(m.n_free, len(m.variables))
        block = max(1, effects._BLOCK_BYTES // (8 * width * width))
        assert 1 < block < 100 and 100 % block  # several blocks, the last one short
        # the full sample as a stack of one, then each block of replicates
        assert [size for _, size in calls] == [1] + [block] * (100 // block) + [100 % block]
        assert all(other is m for other, _ in calls)

    def test_failure_rate_guard(self):
        # a model that cannot converge on most resamples: under 3 complete
        # indicators the X construct is weakly identified at tiny n
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 18, seed=10)
        opts = lp.EstimationOptions(max_iter=3)  # starve the optimizer
        with pytest.raises(EstimationError, match="replicates were dropped"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100,
                            seed=4, opts=opts, standardize_latents=True)


def quantile_bits(draws, alpha):
    """np.quantile's alpha and 1 - alpha bounds of draws along axis 0, as int64 bits."""
    return np.quantile(draws, [alpha, 1.0 - alpha], axis=0).view(np.int64)


class TestPercentileBounds:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(80, 2000), routes=st.integers(1, 3), decimals=st.integers(0, 2),
           level=st.sampled_from([0.5, 0.999999, 1.0 - 2.0**-52]) | st.floats(0.01, 0.999),
           infinite=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_np_quantile(self, rows, routes, decimals, level, infinite, seed):
        rng = np.random.default_rng(seed)
        draws = np.round(rng.standard_normal((rows, routes, 3)), decimals)  # ties
        draws[:, 0, 0] = rng.choice([-0.0, 0.0], rows)  # equal, but not the same bits
        draws[rng.integers(rows), -1, 1] = np.nan
        if infinite:
            draws[rng.integers(rows, size=2), 0, 2] = (np.inf, -np.inf)
        alpha = (1.0 - level) / 2.0
        with np.errstate(invalid="ignore"):  # inf - inf, as in np.quantile
            bounds = effects._percentile_bounds(draws, alpha)
            want = quantile_bits(draws, alpha)
        np.testing.assert_array_equal(bounds.view(np.int64), want)
        assert np.isnan(bounds[:, -1, 1]).all()

    def test_signed_zeros_land_where_a_partition_puts_them(self):
        # np.quantile reads the lower bound -0.0 off its partition; a sort
        # puts a 0.0 at that order statistic
        draws = np.zeros((100, 1, 3))
        draws[::2] = -0.0
        bounds = effects._percentile_bounds(draws, 0.05)
        np.testing.assert_array_equal(bounds.view(np.int64), quantile_bits(draws, 0.05))


def resampled_fits(spec, data, seed, replicates, opts=None):
    """fit(compute_se=False) on each replicate's moments, as a lone refit makes them."""
    n = data.n
    fits = []
    for r in range(replicates):
        rows = np.random.default_rng(seed + r).integers(0, n, n)
        sample = data.values[rows]
        moments = lp.covariance(lp.Dataset(data.names, sample))
        fits.append(lp.fit(spec, moments, opts, compute_se=False))
    return fits


def failing_objective(member):
    """An _Objective class whose ``point`` raises LinAlgError whenever
    ``member`` of the first stack of more than one member built is among the
    rows evaluated."""
    built = []

    class Failing(sem._Objective):
        def __init__(self, m, S):
            super().__init__(m, S)
            if len(self.S_obs) > 1:
                built.append(self)

        def point(self, theta, rows):
            if built and self is built[0] and member in rows:
                raise np.linalg.LinAlgError("planted")
            return super().point(theta, rows)

    return Failing


# the stop codes of a member that was not given up
RAN_ITS_COURSE = (sem.GTOL, sem.STALLED, sem.NO_STEP, sem.MAX_ITER)


def accepting_halvings(sizes):
    """How many halvings of one line search accepted members, from the number
    of members at each of its trial points: a halving accepts those that the
    next one no longer tries, and the last all it tried, unless the search
    ran out of halvings."""
    return sum(a > b for a, b in zip(sizes, sizes[1:])) + (len(sizes) < 60)


class TestStackedRefits:
    """The stacked optimizer against lone fits of the same resampled moments."""

    def check_stack(self, spec, data, seed, replicates, monkeypatch, opts=None):
        opts = opts or lp.EstimationOptions()
        fits = resampled_fits(spec, data, seed, replicates, opts)
        m = fits[0].matrices
        S = np.array([res.S for res in fits])
        lone_factorizations = []
        real_cholesky = np.linalg.cholesky
        searches = []  # per iteration, the number of members at each trial point

        def spy(M):
            if M.ndim == 2:  # the stacked factorization failed; one at a time
                lone_factorizations.append(1)
            return real_cholesky(M)

        class Spying(sem._Objective):
            def informations(self, pt):  # once per iteration, before its line search
                searches.append([])
                return super().informations(pt)

            def point(self, theta, rows):
                if searches:  # not the start
                    searches[-1].append(len(rows))
                return super().point(theta, rows)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        opt = sem._minimize(Spying(m, S), sem.start_values(m, S), opts)
        monkeypatch.undo()
        assert len(opt.at.theta) == len(fits) == replicates
        for b, res in enumerate(fits):
            assert opt.stop[b] in RAN_ITS_COURSE, b
            assert opt.at.theta[b].tobytes() == res.theta.tobytes(), b
            # F and the gradient of the record are those at the member's theta
            assert opt.at.f[b].tobytes() == np.float64(res.f_min).tobytes(), b
            norm = np.max(np.abs(opt.at.g[b]), initial=0.0)
            assert norm.tobytes() == np.float64(res.gradient_norm).tobytes(), b
            assert opt.iterations[b] == res.iterations, b
            assert (opt.stop[b] == sem.GTOL) == res.converged, b
        return fits, lone_factorizations, opt, searches

    def test_survey_model_matches_lone_fits(self, survey_spec, planted, monkeypatch):
        data = lp.simulate(*planted, 519, seed=42)
        _, _, opt, _ = self.check_stack(survey_spec, data, 1, 20, monkeypatch)
        assert (opt.stop == sem.GTOL).all()

    # the columns in the model's order, and reversed: the replicates'
    # covariances come in the compiled order, the data's, with no reorder
    @pytest.mark.parametrize("reverse", [False, True], ids=["model_order", "reversed"])
    def test_mediation_model_matches_lone_fits(self, monkeypatch, reverse):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 100, seed=3)
        if reverse:
            data = data.subset(data.names[::-1])
        fits, lone, _, searches = self.check_stack(spec, data, 2, 100, monkeypatch)
        assert fits[0].matrices.variable_order == data.names
        # some line-search trials left the PD cone, so the per-slice
        # Cholesky fallback ran inside the stack
        assert lone
        # some iteration accepted members at two or more halvings, so each
        # member's bytes above held across an iteration recorded in chunks
        assert max(map(accepting_halvings, searches)) >= 2
        # the bootstrap builds the same moments and reads the same effects
        routes = [("X", "M", "Y"), ("X", None, "Y")]
        draws, reasons = effects._refit_replicates(
            data.values, fits[0].matrices, routes,
            lp.EstimationOptions(), 2, 100)
        assert reasons == []
        expected = [[lp.decompose_fit(res).effect(src, dst, med) for src, med, dst in routes]
                    for res in fits]
        assert draws.tobytes() == np.array(expected).tobytes()

    def test_stall_stops_match_lone_fits(self, monkeypatch):
        # no fit can reach this gtol, so every member stops on three stalls,
        # each after its own count of iterations
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 100, seed=3)
        fits, _, opt, _ = self.check_stack(spec, data, 2, 30, monkeypatch,
                                        lp.EstimationOptions(gtol=1e-13))
        assert (opt.stop == sem.STALLED).all()
        assert len({res.iterations for res in fits}) > 1

    # a LinAlgError in one replicate's refit stops the bootstrap as an
    # EstimationError; no replicate is dropped for it
    def test_bootstrap_counts_a_linalg_error(self, monkeypatch):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 200, seed=1)
        monkeypatch.setattr(sem, "_Objective", failing_objective(2))
        with pytest.raises(EstimationError, match=r"^a linear-algebra routine failed "
                                                  r"during the fit \(LinAlgError\)$"):
            lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=2,
                            opts=lp.EstimationOptions(max_iter=1))

    def test_non_pd_sample_covariance_is_given_up_alone(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 100, seed=3)
        fits = resampled_fits(spec, data, 2, 3)
        m = fits[0].matrices
        S = np.array([res.S for res in fits])
        S[1, 0, :] = S[1, 1, :]  # a repeated indicator: singular
        S[1, :, 0] = S[1, :, 1]
        with pytest.raises(NotPositiveDefiniteError,
                           match="^sample covariance is not positive definite$"):
            sem.fit(spec, lp.SampleMoments(S[1], 100, m.variable_order),
                    compute_se=False)
        opt = sem._minimize(sem._Objective(m, S), sem.start_values(m, S),
                            lp.EstimationOptions())
        assert opt.stop[1] == sem.NONPD_SAMPLE
        assert opt.iterations[1] == 0
        assert opt.at.theta[1].tobytes() == sem.start_values(m, S[1]).tobytes()
        for b in (0, 2):
            assert opt.at.theta[b].tobytes() == fits[b].theta.tobytes()

    # no sample covariance is known to give start values that are not PD, so
    # a stub fails one member's factorization at the start, as Cholesky does
    # there: an all-NaN factor and a NaN log-determinant
    def test_non_pd_start_is_given_up_alone(self, monkeypatch):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 100, seed=3)
        fits = resampled_fits(spec, data, 2, 3)
        m = fits[0].matrices
        S = np.array([res.S for res in fits])
        real, calls = sem._chol_logdet, []

        def rejecting_a_start(M):
            L, logdet = real(M)
            if not calls:
                L[1], logdet[1] = np.nan, np.nan
            calls.append(len(M))
            return L, logdet

        monkeypatch.setattr(sem, "_chol_logdet", rejecting_a_start)
        start = sem.start_values(m, S)
        opt = sem._minimize(sem._Objective(m, S), start, lp.EstimationOptions())
        assert calls[0] == 3
        assert opt.stop[1] == sem.NONPD_START
        assert opt.iterations[1] == 0
        assert opt.at.theta[1].tobytes() == start[1].tobytes()
        assert opt.at.f[1] == np.inf and np.isnan(opt.at.g[1]).all()
        for b in (0, 2):
            assert opt.at.theta[b].tobytes() == fits[b].theta.tobytes()


class TestVerdicts:
    def make_dec(self, direct_bounds, indirect_bounds):
        return lp.EffectDecomposition(
            source="X", target="Y", mediator="M",
            total=0.5, direct=0.3, indirect=0.2,
            total_bounds=(0.1, 0.9), direct_bounds=direct_bounds,
            indirect_bounds=indirect_bounds, level=0.95,
            method="percentile-bootstrap",
        )

    def test_partial_mediation(self):
        dec = self.make_dec((0.1, 0.5), (0.05, 0.4))
        assert dec.mediation_verdict() == "partial"

    def test_full_mediation(self):
        dec = self.make_dec((-0.1, 0.5), (0.05, 0.4))
        assert dec.mediation_verdict() == "full"

    def test_no_mediation(self):
        dec = self.make_dec((0.1, 0.5), (-0.001, 0.155))
        assert dec.mediation_verdict() == "none"

    def test_hypothesis_classification(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments)
        verdicts = lp.classify_hypotheses(res)
        by_label = {v.label: v for v in verdicts}
        assert set(by_label) == {"H1", "H2", "H3"}
        for v in verdicts:
            assert v.verdict in ("supported", "not supported")
            assert (v.p < 0.05) == (v.verdict == "supported")

    def test_threshold_is_five_percent(self, survey_spec, survey_sim_moments):
        res = lp.fit(survey_spec, survey_sim_moments)
        for v in lp.classify_hypotheses(res):
            sign = "<" if v.verdict == "supported" else ">="
            assert v.detail == f"p={v.p:.3g} {sign} 0.05"


class TestDeltaCi:
    def test_intervals_ordered_and_centered(self):
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 800, seed=21)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        decs = lp.delta_ci(res, [("X", "M", "Y")], level=0.95)
        d = decs[0]
        assert d.method == "delta"
        for bounds, center in ((d.total_bounds, d.total),
                               (d.direct_bounds, d.direct),
                               (d.indirect_bounds, d.indirect)):
            lo, hi = bounds
            assert lo < center < hi
            assert (center - lo) == pytest.approx(hi - center, rel=1e-9)

    def test_fit_without_standard_errors_raises(self):
        # NaN bounds would read as "no mediation": NaN comparisons are false
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 300, seed=21)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True,
                     compute_se=False)
        with pytest.raises(EstimationError, match="standard errors"):
            lp.delta_ci(res, [("X", "M", "Y")])

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan"), "0.95"])
    def test_level_outside_unit_interval_raises(self, level):
        # ndtri(0.5 + level / 2) is NaN or infinite there, and NaN bounds
        # would read as "no mediation"
        spec, data = planted_mediation_data(0.5, 0.4, 0.2, 300, seed=21)
        res = lp.fit(spec, lp.covariance(data), standardize_latents=True)
        with pytest.raises(EstimationError, match="level"):
            lp.delta_ci(res, [("X", "M", "Y")], level=level)
