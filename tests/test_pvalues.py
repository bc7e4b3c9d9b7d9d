"""Tail probabilities and quantiles against scipy.stats as the reference.

The package computes every p-value and normal quantile with the
scipy.special ufuncs that scipy.stats itself calls, so the results must
match the scipy.stats formulas exactly, not merely to a tolerance.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import latentpath as lp
from latentpath import effects


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone costs most of the package's import time
    env = dict(os.environ)
    src_dir = str(Path(lp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = "import sys, latentpath, latentpath.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


MEDIATION_MODEL = "X =~ x1 + x2 + x3\nM =~ m1 + m2 + m3\nY =~ y1 + y2 + y3\nM ~ X\nY ~ M + X\n"

COLD_START = f"""
import sys
import latentpath as lp, latentpath.cli

spec = lp.parse_model({MEDIATION_MODEL!r})
m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
theta = lp.theta_from_config(m, {{"M~X": 0.5, "Y~M": 0.3, "Y~X": 0.2}}, dict(
    loading=0.75, latent_variance=1.0, disturbance_variance=0.6, error_variance=0.4375))
data = lp.simulate(m, theta, 300, seed=7)
moments = lp.covariance(data)
lp.fit(spec, moments, standardize_latents=True, compute_se=False)
lp.bootstrap_ci(data, spec, [("X", "M", "Y")], replicates=100, seed=3,
                standardize_latents=True)
print("scipy.special" in sys.modules)
result = lp.fit(spec, moments, standardize_latents=True)
print("scipy.special" in sys.modules)
result.p_values
print("scipy.special" in sys.modules)
"""

NO_SE_P_VALUES = f"""
import sys
import numpy as np
import latentpath as lp

spec = lp.parse_model({MEDIATION_MODEL!r})
data = lp.Dataset(spec.indicator_names, np.random.default_rng(5).standard_normal((200, 9)))
result = lp.fit(spec, lp.covariance(data), compute_se=False)
print(np.isnan(result.p_values).all(), result.p_values.shape == result.theta.shape)
print("scipy.special" in sys.modules)
"""


def run_cold(code):
    """stdout of code run in a fresh interpreter that imports this package's source."""
    env = dict(os.environ)
    src_dir = str(Path(lp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_no_se_fit_and_bootstrap_do_not_load_scipy_special():
    # scipy.special outweighs the rest of the import; only p-values and quantiles need
    # it, so not even a fit with SEs loads it until its p-values are read
    assert run_cold(COLD_START) == ["False", "False", "True"]


def test_no_se_p_values_are_nan_without_scipy_special():
    assert run_cold(NO_SE_P_VALUES) == ["True", "True", "False"]


def test_no_se_fit_has_nan_p_values_and_the_same_chisq_p(survey_spec, survey_sim_moments):
    bare = lp.fit(survey_spec, survey_sim_moments, compute_se=False)
    full = lp.fit(survey_spec, survey_sim_moments)
    assert np.isnan(bare.p_values).all()
    assert bare.p_values.shape == full.p_values.shape
    assert bare.chisq_p == full.chisq_p


class TestBundledModel:
    @pytest.fixture(scope="class")
    def result(self, survey_spec, survey_sim_moments):
        return lp.fit(survey_spec, survey_sim_moments)

    def test_chisq_p(self, result):
        assert result.df > 0
        assert result.chisq_p == float(stats.chi2.sf(result.chisq, result.df))

    def test_parameter_p_values(self, result):
        assert np.isfinite(result.crit_ratio).all()
        np.testing.assert_array_equal(result.p_values,
                                      2.0 * stats.norm.sf(np.abs(result.crit_ratio)))

    def test_parameter_table_p_is_p_values_row_for_row(self, result):
        table = result.parameter_table()
        assert [row["label"] for row in table] == result.labels
        assert [row["p"] for row in table] == result.p_values.tolist()

    def test_fit_indices_p_value(self, result):
        assert lp.from_fit(result).p == float(stats.chi2.sf(result.chisq, result.df))

    def test_bartlett(self, survey_sim_moments):
        R = survey_sim_moments.R
        for k in (2, 5, R.shape[0]):
            for n in (50, 519, 5000):
                chi2, df, p = lp.bartlett(R[:k, :k], n)
                assert p == float(stats.chi2.sf(chi2, df))

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_delta_ci_bounds(self, result, level):
        eff = effects.decompose_fit(result)
        z = stats.norm.ppf(0.5 + level / 2.0)
        for src in ("ConsEth", "EnvSt", "PBC"):
            d = lp.delta_ci(result, [(src, "PerVa", "PB")], level=level)[0]
            G = effects._effect_gradients(result.matrices, eff, src, "PerVa", "PB")
            sd = np.sqrt(((G @ result.acov) * G).sum(axis=1))
            expected = [(est - z * s, est + z * s)
                        for est, s in zip((d.total, d.direct, d.indirect), sd)]
            assert [d.total_bounds, d.direct_bounds, d.indirect_bounds] == expected


class TestEdgeInputs:
    def test_normal_two_sided_p(self):
        # the expression fit applies to the critical ratios
        crit = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -38.5],
                               np.linspace(-10.0, 10.0, 401)])
        np.testing.assert_array_equal(2.0 * special.ndtr(-np.abs(crit)),
                                      2.0 * stats.norm.sf(np.abs(crit)))

    @pytest.mark.parametrize("df", [1, 15, 1062])
    @pytest.mark.parametrize("chisq", [-0.5, 0.0, 1.0, 15.0, 1062.0, 1e4, np.nan])
    def test_chi_square_upper_tail(self, df, chisq):
        S = np.eye(3)
        p = lp.indices(chisq, df, 50.0, 3, 200, S, S).p
        np.testing.assert_array_equal(p, stats.chi2.sf(chisq, df))
