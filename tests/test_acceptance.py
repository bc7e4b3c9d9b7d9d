"""Acceptance suite.

One test per acceptance check, run at the stated tolerance, each printing
a single pass line with the measured values (use ``pytest -s`` to see the
lines on success; pytest itself reports one PASSED/FAILED row per check).
"""

import itertools
import math
import time

import numpy as np
import pytest

import latentpath as lp
from latentpath import effects
from latentpath.sem import _Objective

from conftest import evaluate, log_likelihood, sobel_variance


def note(tag: str, message: str) -> None:
    print(f"[acceptance {tag}] PASS  {message}")


REFERENCE = {
    # construct: (standardized loadings, CR, AVE, sqrt-AVE diagonal)
    "ConsEth": ([0.515, 0.742, 0.838, 0.836, 0.546, 0.807], 0.8662, 0.5277, 0.726),
    "EnvSt": ([0.703, 0.647, 0.585], 0.6821, 0.4183, 0.647),
    "PBC": ([0.661, 0.631, 0.524], 0.6356, 0.3699, 0.608),
    "PerVa": ([0.647, 0.626, 0.594, 0.634], 0.7198, 0.3913, 0.626),
    "PB": ([0.754, 0.774, 0.669, 0.594, 0.776], 0.8397, 0.5140, 0.717),
}


def test_01_cr_ave_reference_values():
    worst = 0.0
    for name, (lam, cr_ref, ave_ref, _) in REFERENCE.items():
        cr = lp.composite_reliability(lam)
        ave = lp.average_variance_extracted(lam)
        assert cr == pytest.approx(cr_ref, abs=5e-4), name
        assert ave == pytest.approx(ave_ref, abs=5e-4), name
        worst = max(worst, abs(cr - cr_ref), abs(ave - ave_ref))
    note("01", f"CR/AVE for 5 constructs within +/-0.0005 (worst |err| = {worst:.2e})")


def test_02_discriminant_diagonal():
    worst = 0.0
    for name, (_, _, ave_ref, diag_ref) in REFERENCE.items():
        fl = lp.fornell_larcker({name: ave_ref}, np.eye(1), [name])
        got = fl.matrix[0, 0]
        assert got == pytest.approx(diag_ref, abs=1e-3), name
        worst = max(worst, abs(got - diag_ref))
    assert 0.717**2 == pytest.approx(0.514, abs=1e-3)
    note("02", f"sqrt(AVE) diagonal within +/-0.001 (worst |err| = {worst:.2e}); "
               "0.717^2 = 0.514 holds")


def test_03_rmsea_consistency():
    closed_form = math.sqrt((2.727 - 1.0) / 518)
    for df in (5, 50, 179, 400):
        chisq = 2.727 * df
        rep = lp.indices(chisq, df, chisq_null=20 * df, df_null=df + 9, n=519,
                         S=np.eye(2), sigma_hat=np.eye(2))
        assert rep.rmsea == pytest.approx(closed_form, abs=1e-12)
        assert rep.rmsea == pytest.approx(0.058, abs=1e-3)
    assert closed_form == pytest.approx(0.0577, abs=1e-4)
    note("03", f"RMSEA at chisq/df=2.727, n=519 is {closed_form:.4f} for any df "
               "(reported 0.058, tolerance 0.001)")


PUBLISHED_TRIPLES = {
    "ConsEth->PerVa->PB": (0.210, 0.156, 0.055),
    "EnvSt->PerVa->PB": (0.559, 0.301, 0.257),
    "PBC->PerVa->PB": (0.150, 0.034, 0.116),
}


def test_04_mediation_additivity():
    worst = 0.0
    for route, (tot, dire, ind) in PUBLISHED_TRIPLES.items():
        gap = abs(tot - dire - ind)
        assert gap <= 0.002, route
        worst = max(worst, gap)

    # the decomposition itself is additive to machine precision
    rng = np.random.default_rng(40)
    for _ in range(20):
        B = np.tril(rng.normal(size=(3, 3)), k=-1)
        Gamma = rng.normal(size=(3, 2))
        eff = lp.decompose(np.block([[B, Gamma], [np.zeros((2, 5))]]))
        indirect = np.array([[eff.effect(s, t)[2] for s in eff.names] for t in eff.names])
        gap_own = np.max(np.abs(eff.total - eff.direct - indirect))
        assert gap_own <= 1e-10
    note("04", f"published effect triples additive within 0.002 "
               f"(worst gap = {worst:.3f}); own decompositions within 1e-10")


def test_05_saturated_identity():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((150, 3)) @ np.array(
        [[1.0, 0.4, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    names = ["u", "v", "w"]
    S = lp.covariance(lp.Dataset(names, X)).S
    assert abs(lp.f_ml(S, S)) <= 1e-10

    lines = [f"L{c} =~ 1*{c}" for c in names]
    lines += [f"{c} ~~ 0*{c}" for c in names]
    lines += [f"L{a} ~~ L{b}" for a, b in itertools.combinations(names, 2)]
    spec = lp.parse_model("\n".join(lines))
    res = lp.fit(spec, lp.covariance(lp.Dataset(names, X)))
    assert res.df == 0
    assert abs(res.f_min) <= 1e-10
    assert abs(res.chisq) <= 1e-10
    note("05", f"saturated fit: F_ML = {res.f_min:.2e}, chisq = {res.chisq:.2e} "
               "(tolerance 1e-10); F_ML(S, S) = 0 exactly")


def test_06_likelihood_equivalence():
    spec = lp.parse_model("F =~ 1*a + b\na ~~ 0.5*a\nb ~~ 0.5*b")
    m = lp.build_matrices(spec, ["a", "b"])
    S = np.array([[1.3, 0.6], [0.6, 1.1]])
    n = 73
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(100):
        t1 = np.array([rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.0)])
        t2 = np.array([rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.0)])
        s1, s2 = lp.implied_covariance(m, t1), lp.implied_covariance(m, t2)
        lhs = lp.f_ml(s1, S) - lp.f_ml(s2, S)
        rhs = -(2.0 / n) * (log_likelihood(s1, S, n) - log_likelihood(s2, S, n))
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-8
    note("06", f"F_ML difference equals -(2/n) log-likelihood difference over "
               f"100 random pairs (worst |gap| = {worst:.2e}, tolerance 1e-8)")


def test_07_gradient_check(survey_spec, survey_sim_moments):
    m = lp.build_matrices(survey_spec, survey_sim_moments.names)
    obj = _Objective(m, survey_sim_moments.S)
    theta0 = lp.start_values(m, survey_sim_moments.S)
    rng = np.random.default_rng(70)
    step = 1e-5
    worst = 0.0
    checked = 0
    while checked < 20:
        theta = theta0 + 0.08 * rng.standard_normal(theta0.size)
        f, g, _ = evaluate(obj, theta)
        if not np.isfinite(f):
            continue  # not a feasible point; draw again
        fd = np.empty_like(g)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += step
            down[j] -= step
            fd[j] = (evaluate(obj, up)[0] - evaluate(obj, down)[0]) / (2 * step)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
        assert rel <= 1e-4
        worst = max(worst, rel)
        checked += 1
    note("07", f"gradient matches central differences at 20 feasible points "
               f"(worst relative error = {worst:.2e}, tolerance 1e-4)")


def test_08_parameter_recovery(survey_spec, sim_config, planted):
    t0 = time.time()
    m, theta_true = planted
    data = lp.simulate(m, theta_true, 5000, seed=20240601)
    res = lp.fit(spec=survey_spec, moments=lp.covariance(data),
                 standardize_latents=True)
    elapsed = time.time() - t0
    assert res.converged

    labels = m.labels
    worst = 0.0
    n_loadings = n_paths = 0
    for label, truth in zip(labels, theta_true):
        est = res.estimates[label]
        if "=~" in label:
            n_loadings += 1
        elif "~~" not in label:
            n_paths += 1
        else:
            continue
        assert est == pytest.approx(truth, abs=0.05), label
        worst = max(worst, abs(est - truth))
    assert n_loadings == 21 and n_paths == 7

    planted_paths = sim_config["values"]
    for label, truth in planted_paths.items():
        assert np.sign(res.estimates[label]) == np.sign(truth), label
    assert elapsed < 60
    note("08", f"all 21 loadings and 7 paths within +/-0.05 of planted values "
               f"(worst |err| = {worst:.3f}); sign pattern recovered; "
               f"runtime {elapsed:.1f}s < 60s")


def test_09_delta_method_exactness():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(5):
        g = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.2, 1.5)
        sg = rng.uniform(0.1, 0.8)
        sb = rng.uniform(0.1, 0.8)
        x = rng.normal(g, sg, size=1_000_000)
        y = rng.normal(b, sb, size=1_000_000)
        mc = float(np.var(x * y))
        formula = sobel_variance(g, b, sg**2, sb**2)
        rel = abs(formula - mc) / mc
        assert rel <= 0.02
        worst = max(worst, rel)
    note("09", f"product-variance formula within 2% of Monte Carlo over 5 "
               f"settings x 1e6 draws (worst relative gap = {worst:.3f})")


MEDIATION_MODEL = """
X =~ x1 + x2 + x3
M =~ m1 + m2 + m3
Y =~ y1 + y2 + y3
M ~ X
Y ~ M + X
"""


def test_10_bootstrap_determinism_and_coverage(monkeypatch):
    t0 = time.time()
    spec = lp.parse_model(MEDIATION_MODEL)
    m = lp.build_matrices(spec, spec.indicator_names, standardize_latents=True)
    theta = lp.theta_from_config(
        m, {"M~X": 0.5, "Y~M": 0.0, "Y~X": 0.4},
        dict(loading=0.75, latent_variance=1.0, disturbance_variance=0.6,
             error_variance=0.4375),
    )

    # determinism: identical seeds, the replicates refitted one per block
    # and all in one block
    data = lp.simulate(m, theta, 500, seed=1001)
    kwargs = dict(replicates=500, level=0.95, seed=17, standardize_latents=True)
    monkeypatch.setattr(effects, "_BLOCK_BYTES", 1)
    alone = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], **kwargs)
    monkeypatch.setattr(effects, "_BLOCK_BYTES", 1 << 40)
    stacked = lp.bootstrap_ci(data, spec, [("X", "M", "Y")], **kwargs)
    monkeypatch.undo()
    assert alone[0].indirect_bounds == stacked[0].indirect_bounds
    assert alone[0].total_bounds == stacked[0].total_bounds
    assert alone[0].direct_bounds == stacked[0].direct_bounds

    # coverage of the planted zero indirect effect
    hits = 0
    meta = 50
    for rep in range(meta):
        data_r = lp.simulate(m, theta, 500, seed=3000 + rep)
        dec = lp.bootstrap_ci(data_r, spec, [("X", "M", "Y")],
                              replicates=500, level=0.95,
                              seed=5000 + 101 * rep,
                              standardize_latents=True)[0]
        lo, hi = dec.indirect_bounds
        hits += int(lo <= 0.0 <= hi)
    elapsed = time.time() - t0
    assert hits >= 0.90 * meta
    assert elapsed < 600
    note("10", f"identical CIs refitted one replicate per block and all in one; "
               f"planted-zero indirect covered in {hits}/{meta} meta-repetitions (needs >= 45); "
               f"runtime {elapsed:.0f}s < 600s")


def test_11_varimax_properties():
    p1, p2, within, between = 4, 4, 0.6, 0.1
    R = np.full((p1 + p2, p1 + p2), between)
    R[:p1, :p1] = within
    R[p1:, p1:] = within
    np.fill_diagonal(R, 1.0)
    lm = lp.extract(R, retention="kaiser")
    rotated = lp.varimax(lm)
    comm_gap = np.max(np.abs(rotated.communalities - lm.communalities))
    assert comm_gap <= 1e-10
    for i in range(p1 + p2):
        row = np.abs(rotated.loadings[i])
        assert row.max() > 0.5
        assert row.min() < 0.4
    note("11", f"varimax preserves communalities (max drift {comm_gap:.2e} <= "
               "1e-10); dominant loadings > 0.5 and cross-loadings < 0.4 on "
               "the two-cluster synthetic")


def test_12_bartlett_kmo():
    chi2_id, _, p_id = lp.bartlett(np.eye(6), n=200)
    assert chi2_id == pytest.approx(0.0, abs=1e-12)

    # stated scalar oracle: -(99 - (2*2+5)/6) * ln(0.75); evaluates to 28.0490
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    chi2, df, _ = lp.bartlett(R, n=100)
    oracle = -(100 - 1 - (2 * 2 + 5) / 6) * math.log(0.75)
    assert chi2 == pytest.approx(oracle, abs=1e-3)
    assert df == 1
    assert oracle == pytest.approx(28.049, abs=1e-3)

    with pytest.raises(lp.DataError):
        lp.kmo(np.eye(4))
    note("12", f"identity Bartlett chi2 = 0; two-variable case = {chi2:.4f} "
               "matching the closed form within 0.001; identity KMO undefined")
