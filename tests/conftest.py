import json
from pathlib import Path

import numpy as np
import pytest

import latentpath as lp
from latentpath.errors import UnderIdentifiedError

ASSETS = Path(lp.__file__).parent / "assets"


@pytest.fixture(scope="session")
def survey_model_text() -> str:
    return (ASSETS / "wuliangye.model").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def survey_spec(survey_model_text) -> lp.ModelSpec:
    return lp.parse_model(survey_model_text)


@pytest.fixture(scope="session")
def sim_config() -> dict:
    return json.loads((ASSETS / "wuliangye_sim.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def planted(survey_spec, sim_config):
    """Matrices and parameter vector for the bundled generator config."""
    m = lp.build_matrices(
        survey_spec, survey_spec.indicator_names,
        standardize_latents=sim_config["standardize_latents"],
    )
    theta = lp.theta_from_config(m, sim_config["values"], sim_config["defaults"])
    return m, theta


@pytest.fixture(scope="session")
def survey_sim_moments(survey_spec, planted):
    """Moments of one large simulated draw from the bundled model."""
    m, theta = planted
    data = lp.simulate(m, theta, 5000, seed=20240601)
    return lp.covariance(data)


def evaluate(obj, theta):
    """F, its gradient and its expected information at one theta (t,) of an
    objective over one sample covariance, through the stacked calls."""
    pt = obj.point(np.asarray(theta, dtype=float)[None], np.zeros(1, dtype=int))
    return float(pt.f[0]), obj.gradients(pt)[0], obj.informations(pt)[0]


def one_factor_spec(n_items: int = 3, name: str = "F") -> lp.ModelSpec:
    items = " + ".join(f"{name.lower()}{i + 1}" for i in range(n_items))
    return lp.parse_model(f"{name} =~ {items}")


def v_names(p: int) -> list[str]:
    """Column names v1...vp, for a Dataset built from an array."""
    return [f"v{j + 1}" for j in range(p)]


# --- references the tests compare the package against ------------------------


def sobel_variance(gamma: float, b: float, var_gamma: float, var_b: float) -> float:
    """Variance of the product of two independent estimates.

    gamma^2 var_b + b^2 var_gamma + var_gamma var_b; exact for independent
    normal estimators, first-order otherwise.
    """
    if var_gamma < 0 or var_b < 0:
        raise ValueError("variances must be nonnegative")
    return gamma * gamma * var_b + b * b * var_gamma + var_gamma * var_b


def check_identified_by_eigh(H: np.ndarray, labels: list[str]) -> None:
    """The identification check by eigendecomposition alone: raise
    UnderIdentifiedError when d·H·d, d = |diag(H)|^-1/2, has a smallest
    eigenvalue of at most 1e-6 times its largest, naming the parameters that
    weigh most in the eigenvector of the smallest."""
    diag = np.abs(np.diag(H))
    d = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    lam, vec = np.linalg.eigh(d[:, None] * H * d[None, :])
    if lam[0] > 1e-6 * lam[-1]:
        return
    weight = np.abs(vec[:, 0])
    flat = [labels[k] for k in np.argsort(-weight, kind="stable")
            if weight[k] >= 0.5 * weight.max()]
    raise UnderIdentifiedError(
        f"model is not identified: the information matrix is singular "
        f"(smallest/largest scaled eigenvalue {lam[0] / lam[-1]:.1e}); "
        f"the fit is flat along {', '.join(flat)}"
    )


def derived_fit_values(res: lp.FitResult) -> dict:
    """The eight values a FitResult computes on read, computed here in one
    pass from its stored fields, with the operations of the fit itself:
    labels, p, df, chisq, se, crit_ratio, implied and heywood."""
    m = res.matrices
    p, t = res.S.shape[0], len(m.parameters)
    mult = (res.n - 1) if res.options.chisq_multiplier == "n-1" else res.n
    diag = np.diag(res.acov)
    se = np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = res.theta / se
    variances = {"latent_variance", "disturbance_variance", "error_variance"}
    return {
        "labels": [par.label for par in m.parameters],
        "p": p,
        "df": p * (p + 1) // 2 - t,
        "chisq": mult * res.f_min,
        "se": se,
        "crit_ratio": crit,
        "implied": lp.implied_covariance(m, res.theta),
        "heywood": [par.label for par, value in zip(m.parameters, res.theta)
                    if par.kind in variances and value < 0],
    }


def log_likelihood(sigma: np.ndarray, S: np.ndarray, n: int) -> float:
    """Normal-theory log-likelihood -(n/2)[log|Sigma| + tr(S Sigma^-1) + p log 2pi]."""
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0, "Sigma is not positive definite"
    tr = np.trace(np.linalg.solve(sigma, S))
    return -(n / 2.0) * (logdet + tr + S.shape[0] * np.log(2.0 * np.pi))


def latent_covariance(m: lp.ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Implied covariance of the latent vector and its names, endogenous then
    exogenous: the latent rows and columns of E S E', E = (I - A)^-1."""
    A, S = m.A.materialize(theta), m.S.materialize(theta)
    El = np.linalg.inv(np.eye(len(A)) - A)[m.n_observed:]
    return El @ S @ El.T, m.latent_names


def model_text(spec: lp.ModelSpec) -> str:
    """Model-language source for a ModelSpec; parsing it gives the spec back."""
    fixed = dict(spec.fixed_loadings)
    lines = []
    for lat in spec.latents:
        terms = [f"{fixed[ind]:g}*{ind}" if ind in fixed else ind for ind in lat.indicators]
        lines.append(f"{lat.name} =~ " + " + ".join(terms))
    by_dep: dict[str, list] = {}
    for reg in spec.regressions:
        by_dep.setdefault(reg.dependent, []).append(reg)
    for dep in sorted(by_dep):
        terms = []
        for reg in by_dep[dep]:
            prefix = ""
            if reg.fixed is not None:
                prefix = f"{reg.fixed:g}*"
            elif reg.label is not None:
                prefix = f"{reg.label}*"
            terms.append(prefix + reg.predictor)
        lines.append(f"{dep} ~ " + " + ".join(terms))
    for cov in spec.covariances:
        rhs = f"{cov.fixed:g}*{cov.b}" if cov.fixed is not None else cov.b
        lines.append(f"{cov.a} ~~ {rhs}")
    return "\n".join(lines) + "\n"
