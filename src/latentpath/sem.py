"""Covariance-structure estimation by maximum likelihood.

A model compiled to RAM form has a directed-effect matrix A and a
symmetric (co)variance matrix S over the observed variables followed by
the latents. With E = (I - A)^-1 and E_p its first p rows, the implied
covariance of the observed vector is::

    Sigma = E_p S E_p'

The discrepancy minimized is F = log|Sigma| + tr(S_obs Sigma^-1) -
log|S_obs| - p, driven by Fisher scoring with an Armijo backtracking
line search; a proposal that leaves Sigma non-positive-definite is
rejected by step halving. The expected information I steers each step;
the inverse of (n-1)/2 * I at the optimum gives the SEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SampleMoments
from .errors import (
    EstimationError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .fit_indices import chisq_tail
from .model import VARIANCE_KINDS, ModelSpec, ParamMatrices, build_matrices, count_df

_LN_2PI = math.log(2.0 * math.pi)


@dataclass
class EstimationOptions:
    """Optimizer and reporting knobs for :func:`fit`."""

    max_iter: int = 500
    gtol: float = 1e-6
    ftol: float = 1e-14
    chisq_multiplier: str = "n-1"  # or "n"

    def __post_init__(self):
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.gtol <= 0 or self.ftol <= 0:
            raise ValueError("tolerances must be positive")
        if self.chisq_multiplier not in ("n-1", "n"):
            raise ValueError("chisq_multiplier must be 'n-1' or 'n'")


def _chol_logdet(M: np.ndarray):
    """Cholesky factor and log-determinant, or (None, None) when not PD."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None, None
    diag = np.diag(L)
    if not np.all(diag > 0):
        return None, None
    return L, 2.0 * float(np.log(diag).sum())


def _ram(m: ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, S and E = (I - A)^-1 at theta.

    No arrow leaves an observed variable, so A's first p columns are zero
    and E = [[I, A_ol T], [0, T]] with T = (I - A_ll)^-1 over the latents
    alone, a much smaller inverse.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (m.n_free,):
        raise ValueError(f"theta must have length {m.n_free}, got {theta.shape}")
    A = m.A.materialize(theta)
    p = m.n_observed
    E = np.eye(A.shape[0])
    E[p:, p:] = np.linalg.inv(E[p:, p:] - A[p:, p:])
    E[:p, p:] = A[:p, p:] @ E[p:, p:]
    return A, m.S.materialize(theta), E


def implied_covariance(m: ParamMatrices, theta: np.ndarray) -> np.ndarray:
    """Model-implied covariance of the observed variables, in their order."""
    _, S, E = _ram(m, theta)
    Ep = E[:m.n_observed]
    sigma = Ep @ S @ Ep.T
    return (sigma + sigma.T) / 2.0


def latent_covariance(m: ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Implied covariance of the latent vector, ordered endogenous then exogenous."""
    _, S, E = _ram(m, theta)
    El = E[m.n_observed:]
    return El @ S @ El.T, m.latent_names


def _ml_terms(sigma: np.ndarray, S: np.ndarray) -> tuple[float, float, float]:
    """log|Sigma|, tr(S Sigma^-1) and log|S|, after checking both are PD."""
    sigma = np.asarray(sigma, dtype=float)
    S = np.asarray(S, dtype=float)
    _, logdet_S = _chol_logdet(S)
    if logdet_S is None:
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    L, logdet = _chol_logdet(sigma)
    if L is None:
        raise NotPositiveDefiniteError("implied covariance is not positive definite")
    Z = np.linalg.solve(L, S)
    return logdet, float(np.trace(np.linalg.solve(L.T, Z))), logdet_S


def f_ml(sigma: np.ndarray, S: np.ndarray, p: int | None = None) -> float:
    """ML discrepancy log|Sigma| + tr(S Sigma^-1) - log|S| - p.

    Zero iff Sigma equals S. Raises NotPositiveDefiniteError when either
    matrix is not positive definite (for Sigma this is the signal an
    optimizer uses to backtrack; for S it is a hard error).
    """
    logdet, tr, logdet_S = _ml_terms(sigma, S)
    if p is None:
        p = np.shape(S)[0]
    return logdet + tr - logdet_S - p


def log_likelihood(sigma: np.ndarray, S: np.ndarray, n: int, p: int | None = None) -> float:
    """Normal-theory log-likelihood -(n/2)[log|Sigma| + tr(S Sigma^-1) + p log 2pi]."""
    logdet, tr, _ = _ml_terms(sigma, S)
    if p is None:
        p = np.shape(S)[0]
    return -(n / 2.0) * (logdet + tr + p * _LN_2PI)


class _Objective:
    """F_ML, its analytic gradient and expected information over theta."""

    def __init__(self, m: ParamMatrices, S: np.ndarray):
        self.m = m
        self.S_obs = S
        _, logdet_S = _chol_logdet(S)
        if logdet_S is None:
            raise NotPositiveDefiniteError("sample covariance is not positive definite")
        self.logdet_S = logdet_S
        self.p = S.shape[0]
        # every free cell of A, then of S: its parameter (incidence K) and
        # its weight, 1/2 in S, where a covariance fills (i,j) and (j,i)
        slots = np.concatenate([m.A.slots, m.S.slots])
        self.K = np.zeros((m.n_free, slots.size))
        self.K[slots, np.arange(slots.size)] = 1.0
        w = np.repeat([1.0, 0.5], [m.A.slots.size, m.S.slots.size])
        self.ww = 2.0 * w[:, None] * w[None, :]

    def _implied(self, theta: np.ndarray):
        """S, E and the Cholesky factor and log-determinant of Sigma."""
        _, S, E = _ram(self.m, theta)
        Ep = E[:self.p]
        sigma = Ep @ S @ Ep.T
        return (S, E) + _chol_logdet((sigma + sigma.T) / 2.0)

    def value(self, theta: np.ndarray) -> float:
        f, _ = self.value_and_grad(theta, need_grad=False)
        return f

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        f, g = self.value_and_grad(theta)
        if not np.isfinite(f):
            raise NotPositiveDefiniteError("implied covariance is not positive definite")
        return g

    def value_and_grad(self, theta: np.ndarray, need_grad: bool = True):
        m = self.m
        S, E, L, logdet = self._implied(theta)
        if L is None:
            return np.inf, None
        Ep = E[:self.p]
        Linv = np.linalg.inv(L)
        sigma_inv = Linv.T @ Linv
        SiS = sigma_inv @ self.S_obs
        f = logdet + float(np.trace(SiS)) - self.logdet_S - self.p
        if not need_grad:
            return f, None

        # dF/dSigma = G; dF/dS = M = E_p' G E_p; dF/dA = 2 M S E', of
        # which only the latent columns can hold free cells
        G = sigma_inv - SiS @ sigma_inv
        G = (G + G.T) / 2.0
        M = Ep.T @ G @ Ep
        p = self.p
        dA = 2.0 * (M @ S[:, p:]) @ E[p:, p:].T
        g = np.zeros(m.n_free)
        # S lists each off-diagonal parameter at (i,j) and (j,i);
        # accumulating both cells yields the correct chain-rule sum
        np.add.at(g, m.A.slots, dA[m.A.rows, m.A.cols - p])
        np.add.at(g, m.S.slots, M[m.S.rows, m.S.cols])
        return f, g

    def information(self, theta: np.ndarray) -> np.ndarray:
        """Expected information tr(Sigma^-1 dSigma_k Sigma^-1 dSigma_l),
        the expected Hessian of F (Bollen 1989, ch. 4).

        Free cell c adds w_c (u_c v_c' + v_c u_c') to its parameter's
        dSigma, with u_c = E_p[:, row] and v_c = (E S E_p')[col] in A,
        E_p[:, col] in S. Whitened by Sigma = L L', two such terms have
        trace 2 w_c w_d [(u_c.u_d)(v_c.v_d) + (u_c.v_d)(v_c.u_d)].
        """
        m = self.m
        S, E, L, _ = self._implied(theta)
        if L is None:
            raise NotPositiveDefiniteError("implied covariance is not positive definite")
        W = np.linalg.solve(L, E[:self.p])
        U = W[:, np.concatenate([m.A.rows, m.S.rows])]
        V = np.hstack([(W @ S) @ E[m.A.cols].T, W[:, m.S.cols]])
        UV = U.T @ V
        info = self.K @ (self.ww * ((U.T @ U) * (V.T @ V) + UV * UV.T)) @ self.K.T
        return (info + info.T) / 2.0


def start_values(m: ParamMatrices, S: np.ndarray) -> np.ndarray:
    """Conventional starting vector.

    Free loadings 0.7, paths 0, latent and error variances at half the
    relevant sample variance (the marker's for latents, the indicator's
    own for errors), covariances 0.
    """
    markers = {lat.name: lat.indicators[0] for lat in m.spec.latents}
    var_pos = {name: i for i, name in enumerate(m.variable_order)}
    diag = np.diag(S)
    theta0 = np.zeros(m.n_free)
    for k, par in enumerate(m.parameters):
        if par.kind == "loading":
            theta0[k] = 0.7
        elif par.kind == "error_variance":
            theta0[k] = 0.5 * diag[var_pos[par.lhs]]
        elif par.kind in VARIANCE_KINDS:
            theta0[k] = 0.5 * diag[var_pos[markers[par.lhs]]]
        # paths and covariances stay 0
    return theta0


@dataclass
class _OptimResult:
    theta: np.ndarray
    f: float
    grad: np.ndarray
    history: list[float]
    iterations: int
    converged: bool


def _minimize(objective: _Objective, theta0: np.ndarray, opts: EstimationOptions) -> _OptimResult:
    """Fisher scoring with Armijo backtracking: d solves (I + 1e-10 diag I) d
    = -g, I the expected information. The unit-free floor keeps the system
    regular where I is singular (a non-identified ridge, whose null space g
    has no part in) and barely moves any other step; a pseudo-inverse would
    need an eigendecomposition, several times the cost of the solve. Steps
    that break positive definiteness are halved away."""
    theta = np.asarray(theta0, dtype=float).copy()
    f, g = objective.value_and_grad(theta)
    if not np.isfinite(f):
        raise EstimationError("starting values give a non-positive-definite implied covariance")
    history = [f]
    iterations = 0
    converged = bool(np.max(np.abs(g), initial=0.0) < opts.gtol)
    stalls = 0
    for it in range(1, opts.max_iter + 1):
        if converged:
            break
        info = objective.information(theta)
        floor = 1e-10 * np.where(np.diag(info) > 0, np.diag(info), 1.0)
        d = -np.linalg.solve(info + np.diag(floor), g)
        gd = float(g @ d)
        step = 1.0
        f_new = None
        for _ in range(60):
            trial = theta + step * d
            f_try, _ = objective.value_and_grad(trial, need_grad=False)
            if np.isfinite(f_try) and f_try <= f + 1e-4 * step * gd:
                f_new = f_try
                break
            step *= 0.5
        if f_new is None:
            break  # no acceptable step; report whatever we have
        theta = trial
        _, g = objective.value_and_grad(theta)
        f_prev, f = f, f_new
        history.append(f)
        iterations = it
        converged = bool(np.max(np.abs(g)) < opts.gtol)
        # give up only after the objective stalls repeatedly; near an
        # optimum the steps keep shrinking the gradient after F stops moving
        stalls = stalls + 1 if abs(f_prev - f) < opts.ftol * max(1.0, abs(f_prev)) else 0
        if stalls >= 3:
            break
    return _OptimResult(theta, f, g, history, iterations, converged)


@dataclass
class FitResult:
    """Estimates, inference, and diagnostics from one ML fit."""

    theta: np.ndarray
    labels: list[str]
    se: np.ndarray
    f_min: float
    chisq: float
    df: int
    n: int
    p: int
    iterations: int
    gradient_norm: float
    converged: bool
    standardized: dict[str, float]
    implied: np.ndarray
    crit_ratio: np.ndarray
    p_values: np.ndarray
    heywood: list[str]
    f_history: list[float] = field(repr=False, default_factory=list)
    # asymptotic covariance of theta (inverse information); NaN without SEs
    acov: np.ndarray | None = field(repr=False, default=None)
    matrices: ParamMatrices | None = field(repr=False, default=None)
    options: EstimationOptions | None = field(repr=False, default=None)
    S: np.ndarray | None = field(repr=False, default=None)

    @property
    def chisq_p(self) -> float:
        # computed on read, so a bootstrap replicate never pays for a tail it ignores
        return chisq_tail(self.chisq, self.df)

    @property
    def estimates(self) -> dict[str, float]:
        return dict(zip(self.labels, self.theta))

    def parameter_table(self, kind: str | None = None) -> list[dict]:
        """Per-parameter records; kind filters to 'loading', 'path' or 'covariance'."""
        m = self.matrices
        hypotheses = {pair: lab for lab, pair in m.spec.labels.items()}
        rows = []
        for i, par in enumerate(m.parameters):
            k = par.kind if par.kind in ("loading", "path") else "covariance"
            if kind is not None and k != kind:
                continue
            rows.append({
                "label": par.label,
                "kind": k,
                "estimate": float(self.theta[i]),
                "se": float(self.se[i]),
                "crit_ratio": float(self.crit_ratio[i]),
                "p": float(self.p_values[i]),
                "standardized": self.standardized.get(par.label),
                "hypothesis": hypotheses.get((par.lhs, par.rhs)) if k == "path" else None,
            })
        return rows


def standardize(result_or_matrices, theta=None) -> dict[str, float]:
    """Rescale estimates by model-implied latent and indicator SDs.

    Accepts either a FitResult or a (ParamMatrices, theta) pair. Loadings
    become ``lambda * sd(latent) / sd(indicator)``, paths
    ``b * sd(predictor) / sd(dependent)``, covariances correlations, and
    variance entries proportions of their variable's implied variance.
    """
    if isinstance(result_or_matrices, FitResult):
        m = result_or_matrices.matrices
        theta = result_or_matrices.theta
    else:
        m = result_or_matrices
    if m is None:
        raise EstimationError("no parameter matrices attached to the result")
    theta = np.asarray(theta, dtype=float)
    A, S, E = _ram(m, theta)
    var = np.diag(E @ S @ E.T)  # implied variances of all variables
    if np.any(var <= 0):
        raise EstimationError("nonpositive implied variance; cannot standardize")
    sd = np.sqrt(var)
    names = m.variables
    p = m.n_observed

    out: dict[str, float] = {}
    # an arrow scales by sd(tail) / sd(head), whether loading or path
    for i, j in zip(*np.nonzero((m.A.index >= 0) | (A != 0.0))):
        label = f"{names[j]}=~{names[i]}" if i < p else f"{names[i]}~{names[j]}"
        out[label] = A[i, j] * sd[j] / sd[i]
    # every variance, and each free or nonzero covariance, as a correlation
    keep = (m.S.index >= 0) | (S != 0.0) | np.eye(len(names), dtype=bool)
    for i, j in zip(*np.nonzero(np.tril(keep))):
        a, b = sorted((names[i], names[j]))
        out[f"{a}~~{b}"] = S[i, j] / (sd[i] * sd[j])
    return out


def _check_identified(H: np.ndarray, labels: list[str]) -> None:
    """Reject information with a (near) null direction: the model is not identified.

    Tests d·H·d, d = |diag(H)|^-1/2, whose eigenvalues do not change when a
    parameter is rescaled (an indicator in other units); a diagonal entry
    that is not positive makes one non-positive. Names the parameters that
    weigh most in the eigenvector of the smallest, the flat direction.
    """
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


def align_moments(spec: ModelSpec, moments: SampleMoments) -> tuple[np.ndarray, list[str]]:
    """Restrict S to the model's indicators, keeping the moments' order."""
    wanted = set(spec.indicator_names)
    names = [v for v in moments.names if v in wanted]
    missing = wanted - set(names)
    if missing:
        raise EstimationError(f"data lacks model indicators: {sorted(missing)}")
    idx = [moments.names.index(v) for v in names]
    return moments.S[np.ix_(idx, idx)], names


def fit(
    spec: ModelSpec,
    moments: SampleMoments,
    opts: EstimationOptions | None = None,
    *,
    standardize_latents: bool = False,
    compute_se: bool = True,
) -> FitResult:
    """Estimate a model against sample moments by maximum likelihood.

    Returns a FitResult even when the iteration limit is hit (flagged via
    ``converged``); raises UnderIdentifiedError when the model has more
    free parameters than sample moments or, with SEs, a converged fit has a
    singular information; NotPositiveDefiniteError for a non-PD sample covariance.
    """
    opts = opts or EstimationOptions()
    S, names = align_moments(spec, moments)
    m = build_matrices(spec, names, standardize_latents=standardize_latents)
    dfres = count_df(m)
    if dfres.under_identified:
        raise UnderIdentifiedError(
            f"{dfres.n_free} free parameters exceed {dfres.n_moments} sample moments"
        )
    objective = _Objective(m, S)
    theta0 = start_values(m, S)
    opt = _minimize(objective, theta0, opts)

    n = moments.n
    mult = (n - 1) if opts.chisq_multiplier == "n-1" else n
    chisq = mult * opt.f

    t = m.n_free
    acov = np.full((t, t), np.nan)
    if compute_se and t:
        H = ((n - 1) / 2.0) * objective.information(opt.theta)
        if opt.converged:
            _check_identified(H, m.labels)
        try:
            acov = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            pass
    diag = np.diag(acov)
    se = np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = opt.theta / se
    # two-sided Wald p-values; without SEs every ratio is NaN, and so is its p
    if compute_se and t:
        from scipy.special import ndtr

        p_values = 2.0 * ndtr(-np.abs(crit))
    else:
        p_values = np.full(t, np.nan)

    labels = m.labels
    heywood = [
        par.label for par, value in zip(m.parameters, opt.theta)
        if par.kind in VARIANCE_KINDS and value < 0
    ]
    try:
        standardized = standardize(m, opt.theta)
    except EstimationError:
        standardized = {}

    return FitResult(
        theta=opt.theta,
        labels=labels,
        se=se,
        f_min=opt.f,
        chisq=chisq,
        df=dfres.value,
        n=n,
        p=len(names),
        iterations=opt.iterations,
        gradient_norm=float(np.max(np.abs(opt.grad), initial=0.0)),
        converged=opt.converged,
        standardized=standardized,
        implied=implied_covariance(m, opt.theta),
        crit_ratio=crit,
        p_values=p_values,
        heywood=heywood,
        f_history=opt.history,
        acov=acov,
        matrices=m,
        options=opts,
        S=S,
    )


def simulate(m: ParamMatrices, theta: np.ndarray, n: int, seed: int) -> Dataset:
    """Draw n rows from a zero-mean normal with covariance Sigma(theta)."""
    sigma = implied_covariance(m, theta)
    L, _ = _chol_logdet(sigma)
    if L is None:
        raise NotPositiveDefiniteError(
            "Sigma(theta) is not positive definite; check the parameter values"
        )
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, sigma.shape[0])) @ L.T
    return Dataset(list(m.variable_order), X, np.zeros_like(X, dtype=bool))


def theta_from_config(
    m: ParamMatrices,
    values: dict[str, float] | None = None,
    defaults: dict[str, float] | None = None,
) -> np.ndarray:
    """Build a full parameter vector from per-label values plus per-kind defaults."""
    values = values or {}
    defaults = defaults or {}
    unknown = set(values) - set(m.labels)
    if unknown:
        raise EstimationError(f"config names unknown parameters: {sorted(unknown)}")
    theta = np.zeros(m.n_free)
    missing = []
    for k, par in enumerate(m.parameters):
        if par.label in values:
            theta[k] = float(values[par.label])
        elif par.kind in defaults:
            theta[k] = float(defaults[par.kind])
        else:
            missing.append(par.label)
    if missing:
        raise EstimationError(
            f"no value or default for parameters: {sorted(missing)[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    return theta
