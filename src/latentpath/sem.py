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

The optimizer works on a stack of sample covariances of one model: a fit
is a stack of one, and the bootstrap refits all its replicates as one
stack. Every member keeps its own step size, stop and result, which are
bit for bit those of its fit alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, SampleMoments
from .errors import (
    EstimationError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .fit_indices import chisq_tail
from .model import VARIANCE_KINDS, ModelSpec, ParamMatrices, build_matrices, count_df


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


def _chol_logdet(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors and log-determinants of a stack of matrices (B, k, k).

    The log-determinant is NaN where a matrix is not positive definite. A
    stacked factorization fails as a whole when one matrix is not PD, so
    only then are the matrices factored one at a time.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = np.full_like(M, np.nan)
        for b, one in enumerate(M):
            try:
                L[b] = np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                pass
    # the factorization rejects a pivot that is not positive, and passes
    # NaN through, so a diagonal entry is either positive or NaN
    return L, 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)


def _ram(m: ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, S and E = (I - A)^-1 at theta (t,), or at each row of theta (B, t).

    No arrow leaves an observed variable, so A's first p columns are zero
    and E = [[I, A_ol T], [0, T]] with T = (I - A_ll)^-1 over the latents
    alone, a much smaller inverse.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (m.n_free,):
        raise ValueError(f"theta must have length {m.n_free}, got {theta.shape}")
    A = m.A.materialize(theta)
    p = m.n_observed
    E = np.empty_like(A)
    E[...] = np.eye(A.shape[-1])
    E[..., p:, p:] = np.linalg.inv(E[..., p:, p:] - A[..., p:, p:])
    E[..., :p, p:] = A[..., :p, p:] @ E[..., p:, p:]
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


def f_ml(sigma: np.ndarray, S: np.ndarray) -> float:
    """ML discrepancy log|Sigma| + tr(S Sigma^-1) - log|S| - p, p the size of S.

    Zero iff Sigma equals S. Raises NotPositiveDefiniteError when either
    matrix is not positive definite (for Sigma this is the signal an
    optimizer uses to backtrack; for S it is a hard error).
    """
    sigma = np.asarray(sigma, dtype=float)
    S = np.asarray(S, dtype=float)
    _, (logdet_S,) = _chol_logdet(S[None])
    if np.isnan(logdet_S):
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    (L,), (logdet,) = _chol_logdet(sigma[None])
    if np.isnan(logdet):
        raise NotPositiveDefiniteError("implied covariance is not positive definite")
    tr = np.trace(np.linalg.solve(L.T, np.linalg.solve(L, S)))
    return float(logdet) + float(tr) - float(logdet_S) - S.shape[0]


def _t(X: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (a view)."""
    return X.transpose(0, 2, 1)


class _Point(NamedTuple):
    """F at k thetas, with the pieces of Sigma its gradient and information
    reuse. Where Sigma is not PD, f is inf and the pieces are NaN."""

    f: np.ndarray  # (k,)
    S: np.ndarray  # RAM S, (k, v, v) over all v variables
    E: np.ndarray  # (I - A)^-1, (k, v, v)
    L: np.ndarray  # Sigma = L L', (k, p, p)
    sigma_inv: np.ndarray
    SiS: np.ndarray  # Sigma^-1 S_obs

    @staticmethod
    def empty(k: int, v: int, p: int) -> "_Point":
        return _Point(np.full(k, np.inf), *(np.full((k, n, n), np.nan) for n in (v, v, p, p, p)))

    def take(self, idx) -> "_Point":
        return _Point(*(piece[idx] for piece in self))

    def put(self, idx, other: "_Point") -> None:
        for mine, theirs in zip(self, other):
            mine[idx] = theirs


class _Objective:
    """F_ML, its analytic gradient and expected information over theta, for
    a stack of sample covariances of one model (one matrix for a single fit).

    ``point`` evaluates F at thetas (k, t) of k members of the stack, named
    by ``rows``; ``gradients`` and ``informations`` continue from the
    point. A member whose sample covariance is not PD has a NaN
    ``logdet_S``; ``_minimize`` gives it up.
    """

    def __init__(self, m: ParamMatrices, S: np.ndarray):
        S = np.asarray(S, dtype=float)
        self.m = m
        self.S_obs = S.reshape((-1,) + S.shape[-2:])
        _, self.logdet_S = _chol_logdet(self.S_obs)  # NaN where S is not PD
        self.p = S.shape[-1]
        if not np.array_equal(np.concatenate([m.A.slots, m.S.slots]), np.arange(m.n_free)):
            raise ValueError("theta must list the parameters of A, then those of S")
        # the weight of each cell, as in ``informations``: 1/2 on S's diagonal
        self.w = np.ones(m.n_free)
        self.w[m.S.slots[m.S.rows == m.S.cols]] = 0.5
        self.u_cells = np.concatenate([m.A.rows, m.S.rows])

    def point(self, theta: np.ndarray, rows: np.ndarray) -> _Point:
        """F at thetas (k, t) of the members ``rows`` of the stack."""
        _, S, E = _ram(self.m, theta)
        Ep = E[:, :self.p]
        sigma = Ep @ S @ _t(Ep)
        L, logdet = _chol_logdet((sigma + _t(sigma)) / 2.0)
        pt = _Point(np.full(len(theta), np.inf), S, E, L,
                    np.full_like(L, np.nan), np.full_like(L, np.nan))
        pd = ~np.isnan(logdet)
        if pd.all():
            pd = slice(None)  # views, not copies
        Linv = np.linalg.inv(L[pd])
        sigma_inv = _t(Linv) @ Linv
        SiS = sigma_inv @ self.S_obs[rows[pd]]
        pt.sigma_inv[pd], pt.SiS[pd] = sigma_inv, SiS
        pt.f[pd] = (logdet[pd] + np.trace(SiS, axis1=1, axis2=2)
                    - self.logdet_S[rows[pd]] - self.p)
        return pt

    def gradients(self, pt: _Point) -> np.ndarray:
        """dF/dtheta (k, t) at a point: 2 w_c (M S E')_c at A's cells, 2 w_c M_c
        at S's, with M = dF/dS and the weights w of ``informations``."""
        m, p = self.m, self.p
        # G = dF/dSigma; only the latent columns of A can hold free cells
        G = pt.sigma_inv - pt.SiS @ pt.sigma_inv
        G = (G + _t(G)) / 2.0
        Ep = pt.E[:, :p]
        M = _t(Ep) @ G @ Ep
        MSE = (M @ pt.S[:, :, p:]) @ _t(pt.E[:, p:, p:])
        g = np.concatenate([MSE[:, m.A.rows, m.A.cols - p], M[:, m.S.rows, m.S.cols]], axis=1)
        g *= 2.0 * self.w
        return g

    def informations(self, pt: _Point) -> np.ndarray:
        """Expected information tr(Sigma^-1 dSigma_k Sigma^-1 dSigma_l),
        the expected Hessian of F (Bollen 1989, ch. 4), (k, t, t) at a point.

        The cell of parameter c makes dSigma_c = w_c (u_c v_c' + v_c u_c'),
        with u_c = E_p[:, row] and v_c = (E S E_p')[col] in A, E_p[:, col]
        in S; w_c is 1/2 on S's diagonal and 1 elsewhere. Whitened by
        Sigma = L L', two such terms have trace
        2 w_c w_d [(u_c.u_d)(v_c.v_d) + (u_c.v_d)(v_c.u_d)].
        """
        m = self.m
        W = np.linalg.solve(pt.L, pt.E[:, :self.p])
        U = W[:, :, self.u_cells]
        V = np.concatenate([(W @ pt.S) @ _t(pt.E[:, m.A.cols]), W[:, :, m.S.cols]], axis=2)
        V *= self.w
        UV = _t(U) @ V
        info = _t(U) @ U
        info *= _t(V) @ V
        info += UV * _t(UV)
        info *= 2.0
        return info


def start_values(m: ParamMatrices, S: np.ndarray) -> np.ndarray:
    """Conventional starting vector, or one per matrix of a stack S (B, p, p).

    Free loadings 0.7, paths 0, latent and error variances at half the
    relevant sample variance (the marker's for latents, the indicator's
    own for errors), covariances 0.
    """
    markers = {lat.name: lat.indicators[0] for lat in m.spec.latents}
    var_pos = {name: i for i, name in enumerate(m.variable_order)}
    diag = np.diagonal(S, axis1=-2, axis2=-1)
    theta0 = np.zeros(diag.shape[:-1] + (m.n_free,))
    for k, par in enumerate(m.parameters):
        if par.kind == "loading":
            theta0[..., k] = 0.7
        elif par.kind == "error_variance":
            theta0[..., k] = 0.5 * diag[..., var_pos[par.lhs]]
        elif par.kind in VARIANCE_KINDS:
            theta0[..., k] = 0.5 * diag[..., var_pos[markers[par.lhs]]]
        # paths and covariances stay 0
    return theta0


@dataclass
class _OptimResult:
    """One entry per member of the stack."""

    theta: np.ndarray  # (B, t)
    f: np.ndarray
    grad: np.ndarray  # (B, t)
    history: list[list[float]]
    iterations: np.ndarray
    converged: np.ndarray
    at: _Point  # each member's last accepted point, the one at its theta
    # why a member was given up: its sample covariance or start values are
    # not PD, or a LinAlgError; None for a member that ran its course
    errors: list[Exception | None]


def _minimize(objective: _Objective, theta0: np.ndarray, opts: EstimationOptions) -> _OptimResult:
    """Fisher scoring with Armijo backtracking, for every member of the
    objective's stack at once from the starts theta0 (B, t).

    d solves (I + 1e-10 diag I) d = -g, I the expected information. The
    unit-free floor keeps the system regular where I is singular (a
    non-identified ridge, whose null space g has no part in) and barely
    moves any other step; a pseudo-inverse would need an eigendecomposition,
    several times the cost of the solve. Steps that break positive
    definiteness are halved away. Each member keeps its own step size,
    acceptance, stall count and stop, and leaves the stack when it stops,
    so its path is the one it would take alone. Sigma is factored once per
    trial point; the accepted one serves the gradient and the next
    information. An iteration whose stacked call raises LinAlgError is
    redone one member at a time, and a member that raises alone is given
    up with the error recorded.
    """
    theta = np.array(theta0, dtype=float)
    B = len(theta)
    errors: list[Exception | None] = [None] * B
    for b in np.flatnonzero(np.isnan(objective.logdet_S)):
        errors[b] = NotPositiveDefiniteError("sample covariance is not positive definite")

    def alive():
        return np.array([err is None for err in errors], dtype=bool)

    v, p = len(objective.m.variables), objective.p
    at = _Point.empty(B, v, p)  # every member at its theta
    g = np.full(theta.shape, np.nan)

    def start(rows):
        pt = objective.point(theta[rows], rows)
        g[rows] = objective.gradients(pt)
        at.put(rows, pt)

    rows = np.flatnonzero(alive())
    _each_member(start, rows, errors)
    for b in rows[~np.isfinite(at.f[rows])]:
        if errors[b] is None:
            errors[b] = EstimationError(
                "starting values give a non-positive-definite implied covariance")
    history = [[f] for f in at.f.tolist()]
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    stalls = np.zeros(B, dtype=int)
    active = alive()
    converged[active] = np.max(np.abs(g[active]), axis=1, initial=0.0) < opts.gtol
    active &= ~converged

    def iterate(rows, it):
        # every linear-algebra call comes before the first write to the
        # state, so a member redone alone starts from where it was
        info = objective.informations(at if len(rows) == B else at.take(rows))
        cells = np.arange(info.shape[1])
        diag = info[:, cells, cells]
        floor = 1e-10 * np.where(diag > 0, diag, 1.0)
        info += 0.0  # what adding diag(floor)'s zeros does off the diagonal: -0.0 to 0.0
        info[:, cells, cells] += floor
        g_rows = g[rows]
        d = -np.linalg.solve(info, g_rows[:, :, None])[:, :, 0]
        gd = (g_rows[:, None, :] @ d[:, :, None])[:, 0, 0]
        f = at.f[rows]
        step = np.ones(len(rows))
        accepted = []  # (positions in rows, thetas, points) per halving
        pending = np.arange(len(rows))
        for _ in range(60):
            tried = theta[rows[pending]] + step[pending, None] * d[pending]
            pt = objective.point(tried, rows[pending])
            ok = np.isfinite(pt.f) & (pt.f <= f[pending] + 1e-4 * step[pending] * gd[pending])
            if ok.all():
                accepted.append((pending, tried, pt))
                pending = pending[:0]
                break
            if ok.any():
                accepted.append((pending[ok], tried[ok], pt.take(ok)))
            pending = pending[~ok]
            step[pending] *= 0.5
        if not accepted:
            active[rows] = False  # no acceptable step; report whatever we have
            return
        moved, trial, new = accepted[0]
        if len(accepted) > 1:
            moved, trial = (np.concatenate(part) for part in list(zip(*accepted))[:2])
            new = _Point(*map(np.concatenate, zip(*(part[2] for part in accepted))))
        g_moved = objective.gradients(new)

        active[rows[pending]] = False
        rows, f_prev = rows[moved], f[moved]
        theta[rows] = trial
        g[rows] = g_moved
        at.put(rows, new)
        for b, f_new in zip(rows, new.f.tolist()):
            history[b].append(f_new)
        iterations[rows] = it
        converged[rows] = np.max(np.abs(g_moved), axis=1, initial=0.0) < opts.gtol
        # give up only after the objective stalls repeatedly; near an
        # optimum the steps keep shrinking the gradient after F stops moving
        stalled = np.abs(f_prev - new.f) < opts.ftol * np.maximum(1.0, np.abs(f_prev))
        stalls[rows] = np.where(stalled, stalls[rows] + 1, 0)
        active[rows] = ~converged[rows] & (stalls[rows] < 3)

    for it in range(1, opts.max_iter + 1):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        _each_member(lambda r: iterate(r, it), rows, errors)
        active &= alive()
    return _OptimResult(theta, at.f, g, history, iterations, converged, at, errors)


def _each_member(step, rows: np.ndarray, errors: list) -> None:
    """step(rows) on the stack; if it raises LinAlgError, step on one member
    at a time, recording the error of each member that raises alone."""
    if not rows.size:
        return
    try:
        step(rows)
    except np.linalg.LinAlgError:
        for b in rows:
            try:
                step(np.array([b]))
            except np.linalg.LinAlgError as exc:
                errors[b] = exc


@dataclass
class FitResult:
    """Estimates, inference, and diagnostics from one ML fit; ``p_values``
    and ``chisq_p`` are properties computed on read, not fields."""

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
    heywood: list[str]
    f_history: list[float] = field(repr=False)
    # asymptotic covariance of theta (inverse information); NaN without SEs
    acov: np.ndarray = field(repr=False)
    matrices: ParamMatrices = field(repr=False)
    options: EstimationOptions = field(repr=False)
    S: np.ndarray = field(repr=False)

    @property
    def chisq_p(self) -> float:
        # computed on read, so a bootstrap replicate never pays for a tail it ignores
        return chisq_tail(self.chisq, self.df)

    @property
    def p_values(self) -> np.ndarray:
        # two-sided Wald p-values, computed on read so that a fit whose p-values
        # go unread never loads scipy.special; without SEs every ratio is NaN, and so is p
        if np.isnan(self.crit_ratio).all():
            return np.full(self.crit_ratio.shape, np.nan)
        from scipy.special import ndtr

        return 2.0 * ndtr(-np.abs(self.crit_ratio))

    @property
    def estimates(self) -> dict[str, float]:
        return dict(zip(self.labels, self.theta))

    def parameter_table(self, kind: str | None = None) -> list[dict]:
        """Per-parameter records; kind filters to 'loading', 'path' or 'covariance'."""
        m = self.matrices
        hypotheses = {pair: lab for lab, pair in m.spec.labels.items()}
        p_values = self.p_values
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
                "p": float(p_values[i]),
                "standardized": self.standardized.get(par.label),
                "hypothesis": hypotheses.get((par.lhs, par.rhs)) if k == "path" else None,
            })
        return rows


def standardize(m: ParamMatrices, theta: np.ndarray) -> dict[str, float]:
    """Rescale estimates by model-implied latent and indicator SDs.

    Loadings become ``lambda * sd(latent) / sd(indicator)``, paths
    ``b * sd(predictor) / sd(dependent)``, covariances correlations, and
    variance entries proportions of their variable's implied variance. A
    fit's are in ``FitResult.standardized``.
    """
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
    arrows = A != 0.0
    arrows[m.A.rows, m.A.cols] = True
    for i, j in zip(*np.nonzero(arrows)):
        label = f"{names[j]}=~{names[i]}" if i < p else f"{names[i]}~{names[j]}"
        out[label] = A[i, j] * sd[j] / sd[i]
    # every variance, and each free or nonzero covariance, as a correlation
    keep = (S != 0.0) | np.eye(len(names), dtype=bool)
    keep[m.S.rows, m.S.cols] = True  # S's free cells are at row >= col
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


def model_columns(spec: ModelSpec, names: list[str]) -> list[str]:
    """The model's indicators among ``names``, in the order of ``names``;
    raises EstimationError when one is not there."""
    wanted = set(spec.indicator_names)
    kept = [v for v in names if v in wanted]
    missing = wanted - set(kept)
    if missing:
        raise EstimationError(f"data lacks model indicators: {sorted(missing)}")
    return kept


def align_moments(spec: ModelSpec, moments: SampleMoments) -> tuple[np.ndarray, list[str]]:
    """Restrict S to the model's indicators, keeping the moments' order."""
    names = model_columns(spec, moments.names)
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
    ``converged``). With ``compute_se`` it carries SEs, critical ratios and
    the asymptotic covariance; its Wald p-values are computed from the
    ratios when ``p_values`` is read. Raises UnderIdentifiedError when the
    model has more free parameters than sample moments or, with SEs, a
    converged fit has a singular information; NotPositiveDefiniteError for
    a non-PD sample covariance.
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
    opt = _minimize(objective, start_values(m, S)[None], opts)
    if opt.errors[0] is not None:
        raise opt.errors[0]
    theta, f_min, converged = opt.theta[0], float(opt.f[0]), bool(opt.converged[0])

    n = moments.n
    mult = (n - 1) if opts.chisq_multiplier == "n-1" else n
    chisq = mult * f_min

    t = m.n_free
    acov = np.full((t, t), np.nan)
    if compute_se and t:
        H = ((n - 1) / 2.0) * objective.informations(opt.at)[0]
        if converged:
            _check_identified(H, m.labels)
        try:
            acov = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            pass
    diag = np.diag(acov)
    se = np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = theta / se

    labels = m.labels
    heywood = [
        par.label for par, value in zip(m.parameters, theta)
        if par.kind in VARIANCE_KINDS and value < 0
    ]
    try:
        standardized = standardize(m, theta)
    except EstimationError:
        standardized = {}

    return FitResult(
        theta=theta,
        labels=labels,
        se=se,
        f_min=f_min,
        chisq=chisq,
        df=dfres.value,
        n=n,
        p=len(names),
        iterations=int(opt.iterations[0]),
        gradient_norm=float(np.max(np.abs(opt.grad[0]), initial=0.0)),
        converged=converged,
        standardized=standardized,
        implied=implied_covariance(m, theta),
        crit_ratio=crit,
        heywood=heywood,
        f_history=opt.history[0],
        acov=acov,
        matrices=m,
        options=opts,
        S=S,
    )


def simulate(m: ParamMatrices, theta: np.ndarray, n: int, seed: int) -> Dataset:
    """Draw n rows from a zero-mean normal with covariance Sigma(theta)."""
    sigma = implied_covariance(m, theta)
    (L,), (logdet,) = _chol_logdet(sigma[None])
    if np.isnan(logdet):
        raise NotPositiveDefiniteError(
            "Sigma(theta) is not positive definite; check the parameter values"
        )
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, sigma.shape[0])) @ L.T
    return Dataset(list(m.variable_order), X)


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
