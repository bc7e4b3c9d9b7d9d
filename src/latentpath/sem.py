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
bit for bit those of its fit alone. One stacked record, ``_Point``, holds
each member's theta with F and its gradient there, and the pieces of
Sigma that the next information reuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, SampleMoments
from .errors import (
    DataError,
    EstimationError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .fit_indices import chisq_tail
from .model import (PARAMETER_KINDS, VARIANCE_KINDS, ModelSpec, ParamMatrices, build_matrices,
                    count_df)


@dataclass
class EstimationOptions:
    """Optimizer and reporting knobs for :func:`fit`. A value out of range is
    an EstimationError; the CLI checks each flag first."""

    max_iter: int = 500
    gtol: float = 1e-6
    chisq_multiplier: str = "n-1"  # or "n"

    def __post_init__(self):
        if self.max_iter <= 0:
            raise EstimationError("max_iter must be positive")
        if not (np.isfinite(self.gtol) and self.gtol > 0):
            raise EstimationError("gtol must be finite and positive")
        if self.chisq_multiplier not in ("n-1", "n"):
            raise EstimationError("chisq_multiplier must be 'n-1' or 'n'")


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


_PIVOT_FLOOR = 1e-12


def _sample_logdet(S: np.ndarray) -> np.ndarray:
    """log|S| of each sample covariance of a stack (B, p, p), NaN where S is
    not PD or where some column keeps less than _PIVOT_FLOOR of its variance
    after regression on the columns before it (L_ii^2 / S_ii, S = L L'): an S
    that is singular but whose Cholesky factorization succeeds by roundoff."""
    L, logdet = _chol_logdet(S)
    left = np.diagonal(L, axis1=1, axis2=2) ** 2
    singular = (left < _PIVOT_FLOOR * np.diagonal(S, axis1=1, axis2=2)).any(axis=1)
    return np.where(singular, np.nan, logdet)


def _series(D: np.ndarray) -> np.ndarray:
    """(I - D)^-1 = I + D + D^2 + ... for a nilpotent D (k, k) or stack (B, k, k),
    summed up to the first power that is zero in every matrix, after at most
    k - 2 products. The caller makes sure that D is nilpotent."""
    k = D.shape[-1]
    E = np.eye(k) + D
    power = D
    for _ in range(k - 2):
        power = power @ D
        if not power.any():
            break
        E += power
    return E


def _ram(m: ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, S and E = (I - A)^-1 at theta (t,), or at each row of theta (B, t).

    No arrow leaves an observed variable, so A's first p columns are zero
    and E = [[I, A_ol T], [0, T]] with T = (I - A_ll)^-1, a finite series
    as ``parse_model`` admits no cycle. A theta of the wrong length is a
    DataError.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (m.n_free,):
        raise DataError(f"theta must have length {m.n_free}, got {theta.shape}")
    A = m.A.materialize(theta)
    p = m.n_observed
    E = np.empty_like(A)
    E[...] = np.eye(A.shape[-1])
    E[..., p:, p:] = _series(A[..., p:, p:])
    E[..., :p, p:] = A[..., :p, p:] @ E[..., p:, p:]
    return A, m.S.materialize(theta), E


def implied_covariance(m: ParamMatrices, theta: np.ndarray) -> np.ndarray:
    """Model-implied covariance of the observed variables, in their order."""
    _, S, E = _ram(m, theta)
    Ep = E[:m.n_observed]
    sigma = Ep @ S @ Ep.T
    return (sigma + sigma.T) / 2.0


def f_ml(sigma: np.ndarray, S: np.ndarray) -> float:
    """ML discrepancy log|Sigma| + tr(S Sigma^-1) - log|S| - p, p the size of S.

    Zero iff Sigma equals S. Raises NotPositiveDefiniteError when either
    matrix is not positive definite (for Sigma this is the signal an
    optimizer uses to backtrack; for S it is a hard error).
    """
    sigma = np.asarray(sigma, dtype=float)
    S = np.asarray(S, dtype=float)
    (logdet_S,) = _sample_logdet(S[None])
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
    """k members of a stack, each at its theta: F and its gradient there,
    with the pieces of Sigma the information reuses. Where Sigma is not PD,
    f is inf and the other pieces are NaN."""

    theta: np.ndarray  # (k, t)
    f: np.ndarray  # (k,)
    g: np.ndarray  # dF/dtheta, (k, t)
    S: np.ndarray  # RAM S, (k, v, v) over all v variables
    E: np.ndarray  # (I - A)^-1, (k, v, v)
    L: np.ndarray  # Sigma = L L', (k, p, p)

    @staticmethod
    def unevaluated(theta: np.ndarray, v: int, p: int) -> "_Point":
        """The members at thetas (k, t), with nothing evaluated there yet."""
        theta = np.array(theta, dtype=float)
        k = len(theta)
        return _Point(theta, np.full(k, np.inf), np.full(theta.shape, np.nan),
                      *(np.full((k, n, n), np.nan) for n in (v, v, p)))

    def take(self, idx) -> "_Point":
        return _Point(*(piece[idx] for piece in self))

    def put(self, idx, other: "_Point") -> None:
        for mine, theirs in zip(self, other):
            mine[idx] = theirs


class _Objective:
    """F_ML, its analytic gradient and expected information over theta, for
    a stack of sample covariances of one model (one matrix for a single fit).

    ``point`` evaluates F and its gradient at thetas (k, t) of k members of
    the stack, named by ``rows``; ``informations`` continues from the
    point. A member whose sample covariance is not PD has a NaN
    ``logdet_S``; ``_minimize`` gives it up.
    """

    def __init__(self, m: ParamMatrices, S: np.ndarray):
        S = np.asarray(S, dtype=float)
        self.m = m
        self.S_obs = S.reshape((-1,) + S.shape[-2:])
        self.logdet_S = _sample_logdet(self.S_obs)  # NaN where S is not PD
        self.p = S.shape[-1]
        # the weight of each cell, as in ``informations``: 1/2 on S's diagonal
        self.w = np.ones(m.n_free)
        self.w[m.S.first + np.flatnonzero(m.S.rows == m.S.cols)] = 0.5
        self.u_cells = np.concatenate([m.A.rows, m.S.rows])

    def point(self, theta: np.ndarray, rows: np.ndarray) -> _Point:
        """F and dF/dtheta at thetas (k, t) of the members ``rows`` of the
        stack. The gradient is 2 w_c (M S E')_c at A's cells and 2 w_c M_c at
        S's, with M = dF/dS and the weights w of ``informations``."""
        m, p = self.m, self.p
        # a Sigma that overflows (a huge fixed value) gets F = inf, the point's rejection
        with np.errstate(over="ignore", invalid="ignore"):
            _, S, E = _ram(m, theta)
            Ep = E[:, :p]
            sigma = Ep @ S @ _t(Ep)
            L, logdet = _chol_logdet((sigma + _t(sigma)) / 2.0)
        pt = _Point(theta, np.full(len(theta), np.inf), np.full(theta.shape, np.nan), S, E, L)
        pd = ~np.isnan(logdet)
        if pd.all():
            pd = slice(None)  # views, not copies
        Linv = np.linalg.inv(L[pd])
        sigma_inv = _t(Linv) @ Linv
        SiS = sigma_inv @ self.S_obs[rows[pd]]
        pt.f[pd] = (logdet[pd] + np.trace(SiS, axis1=1, axis2=2)
                    - self.logdet_S[rows[pd]] - p)
        # G = dF/dSigma; only the latent columns of A can hold free cells
        G = sigma_inv - SiS @ sigma_inv
        G = (G + _t(G)) / 2.0
        S, E = S[pd], E[pd]
        Ep = E[:, :p]
        M = _t(Ep) @ G @ Ep
        MSE = (M @ S[:, :, p:]) @ _t(E[:, p:, p:])
        g = np.concatenate([MSE[:, m.A.rows, m.A.cols - p], M[:, m.S.rows, m.S.cols]], axis=1)
        g *= 2.0 * self.w
        pt.g[pd] = g
        return pt

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


# why a member of the stack stopped, one code per member in _OptimResult.stop
RUNNING, GTOL, STALLED, NO_STEP, MAX_ITER, NONPD_SAMPLE, NONPD_START = range(7)


@dataclass
class _OptimResult:
    """One entry per member of the stack."""

    at: _Point  # each member's last accepted point; a given-up member's start theta
    iterations: np.ndarray  # (B,)
    stop: np.ndarray  # (B,) stop codes; GTOL is converged


# relative change of F below which an iteration counts as stalled
_FTOL = 1e-14


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
    so its path is the one it would take alone. The members' state is one
    ``_Point``, ``at``, beside their iteration and stall counts and stop
    codes: each trial point carries its theta, F, gradient and Sigma's
    factor, so an accepted one serves the next information as it stands.
    ``reach`` is the one place where a member's move is recorded, at the
    start and after each chunk of members accepted at one halving. A
    member's stop code says why it stopped: GTOL (converged), STALLED (F
    stalled three iterations running), NO_STEP (60 halvings found no
    acceptable step), MAX_ITER, or NONPD_SAMPLE or NONPD_START (its sample
    covariance, or the Sigma of its start, is not PD; it keeps its start
    theta). A LinAlgError stops the whole stack as an EstimationError.
    """
    B = len(theta0)
    stop = np.where(np.isnan(objective.logdet_S), NONPD_SAMPLE, RUNNING)
    at = _Point.unevaluated(theta0, len(objective.m.variables), objective.p)
    iterations = np.zeros(B, dtype=int)
    stalls = np.zeros(B, dtype=int)

    def reach(rows, pt, f_prev, it):
        # the members rows are now at pt
        at.put(rows, pt)
        iterations[rows] = it
        # give up only after the objective stalls repeatedly; near an
        # optimum the steps keep shrinking the gradient after F stops moving
        stalled = np.abs(f_prev - pt.f) < _FTOL * np.maximum(1.0, np.abs(f_prev))
        stalls[rows] = np.where(stalled, stalls[rows] + 1, 0)
        stop[rows] = np.where(np.max(np.abs(pt.g), axis=1, initial=0.0) < opts.gtol, GTOL,
                              np.where(stalls[rows] < 3, RUNNING, STALLED))

    def iterate(rows, it):
        info = objective.informations(at if len(rows) == B else at.take(rows))
        cells = np.arange(info.shape[1])
        diag = info[:, cells, cells]
        floor = 1e-10 * np.where(diag > 0, diag, 1.0)
        info += 0.0  # what adding diag(floor)'s zeros does off the diagonal: -0.0 to 0.0
        info[:, cells, cells] += floor
        g = at.g[rows]
        d = -np.linalg.solve(info, g[:, :, None])[:, :, 0]
        gd = (g[:, None, :] @ d[:, :, None])[:, 0, 0]
        f = at.f[rows]
        step = np.ones(len(rows))
        pending = np.arange(len(rows))  # positions in rows still halving
        for _ in range(60):
            tried = at.theta[rows[pending]] + step[pending, None] * d[pending]
            pt = objective.point(tried, rows[pending])
            ok = np.isfinite(pt.f) & (pt.f <= f[pending] + 1e-4 * step[pending] * gd[pending])
            if ok.any():
                reach(rows[pending[ok]], pt if ok.all() else pt.take(ok), f[pending[ok]], it)
            pending = pending[~ok]
            if not pending.size:
                break
            step[pending] *= 0.5
        stop[rows[pending]] = NO_STEP  # report whatever we have

    try:
        rows = np.flatnonzero(stop == RUNNING)
        pt = objective.point(at.theta[rows], rows)
        pd = np.isfinite(pt.f)
        stop[rows[~pd]] = NONPD_START
        # F before the start is +inf, so the start is never a stall
        reach(rows[pd], pt if pd.all() else pt.take(pd), np.inf, 0)
        for it in range(1, opts.max_iter + 1):
            rows = np.flatnonzero(stop == RUNNING)
            if not rows.size:
                break
            iterate(rows, it)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "a linear-algebra routine failed during the fit (LinAlgError)") from None
    stop[stop == RUNNING] = MAX_ITER
    return _OptimResult(at, iterations, stop)


@dataclass
class FitResult:
    """What one ML fit found, with the model and moments it belongs to. The
    rest (SEs, ratios, p-values, chisq, df, implied covariance, Heywood
    cases, ...) are properties computed on read, so they describe ``theta``."""

    theta: np.ndarray
    f_min: float
    n: int
    iterations: int
    gradient_norm: float
    converged: bool
    # asymptotic covariance of theta (inverse information); NaN without SEs
    acov: np.ndarray = field(repr=False)
    matrices: ParamMatrices = field(repr=False)
    options: EstimationOptions = field(repr=False)
    S: np.ndarray = field(repr=False)

    @property
    def labels(self) -> list[str]:
        return self.matrices.labels

    @property
    def p(self) -> int:
        return self.matrices.n_observed

    @property
    def df(self) -> int:
        return count_df(self.matrices)

    @property
    def chisq(self) -> float:
        mult = (self.n - 1) if self.options.chisq_multiplier == "n-1" else self.n
        return mult * self.f_min

    @property
    def se(self) -> np.ndarray:
        diag = np.diag(self.acov)
        return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)

    @property
    def crit_ratio(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.theta / self.se

    @property
    def implied(self) -> np.ndarray:
        return implied_covariance(self.matrices, self.theta)

    @property
    def heywood(self) -> list[str]:
        # the variances estimated below zero
        return [par.label for par, value in zip(self.matrices.parameters, self.theta)
                if par.kind in VARIANCE_KINDS and value < 0]

    @property
    def chisq_p(self) -> float:
        # computed on read, so a bootstrap replicate never pays for a tail it ignores
        return chisq_tail(self.chisq, self.df)

    @property
    def p_values(self) -> np.ndarray:
        # two-sided Wald p-values, computed on read so that a fit whose p-values
        # go unread never loads scipy.special; without SEs every ratio is NaN, and so is p
        crit = self.crit_ratio
        if np.isnan(crit).all():
            return np.full(crit.shape, np.nan)
        from scipy.special import ndtr

        return 2.0 * ndtr(-np.abs(crit))

    @property
    def standardized(self) -> dict[str, float]:
        """The standardized solution by label, every free or nonzero arrow and
        (co)variance and every variance; empty when it cannot be standardized."""
        m = self.matrices
        try:
            A, S = standardize(m, self.theta)
        except EstimationError:
            return {}
        names, p = m.variables, m.n_observed
        arrows = m.A.values != 0.0
        arrows[m.A.rows, m.A.cols] = True
        out = {f"{names[j]}=~{names[i]}" if i < p else f"{names[i]}~{names[j]}": A[i, j]
               for i, j in zip(*np.nonzero(arrows))}
        keep = (m.S.values != 0.0) | np.eye(len(names), dtype=bool)
        keep[m.S.rows, m.S.cols] = True  # S's free cells are at row >= col
        for i, j in zip(*np.nonzero(np.tril(keep))):
            a, b = sorted((names[i], names[j]))
            out[f"{a}~~{b}"] = S[i, j]
        return out

    @property
    def estimates(self) -> dict[str, float]:
        return dict(zip(self.labels, self.theta))

    def parameter_table(self, kind: str | None = None) -> list[dict]:
        """Per-parameter records; kind filters to 'loading', 'path' or 'covariance'."""
        m = self.matrices
        hypotheses = {pair: lab for lab, pair in m.spec.labels.items()}
        se, crit = self.se, self.crit_ratio
        p_values, standardized = self.p_values, self.standardized
        rows = []
        for i, par in enumerate(m.parameters):
            k = par.kind if par.kind in ("loading", "path") else "covariance"
            if kind is not None and k != kind:
                continue
            rows.append({
                "label": par.label,
                "kind": k,
                "lhs": par.lhs,
                "rhs": par.rhs,
                "estimate": float(self.theta[i]),
                "se": float(se[i]),
                "crit_ratio": float(crit[i]),
                "p": float(p_values[i]),
                "standardized": standardized.get(par.label),
                "hypothesis": hypotheses.get((par.lhs, par.rhs)) if k == "path" else None,
            })
        return rows


def standardize(m: ParamMatrices, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standardized A and S: each arrow times sd(tail) / sd(head), each
    (co)variance over the SDs of its two variables, all SDs model-implied.

    Loadings scale by sd(latent) / sd(indicator), paths by sd(predictor) /
    sd(dependent); a variance becomes its share of the implied variance.
    Raises EstimationError when an implied variance is not positive.
    """
    A, S, E = _ram(m, np.asarray(theta, dtype=float))
    var = np.diag(E @ S @ E.T)  # implied variances of all variables
    if np.any(var <= 0):
        raise EstimationError("nonpositive implied variance; cannot standardize")
    sd = np.sqrt(var)
    return A * sd / sd[:, None], S / (sd[:, None] * sd)


def _check_identified(H: np.ndarray, acov: np.ndarray, labels: list[str]) -> None:
    """Reject information with a (near) null direction: the model is not identified.

    Tests Hs = d·H·d, d = |diag(H)|^-1/2, whose eigenvalues do not change
    when a parameter is rescaled (an indicator in other units); a diagonal
    entry that is not positive makes one non-positive. Identified means
    λ_min > 1e-6 λ_max. When Hs has a Cholesky factor it is positive
    definite, and its unit diagonal gives λ_max <= tr Hs = t and
    1/λ_min <= tr Hs^-1 = Σ acov_ii H_ii, with acov = H^-1. So
    1 / (t Σ acov_ii H_ii) never exceeds λ_min/λ_max, and when it clears
    1e-6 the model is identified without an eigendecomposition. Otherwise
    (a NaN acov included) ``eigh`` decides, and the message names the
    parameters that weigh most in the eigenvector of the smallest
    eigenvalue, the flat direction.
    """
    diag = np.abs(np.diag(H))
    d = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    Hs = d[:, None] * H * d[None, :]
    try:
        np.linalg.cholesky(Hs)
    except np.linalg.LinAlgError:
        pass
    else:
        trace_inv = np.diag(acov) @ np.diag(H)  # NaN when H was not inverted
        if 0 < trace_inv < 1e6 / len(H):  # 1 / (t trace_inv) > 1e-6, without overflow
            return
    lam, vec = np.linalg.eigh(Hs)
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
    raises DataError when one is not there."""
    wanted = set(spec.indicator_names)
    kept = [v for v in names if v in wanted]
    missing = wanted - set(kept)
    if missing:
        raise DataError(f"data lacks model indicators: {sorted(missing)}")
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
    """Estimate a model against sample moments by maximum likelihood: compile
    it, minimize F, and with ``compute_se`` invert (n-1)/2 times the expected
    information at the optimum into ``acov``.

    Returns a FitResult even when the iteration limit is hit (flagged via
    ``converged``); its SEs, ratios, p-values, chi-square and implied
    covariance are computed on read. Raises UnderIdentifiedError when the
    model has more free parameters than sample moments or, with SEs, a
    converged fit has a singular information; NotPositiveDefiniteError for
    a non-PD sample covariance; DataError when the moments lack a model
    indicator; EstimationError for start values that give a non-PD implied
    covariance or a failed linear-algebra routine.
    """
    opts = opts or EstimationOptions()
    S, names = align_moments(spec, moments)
    m = build_matrices(spec, names, standardize_latents=standardize_latents)
    df = count_df(m)
    if df < 0:
        raise UnderIdentifiedError(
            f"{m.n_free} free parameters exceed {m.n_free + df} sample moments")
    objective = _Objective(m, S)
    opt = _minimize(objective, start_values(m, S)[None], opts)
    stop = opt.stop[0]
    if stop == NONPD_SAMPLE:
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    if stop == NONPD_START:
        raise EstimationError("starting values give a non-positive-definite implied covariance")
    converged = bool(stop == GTOL)

    n, t = moments.n, m.n_free
    acov = np.full((t, t), np.nan)
    if compute_se and t:
        H = ((n - 1) / 2.0) * objective.informations(opt.at)[0]
        try:
            acov = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            pass
        if converged:
            _check_identified(H, acov, m.labels)

    return FitResult(
        theta=opt.at.theta[0], f_min=float(opt.at.f[0]), n=n,
        iterations=int(opt.iterations[0]),
        gradient_norm=float(np.max(np.abs(opt.at.g[0]), initial=0.0)),
        converged=converged, acov=acov,
        matrices=m, options=opts, S=S,
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
    """Build a full parameter vector from per-label values plus per-kind defaults.

    Raises DataError when ``values`` names a parameter the model lacks,
    ``defaults`` names no parameter kind, or a parameter has neither a
    value nor a default for its kind. A default for a kind the model has
    no parameter of is allowed, so one config serves several models.
    """
    values = values or {}
    defaults = defaults or {}
    unknown = set(values) - set(m.labels)
    if unknown:
        raise DataError(f"'values' names unknown parameters: {sorted(unknown)}")
    unknown = set(defaults) - PARAMETER_KINDS
    if unknown:
        raise DataError(f"'defaults' names unknown parameter kinds: {sorted(unknown)}")
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
        raise DataError(
            f"no value or default for parameters: {sorted(missing)[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    return theta
