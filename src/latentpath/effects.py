"""Effect decomposition and mediation inference.

Effects are read off the latent block of the RAM matrix A, indexed
[target, source]. It is the direct-effect matrix D; in an acyclic model
the geometric series (I - D)^-1 - I = D + D^2 + ... collects every
directed route between two latents, so it is the total-effect matrix T,
and the total indirect part is T - D. The specific indirect effect of a
source through one mediator is T[mediator, source] * T[target, mediator],
the sum over the routes that pass through that mediator (Bollen 1987).
Interval estimates come from nonparametric case-resampling bootstrap
(percentile intervals; Efron & Tibshirani 1993) or from the delta
method, g' acov g, with g the analytic gradient of an effect in the free
parameters and acov their full asymptotic covariance. The bootstrap
compiles the model once, refits the replicates' sample covariances as
one stacked Fisher-scoring problem in blocks (``sem._minimize``), and
reads their effects from one batched series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import sem
from .data import Dataset, _covariance_matrix, covariance
from .errors import EstimationError, ModelSpecificationError
from .model import ModelSpec, ParamMatrices
from .sem import (EstimationOptions, FitResult, _minimize, _Objective, fit, model_columns,
                  start_values)


@dataclass
class EffectMatrices:
    """Direct and total effects among the latents, indexed [target, source]."""

    names: list[str]
    direct: np.ndarray  # D, the latent block of A
    total: np.ndarray   # T = (I - D)^-1 - I

    def effect(self, source: str, target: str,
               mediator: str | None = None) -> tuple[float, float, float]:
        """(total, direct, indirect) for one source -> target pair.

        Without a mediator, indirect is the total indirect effect; with
        one, it is the effect through that mediator alone.
        """
        i, j = self.names.index(target), self.names.index(source)
        total, direct = self.total[..., i, j], self.direct[..., i, j]
        if mediator is None:
            indirect = total - direct
        else:
            k = self.names.index(mediator)
            indirect = self.total[..., k, j] * self.total[..., i, k]
        if self.total.ndim > 2:
            return total, direct, indirect  # one entry per matrix of the stack
        return float(total), float(direct), float(indirect)


def decompose(A: np.ndarray, names: list[str] | None = None) -> EffectMatrices:
    """Decompose the effects of a direct-effect matrix A[target, source], or
    of each matrix of a stack (B, k, k). Raises ModelSpecificationError when
    the nonzero cells of A, pooled over a stack, form a cycle."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    k = A.shape[-1]
    arrows = (A != 0).reshape(-1, k, k).any(axis=0)
    if np.linalg.matrix_power(arrows, k).any():
        raise ModelSpecificationError("the direct effects form a cycle; effects undefined")
    if names is None:
        names = [f"v{i + 1}" for i in range(k)]
    return EffectMatrices(names=list(names), direct=A.copy(), total=sem._series(A) - np.eye(k))


def decompose_fit(result: FitResult) -> EffectMatrices:
    """Effect decomposition at a FitResult's estimates."""
    m = result.matrices
    p = m.n_observed
    return decompose(m.A.materialize(result.theta)[p:, p:], m.latent_names)


@dataclass
class EffectDecomposition:
    """Point estimates and interval bounds for one source -> target pair."""

    source: str
    target: str
    mediator: str
    total: float
    direct: float
    indirect: float  # through ``mediator``
    total_bounds: tuple[float, float]
    direct_bounds: tuple[float, float]
    indirect_bounds: tuple[float, float]
    level: float
    method: str
    n_replicates: int = 0
    n_dropped: int = 0

    def mediation_verdict(self) -> str:
        """none / partial / full from the interval sign patterns."""
        def excludes_zero(lo_hi):
            lo, hi = lo_hi
            return lo > 0 or hi < 0

        if not excludes_zero(self.indirect_bounds):
            return "none"
        return "partial" if excludes_zero(self.direct_bounds) else "full"


# the share of replicates that may be dropped before the intervals are refused
_MAX_FAILURE_RATE = 0.2


def bootstrap_ci(
    dataset: Dataset,
    spec: ModelSpec,
    effects: list[tuple[str, str, str]],
    replicates: int = 2000,
    level: float = 0.95,
    seed: int = 0,
    opts: EstimationOptions | None = None,
    standardize_latents: bool = False,
    workers: int = 1,
) -> list[EffectDecomposition]:
    """Percentile bootstrap intervals for (source, mediator, target) effects.

    Case resampling with replacement of the rows complete in the model's
    columns; each replicate refits the model and re-decomposes. Replicate r
    draws from a generator seeded seed + r. The replicates are refitted
    together, as one stacked Fisher-scoring problem in the calling thread,
    in which each follows the path it would take alone, so the result does
    not depend on how they are grouped.
    ``workers`` is accepted for compatibility and has no effect. Replicates
    that fail to converge are dropped and counted; more than
    _MAX_FAILURE_RATE of them failing is an error that counts the drops by
    reason.
    """
    if replicates < 100:
        raise EstimationError("use at least 100 replicates")
    if not 0.0 < level < 1.0:
        raise EstimationError("level must be inside (0, 1)")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise EstimationError(f"seed must be a non-negative integer, got {seed!r}")
    opts = opts or EstimationOptions()

    _validate_mediators(spec, effects)

    dataset = dataset.subset(model_columns(spec, dataset.names))
    # full-sample point estimates; the replicates reuse its compiled model
    full = fit(spec, covariance(dataset), opts,
               standardize_latents=standardize_latents, compute_se=False)
    full_eff = decompose_fit(full)

    draws, reasons = _refit_replicates(dataset.complete_rows(), full.matrices, effects,
                                       opts, seed, replicates)
    n_dropped = replicates - len(draws)
    if n_dropped > _MAX_FAILURE_RATE * replicates:
        counts = ", ".join(f"{count} {reason}" for reason, count in
                           sorted(Counter(reasons).items(), key=lambda rc: -rc[1]))
        raise EstimationError(
            f"bootstrap failed: {n_dropped}/{replicates} replicates did not "
            f"converge (limit {_MAX_FAILURE_RATE:.0%}; {counts}); the model may be "
            "ill-conditioned for this sample size"
        )

    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [alpha, 1.0 - alpha], axis=0).tolist()  # each (routes, 3)
    out = []
    for k, (src, med, dst) in enumerate(effects):
        tot, dire, ind = full_eff.effect(src, dst, med)
        bounds = list(zip(lo[k], hi[k]))
        out.append(EffectDecomposition(
            source=src, target=dst, mediator=med,
            total=tot, direct=dire, indirect=ind,
            total_bounds=bounds[0], direct_bounds=bounds[1],
            indirect_bounds=bounds[2],
            level=level, method="percentile-bootstrap",
            n_replicates=len(draws), n_dropped=n_dropped,
        ))
    return out


# the largest stacked temporary of a block of replicates, in bytes. Several
# (t x t) stacks of a block are alive at once inside the information and
# the step, so the cap trades speed for peak RSS. Measured on 2 cores
# against 32 KB, which fitted one survey replicate per block: 64 KB (three
# survey replicates, 18 of the X -> M -> Y model) took `report --boot 500`
# from 3.6-5.3 s to 2.3-3.2 s and raised the survey benchmark's peak RSS
# by 0.5 MB; 128 KB (2.0-2.6 s) raised it by 1.1 MB and 256 KB (2.1-2.5 s)
# by 2.0 MB
_BLOCK_BYTES = 64 * 1024


# the reason a replicate is dropped, by its stop code
_DROP_REASONS = {sem.STALLED: "not converged", sem.NO_STEP: "not converged",
                 sem.MAX_ITER: "not converged", sem.NONPD_SAMPLE: "non-PD sample covariance",
                 sem.NONPD_START: "non-PD start values"}


def _refit_replicates(X: np.ndarray, m: ParamMatrices, routes: list[tuple],
                      opts: EstimationOptions, seed: int,
                      replicates: int) -> tuple[np.ndarray, list[str]]:
    """Effects (kept, routes, 3) of the replicates that converge, in replicate
    order, and the reason each other one dropped.

    X's columns come in ``m.variable_order``, so no replicate's S is reordered.
    Replicate r resamples the rows of X with a generator seeded seed + r.
    The replicates are fitted in blocks, stacked so that no temporary
    passes _BLOCK_BYTES; the widest are the (t x t) products of the
    information or the (v x v) matrices of the RAM form.
    """
    n, p = X.shape[0], m.n_observed
    width = max(m.n_free, len(m.variables))
    block = max(1, _BLOCK_BYTES // (8 * width * width))
    draws, reasons = [], []
    for first in range(0, replicates, block):
        members = range(first, min(first + block, replicates))
        S = np.empty((len(members), p, p))
        for b, r in enumerate(members):
            # the resampled rows are dropped at once; the stack keeps only S
            rows = np.random.default_rng(seed + r).integers(0, n, n)
            S[b] = _covariance_matrix(X[rows], n - 1)
        opt = _minimize(_Objective(m, S), start_values(m, S), opts)
        kept = opt.stop == sem.GTOL
        reasons += [_DROP_REASONS[stop] for stop in opt.stop[~kept].tolist()]
        # one batched series over the replicates that converged
        eff = decompose(m.A.materialize(opt.at.theta[kept])[:, p:, p:], m.latent_names)
        draws.append(np.stack([np.stack(eff.effect(src, dst, med), axis=1)
                               for src, med, dst in routes], axis=1))
    return np.concatenate(draws), reasons


def _effect_gradients(m: ParamMatrices, eff: EffectMatrices,
                      src: str, med: str, dst: str) -> np.ndarray:
    """Gradients in theta (rows) of the total, direct and indirect effect of one triple.

    With E = I + T = (I - D)^-1, dT[a, b]/dD[i, j] = E[a, i] E[j, b] for
    the parameter of free cell (i, j). The indirect effect T[k, j] T[i, k]
    follows by the product rule.
    """
    p = m.n_observed
    latent = m.A.rows >= p  # paths; loadings sit in the observed rows
    rows, cols = m.A.rows[latent] - p, m.A.cols[latent] - p
    in_theta = m.A.first + np.flatnonzero(latent)
    E = np.eye(len(eff.names)) + eff.total

    def d_total(a, b):
        g = np.zeros(m.n_free)
        g[in_theta] = E[a, rows] * E[cols, b]
        return g

    i, k, j = (eff.names.index(name) for name in (dst, med, src))
    g_direct = np.zeros(m.n_free)
    g_direct[in_theta] = (rows == i) & (cols == j)
    g_indirect = d_total(k, j) * eff.total[i, k] + eff.total[k, j] * d_total(i, k)
    return np.array([d_total(i, j), g_direct, g_indirect])


def delta_ci(
    result: FitResult,
    effects: list[tuple[str, str, str]],
    level: float = 0.95,
) -> list[EffectDecomposition]:
    """Normal-approximation intervals by the delta method.

    Each of total, direct and indirect gets variance g' acov g, where g
    is its analytic gradient in the free parameters and acov is the
    fit's full asymptotic covariance, so correlated estimates are
    accounted for and the total's interval does not depend on the
    mediator named. A fit without a finite acov (``compute_se=False``, or
    a singular information matrix) raises EstimationError.
    """
    if not 0.0 < level < 1.0:
        raise EstimationError("level must be inside (0, 1)")
    if not np.all(np.isfinite(result.acov)):
        raise EstimationError(
            "delta-method intervals need standard errors, and this fit has none "
            "(fitted with compute_se=False, or its information matrix is singular)"
        )
    from scipy.special import ndtri

    eff = decompose_fit(result)
    z = ndtri(0.5 + level / 2.0)
    _validate_mediators(result.matrices.spec, effects)
    out = []
    for src, med, dst in effects:
        point = eff.effect(src, dst, med)
        G = _effect_gradients(result.matrices, eff, src, med, dst)
        sd = np.sqrt(((G @ result.acov) * G).sum(axis=1))
        bounds = [(est - z * s, est + z * s) for est, s in zip(point, sd)]
        tot, dire, ind = point
        out.append(EffectDecomposition(
            source=src, target=dst, mediator=med,
            total=tot, direct=dire, indirect=ind,
            total_bounds=bounds[0], direct_bounds=bounds[1], indirect_bounds=bounds[2],
            level=level, method="delta",
        ))
    return out


def _validate_mediators(spec: ModelSpec, effects: list[tuple[str, str, str]]) -> None:
    """Raise ModelSpecificationError unless each (source, mediator, target)
    names latents of spec and the mediator lies on a directed route."""
    names = spec.latent_names
    # with unit arrows, T counts the directed routes between two latents
    arrows = np.zeros((len(names), len(names)))
    for r in spec.regressions:
        arrows[names.index(r.dependent), names.index(r.predictor)] = 1.0
    routes = decompose(arrows, names)
    for src, med, dst in effects:
        for name in (src, med, dst):
            if name not in names:
                raise ModelSpecificationError(f"{name!r} is not a latent in the model")
        if routes.effect(src, dst, med)[2] == 0:
            raise ModelSpecificationError(
                f"{med!r} does not mediate any directed route {src} -> {dst}"
            )


@dataclass
class HypothesisVerdict:
    label: str
    path: str
    estimate: float
    p: float
    verdict: str
    detail: str = ""


_P_THRESHOLD = 0.05


def classify_hypotheses(result: FitResult) -> list[HypothesisVerdict]:
    """Support verdicts for the labeled direct paths.

    A labeled path is supported when its two-sided p-value is below
    _P_THRESHOLD (0.05). Mediation verdicts come from
    ``EffectDecomposition.mediation_verdict``.
    """
    spec = result.matrices.spec
    verdicts = []
    table = {row["hypothesis"]: row for row in result.parameter_table("path")}
    for label, (dep, pred) in sorted(spec.labels.items()):
        row = table[label]  # a labeled path is free: the parser gives a term a label or a value
        p = row["p"]
        supported = bool(p < _P_THRESHOLD)
        verdicts.append(HypothesisVerdict(
            label=label, path=f"{dep} <- {pred}",
            estimate=row["estimate"], p=p,
            verdict="supported" if supported else "not supported",
            detail=f"p={p:.3g} {'<' if supported else '>='} {_P_THRESHOLD:g}",
        ))
    return verdicts
