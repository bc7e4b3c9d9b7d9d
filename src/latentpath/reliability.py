"""Reliability and validity statistics.

Cronbach's alpha, KMO sampling adequacy, Bartlett's sphericity test,
composite reliability (CR), average variance extracted (AVE), and the
Fornell-Larcker discriminant-validity comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _correlation, _nonsingular
from .errors import DataError
from .fit_indices import chisq_tail


def cronbach_alpha(items: np.ndarray) -> float:
    """Internal consistency of an n x k item block.

    alpha = (k/(k-1)) * (1 - sum of item variances / variance of row sums).
    Invariant under adding a constant to any item.
    """
    X = np.asarray(items, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataError("need an n x k block with k >= 2 items")
    if X.shape[0] < 2:
        raise DataError("need at least 2 observations")
    k = X.shape[1]
    item_vars = X.var(axis=0, ddof=1)
    total_var = X.sum(axis=1).var(ddof=1)
    if total_var == 0:
        raise DataError("zero total variance: alpha is undefined")
    return (k / (k - 1)) * (1.0 - item_vars.sum() / total_var)


def _loadings_and_errors(loadings) -> tuple[np.ndarray, np.ndarray]:
    """Checked standardized loadings and their error variances 1 - lam^2."""
    lam = np.asarray(loadings, dtype=float)
    if lam.size == 0:
        raise DataError("empty loading list")
    err = 1.0 - lam**2
    if np.any(err < 0):
        raise DataError("error variances must be nonnegative")
    return lam, err


def composite_reliability(loadings) -> float:
    """CR = (sum lam)^2 / ((sum lam)^2 + sum Var(eps)), Var(eps) = 1 - lam^2.

    The error variances are those of a standardized solution.
    """
    lam, err = _loadings_and_errors(loadings)
    s = lam.sum() ** 2
    return float(s / (s + err.sum()))


def average_variance_extracted(loadings) -> float:
    """AVE = sum lam^2 / (sum lam^2 + sum Var(eps)), Var(eps) = 1 - lam^2."""
    lam, err = _loadings_and_errors(loadings)
    s = (lam**2).sum()
    return float(s / (s + err.sum()))


def kmo(R: np.ndarray) -> float:
    """Kaiser-Meyer-Olkin sampling adequacy from a correlation matrix.

    Uses the anti-image partials q_ij = -s_ij / sqrt(s_ii s_jj) with s the
    entries of R^-1. R is a DataError unless square and symmetric, and a
    NotPositiveDefiniteError when ``data._nonsingular`` rejects it; an
    identity R makes the ratio 0/0 and is a DataError.
    """
    R = _correlation(R)
    _nonsingular(R, "correlation matrix")
    Rinv = np.linalg.inv(R)
    d = np.sqrt(np.diag(Rinv))
    Q = -Rinv / np.outer(d, d)
    off = ~np.eye(len(R), dtype=bool)
    r2 = (R[off] ** 2).sum()
    q2 = (Q[off] ** 2).sum()
    if r2 + q2 == 0:
        raise DataError("KMO undefined: no off-diagonal correlation at all")
    return float(r2 / (r2 + q2))


def bartlett(R: np.ndarray, n: int) -> tuple[float, int, float]:
    """Bartlett's sphericity test: (chi2, df, p).

    chi2 = -(n - 1 - (2p + 5)/6) * ln|R|, df = p(p-1)/2; the p-value is the
    upper chi-square tail. R is checked as in ``kmo``; ln|R| is slogdet's.
    """
    R = _correlation(R)
    _nonsingular(R, "correlation matrix")
    p = R.shape[0]
    chi2 = -(n - 1 - (2 * p + 5) / 6.0) * np.linalg.slogdet(R)[1]
    df = p * (p - 1) // 2
    return float(chi2), df, chisq_tail(chi2, df)


@dataclass
class FornellLarcker:
    """sqrt(AVE) diagonal against inter-construct correlations."""

    names: list[str]
    matrix: np.ndarray  # lower triangle: correlations; diagonal: sqrt(AVE)
    passed: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def fornell_larcker(ave: dict[str, float], corr: np.ndarray,
                    names: list[str] | None = None) -> FornellLarcker:
    """Discriminant validity: does each sqrt(AVE) beat its correlations?

    ``corr`` is the construct correlation matrix ordered like ``names``
    (defaults to the order of ``ave``). A construct passes when its
    sqrt(AVE) exceeds the largest absolute correlation it takes part in.
    """
    if names is None:
        names = list(ave)
    corr = np.asarray(corr, dtype=float)
    k = len(names)
    if corr.shape != (k, k):
        raise DataError(f"correlation matrix must be {k} x {k}")
    if set(names) != set(ave):
        raise DataError("AVE keys do not match construct names")
    out = np.zeros((k, k))
    passed = {}
    for i, name in enumerate(names):
        out[i, i] = np.sqrt(ave[name])
        for j in range(i):
            out[i, j] = corr[i, j]
        others = np.abs(np.delete(corr[i], i))
        passed[name] = bool(out[i, i] > others.max()) if k > 1 else True
    return FornellLarcker(list(names), out, passed)

