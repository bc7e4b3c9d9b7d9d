"""Exploratory factor analysis: extraction, varimax rotation, display table.

Extraction is principal components on a correlation matrix by default
(loadings are eigenvectors scaled by root eigenvalues); principal-axis
iteration is available as an option. Rotation is the classic pairwise
varimax with Kaiser row normalization, which makes the criterion
non-decreasing sweep by sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError


@dataclass
class LoadingMatrix:
    """p x m loadings plus the full eigenvalue spectrum of the input."""

    loadings: np.ndarray
    eigenvalues: np.ndarray
    names: list[str]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def communalities(self) -> np.ndarray:
        return (self.loadings**2).sum(axis=1)


_AXIS_TOL = 1e-6
_AXIS_ITERATIONS = 100
_VARIMAX_TOL = 1e-10
_VARIMAX_SWEEPS = 100


def _principal_axis(R: np.ndarray, m: int):
    """Iterated communality estimation; returns loadings for m factors. It
    stops when no communality moves by _AXIS_TOL, or after _AXIS_ITERATIONS."""
    h2 = 1.0 - 1.0 / np.diag(np.linalg.inv(R))  # squared multiple correlations
    for _ in range(_AXIS_ITERATIONS):
        Rh = R.copy()
        np.fill_diagonal(Rh, h2)
        w, V = np.linalg.eigh(Rh)
        order = np.argsort(w)[::-1][:m]
        lam = V[:, order] * np.sqrt(np.clip(w[order], 0, None))
        h2_new = (lam**2).sum(axis=1)
        if np.max(np.abs(h2_new - h2)) < _AXIS_TOL:
            h2 = h2_new
            break
        h2 = h2_new
    return lam


def extract(
    R: np.ndarray,
    retention: str = "kaiser",
    names: list[str] | None = None,
    method: str = "principal",
) -> LoadingMatrix:
    """Extract factors from a correlation matrix.

    ``retention`` is ``"kaiser"`` (eigenvalues strictly > 1) or ``"m=<k>"``
    for a fixed count. Columns are ordered by descending eigenvalue and
    sign-flipped so each column's largest-magnitude loading is positive.
    """
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    if R.shape != (p, p) or not np.allclose(R, R.T, atol=1e-10):
        raise DataError("R must be a symmetric correlation matrix")
    if names is None:
        names = [f"v{j + 1}" for j in range(p)]
    w, V = np.linalg.eigh(R)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]

    if retention == "kaiser":
        m = int((w > 1.0).sum())
    elif retention.startswith("m="):
        try:
            m = int(retention[2:])
        except ValueError:
            raise DataError(f"factor count of {retention!r} is not an integer") from None
        if not 1 <= m <= p:
            raise DataError(f"factor count must be in 1..{p}")
    else:
        raise DataError(f"unknown retention rule {retention!r}")

    if method == "principal":
        lam = V[:, :m] * np.sqrt(np.clip(w[:m], 0, None))
    elif method == "principal-axis":
        lam = _principal_axis(R, m) if m else np.zeros((p, 0))
    else:
        raise DataError(f"unknown extraction method {method!r}")
    lam = _fix_column_signs(lam)
    return LoadingMatrix(lam, w, list(names))


def _fix_column_signs(lam: np.ndarray) -> np.ndarray:
    lam = lam.copy()
    for j in range(lam.shape[1]):
        col = lam[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            lam[:, j] = -col
    return lam


def _varimax_criterion(L: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    p = L.shape[0]
    sq = L**2
    return float(((sq**2).sum(axis=0) / p - (sq.sum(axis=0) / p) ** 2).sum())


def varimax(loadings: LoadingMatrix) -> LoadingMatrix:
    """Orthogonal varimax rotation by pairwise planar rotations.

    The rows are Kaiser-normalized first. Each pair of factors is rotated
    by the closed-form optimal angle, so the criterion never decreases;
    sweeps stop when a full sweep improves it by less than _VARIMAX_TOL,
    or after _VARIMAX_SWEEPS sweeps. Row communalities are preserved
    exactly because the result is ``loadings @ T`` with orthogonal ``T``.
    Fewer than two factors have nothing to rotate and come back as given.
    """
    lam = loadings.loadings
    p, m = lam.shape
    if m < 2:
        return loadings
    h = np.sqrt((lam**2).sum(axis=1))
    X = lam / np.where(h > 0, h, 1.0)[:, None]
    T = np.eye(m)
    crit = _varimax_criterion(X)
    for _ in range(_VARIMAX_SWEEPS):
        for j in range(m - 1):
            for k in range(j + 1, m):
                x, y = X[:, j], X[:, k]
                u = x**2 - y**2
                v = 2.0 * x * y
                a, bb = u.sum(), v.sum()
                c = (u**2 - v**2).sum()
                d = 2.0 * (u * v).sum()
                num = d - 2.0 * a * bb / p
                den = c - (a**2 - bb**2) / p
                angle = 0.25 * np.arctan2(num, den)
                if abs(angle) < 1e-15:
                    continue
                cs, sn = np.cos(angle), np.sin(angle)
                rot = np.array([[cs, -sn], [sn, cs]])
                X[:, [j, k]] = X[:, [j, k]] @ rot
                T[:, [j, k]] = T[:, [j, k]] @ rot
        new_crit = _varimax_criterion(X)
        if new_crit - crit < _VARIMAX_TOL:
            crit = new_crit
            break
        crit = new_crit
    rotated = _fix_column_signs(lam @ T)
    # order factors by explained sum of squares, largest first
    order = np.argsort(-(rotated**2).sum(axis=0), kind="stable")
    return replace(loadings, loadings=rotated[:, order])


@dataclass
class ComponentTable:
    """Display form of a loading matrix with small entries blanked."""

    names: list[str]
    cells: list[list[float | None]]
    dominant: list[int]
    threshold: float


def rotated_component_table(loadings: LoadingMatrix, suppress_below: float = 0.4) -> ComponentTable:
    """Blank |loading| < threshold and group items by dominant factor."""
    lam = loadings.loadings
    p, m = lam.shape
    dominant = np.argmax(np.abs(lam), axis=1) if m else np.zeros(p, dtype=int)
    strength = np.abs(lam[np.arange(p), dominant]) if m else np.zeros(p)
    row_order = sorted(range(p), key=lambda i: (dominant[i], -strength[i]))
    cells: list[list[float | None]] = []
    names = []
    for i in row_order:
        names.append(loadings.names[i])
        cells.append([
            float(lam[i, j]) if abs(lam[i, j]) >= suppress_below else None
            for j in range(m)
        ])
    return ComponentTable(names, cells, [int(dominant[i]) for i in row_order], suppress_below)
