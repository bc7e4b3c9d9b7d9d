"""Tabular ingestion and sample moments.

Input files are delimiter-separated UTF-8 text with a mandatory header
row. Empty cells and ``NA`` are missing; any other cell that does not
parse as a finite number (``nan`` and ``inf`` included) is treated as
missing in the numeric view but kept as a raw level for frequency
tabulation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

MISSING_MARKERS = {"", "NA"}


@dataclass
class Dataset:
    """Rectangular observations: numeric view plus raw cells.

    ``values[i, j]`` is NaN wherever ``missing[i, j]`` is set. ``raw``
    keeps the original strings so categorical columns can be tabulated.
    """

    names: list[str]
    values: np.ndarray
    missing: np.ndarray
    raw: list[list[str]] = field(repr=False, default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise DataError(f"unknown variable {name!r}") from None
        return self.values[:, j]

    def complete_rows(self) -> np.ndarray:
        """Numeric rows remaining after listwise deletion."""
        keep = ~self.missing.any(axis=1)
        return self.values[keep]

    def subset(self, names: list[str]) -> "Dataset":
        idx = []
        for name in names:
            try:
                idx.append(self.names.index(name))
            except ValueError:
                raise DataError(f"unknown variable {name!r}") from None
        raw = [[row[i] for i in idx] for row in self.raw] if self.raw else []
        return Dataset(list(names), self.values[:, idx], self.missing[:, idx], raw)


def from_array(values: np.ndarray, names: list[str] | None = None) -> Dataset:
    """Wrap an in-memory numeric array as a Dataset (NaN marks missing)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataError("expected a 2-d array")
    if names is None:
        names = [f"v{j + 1}" for j in range(values.shape[1])]
    if len(names) != values.shape[1]:
        raise DataError("names do not match the number of columns")
    return Dataset(list(names), values, np.isnan(values), [])


def load_table(path: str | Path, delimiter: str = ",") -> Dataset:
    """Read a delimited text file into a Dataset.

    The first row is the header. Rows whose arity differs from the header
    are a hard error, as is a header-only file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in csv.reader(text.splitlines(), delimiter=delimiter)]
    rows = [row for row in rows if any(cell.strip() for cell in row) or len(row) > 1]
    if not rows:
        raise DataError(f"{path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    body = rows[1:]
    if not body:
        raise DataError(f"{path} has a header but no data rows")
    p = len(header)
    values = np.empty((len(body), p))
    mask = np.zeros((len(body), p), dtype=bool)
    raw: list[list[str]] = []
    for i, row in enumerate(body):
        if len(row) != p:
            raise DataError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {p}"
            )
        cells = [cell.strip() for cell in row]
        raw.append(cells)
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:  # the missing markers and any other text
                value = math.nan
            if math.isfinite(value):
                values[i, j] = value
            else:
                values[i, j], mask[i, j] = np.nan, True
    return Dataset(header, values, mask, raw)


def save_table(dataset: Dataset, path: str | Path, delimiter: str = ",") -> None:
    """Write the numeric view back out (missing cells as ``NA``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.names)
        for i in range(dataset.n):
            row = [
                "NA" if dataset.missing[i, j] else repr(float(dataset.values[i, j]))
                for j in range(dataset.p)
            ]
            writer.writerow(row)


@dataclass
class SampleMoments:
    """Sample covariance S and correlation R over complete rows."""

    S: np.ndarray
    R: np.ndarray
    n: int
    p: int
    names: list[str]
    divisor: str = "n-1"
    zero_variance: list[str] = field(default_factory=list)


def covariance(dataset: Dataset, divisor: str = "n-1",
               deletion: str = "listwise") -> SampleMoments:
    """Sample moments from mean-centered complete rows.

    ``divisor`` is ``"n-1"`` (unbiased, default) or ``"n"``, the form the
    normal-theory derivation uses. Only listwise deletion is supported.
    Zero-variance columns are flagged and excluded from R (their
    correlations are NaN).
    """
    if divisor not in ("n-1", "n"):
        raise ValueError("divisor must be 'n-1' or 'n'")
    if deletion != "listwise":
        raise ValueError("only listwise deletion is supported")
    X = dataset.complete_rows()
    n = X.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 complete rows, have {n}")
    centered = X - X.mean(axis=0)
    denom = n - 1 if divisor == "n-1" else n
    S = centered.T @ centered / denom
    S = (S + S.T) / 2.0
    sd = np.sqrt(np.diag(S))
    zero = sd == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        R = S / (sd[:, None] * sd)
    R[zero, :] = np.nan
    R[:, zero] = np.nan
    np.fill_diagonal(R, np.where(zero, np.nan, 1.0))
    return SampleMoments(
        S=S, R=R, n=n, p=X.shape[1], names=list(dataset.names),
        divisor=divisor, zero_variance=[nm for nm, z in zip(dataset.names, zero) if z],
    )


def frequency_table(dataset: Dataset, variable: str) -> list[tuple[str, int, float]]:
    """Level counts and percentages for one variable; counts sum to n.

    Levels sort numerically when every level parses as a number, else
    lexicographically; missing cells are pooled under ``NA`` at the end.
    """
    try:
        j = dataset.names.index(variable)
    except ValueError:
        raise DataError(f"unknown variable {variable!r}") from None
    counts: dict[str, int] = {}
    n_missing = 0
    if dataset.raw:
        cells = [row[j] for row in dataset.raw]
    else:
        cells = [
            "NA" if dataset.missing[i, j] else f"{dataset.values[i, j]:g}"
            for i in range(dataset.n)
        ]
    for cell in cells:
        if cell in MISSING_MARKERS:
            n_missing += 1
        else:
            counts[cell] = counts.get(cell, 0) + 1

    def level_key(level: str):
        try:
            return (0, float(level), "")
        except ValueError:
            return (1, 0.0, level)

    n = dataset.n
    table = [
        (level, count, 100.0 * count / n)
        for level, count in sorted(counts.items(), key=lambda kv: level_key(kv[0]))
    ]
    if n_missing:
        table.append(("NA", n_missing, 100.0 * n_missing / n))
    return table
