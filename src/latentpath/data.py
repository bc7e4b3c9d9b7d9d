"""Tabular ingestion and sample moments.

Input files are delimiter-separated UTF-8 text with a mandatory header
row; rows whose cells are all blank are skipped. Empty cells and ``NA``
are missing, and so is any other cell that does not parse as a finite
number (``nan`` and ``inf`` included). Loading keeps only the numbers
and the file's bytes, compressed: the raw cells, which ``frequency_table``
tabulates as levels, are parsed from them the first time ``Dataset.raw``
is read.
"""

from __future__ import annotations

import csv
import math
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

MISSING_MARKERS = {"", "NA"}


@dataclass
class Dataset:
    """Rectangular observations: numeric view plus raw cells.

    A cell is missing where, and only where, ``values`` holds NaN;
    ``missing`` is that mask, computed on each read. A dataset
    read by ``load_table`` keeps the file in ``source`` (its zlib-compressed
    bytes, delimiter, column indices); ``raw`` parses the stripped cells of
    those columns from it on first access and caches them. Datasets built
    from arrays have no source, and their ``raw`` is ``[]``.
    """

    names: list[str]
    values: np.ndarray
    source: tuple[bytes, str, tuple[int, ...]] | None = field(default=None, repr=False)
    _raw: list[list[str]] | None = field(default=None, init=False, repr=False)

    @property
    def raw(self) -> list[list[str]]:
        if self._raw is None:
            self._raw = _raw_cells(*self.source) if self.source else []
        return self._raw

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def complete_rows(self) -> np.ndarray:
        """Numeric rows remaining after listwise deletion, in C order.

        When no cell is missing and ``values`` is C-contiguous, this is a
        read-only view of ``values``, not a copy; otherwise it is a copy of
        the complete rows. Either way the moments computed from it are
        the same bits, which a view in another memory order would not give.
        """
        missing = self.missing
        if self.values.flags.c_contiguous and not missing.any():
            view = self.values.view()
            view.flags.writeable = False
            return view
        return self.values[~missing.any(axis=1)]

    def subset(self, names: list[str]) -> "Dataset":
        idx = []
        for name in names:
            try:
                idx.append(self.names.index(name))
            except ValueError:
                raise DataError(f"unknown variable {name!r}") from None
        source = None
        if self.source:
            packed, delimiter, columns = self.source
            source = (packed, delimiter, tuple(columns[i] for i in idx))
        # take() copies in C order, where [:, idx] gives F order, so that
        # complete_rows can return a view of the copy
        return Dataset(list(names), self.values.take(idx, axis=1), source)


def from_array(values: np.ndarray, names: list[str] | None = None) -> Dataset:
    """Wrap an in-memory numeric array as a Dataset.

    Non-finite cells (NaN and ``inf``) are missing; they are set to NaN in
    a copy, so the caller's array is never modified.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataError("expected a 2-d array")
    if names is None:
        names = [f"v{j + 1}" for j in range(values.shape[1])]
    if len(names) != values.shape[1]:
        raise DataError("names do not match the number of columns")
    missing = ~np.isfinite(values)
    if missing.any():
        values = np.where(missing, np.nan, values)
    return Dataset(list(names), values)


def _kept_rows(reader):
    """The rows of a csv reader that hold at least one non-blank cell."""
    return (row for row in reader if len(row) > 1 or any(cell.strip() for cell in row))


def _lines(text: str):
    """The lines of ``text``, each with its terminator, one at a time.

    A line ends at "\\r\\n", a bare "\\r" or "\\n", as in a file opened with
    ``newline=""``, so a reader fed these lines sees every line break as
    written, and a quoted cell keeps the ones it holds; ``str.splitlines``
    would drop them, and breaks lines at further separators too. A
    generator holds one line at a time, where ``io.StringIO`` would copy
    the text at four bytes a character.
    """
    start, size, newline = 0, len(text), -1
    while start < size:
        if newline < start:  # the next "\n", or the end of the text
            newline = text.find("\n", start)
            if newline < 0:
                newline = size
        end = newline + 1
        cr = text.find("\r", start, end)
        if cr >= 0 and cr + 1 != newline:  # a bare "\r" ends the line first
            end = cr + 1
        yield text[start:end]
        start = end


def _reader(text: str, delimiter: str):
    return csv.reader(_lines(text), delimiter=delimiter)


def _raw_cells(packed: bytes, delimiter: str, columns: tuple[int, ...]) -> list[list[str]]:
    """Stripped cells of the given columns for every data row of a file
    whose bytes ``load_table`` compressed into ``packed``."""
    text = zlib.decompress(packed).decode("utf-8")
    rows = _kept_rows(_reader(text, delimiter))
    next(rows)  # the header
    return [[row[j].strip() for j in columns] for row in rows]


def load_table(path: str | Path, delimiter: str = ",") -> Dataset:
    """Read a delimited UTF-8 text file into a Dataset.

    The first non-blank row is the header. One pass converts each cell
    with ``float`` into a single buffer; non-finite results and cells that
    do not parse are missing. Text that is not UTF-8, duplicate column
    names, rows whose arity differs from the header, a cell over the csv
    module's field size limit, an empty and a header-only file all raise
    ``DataError``; the row number in a message is the line of the file on
    which that row ends. Lines end at "\\r\\n", "\\r" or "\\n", and a quoted
    cell keeps the line breaks it holds as written. The raw cells are not
    kept; ``Dataset.raw`` parses them when read from the file's bytes,
    which the dataset keeps compressed.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        packed = zlib.compress(data, 1)
        text = data.decode("utf-8")  # line ends as written
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    del data  # before the buffer grows
    reader = _reader(text, delimiter)
    rows = _kept_rows(reader)
    buffer = array("d")
    n_rows = 0  # rows read, the header included
    try:
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path} is empty")
        n_rows = 1
        header = [cell.strip() for cell in first]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        p = len(header)
        for row in rows:
            n_rows += 1
            if len(row) != p:
                raise DataError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, expected {p}")
            for cell in row:
                try:
                    buffer.append(float(cell))
                except ValueError:  # the missing markers and any other text
                    buffer.append(math.nan)
    except csv.Error as exc:
        raise DataError(f"{path}: row {reader.line_num}: {exc}") from exc
    if n_rows == 1:
        raise DataError(f"{path} has a header but no data rows")
    values = np.frombuffer(buffer).reshape(n_rows - 1, p)
    values[~np.isfinite(values)] = np.nan
    return Dataset(header, values, (packed, delimiter, tuple(range(p))))


def save_table(dataset: Dataset, path: str | Path, delimiter: str = ",") -> None:
    """Write the numeric view back out (missing cells as ``NA``).

    Each value is written as its ``repr``, one row at a time, so the
    write holds one row of text, not the whole table.
    """
    path = Path(path)
    values = np.asarray(dataset.values, dtype=float)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.names)
        for row, row_missing in zip(values, dataset.missing):
            writer.writerow(["NA" if gone else repr(value)
                             for value, gone in zip(row.tolist(), row_missing.tolist())])


@dataclass
class SampleMoments:
    """Sample covariance S and correlation R over complete rows."""

    S: np.ndarray
    R: np.ndarray
    n: int
    names: list[str]
    zero_variance: list[str] = field(default_factory=list)


def _covariance_matrix(X: np.ndarray, denom: int) -> np.ndarray:
    """Cross-products of the mean-centred rows of X over ``denom``, symmetrized."""
    centered = X - X.mean(axis=0)
    S = centered.T @ centered / denom
    return (S + S.T) / 2.0


def covariance(dataset: Dataset, divisor: str = "n-1") -> SampleMoments:
    """Sample moments from mean-centered complete rows (listwise deletion).

    ``divisor`` is ``"n-1"`` (unbiased, default) or ``"n"``, the form the
    normal-theory derivation uses. Zero-variance columns are flagged and
    excluded from R (their correlations are NaN).
    """
    if divisor not in ("n-1", "n"):
        raise ValueError("divisor must be 'n-1' or 'n'")
    X = dataset.complete_rows()
    n = X.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 complete rows, have {n}")
    S = _covariance_matrix(X, n - 1 if divisor == "n-1" else n)
    sd = np.sqrt(np.diag(S))
    zero = sd == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        R = S / (sd[:, None] * sd)
    R[zero, :] = np.nan
    R[:, zero] = np.nan
    np.fill_diagonal(R, np.where(zero, np.nan, 1.0))
    return SampleMoments(
        S=S, R=R, n=n, names=list(dataset.names),
        zero_variance=[nm for nm, z in zip(dataset.names, zero) if z],
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
        missing = dataset.missing
        cells = [
            "NA" if missing[i, j] else f"{dataset.values[i, j]:g}"
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
