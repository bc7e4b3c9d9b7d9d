"""Tabular ingestion and sample moments.

Input files are delimiter-separated UTF-8 text with a mandatory header
row; rows whose cells are all blank are skipped. Empty cells and ``NA``
are missing, and so is any other cell that does not parse as a finite
number (``nan`` and ``inf`` included). Loading reads the open file row by
row and keeps only the numbers; neither the file's bytes nor its cells
are held. Files are written comma-separated.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass
class Dataset:
    """Rectangular numeric observations with their column names.

    A cell is missing where, and only where, ``values`` is not finite
    (NaN or an infinity), the rule ``load_table`` applies to a file;
    ``missing`` is that mask, computed on each read.
    """

    names: list[str]
    values: np.ndarray

    @property
    def missing(self) -> np.ndarray:
        return ~np.isfinite(self.values)

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
        # take() copies in C order, where [:, idx] gives F order, so that
        # complete_rows can return a view of the copy
        return Dataset(list(names), self.values.take(idx, axis=1))


@contextmanager
def _reading(path: Path):
    """Raise DataError, naming path, for an OSError or a UnicodeDecodeError
    met while reading it as UTF-8 text."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # exc places the byte within the block the reader decoded; a decode
        # of the whole file places it within the file
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        except OSError:
            pass
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file; DataError when it cannot be read or
    is not UTF-8."""
    path = Path(path)
    with _reading(path):
        return path.read_text(encoding="utf-8")


def load_table(path: str | Path, delimiter: str = ",") -> Dataset:
    """Read a delimited UTF-8 text file into a Dataset.

    The csv reader reads the open file row by row. The first non-blank
    row is the header. One pass converts each cell with ``float`` into a
    single buffer; non-finite results and cells that do not parse are
    missing. Only the numbers are kept: not the file's bytes, its text or
    its cells. Text that is not UTF-8, duplicate column names, rows whose
    arity differs from the header, a cell over the csv module's field
    size limit, an empty and a header-only file all raise ``DataError``;
    the row number in a message is the line of the file on which that row
    ends. The text is decoded as it is read, so of a ragged row and a
    byte that is not UTF-8, the error reported is the one the reader meets
    first. Lines end at "\\r\\n", "\\r" or "\\n" (the file is opened with
    ``newline=""``), and a quoted cell keeps the line breaks it holds as
    written. A delimiter that is not one character raises ``DataError``.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"the delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    buffer = array("d")
    n_rows = 0  # rows read, the header included
    try:
        with _reading(path), open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = (row for row in reader if len(row) > 1 or any(cell.strip() for cell in row))
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
    return Dataset(header, values)


def save_table(dataset: Dataset, path: str | Path) -> None:
    """Write the numeric view out as comma-separated UTF-8 text.

    The header goes through ``csv.writer``, which quotes a name that needs
    it. Each data row is one ``join`` of its values' ``repr``, a missing
    cell written as ``NA``, ended by "\\r\\n": the bytes ``csv.writer``
    writes, as neither holds a comma, a quote or a line break. Rows are
    written one at a time, so the write holds one row of text, not the
    whole table.
    """
    path = Path(path)
    values = np.asarray(dataset.values, dtype=float)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(dataset.names)
        for row in values:
            # a float's repr holds "nan" only when the float is NaN
            fh.write(",".join(map(repr, row.tolist())).replace("nan", "NA") + "\r\n")


@dataclass
class SampleMoments:
    """Sample covariance S over n complete rows; R is derived from S on each read."""

    S: np.ndarray
    n: int
    names: list[str]

    @property
    def R(self) -> np.ndarray:
        sd = np.sqrt(np.diag(self.S))
        R = self.S / (sd[:, None] * sd)
        np.fill_diagonal(R, 1.0)
        return R


def _covariance_matrix(X: np.ndarray, denom: int) -> np.ndarray:
    """Cross-products of the mean-centred rows of X over ``denom``, symmetrized."""
    centered = X - X.mean(axis=0)
    S = centered.T @ centered / denom
    return (S + S.T) / 2.0


def covariance(dataset: Dataset, divisor: str = "n-1") -> SampleMoments:
    """Sample moments from mean-centered complete rows (listwise deletion).

    ``divisor`` is ``"n-1"`` (unbiased, default) or ``"n"``, the form the
    normal-theory derivation uses. ``DataError`` names another divisor, each
    column whose variance overflows or that has none (no fit reproduces
    one), or, under 2 complete rows, each column without a number.
    """
    if divisor not in ("n-1", "n"):
        raise DataError("divisor must be 'n-1' or 'n'")
    X = dataset.complete_rows()
    n = X.shape[0]
    if n < 2:
        empty = [nm for nm, gone in zip(dataset.names, dataset.missing.all(axis=0)) if gone]
        raise DataError(f"need at least 2 complete rows, have {n}"
                        + (f"; no number in column(s): {', '.join(empty)}" if empty else ""))
    with np.errstate(over="ignore", invalid="ignore"):
        S = _covariance_matrix(X, n - 1 if divisor == "n-1" else n)
    overflow = [nm for nm, v in zip(dataset.names, np.diag(S)) if not np.isfinite(v)]
    if overflow:
        raise DataError(f"variance overflows in column(s): {', '.join(overflow)}; rescale them")
    # a constant's mean can round: 519 rows of 0.1 have a variance of 8e-31
    flat = (np.ptp(X, axis=0) == 0) | (np.diag(S) == 0)
    constant = [nm for nm, f in zip(dataset.names, flat) if f]
    if constant:
        raise DataError(f"no variance in column(s): {', '.join(constant)}")
    return SampleMoments(S=S, n=n, names=list(dataset.names))
