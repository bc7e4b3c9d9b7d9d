"""Goodness-of-fit indices against an independence baseline.

The baseline (null) model frees every variance and fixes every covariance
to zero, so its discrepancy has the closed form sum(log s_ii) - log|S|.
Incremental indices compare the fitted chi-square to that baseline;
absolute indices compare the implied and sample covariances directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NotPositiveDefiniteError

# The fit table's rows in report order: each index's label, and the standard
# its pass flag tests. The model p-value row follows the source convention
# (significant chi-square counted as meeting the standard); see README.
THRESHOLDS = {
    "chisq_df": ("Chi/DF", "<", 5.0),
    "p": ("P", "<", 0.05),
    "gfi": ("GFI", ">", 0.9),
    "agfi": ("AGFI", ">", 0.9),
    "tli": ("TLI", ">", 0.9),
    "nfi": ("NFI", ">", 0.9),
    "cfi": ("CFI", ">", 0.9),
    "pnfi": ("PNFI", ">", 0.5),
    "pcfi": ("PCFI", ">", 0.5),
    "pgfi": ("PGFI", ">", 0.5),
    "rmsea": ("RMSEA", "<", 0.08),
}


def chisq_tail(chisq: float, df: int) -> float:
    """Upper chi-square tail P(X > chisq) on df degrees of freedom.

    1 when df is not positive, and for a negative statistic, as
    ``scipy.stats.chi2.sf`` gives. scipy.special is imported on the first
    call, not with the package: it outweighs the rest of the import.
    """
    if df <= 0:
        return 1.0
    from scipy.special import chdtrc

    return float(chdtrc(df, max(chisq, 0.0)))


def baseline(S: np.ndarray, n: int, multiplier: str = "n-1") -> tuple[float, int]:
    """Chi-square and df of the independence model, in closed form."""
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    diag = np.diag(S)
    if np.any(diag <= 0):
        raise NotPositiveDefiniteError("sample covariance has nonpositive variances")
    f_null = float(np.log(diag).sum() - logdet)
    mult = (n - 1) if multiplier == "n-1" else n
    chisq_null = mult * f_null
    df_null = p * (p - 1) // 2
    return chisq_null, df_null


@dataclass
class FitIndices:
    """All indices, and a pass flag per thresholded one; None marks an
    undefined index."""

    chisq: float
    df: int
    p: float
    chisq_df: float | None
    rmsea: float | None
    gfi: float
    agfi: float | None
    nfi: float | None
    tli: float | None
    cfi: float
    pnfi: float | None
    pcfi: float | None
    pgfi: float
    chisq_null: float
    df_null: int

    def values(self) -> dict[str, float | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def passed(self) -> dict[str, bool | None]:
        """Each index of THRESHOLDS against its bound; None where it is undefined."""
        flags: dict[str, bool | None] = {}
        for key, (_, op, bound) in THRESHOLDS.items():
            value = getattr(self, key)
            if value is None:
                flags[key] = None
            elif op == "<":
                flags[key] = bool(value < bound)
            else:
                flags[key] = bool(value > bound)
        return flags


def indices(
    chisq: float,
    df: int,
    chisq_null: float,
    df_null: int,
    n: int,
    S: np.ndarray,
    sigma_hat: np.ndarray,
) -> FitIndices:
    """Compute the full index suite for p = S's size; guarded divisions become None."""
    S = np.asarray(S, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = S.shape[0]

    chisq_df = chisq / df if df > 0 else None
    rmsea = float(np.sqrt(max(chisq - df, 0.0) / (df * (n - 1)))) if df > 0 else None
    p_value = chisq_tail(chisq, df)

    # absolute fit from Sigma_hat^-1 S
    W = np.linalg.solve(sigma_hat, S)
    resid = W - np.eye(p)
    gfi = float(1.0 - np.trace(resid @ resid) / np.trace(W @ W))
    agfi = (
        float(1.0 - (1.0 - gfi) * (p * (p + 1)) / (2.0 * df)) if df > 0 else None
    )

    if chisq_null > 0:
        nfi = min(max((chisq_null - chisq) / chisq_null, 0.0), 1.0)
    else:
        nfi = None
    if chisq_null <= df_null or df_null <= 0:
        cfi = 1.0
    else:
        cfi = 1.0 - max(chisq - df, 0.0) / max(chisq_null - df_null, 1e-12)
        cfi = min(max(cfi, 0.0), 1.0)
    if df_null > 0 and df > 0 and abs(chisq_null / df_null - 1.0) > 1e-12:
        tli = ((chisq_null / df_null) - (chisq / df)) / ((chisq_null / df_null) - 1.0)
    else:
        tli = None

    pnfi = (df / df_null) * nfi if (nfi is not None and df_null > 0) else None
    pcfi = (df / df_null) * cfi if df_null > 0 else None
    pgfi = (df / (p * (p + 1) / 2.0)) * gfi

    return FitIndices(
        chisq=float(chisq), df=int(df), p=p_value,
        chisq_df=chisq_df, rmsea=rmsea, gfi=gfi, agfi=agfi,
        nfi=nfi, tli=tli, cfi=float(cfi), pnfi=pnfi, pcfi=pcfi,
        pgfi=float(pgfi), chisq_null=float(chisq_null), df_null=int(df_null),
    )


def from_fit(result) -> FitIndices:
    """Index report for a FitResult, with its own independence baseline."""
    chisq_null, df_null = baseline(result.S, result.n, result.options.chisq_multiplier)
    return indices(
        result.chisq, result.df, chisq_null, df_null,
        result.n, result.S, result.implied,
    )
