"""Effect decomposition and mediation inference.

Total effects over an acyclic path model follow from the geometric series
of the endogenous path matrix: (I - B)^-1 Gamma collects every directed
route from an exogenous source to an endogenous target, direct effects
are the single-edge routes, and the total indirect part is their
difference. The specific indirect effect of a source through one mediator
is total(source -> mediator) * total(mediator -> target), the sum over
the routes that pass through that mediator. Interval estimates come from
nonparametric case-resampling bootstrap (percentile intervals) or, for
the indirect term alone, the first-order variance formula for a product
of two estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import Dataset, covariance
from .errors import EstimationError, ModelSpecificationError
from .model import ModelSpec
from .sem import EstimationOptions, FitResult, fit


@dataclass
class EffectMatrices:
    """Total/direct/indirect effects onto each endogenous latent."""

    eta_names: list[str]
    xi_names: list[str]
    total_exo: np.ndarray      # eta x xi: (I-B)^-1 Gamma
    direct_exo: np.ndarray     # eta x xi: Gamma
    total_endo: np.ndarray     # eta x eta: (I-B)^-1 - I
    direct_endo: np.ndarray    # eta x eta: B

    @property
    def indirect_exo(self) -> np.ndarray:
        return self.total_exo - self.direct_exo

    @property
    def indirect_endo(self) -> np.ndarray:
        return self.total_endo - self.direct_endo

    def effect(self, source: str, target: str,
               mediator: str | None = None) -> tuple[float, float, float]:
        """(total, direct, indirect) for one source -> target pair.

        Without a mediator, indirect is the total indirect effect; with
        one, it is the effect through that mediator alone.
        """
        i = self.eta_names.index(target)
        if source in self.xi_names:
            j = self.xi_names.index(source)
            total, direct = self.total_exo[i, j], self.direct_exo[i, j]
        else:
            j = self.eta_names.index(source)
            total, direct = self.total_endo[i, j], self.direct_endo[i, j]
        if mediator is None:
            indirect = total - direct
        else:
            indirect = self.effect(source, mediator)[0] * self.effect(mediator, target)[0]
        return float(total), float(direct), float(indirect)


def decompose(B: np.ndarray, Gamma: np.ndarray,
              eta_names: list[str] | None = None,
              xi_names: list[str] | None = None) -> EffectMatrices:
    """Decompose structural effects given path matrices B and Gamma."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    m_eta = B.shape[0]
    I = np.eye(m_eta)
    try:
        A = np.linalg.inv(I - B)
    except np.linalg.LinAlgError:
        raise ModelSpecificationError("I - B is singular; effects undefined") from None
    if eta_names is None:
        eta_names = [f"eta{i + 1}" for i in range(m_eta)]
    if xi_names is None:
        xi_names = [f"xi{j + 1}" for j in range(Gamma.shape[1])]
    return EffectMatrices(
        eta_names=list(eta_names), xi_names=list(xi_names),
        total_exo=A @ Gamma, direct_exo=Gamma.copy(),
        total_endo=A - I, direct_endo=B.copy(),
    )


def decompose_fit(result: FitResult) -> EffectMatrices:
    """Effect decomposition at a FitResult's estimates."""
    m = result.matrices
    eta, xi = m.spec.endogenous, m.spec.exogenous
    A = m.A.materialize(result.theta)
    endo = slice(m.n_observed, m.n_observed + len(eta))
    exo = slice(endo.stop, None)
    return decompose(A[endo, endo], A[endo, exo], eta, xi)


def delta_variance(gamma: float, b: float, var_gamma: float, var_b: float) -> float:
    """Variance of the product of two independent estimates.

    gamma^2 var_b + b^2 var_gamma + var_gamma var_b; exact for independent
    normal estimators, first-order otherwise.
    """
    if var_gamma < 0 or var_b < 0:
        raise ValueError("variances must be nonnegative")
    return gamma * gamma * var_b + b * b * var_gamma + var_gamma * var_b


@dataclass
class EffectDecomposition:
    """Point estimates and interval bounds for one source -> target pair."""

    source: str
    target: str
    mediator: str | None
    total: float
    direct: float
    indirect: float  # through ``mediator`` when one is named
    total_indirect: float  # total - direct: through every mediator
    total_bounds: tuple[float, float] | None
    direct_bounds: tuple[float, float] | None
    indirect_bounds: tuple[float, float] | None
    level: float
    method: str
    n_replicates: int = 0
    n_dropped: int = 0

    @property
    def additivity_gap(self) -> float:
        return abs(self.total - self.direct - self.total_indirect)

    def mediation_verdict(self) -> str:
        """none / partial / full from the interval sign patterns."""
        if self.indirect_bounds is None or self.direct_bounds is None:
            raise EstimationError("verdict needs direct and indirect intervals")

        def excludes_zero(lo_hi):
            lo, hi = lo_hi
            return lo > 0 or hi < 0

        if not excludes_zero(self.indirect_bounds):
            return "none"
        return "partial" if excludes_zero(self.direct_bounds) else "full"


def _bootstrap_replicate(args):
    """One case-resampling refit; returns per-route effect triples or None."""
    (X, names, spec, routes, opts, standardize_latents, seed) = args
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, X.shape[0], X.shape[0])
    sample = X[idx]
    try:
        moments = covariance(Dataset(list(names), sample, np.zeros_like(sample, dtype=bool), []))
        res = fit(spec, moments, opts, standardize_latents=standardize_latents,
                  compute_se=False)
    except Exception:
        return None
    if not res.converged:
        return None
    eff = decompose_fit(res)
    return [eff.effect(src, dst, med) for src, med, dst in routes]


def bootstrap_ci(
    dataset: Dataset,
    spec: ModelSpec,
    effects: list[tuple[str, str] | tuple[str, str, str]],
    replicates: int = 2000,
    level: float = 0.95,
    seed: int = 0,
    opts: EstimationOptions | None = None,
    standardize_latents: bool = False,
    workers: int = 1,
    max_failure_rate: float = 0.2,
) -> list[EffectDecomposition]:
    """Percentile bootstrap intervals for effect decompositions.

    Case resampling with replacement; each replicate refits the model and
    re-decomposes. Replicate r draws from a generator seeded seed + r, so
    the result is independent of worker count and execution order.
    Replicates that fail to converge are dropped and counted; more than
    ``max_failure_rate`` of them failing is an error.
    """
    if replicates < 100:
        raise ValueError("use at least 100 replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    opts = opts or EstimationOptions()

    routes = []  # (source, mediator or None, target)
    for item in effects:
        if len(item) == 3:
            _validate_mediator(spec, *item)
            routes.append(tuple(item))
        else:
            routes.append((item[0], None, item[1]))

    keep = ~dataset.missing.any(axis=1)
    X = dataset.values[keep]
    names = dataset.names

    # full-sample point estimates
    full = fit(spec, covariance(Dataset(list(names), X, np.zeros_like(X, dtype=bool), [])),
               opts, standardize_latents=standardize_latents, compute_se=False)
    full_eff = decompose_fit(full)

    tasks = [
        (X, names, spec, routes, opts, standardize_latents, seed + r)
        for r in range(replicates)
    ]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_bootstrap_replicate, tasks))
    else:
        raw = [_bootstrap_replicate(task) for task in tasks]

    kept = [r for r in raw if r is not None]
    n_dropped = replicates - len(kept)
    if n_dropped > max_failure_rate * replicates:
        raise EstimationError(
            f"bootstrap failed: {n_dropped}/{replicates} replicates did not "
            f"converge (limit {max_failure_rate:.0%}); the model may be "
            "ill-conditioned for this sample size"
        )

    alpha = (1.0 - level) / 2.0
    out = []
    draws = np.asarray(kept)  # (kept, n_routes, 3)
    for k, (src, med, dst) in enumerate(routes):
        tot, dire, ind = full_eff.effect(src, dst, med)
        bounds = []
        for comp in range(3):
            vals = draws[:, k, comp]
            lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
            bounds.append((float(lo), float(hi)))
        out.append(EffectDecomposition(
            source=src, target=dst, mediator=med,
            total=tot, direct=dire, indirect=ind, total_indirect=tot - dire,
            total_bounds=bounds[0], direct_bounds=bounds[1],
            indirect_bounds=bounds[2],
            level=level, method="percentile-bootstrap",
            n_replicates=len(kept), n_dropped=n_dropped,
        ))
    return out


def delta_ci(
    result: FitResult,
    effects: list[tuple[str, str, str]],
    level: float = 0.95,
) -> list[EffectDecomposition]:
    """Normal-approximation intervals using the product-variance formula.

    The indirect variance is the delta formula on the two chain paths
    source -> mediator -> target; the total variance adds the direct
    variance as if independent (documented approximation).
    """
    eff = decompose_fit(result)
    est = result.estimates
    se = dict(zip(result.labels, result.se))
    z = stats.norm.ppf(0.5 + level / 2.0)
    out = []
    for src, med, dst in effects:
        _validate_mediator(result.matrices.spec, src, med, dst)
        tot, dire, ind = eff.effect(src, dst, med)
        a_lab, b_lab = f"{med}~{src}", f"{dst}~{med}"
        if a_lab not in est or b_lab not in est:
            raise EstimationError(
                f"delta method needs free paths {a_lab} and {b_lab}"
            )
        var_ind = delta_variance(est[a_lab], est[b_lab], se[a_lab] ** 2, se[b_lab] ** 2)
        d_lab = f"{dst}~{src}"
        var_dir = se.get(d_lab, np.nan) ** 2
        sd_ind = np.sqrt(var_ind)
        sd_dir = np.sqrt(var_dir)
        sd_tot = np.sqrt(var_ind + var_dir)
        out.append(EffectDecomposition(
            source=src, target=dst, mediator=med,
            total=tot, direct=dire, indirect=ind, total_indirect=tot - dire,
            total_bounds=(tot - z * sd_tot, tot + z * sd_tot),
            direct_bounds=(dire - z * sd_dir, dire + z * sd_dir),
            indirect_bounds=(ind - z * sd_ind, ind + z * sd_ind),
            level=level, method="delta",
        ))
    return out


def _validate_mediator(spec: ModelSpec | None, src: str, med: str, dst: str) -> None:
    if spec is None:
        return
    names = set(spec.latent_names)
    for name in (src, med, dst):
        if name not in names:
            raise ModelSpecificationError(f"{name!r} is not a latent in the model")
    edges = {(r.predictor, r.dependent) for r in spec.regressions}
    # mediator must sit on some directed route src -> ... -> dst
    def reachable(a, b):
        frontier, seen = [a], set()
        while frontier:
            node = frontier.pop()
            if node == b:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(d for (s, d) in edges if s == node)
        return False

    if not (reachable(src, med) and reachable(med, dst)):
        raise ModelSpecificationError(
            f"{med!r} does not mediate any directed route {src} -> {dst}"
        )


@dataclass
class HypothesisVerdict:
    label: str
    kind: str  # "direct" or "mediation"
    path: str
    estimate: float
    p: float | None
    verdict: str
    detail: str = ""


def classify_hypotheses(
    result: FitResult,
    decompositions: list[EffectDecomposition] | None = None,
    mediation_labels: dict[str, tuple[str, str, str]] | None = None,
    p_threshold: float = 0.05,
) -> list[HypothesisVerdict]:
    """Support verdicts for labeled direct paths and mediation triples.

    A labeled path is supported when its two-sided p-value is below the
    threshold. Mediation verdicts come from the interval sign patterns of
    the matching decomposition: indirect excluding zero with direct
    excluding zero is partial, with direct spanning zero full, and an
    indirect interval spanning zero is no mediation.
    """
    spec = result.matrices.spec if result.matrices else None
    if spec is None:
        raise EstimationError("result carries no model specification")
    verdicts = []
    table = {row["label"]: row for row in result.parameter_table()}
    for label, (dep, pred) in sorted(spec.labels.items()):
        row = table.get(f"{dep}~{pred}")
        if row is None:
            raise ModelSpecificationError(
                f"labeled path {dep} ~ {pred} carries no free parameter"
            )
        p = row["p"]
        supported = bool(p < p_threshold)
        verdicts.append(HypothesisVerdict(
            label=label, kind="direct", path=f"{dep} <- {pred}",
            estimate=row["estimate"], p=p,
            verdict="supported" if supported else "not supported",
            detail=f"p={p:.3g} {'<' if supported else '>='} {p_threshold:g}",
        ))
    if decompositions and mediation_labels:
        by_pair = {(d.source, d.mediator, d.target): d for d in decompositions}
        for label, (src, med, dst) in sorted(mediation_labels.items()):
            dec = by_pair.get((src, med, dst))
            if dec is None:
                raise ModelSpecificationError(
                    f"no decomposition supplied for {label}: {src}->{med}->{dst}"
                )
            verdict = dec.mediation_verdict()
            verdicts.append(HypothesisVerdict(
                label=label, kind="mediation",
                path=f"{src} -> {med} -> {dst}",
                estimate=dec.indirect, p=None,
                verdict={"none": "no mediation", "partial": "partial mediation",
                         "full": "full mediation"}[verdict],
                detail=(
                    f"indirect CI {dec.indirect_bounds}, direct CI {dec.direct_bounds}"
                ),
            ))
    return verdicts
