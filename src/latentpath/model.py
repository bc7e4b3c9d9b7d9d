"""Model-specification language: parsing, compilation to RAM form, df accounting.

The language is line-oriented. ``#`` starts a comment, blank lines are
ignored, and each remaining line is one statement::

    ConsEth =~ CE1 + CE3 + CE4     # latent and its indicators
    PB ~ H1*ConsEth + PerVa        # regression among latents
    ConsEth ~~ 0.3*EnvSt           # (co)variance, optionally fixed

A ``value*`` prefix fixes the loading/path/covariance to ``value``; a
non-numeric prefix on a regression term is a hypothesis label. Statement
order never matters: parsing canonicalizes latents by name, regressions by
(dependent, predictor), covariances by sorted pair.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelSpecificationError, ModelSyntaxError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


@dataclass(frozen=True)
class Latent:
    """A latent variable and its indicator list (first listed = marker)."""

    name: str
    indicators: tuple[str, ...]


@dataclass(frozen=True)
class Regression:
    """One directed path ``dependent <- predictor`` among latents."""

    dependent: str
    predictor: str
    fixed: float | None = None
    label: str | None = None


@dataclass(frozen=True)
class Covariance:
    """A (co)variance statement between two names (a == b fixes a variance)."""

    a: str
    b: str
    fixed: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model: measurement, regression, and covariance statements.

    Canonical by construction: permuting statements in the source text
    yields an equal ModelSpec.
    """

    latents: tuple[Latent, ...]
    regressions: tuple[Regression, ...]
    covariances: tuple[Covariance, ...]
    fixed_loadings: tuple[tuple[str, float], ...] = ()

    @property
    def latent_names(self) -> list[str]:
        return [lat.name for lat in self.latents]

    @property
    def indicator_names(self) -> list[str]:
        return [ind for lat in self.latents for ind in lat.indicators]

    @property
    def endogenous(self) -> list[str]:
        """Latents that appear as a dependent in some regression, sorted."""
        deps = {r.dependent for r in self.regressions}
        return [name for name in self.latent_names if name in deps]

    @property
    def exogenous(self) -> list[str]:
        deps = {r.dependent for r in self.regressions}
        return [name for name in self.latent_names if name not in deps]

    @property
    def labels(self) -> dict[str, tuple[str, str]]:
        """Hypothesis label -> (dependent, predictor)."""
        return {r.label: (r.dependent, r.predictor) for r in self.regressions if r.label}

    def without_regressions(self) -> "ModelSpec":
        """Measurement-only variant: all latents exogenous, freely covarying."""
        return ModelSpec(
            latents=self.latents,
            regressions=(),
            covariances=self.covariances,
            fixed_loadings=self.fixed_loadings,
        )


@dataclass(frozen=True)
class _Term:
    name: str
    fixed: float | None
    label: str | None
    column: int


def _split_terms(rhs: str, line_no: int, offset: int) -> list[_Term]:
    terms = []
    pos = 0
    for chunk in rhs.split("+"):
        column = offset + pos + (len(chunk) - len(chunk.lstrip())) + 1
        pos += len(chunk) + 1
        text = chunk.strip()
        if not text:
            raise ModelSyntaxError("empty term", line_no, column)
        fixed = label = None
        if "*" in text:
            prefix, _, name = text.partition("*")
            prefix, name = prefix.strip(), name.strip()
            try:
                fixed = float(prefix)
            except ValueError:
                label = prefix
        else:
            name = text
        if not _NAME_RE.match(name):
            raise ModelSyntaxError(f"invalid name {name!r}", line_no, column)
        if label is not None and not _NAME_RE.match(label):
            raise ModelSyntaxError(f"invalid label {label!r}", line_no, column)
        terms.append(_Term(name, fixed, label, column))
    return terms


def parse_model(text: str) -> ModelSpec:
    """Parse model-language source into a canonical :class:`ModelSpec`.

    Raises
    ------
    ModelSyntaxError
        Malformed statement, with line and column.
    ModelSpecificationError
        Duplicate indicator or latent, undeclared latent, cyclic
        regression graph, name used as both latent and indicator.
    """
    latents: dict[str, tuple[str, ...]] = {}
    regressions: list[Regression] = []
    covariances: list[Covariance] = []
    fixed_loadings: dict[str, float] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        # operator detection: =~ before ~~ before ~
        for op in ("=~", "~~", "~"):
            idx = line.find(op)
            if idx != -1:
                break
        else:
            raise ModelSyntaxError("no operator (=~, ~~, ~) found", line_no, 1)
        lhs = line[:idx].strip()
        rhs = line[idx + len(op):]
        if not _NAME_RE.match(lhs):
            raise ModelSyntaxError(f"invalid left-hand side {lhs!r}", line_no, 1)
        if not rhs.strip():
            raise ModelSyntaxError("empty right-hand side", line_no, idx + len(op) + 1)
        terms = _split_terms(rhs, line_no, idx + len(op))

        if op == "=~":
            if lhs in latents:
                raise ModelSpecificationError(
                    f"latent {lhs!r} declared more than once (line {line_no}); "
                    "merging would make the marker depend on statement order"
                )
            names = []
            for term in terms:
                if term.label is not None:
                    raise ModelSyntaxError(
                        "labels are only supported on regression terms", line_no, term.column
                    )
                if term.fixed is not None:
                    fixed_loadings[term.name] = term.fixed
                names.append(term.name)
            latents[lhs] = tuple(names)
        elif op == "~~":
            if len(terms) != 1:
                raise ModelSyntaxError("covariance takes exactly one right-hand term", line_no, 1)
            term = terms[0]
            if term.label is not None:
                raise ModelSyntaxError(
                    "labels are only supported on regression terms", line_no, term.column
                )
            a, b = sorted((lhs, term.name))
            covariances.append(Covariance(a, b, term.fixed))
        else:
            for term in terms:
                regressions.append(Regression(lhs, term.name, term.fixed, term.label))

    if not latents:
        raise ModelSpecificationError("model declares no latent variables")

    indicator_owner: dict[str, str] = {}
    for name, inds in latents.items():
        for ind in inds:
            if ind in indicator_owner:
                raise ModelSpecificationError(
                    f"indicator {ind!r} appears under both "
                    f"{indicator_owner[ind]!r} and {name!r}"
                )
            indicator_owner[ind] = name
    overlap = set(latents) & set(indicator_owner)
    if overlap:
        raise ModelSpecificationError(
            f"name(s) used as both latent and indicator: {sorted(overlap)}"
        )

    seen_pairs = set()
    for reg in regressions:
        for name in (reg.dependent, reg.predictor):
            if name not in latents:
                raise ModelSpecificationError(f"regression names undeclared latent {name!r}")
        pair = (reg.dependent, reg.predictor)
        if pair in seen_pairs:
            raise ModelSpecificationError(f"duplicate path {reg.dependent} ~ {reg.predictor}")
        seen_pairs.add(pair)

    seen_covs = set()
    for cov in covariances:
        for name in (cov.a, cov.b):
            if name not in latents and name not in indicator_owner:
                raise ModelSpecificationError(f"covariance names undeclared variable {name!r}")
        if (cov.a, cov.b) in seen_covs:
            raise ModelSpecificationError(f"duplicate covariance {cov.a} ~~ {cov.b}")
        seen_covs.add((cov.a, cov.b))

    _check_acyclic(regressions)

    spec = ModelSpec(
        latents=tuple(Latent(name, latents[name]) for name in sorted(latents)),
        regressions=tuple(sorted(regressions, key=lambda r: (r.dependent, r.predictor))),
        covariances=tuple(sorted(covariances, key=lambda c: (c.a, c.b))),
        fixed_loadings=tuple(sorted(fixed_loadings.items())),
    )
    return spec


def _check_acyclic(regressions: list[Regression]) -> None:
    """Reject directed cycles among latents so I - A is always invertible."""
    graph: dict[str, set[str]] = {}
    for reg in regressions:
        graph.setdefault(reg.predictor, set()).add(reg.dependent)
        graph.setdefault(reg.dependent, set())
    state: dict[str, int] = {}  # 0 visiting, 1 done
    # depth-first, with an explicit stack so that a long chain of latents
    # cannot exhaust the interpreter's recursion limit: the path from the
    # root, and the successors of each node on it that are still to visit
    for root in graph:
        if root in state:
            continue
        state[root] = 0
        path, todo = [root], [iter(graph[root])]
        while todo:
            for nxt in todo[-1]:
                if state.get(nxt) == 0:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise ModelSpecificationError(
                        "regression graph contains a cycle: " + " -> ".join(cycle)
                    )
                if nxt not in state:
                    state[nxt] = 0
                    path.append(nxt)
                    todo.append(iter(graph[nxt]))
                    break
            else:
                state[path.pop()] = 1
                todo.pop()


# ---------------------------------------------------------------------------
# Compilation to RAM form

#: parameter kinds of the variances; the other kinds are "loading", "path",
#: "latent_covariance" and "error_covariance"
VARIANCE_KINDS = frozenset({"latent_variance", "disturbance_variance", "error_variance"})


@dataclass(frozen=True)
class Parameter:
    """One free parameter: its public label, its kind, the two variables it joins.

    ``lhs, rhs`` are (latent, indicator) for a loading, (dependent,
    predictor) for a path, and the sorted pair for a (co)variance.
    """

    label: str
    kind: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class MatrixTemplate:
    """A square matrix of fixed values, some of whose cells are free parameters.

    ``rows[c], cols[c]`` is the cell of the parameter at position
    ``slots[c]`` in theta, listed in theta order; every other cell is the
    fixed constant in ``values``. A ``symmetric`` template (that of S)
    lists a covariance once, at row >= col, and places it at both cells.
    """

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    slots: np.ndarray
    symmetric: bool

    def materialize(self, theta: np.ndarray) -> np.ndarray:
        """The matrix at theta (t,), or one matrix per row of a stack (B, t)."""
        out = np.empty(theta.shape[:-1] + self.values.shape)
        out[...] = self.values
        out[..., self.rows, self.cols] = theta[..., self.slots]
        if self.symmetric:
            out[..., self.cols, self.rows] = theta[..., self.slots]
        return out


@dataclass
class ParamMatrices:
    """A model compiled to RAM form (McArdle & McDonald, 1984).

    The variables are the p observed ones in ``variable_order``, then the
    latents, endogenous before exogenous. ``A`` holds the directed
    effects, loadings at ``[indicator, latent]`` and paths at
    ``[dependent, predictor]``; the symmetric ``S`` holds every variance
    and covariance. With E = (I - A)^-1, the covariance of all variables is
    E S E' and that of the observed ones is its top-left p x p block. Each
    free parameter owns one cell, and theta lists A's before S's.
    """

    A: MatrixTemplate
    S: MatrixTemplate
    parameters: list[Parameter]  # in theta order
    variable_order: list[str]
    spec: ModelSpec

    @property
    def latent_names(self) -> list[str]:
        return self.spec.endogenous + self.spec.exogenous

    @property
    def variables(self) -> list[str]:
        """Row and column names of A and S."""
        return self.variable_order + self.latent_names

    @property
    def n_free(self) -> int:
        return len(self.parameters)

    @property
    def n_observed(self) -> int:
        return len(self.variable_order)

    @property
    def labels(self) -> list[str]:
        return [par.label for par in self.parameters]


def build_matrices(
    spec: ModelSpec,
    variable_order: list[str],
    standardize_latents: bool = False,
) -> ParamMatrices:
    """Compile a ModelSpec to RAM form over ``variable_order``.

    Default identification fixes each latent's marker loading (first listed
    indicator) to 1. With ``standardize_latents`` the markers are freed and
    every latent variance scale (exogenous variance and structural
    disturbance variance alike) is fixed to 1 instead. Exogenous latents
    covary freely by default; every other covariance comes from a ``~~``
    statement, which may join any two variables.

    Free-parameter order: endogenous loadings, exogenous loadings, paths,
    exogenous (co)variances, disturbance variances, error variances
    (indicators of endogenous latents first), then the remaining ``~~``
    statements by sorted pair.
    """
    indicators = spec.indicator_names
    if sorted(variable_order) != sorted(indicators):
        raise ModelSpecificationError(
            "variable_order must cover exactly the model's indicators; "
            f"expected {sorted(indicators)}, got {sorted(variable_order)}"
        )

    eta, xi = spec.endogenous, spec.exogenous
    variables = list(variable_order) + eta + xi
    pos = {name: i for i, name in enumerate(variables)}
    size = len(variables)
    A_values, S_values = np.zeros((size, size)), np.zeros((size, size))
    A_cells: list[tuple[int, int]] = []  # free cells, in theta order
    S_cells: list[tuple[int, int]] = []  # at row >= col
    parameters: list[Parameter] = []

    def arrow(to: str, frm: str, fixed: float | None, param: Parameter) -> None:
        if fixed is not None:
            A_values[pos[to], pos[frm]] = fixed
        else:
            A_cells.append((pos[to], pos[frm]))
            parameters.append(param)

    def two_headed(a: str, b: str, fixed: float | None, kind: str) -> None:
        i, j = pos[a], pos[b]
        if fixed is not None:
            S_values[i, j] = S_values[j, i] = fixed
        else:
            S_cells.append((max(i, j), min(i, j)))
            parameters.append(Parameter(f"{a}~~{b}", kind, a, b))

    fixed_loadings = dict(spec.fixed_loadings)
    for group in (set(eta), set(xi)):
        for lat in spec.latents:
            if lat.name not in group:
                continue
            for k, ind in enumerate(lat.indicators):
                fixed = fixed_loadings.get(ind)
                if fixed is None and k == 0 and not standardize_latents:
                    fixed = 1.0  # marker
                arrow(ind, lat.name, fixed,
                      Parameter(f"{lat.name}=~{ind}", "loading", lat.name, ind))

    for reg in spec.regressions:
        arrow(reg.dependent, reg.predictor, reg.fixed,
              Parameter(f"{reg.dependent}~{reg.predictor}", "path",
                        reg.dependent, reg.predictor))

    # a statement overrides a default; what is left after the defaults is
    # placed last
    statements = {(cov.a, cov.b): cov.fixed for cov in spec.covariances}
    latent_scale = 1.0 if standardize_latents else None
    for name in xi:
        two_headed(name, name, statements.pop((name, name), latent_scale), "latent_variance")
    for pair in itertools.combinations(xi, 2):
        a, b = sorted(pair)
        two_headed(a, b, statements.pop((a, b), None), "latent_covariance")
    for name in eta:
        two_headed(name, name, statements.pop((name, name), latent_scale),
                   "disturbance_variance")
    endogenous_indicators = {ind for lat in spec.latents if lat.name in eta
                             for ind in lat.indicators}
    for v in sorted(variable_order, key=lambda v: v not in endogenous_indicators):
        two_headed(v, v, statements.pop((v, v), None), "error_variance")
    latents = set(eta) | set(xi)
    for (a, b), fixed in sorted(statements.items()):
        kind = "latent_covariance" if a in latents and b in latents else "error_covariance"
        two_headed(a, b, fixed, kind)

    return ParamMatrices(
        A=_template(A_values, A_cells, 0, symmetric=False),
        S=_template(S_values, S_cells, len(A_cells), symmetric=True),
        parameters=parameters,
        variable_order=list(variable_order),
        spec=spec,
    )


def _template(values: np.ndarray, cells: list[tuple[int, int]], first: int,
              symmetric: bool) -> MatrixTemplate:
    """The template of free ``cells`` whose parameters sit in theta from ``first`` on."""
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return MatrixTemplate(values, rows, cols, np.arange(first, first + len(cells)), symmetric)


class DegreesOfFreedom(NamedTuple):
    """df accounting: value = n_moments - n_free, flagged when negative."""

    value: int
    n_moments: int
    n_free: int
    under_identified: bool


def count_df(matrices: ParamMatrices) -> DegreesOfFreedom:
    """Degrees of freedom p(p+1)/2 - t for p observed variables, t free params."""
    p = matrices.n_observed
    n_moments = p * (p + 1) // 2
    t = matrices.n_free
    df = n_moments - t
    return DegreesOfFreedom(df, n_moments, t, under_identified=df < 0)
