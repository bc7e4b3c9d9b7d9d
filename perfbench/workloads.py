"""The benchmark's three workloads: generated inputs, one job, output checks.

Every workload follows the same set-up a user would: simulate a dataset
from a known model, write it and the model as files, then parse both
back. ``--seed`` is the simulation seed, so the same seed gives the same
inputs; the program's own bootstrap seeds stay fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latentpath as lp
from latentpath import cli

ASSETS = Path(lp.__file__).parent / "assets"

WIDE_LATENTS = "ABCDEFGH"
WIDE_MODEL = "\n".join(
    [f"{f} =~ " + " + ".join(f"{f.lower()}{i}" for i in range(1, 7)) for f in WIDE_LATENTS]
    + ["D ~ A + B + C", "E ~ A + B + C", "F ~ D + E + A",
       "G ~ D + E + B", "H ~ F + G + C"]
) + "\n"

MEDIATION_MODEL = """\
X =~ x1 + x2 + x3
M =~ m1 + m2 + m3
Y =~ y1 + y2 + y3
M ~ X
Y ~ M + X
"""

GEN_DEFAULTS = dict(loading=0.75, latent_variance=1.0, latent_covariance=0.25,
                    disturbance_variance=0.5, error_variance=0.4375)

REPORT_SECTIONS = {
    "dataset", "reliability", "sampling_adequacy", "efa",
    "convergent_validity", "discriminant_validity", "cfa_fit_indices",
    "fit", "regression_weights", "sem_fit_indices", "mediation", "hypotheses",
}

BOOT_REPLICATES = 100
POOL_WORKERS = 2
MEDIATION_EFFECT = ("X", "M", "Y")
MEDIATION_SEED = 17
GRAD_TOL = 1e-5
FMIN_TOL = 1e-10
BOUNDS = ("total_bounds", "direct_bounds", "indirect_bounds")


def _wuliangye() -> tuple[str, dict]:
    config = json.loads((ASSETS / "wuliangye_sim.json").read_text(encoding="utf-8"))
    return (ASSETS / "wuliangye.model").read_text(encoding="utf-8"), config


def _wide() -> tuple[str, dict]:
    spec = lp.parse_model(WIDE_MODEL)
    paths = {f"{r.dependent}~{r.predictor}": 0.3 for r in spec.regressions}
    return WIDE_MODEL, {"standardize_latents": True, "values": paths,
                        "defaults": GEN_DEFAULTS}


def _mediation() -> tuple[str, dict]:
    # the planted zero indirect effect of the bootstrap coverage test
    return MEDIATION_MODEL, {
        "standardize_latents": True,
        "values": {"M~X": 0.5, "Y~M": 0.0, "Y~X": 0.4},
        "defaults": dict(GEN_DEFAULTS, disturbance_variance=0.6),
    }


# workload -> (generator model and parameters, rows simulated)
GENERATORS = {
    "survey_report": (_wuliangye, 519),
    "fit_se_wide": (_wide, 2000),
    "mediate_pool": (_mediation, 500),
}


@dataclass
class Inputs:
    workload: str
    seed: int
    model_path: Path
    data_path: Path
    spec: lp.ModelSpec
    dataset: lp.Dataset
    moments: lp.SampleMoments


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate, write and parse one workload's inputs."""
    make, n = GENERATORS[workload]
    text, config = make()
    gen_spec = lp.parse_model(text)
    m = lp.build_matrices(gen_spec, gen_spec.indicator_names,
                          standardize_latents=config["standardize_latents"])
    theta = lp.theta_from_config(m, config["values"], config["defaults"])
    data = lp.simulate(m, theta, n, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    model_path = workdir / f"{workload}.model"
    data_path = workdir / f"{workload}-{seed}.csv"
    model_path.write_text(text, encoding="utf-8")
    lp.save_table(data, data_path)
    spec = lp.parse_model(model_path.read_text(encoding="utf-8"))
    dataset = lp.load_table(data_path)
    return Inputs(workload, seed, model_path, data_path, spec, dataset,
                  lp.covariance(dataset))


@dataclass
class Outcome:
    """Counts from one job, taken outside the timed region."""

    fits: int = 0
    nonconverged: int = 0
    replicates: int = 0
    dropped: int = 0
    exits: int = 0
    nonzero_exit: int = 0


@dataclass
class Checks:
    """Named pass/fail results; a failure keeps its detail."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


# --- jobs ------------------------------------------------------------------


class SurveyReport:
    """``latentpath report`` through ``cli.dispatch``, JSON to a file."""

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.out = workdir / f"report-{inputs.seed}.json"
        self.argv = ["report", "--model", str(inputs.model_path),
                     "--data", str(inputs.data_path), "--boot", str(BOOT_REPLICATES),
                     "--seed", "1", "--workers", "1", "--format", "json",
                     "--output", str(self.out)]
        self.first = None  # canonical text of the first complete report's sections

    def warm(self) -> None:
        cli.dispatch(["fit", "--model", str(self.inputs.model_path),
                      "--data", str(self.inputs.data_path), "--format", "json",
                      "--output", str(self.out)])
        self.out.unlink(missing_ok=True)

    def run(self):
        return cli.dispatch(self.argv)

    def se_inputs(self):
        """The two fits with SEs that a report runs: CFA and structural."""
        spec = self.inputs.spec
        return [(spec.without_regressions(), self.inputs.moments), (spec, self.inputs.moments)]

    def collect(self, k: int, rc, checks: Checks) -> Outcome:
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        self.out.unlink(missing_ok=True)
        outcome = Outcome(fits=1, replicates=BOOT_REPLICATES, exits=1,
                          nonzero_exit=int(rc != 0))
        checks.add(f"report[{k}].exit_status", rc == 0, f"dispatch returned {rc}")
        try:
            sections = json.loads(text)["sections"]
        except (ValueError, KeyError):
            checks.add(f"report[{k}].json", False, "report missing, empty or not JSON")
            return outcome
        names = set(sections)
        checks.add(f"report[{k}].sections", names == REPORT_SECTIONS,
                   f"sections {sorted(names ^ REPORT_SECTIONS)} differ")
        if names != REPORT_SECTIONS:
            return outcome
        outcome.nonconverged = int(not sections["fit"]["converged"])
        effects = sections["mediation"]["effects"]
        outcome.dropped = int(effects[0]["n_dropped"]) if effects else 0
        canonical = json.dumps(sections, sort_keys=True)
        if self.first is None:
            self.first = canonical
            _check_report_fit(self.inputs, sections, checks)
            _check_report_mediation(self.inputs.spec, sections, checks)
        else:
            checks.add(f"report[{k}].repeatable", canonical == self.first,
                       "a repeated report on the same files differs")
        return outcome

    def finish(self, checks: Checks) -> None:
        pass


def _ordered_theta(m, estimates: dict) -> np.ndarray:
    return np.array([estimates[label] for label in m.labels], dtype=float)


def central_gradient(m, theta: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Central differences of f_ml(implied_covariance(theta), S)."""
    g = np.empty(theta.size)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        g[j] = (lp.f_ml(lp.implied_covariance(m, up), S)
                - lp.f_ml(lp.implied_covariance(m, down), S)) / (2.0 * h)
    return g


def check_optimum(tag: str, m, theta, S, f_min, converged, implied, checks: Checks) -> None:
    """Converged, F_min re-evaluates, and the numerical gradient vanishes."""
    checks.add(f"{tag}.converged", converged, "fit did not converge")
    f_again = lp.f_ml(implied, S)
    checks.add(f"{tag}.f_min", abs(f_again - f_min) <= FMIN_TOL,
               f"f_min {f_min!r} vs f_ml(implied, S) {f_again!r}")
    gap = float(np.max(np.abs(implied - lp.implied_covariance(m, theta))))
    checks.add(f"{tag}.implied", gap <= 1e-10,
               f"implied covariance differs from implied_covariance(theta) by {gap:.3g}")
    grad = float(np.max(np.abs(central_gradient(m, theta, S))))
    checks.add(f"{tag}.gradient", grad <= GRAD_TOL,
               f"central-difference gradient {grad:.3g} > {GRAD_TOL:g}")


def _check_report_fit(inputs: Inputs, sections: dict, checks: Checks) -> None:
    fit = sections["fit"]
    names = fit["variables"]
    idx = [inputs.moments.names.index(v) for v in names]
    S = inputs.moments.S[np.ix_(idx, idx)]
    m = lp.build_matrices(inputs.spec, names)
    check_optimum("report.fit", m, _ordered_theta(m, fit["estimates"]), S, fit["f_min"],
                  fit["converged"], np.asarray(fit["implied_covariance"], dtype=float),
                  checks)


def single_mediator_triples(spec, triples):
    """Triples whose only intermediate latent on any src -> dst route is med."""
    edges = {}
    for r in spec.regressions:
        edges.setdefault(r.predictor, set()).add(r.dependent)

    def between(src, dst):
        found, stack = set(), [(src, ())]
        while stack:
            node, trail = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt == dst:
                    found.update(trail)
                else:
                    stack.append((nxt, trail + (nxt,)))
        return found

    return [t for t in triples if between(t[0], t[2]) == {t[1]}]


def check_mediation(tag: str, effects: list[dict], estimates: dict, spec,
                    checks: Checks) -> None:
    """Additivity and indirect = a*b for single-mediator triples."""
    triples = [(e["source"], e["mediator"], e["target"]) for e in effects]
    simple = set(single_mediator_triples(spec, triples))
    for e in effects:
        src, med, dst = e["source"], e["mediator"], e["target"]
        if (src, med, dst) not in simple:
            continue
        name = f"{tag}.{src}:{med}:{dst}"
        gap = abs(e["total"] - e["direct"] - e["indirect"])
        checks.add(f"{name}.additive", gap <= 1e-10, f"total - direct - indirect = {gap:.3g}")
        ab = estimates[f"{med}~{src}"] * estimates[f"{dst}~{med}"]
        checks.add(f"{name}.indirect", abs(e["indirect"] - ab) <= 1e-10 * max(1.0, abs(ab)),
                   f"indirect {e['indirect']!r} vs a*b {ab!r}")
        for key in BOUNDS:
            lo, hi = e[key]
            checks.add(f"{name}.{key}", np.isfinite([lo, hi]).all() and lo <= hi,
                       f"bounds {lo!r}, {hi!r}")


def _check_report_mediation(spec, sections: dict, checks: Checks) -> None:
    effects = sections["mediation"]["effects"]
    checks.add("report.mediation.present", len(effects) > 0, "no mediation effects")
    check_mediation("report.mediation", effects, sections["fit"]["estimates"], spec, checks)


class FitSE:
    """``lp.fit(spec, moments)`` with standard errors, same input each time."""

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.first = None  # the first result; later ones must match it

    def warm(self) -> None:
        lp.fit(self.inputs.spec, self.inputs.moments, compute_se=False)

    def run(self):
        return lp.fit(self.inputs.spec, self.inputs.moments)

    def se_inputs(self):
        return [(self.inputs.spec, self.inputs.moments)]

    def collect(self, k: int, res, checks: Checks) -> Outcome:
        tag = f"fit[{k}]"
        if self.first is not None and np.array_equal(res.theta, self.first.theta):
            # same input, same optimum: the gradient check carries over
            checks.add(f"{tag}.converged", res.converged, "fit did not converge")
            checks.add(f"{tag}.f_min", abs(lp.f_ml(res.implied, res.S) - res.f_min)
                       <= FMIN_TOL, "f_min differs from f_ml(result.implied, result.S)")
        else:
            check_optimum(tag, res.matrices, res.theta, res.S, res.f_min,
                          res.converged, res.implied, checks)
            checks.add(f"{tag}.se", bool(np.all(np.isfinite(res.se)) and np.all(res.se > 0)),
                       "standard errors not finite and positive")
            if self.first is None:
                self.first = res
            else:
                checks.add(f"{tag}.repeatable", False,
                           "a repeated fit on the same moments found another optimum")
        return Outcome(fits=1, nonconverged=int(not res.converged))

    def finish(self, checks: Checks) -> None:
        pass


class MediatePool:
    """``lp.bootstrap_ci`` over the worker pool, same input each time."""

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.first = None  # the first decomposition; later ones must match it

    def _boot(self, workers: int):
        return lp.bootstrap_ci(self.inputs.dataset, self.inputs.spec, [MEDIATION_EFFECT],
                               replicates=BOOT_REPLICATES, seed=MEDIATION_SEED,
                               workers=workers)

    def warm(self) -> None:
        lp.fit(self.inputs.spec, self.inputs.moments, compute_se=False)

    def run(self):
        return self._boot(POOL_WORKERS)

    def se_inputs(self):
        return []  # no fit with SEs in this workload

    def collect(self, k: int, decs, checks: Checks) -> Outcome:
        dec = decs[0]
        if self.first is None:
            self.first = dec
        else:
            checks.add(f"boot[{k}].repeatable",
                       all(getattr(dec, b) == getattr(self.first, b) for b in BOUNDS),
                       "a repeated bootstrap with the same seed differs")
        return Outcome(replicates=BOOT_REPLICATES, dropped=dec.n_dropped)

    def finish(self, checks: Checks) -> None:
        pooled = self.first
        if pooled is None:
            return
        serial = self._boot(1)[0]
        checks.add("boot.workers_invariant",
                   all(getattr(serial, b) == getattr(pooled, b) for b in BOUNDS),
                   "same seed gives different bounds at workers=1 and workers=2")
        full = lp.fit(self.inputs.spec, self.inputs.moments, compute_se=False)
        check_optimum("boot.full_sample_fit", full.matrices, full.theta, full.S, full.f_min,
                      full.converged, full.implied, checks)
        point = lp.decompose_fit(full).effect(MEDIATION_EFFECT[0], MEDIATION_EFFECT[2])
        got = (pooled.total, pooled.direct, pooled.indirect)
        checks.add("boot.point_estimates", np.allclose(got, point, rtol=0, atol=1e-8),
                   f"bootstrap point estimates {got} vs full-sample fit {point}")
        effect = {k: getattr(pooled, k) for k in (
            "source", "mediator", "target", "total", "direct", "indirect", *BOUNDS)}
        check_mediation("boot", [effect], full.estimates, self.inputs.spec, checks)


JOBS = {"survey_report": SurveyReport, "fit_se_wide": FitSE, "mediate_pool": MediatePool}
