"""Command-line interface.

Subcommands: fit, cfa, efa, reliability, mediate, simulate, report.
Exit status 0 on success, 1 on a domain error (non-convergence,
under-identification, estimation failure), 2 on a usage error (bad flags,
a path that cannot be read or written, model syntax problems). Every run
emits a provenance header with input hashes, the seed, and the options in
effect; the ``LATENTPATH_SEED`` environment variable supplies the default
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import efa as efa_mod
from . import fit_indices
from .data import Dataset, SampleMoments, covariance, load_table, read_text, save_table
from .effects import (
    EffectDecomposition,
    _validate_mediators,
    bootstrap_ci,
    classify_hypotheses,
    delta_ci,
)
from .errors import (
    DataError,
    EstimationError,
    ModelSpecificationError,
    ModelSyntaxError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .model import Latent, ModelSpec, build_matrices, parse_model
from .reliability import (
    average_variance_extracted,
    bartlett,
    composite_reliability,
    cronbach_alpha,
    fornell_larcker,
    kmo,
)
from .report import STARS, file_sha256, provenance, render_report
from .sem import (
    EstimationOptions,
    FitResult,
    fit,
    model_columns,
    simulate,
    standardize,
    theta_from_config,
)

_USAGE_ERRORS = (ModelSyntaxError, ModelSpecificationError, DataError, OSError)
_DOMAIN_ERRORS = (UnderIdentifiedError, EstimationError, NotPositiveDefiniteError)


def _seed(args) -> int:
    """``--seed`` where the subcommand has one and it was given, else the default."""
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    text = os.environ.get("LATENTPATH_SEED", "0")
    try:
        return _SEED(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise DataError(
            f"LATENTPATH_SEED must be a non-negative integer, got {text!r}") from None


def _ranged(convert, ok, wanted: str):
    """An argparse ``type`` that converts, then rejects values outside a range."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE_INT = _ranged(int, lambda v: v > 0, "positive")
_TOLERANCE = _ranged(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_CUTOFF = _ranged(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
_LEVEL = _ranged(float, lambda v: 0 < v < 1, "inside (0, 1)")
_REPLICATES = _ranged(int, lambda v: v == 0 or v >= 100, "0 or at least 100")
_SEED = _ranged(int, lambda v: v >= 0, "non-negative")  # numpy's generators reject v < 0


def _retention(text: str) -> str:
    """An argparse ``type`` for --retain: 'kaiser', or 'm=' and an integer."""
    if text == "kaiser":
        return text
    try:
        if text.startswith("m="):
            int(text[2:])
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be 'kaiser' or 'm=<k>', got {text}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument(
        "--stars", choices=tuple(STARS), default="survey",
        help="significance-star convention (default: "
             + ", ".join(f"{mark} <{cut:g}" for cut, mark in reversed(STARS["survey"])) + ")",
    )
    parser.add_argument(
        "--divisor", choices=("n-1", "n"), default="n-1",
        help="sample-covariance divisor (stated in the provenance header)",
    )


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True)
    parser.add_argument("--delimiter", default=",",
                        help="field delimiter of the data file (default comma)")


def _add_estimation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=_POSITIVE_INT, default=500)
    parser.add_argument("--gtol", type=_TOLERANCE, default=1e-6)
    parser.add_argument("--chisq-n", choices=("n", "n-1"), default="n-1",
                        help="chi-square multiplier")
    parser.add_argument("--std-lv", action="store_true",
                        help="standardize latents instead of marker fixing")


def _add_mediation(parser: argparse.ArgumentParser, effect: dict, boot: dict) -> None:
    """mediate's and report's flags, with each one's own keywords for --effect and --boot."""
    parser.add_argument("--effect", action="append", **effect)
    parser.add_argument("--boot", type=_REPLICATES, **boot)
    parser.add_argument("--level", type=_LEVEL, default=0.95)
    parser.add_argument("--seed", type=_SEED, default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored: the replicates are refitted "
                             "together in one thread")


def _read_model(path: str) -> ModelSpec:
    return parse_model(read_text(path))


def _read_params(path: str) -> dict:
    """simulate's --params file: a JSON object whose "values" and "defaults",
    where given, map names to finite numbers, and whose
    "standardize_latents", where given, is true or false."""
    try:
        # every number as a float: an integer too large for one becomes inf
        config = json.loads(read_text(path), parse_int=float)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DataError(f"{path} must hold a JSON object, not {type(config).__name__}")
    for key in ("values", "defaults"):
        table = config.get(key, {})
        wanted = f"{path}: {key!r} must be an object of finite numbers"
        if not isinstance(table, dict):
            raise DataError(wanted)
        bad = [name for name, v in table.items() if type(v) is not float or not math.isfinite(v)]
        if bad:
            raise DataError(f"{wanted}; not so at {bad}")
    if not isinstance(config.get("standardize_latents", False), bool):
        raise DataError(f"{path}: 'standardize_latents' must be true or false")
    return config


# a subcommand's output: section name -> (kind, payload), in report order
Sections = dict[str, tuple[str, dict]]


class _Inputs:
    """What a model or EFA subcommand reads, read once: the model and the
    estimation options where it takes them, the data, and the data's sample
    moments, taken up front, where ``covariance`` rejects a constant column.

    Given a model, the data are its indicators alone, in the file's order, so
    that a column it does not use (a text column, a missing cell) drops no row.
    """

    def __init__(self, args):
        self.spec = _read_model(args.model) if "model" in args else None
        self.dataset = load_table(args.data, delimiter=args.delimiter)
        if self.spec is not None:
            self.dataset = self.dataset.subset(model_columns(self.spec, self.dataset.names))
        self.opts = EstimationOptions(
            max_iter=args.max_iter, gtol=args.gtol, chisq_multiplier=args.chisq_n,
        ) if "max_iter" in args else None
        self.moments = covariance(self.dataset, divisor=args.divisor)


def _write(args, prov: dict, sections: Sections) -> None:
    rendered = render_report(prov, sections, args.format, args.stars)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _emit(args, options, sections: Sections, converged: bool = True) -> int:
    """Write the sections under a provenance header naming the inputs, seed and
    options of args; return the exit status, 1 when a fit behind them did not converge."""
    prov = provenance(getattr(args, "model", None), args.data, seed=_seed(args),
                      options=options)
    prov["covariance_divisor"] = args.divisor
    if hasattr(args, "boot"):
        prov["bootstrap"] = {"replicates": args.boot, "level": args.level}
        if args.boot > 0:
            # bootstrap_ci resamples with n-1 whatever --divisor says; the
            # effects among latents do not change when S is rescaled
            prov["bootstrap"]["covariance_divisor"] = "n-1"
    _write(args, prov, sections)
    return 0 if converged else 1


def _dataset_payload(dataset: Dataset) -> dict:
    return {
        "n": dataset.n, "p": dataset.p,
        "n_complete": int((~dataset.missing.any(axis=1)).sum()),
    }


def _fit_payload(result: FitResult) -> dict:
    labels = result.labels
    return {
        "estimates": result.estimates,
        "se": dict(zip(labels, result.se)),
        "crit_ratio": dict(zip(labels, result.crit_ratio)),
        "p_values": dict(zip(labels, result.p_values)),
        "standardized": result.standardized,
        "f_min": result.f_min,
        "chisq": result.chisq,
        "df": result.df,
        "chisq_p": result.chisq_p,
        "n": result.n,
        "p": result.p,
        "iterations": result.iterations,
        "gradient_norm": result.gradient_norm,
        "converged": result.converged,
        "heywood": result.heywood,
        "implied_covariance": result.implied,
        "variables": result.matrices.variable_order,
    }


def _indices_payload(indices: fit_indices.FitIndices) -> dict:
    return {"values": indices.values(), "passed": indices.passed}


def _regression_payload(result: FitResult) -> dict:
    return {"paths": result.parameter_table(kind="path")}


def _constructs(spec: ModelSpec) -> list[tuple[str, list[str]]]:
    return [(lat.name, list(lat.indicators)) for lat in spec.latents]


def _convergent_payload(constructs: list[tuple[str, list[str]]],
                        result: FitResult | None) -> dict:
    """Standardized loadings, p-values and CR/AVE per construct; all blank without a fit."""
    A_std = P = None
    if result is not None:
        m = result.matrices
        pos = {name: i for i, name in enumerate(m.variables)}
        P = np.full(m.A.values.shape, np.nan)  # p-values at A's free cells
        P[m.A.rows, m.A.cols] = result.p_values[m.A.run]
        with contextlib.suppress(EstimationError):
            A_std = standardize(m, result.theta)[0]
    blocks = []
    for name, items in constructs:
        cells = ([pos[item] for item in items], pos[name]) if P is not None else None
        loadings = [None] * len(items) if A_std is None else A_std[cells].tolist()
        p_values = [None] * len(items) if P is None else P[cells].tolist()
        lam = np.array([] if A_std is None else loadings)
        # a standardized loading beyond 1 (a Heywood case) leaves a negative
        # error variance, so CR and AVE are blank, as without a fit
        usable = lam.size and np.all(np.abs(lam) <= 1.0)
        blocks.append({
            "name": name,
            "items": items,
            "loadings": loadings,
            "p_values": p_values,
            "cr": composite_reliability(lam) if usable else None,
            "ave": average_variance_extracted(lam) if usable else None,
        })
    return {"constructs": blocks}


def _discriminant_payload(result: FitResult, convergent: dict) -> dict:
    """Fornell-Larcker check of the convergent section's AVEs against the CFA's latent
    correlations, its standardized latent (co)variances: a CFA's latents are exogenous."""
    order = [c["name"] for c in convergent["constructs"]]
    ave = [c["ave"] for c in convergent["constructs"]]
    idx = [result.matrices.variables.index(nm) for nm in order]
    corr = np.full((len(idx),) * 2, np.nan)  # when the fit cannot be standardized
    with contextlib.suppress(EstimationError):
        corr = standardize(result.matrices, result.theta)[1][np.ix_(idx, idx)]
    # a construct without an AVE gets a NaN diagonal, and does not pass
    fl = fornell_larcker({nm: np.nan if a is None else a for nm, a in zip(order, ave)},
                         corr, order)
    return {
        "names": fl.names,
        "matrix": fl.matrix,
        "passed": fl.passed,
        "ave": ave,
        "all_passed": fl.all_passed,
    }


def _psychometric_sections(dataset: Dataset, constructs: list[tuple[str, list[str]]],
                           divisor: str) -> tuple[Sections, list[SampleMoments]]:
    """The reliability (alpha) and sampling_adequacy (KMO, Bartlett) sections,
    and the moments of each construct's items they were taken from."""
    reliability, adequacy, taken = [], [], []
    for name, items in constructs:
        sub = dataset.subset(items)
        moments = covariance(sub, divisor=divisor)
        taken.append(moments)
        R = moments.R
        chi2, df, p = bartlett(R, moments.n)
        reliability.append({"name": name, "items": items,
                            "alpha": cronbach_alpha(sub.complete_rows())})
        adequacy.append({"name": name, "items": items, "kmo": kmo(R),
                         "bartlett_chi2": chi2, "bartlett_df": df, "bartlett_p": p})
    return {"reliability": ("reliability", {"constructs": reliability}),
            "sampling_adequacy": ("sampling_adequacy", {"constructs": adequacy})}, taken


def _hypotheses_payload(result: FitResult) -> dict:
    return {"verdicts": [asdict(v) for v in classify_hypotheses(result)]}


def _mediation_payload(decs: list[EffectDecomposition]) -> dict:
    return {"effects": [{**asdict(d), "verdict": d.mediation_verdict()} for d in decs]}


def _efa_payload(loadings: efa_mod.LoadingMatrix, rotation: str, suppress: float) -> dict:
    """The efa section: rotate the extracted loadings, tabulate them."""
    if rotation == "varimax" and loadings.n_factors >= 1:
        loadings = efa_mod.varimax(loadings)
    table = efa_mod.rotated_component_table(loadings, suppress_below=suppress)
    return {
        "items": table.names, "cells": table.cells, "dominant": table.dominant,
        "threshold": table.threshold, "rotation": rotation,
        "eigenvalues": loadings.eigenvalues,
        "eigenvalues_retained": loadings.eigenvalues[:loadings.n_factors],
        "communalities": loadings.communalities,
        "n_factors": loadings.n_factors,
    }


def _derive_mediation_triples(spec: ModelSpec) -> list[tuple[str, str, str]]:
    """Single-edge chains src -> med -> dst among the model's latents."""
    edges = {(r.predictor, r.dependent) for r in spec.regressions}
    triples = []
    for src in spec.exogenous:
        for med in spec.endogenous:
            for dst in spec.endogenous:
                if med != dst and (src, med) in edges and (med, dst) in edges:
                    triples.append((src, med, dst))
    return triples


def _parse_effect(text: str) -> tuple[str, str, str]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"--effect wants SRC:MED:DST, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _parse_construct(text: str) -> tuple[str, list[str]]:
    """NAME=item1,item2,...: a name, and items that are distinct and not the name."""
    if "=" not in text:
        raise DataError(f"--construct wants NAME=item1,item2,..., got {text!r}")
    name, _, items = text.partition("=")
    name = name.strip()
    items = [item.strip() for item in items.split(",") if item.strip()]
    if not name:
        raise DataError(f"--construct {text!r} has no name")
    if not items:
        raise DataError(f"--construct {name!r} lists no items")
    if name in items:
        raise DataError(f"--construct {name!r} lists its own name as an item")
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise DataError(f"--construct {name!r} lists {', '.join(repeated)} more than once")
    return name, items


# --- subcommands: each one's sections from its loaded inputs -----------------


def _fit_sections(inputs: _Inputs, args) -> tuple[Sections, bool]:
    """fit's sections, and whether its fit converged."""
    result = fit(inputs.spec, inputs.moments, inputs.opts, standardize_latents=args.std_lv)
    sections = {
        "fit": ("fit", _fit_payload(result)),
        "regression_weights": ("regression_weights", _regression_payload(result)),
        "fit_indices": ("fit_indices", _indices_payload(fit_indices.from_fit(result))),
    }
    if inputs.spec.labels:
        sections["hypotheses"] = ("hypotheses", _hypotheses_payload(result))
    return sections, result.converged


def _cfa_sections(inputs: _Inputs, args) -> tuple[Sections, bool]:
    """cfa's sections, and whether its fit converged."""
    spec = inputs.spec.without_regressions()
    result = fit(spec, inputs.moments, inputs.opts, standardize_latents=args.std_lv)
    convergent = _convergent_payload(_constructs(spec), result)
    return {
        "cfa_fit": ("fit", _fit_payload(result)),
        "convergent_validity": ("convergent_validity", convergent),
        "discriminant_validity": ("discriminant_validity",
                                  _discriminant_payload(result, convergent)),
        "fit_indices": ("fit_indices", _indices_payload(fit_indices.from_fit(result))),
    }, result.converged


# efa's flag defaults, which report's efa section uses
_EFA_DEFAULTS = {"retain": "kaiser", "suppress": 0.4, "rotation": "varimax",
                 "method": "principal"}


def _efa_sections(moments: SampleMoments, retain: str, suppress: float, rotation: str,
                  method: str) -> Sections:
    loadings = efa_mod.extract(moments.R, retention=retain, names=moments.names,
                               method=method)
    return {"efa": ("efa", _efa_payload(loadings, rotation, suppress))}


def _reliability_sections(dataset: Dataset, constructs: list[tuple[str, list[str]]],
                          divisor: str) -> Sections:
    sections, moments = _psychometric_sections(dataset, constructs, divisor)
    convergent = []  # no model given: one one-factor fit per construct
    for (name, items), construct_moments in zip(constructs, moments):
        one_factor = ModelSpec(latents=(Latent(name, tuple(items)),), regressions=(),
                               covariances=())
        try:
            result = fit(one_factor, construct_moments, compute_se=False)
        except _DOMAIN_ERRORS:
            result = None
        convergent += _convergent_payload([(name, items)], result)["constructs"]
    sections["convergent_validity"] = ("convergent_validity", {"constructs": convergent})
    return sections


def _mediation_sections(inputs: _Inputs, args,
                        effects: list[tuple[str, str, str]]) -> tuple[Sections, bool]:
    """The mediation section, and whether the fit behind it converged; the
    bootstrap raises when too many of its replicates do not."""
    converged = True
    if args.boot > 0:
        decs = bootstrap_ci(
            inputs.dataset, inputs.spec, effects, replicates=args.boot,
            level=args.level, seed=_seed(args), opts=inputs.opts,
            standardize_latents=args.std_lv, workers=args.workers,
        )
    else:
        result = fit(inputs.spec, inputs.moments, inputs.opts, standardize_latents=args.std_lv)
        decs = delta_ci(result, effects, level=args.level)
        converged = result.converged
    return {"mediation": ("mediation", _mediation_payload(decs))}, converged


# --- subcommand handlers ----------------------------------------------------


def _cmd_fit(args) -> int:
    inputs = _Inputs(args)
    return _emit(args, vars(inputs.opts), *_fit_sections(inputs, args))


def _cmd_cfa(args) -> int:
    inputs = _Inputs(args)
    return _emit(args, vars(inputs.opts), *_cfa_sections(inputs, args))


def _cmd_efa(args) -> int:
    options = {key: getattr(args, key) for key in _EFA_DEFAULTS}
    return _emit(args, options, _efa_sections(_Inputs(args).moments, **options))


def _cmd_reliability(args) -> int:
    dataset = load_table(args.data, delimiter=args.delimiter)
    constructs = [_parse_construct(c) for c in args.construct]
    names = [name for name, _ in constructs]
    for name in names:
        if names.count(name) > 1:
            raise DataError(f"--construct {name!r} given more than once")
    return _emit(args, {"constructs": args.construct},
                 _reliability_sections(dataset, constructs, args.divisor))


def _cmd_mediate(args) -> int:
    inputs = _Inputs(args)
    effects = [_parse_effect(e) for e in args.effect]
    return _emit(args, vars(inputs.opts), *_mediation_sections(inputs, args, effects))


def _cmd_simulate(args) -> int:
    spec = _read_model(args.model)
    config = _read_params(args.params)
    m = build_matrices(spec, spec.indicator_names,
                       standardize_latents=config.get("standardize_latents", False))
    theta = theta_from_config(m, config.get("values"), config.get("defaults"))
    seed = _seed(args)
    dataset = simulate(m, theta, args.n, seed)
    save_table(dataset, args.out)
    prov = provenance(args.model, seed=seed)
    prov.update(params=str(args.params), params_sha256=file_sha256(args.params),
                rows=args.n, written=str(args.out))
    _write(args, prov, {"dataset": ("dataset", _dataset_payload(dataset))})
    return 0


# report's sections in order: the subcommands' own, with each fit_indices
# named after its fit, and without the CFA's fit summary
_REPORT_SECTIONS = ("dataset", "reliability", "sampling_adequacy", "efa",
                    "convergent_validity", "discriminant_validity", "cfa_fit_indices",
                    "fit", "regression_weights", "sem_fit_indices", "mediation", "hypotheses")


def _cmd_report(args) -> int:
    inputs = _Inputs(args)
    spec, dataset = inputs.spec, inputs.dataset
    triples = [_parse_effect(e) for e in args.effect] if args.effect \
        else _derive_mediation_triples(spec)
    _validate_mediators(spec, triples)  # as mediate checks them, with or without replicates
    psychometric, _ = _psychometric_sections(dataset, _constructs(spec), args.divisor)
    built = {
        "dataset": ("dataset", _dataset_payload(dataset)),
        **psychometric,
        **_efa_sections(inputs.moments, **_EFA_DEFAULTS),
    }
    cfa, cfa_converged = _cfa_sections(inputs, args)
    sem, sem_converged = _fit_sections(inputs, args)
    built |= {**cfa, **sem, "cfa_fit_indices": cfa["fit_indices"],
              "sem_fit_indices": sem["fit_indices"]}
    if triples and args.boot > 0:
        built |= _mediation_sections(inputs, args, triples)[0]
    sections = {name: built[name] for name in _REPORT_SECTIONS if name in built}
    return _emit(args, vars(inputs.opts), sections, cfa_converged and sem_converged)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentpath",
        description="Latent-variable path models: ML estimation, fit indices, "
                    "psychometrics, EFA, and bootstrap mediation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, model=True, data=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_common(p)
        if model:
            p.add_argument("--model", required=True)
        if data:
            _add_data(p)
        return p

    _add_estimation(add("fit", _cmd_fit, "estimate a structural model by ML"))
    _add_estimation(add("cfa", _cmd_cfa, "measurement-only fit with freely covarying latents"))

    p = add("efa", _cmd_efa, "exploratory factor analysis", model=False)
    p.add_argument("--retain", type=_retention,
                   help=f"'kaiser' or 'm=<k>' (default {_EFA_DEFAULTS['retain']})")
    p.add_argument("--suppress", type=_CUTOFF)
    p.add_argument("--rotation", choices=("varimax", "none"))
    p.add_argument("--method", choices=("principal", "principal-axis"))
    p.set_defaults(**_EFA_DEFAULTS)

    p = add("reliability", _cmd_reliability, "alpha, KMO, Bartlett, CR/AVE per construct",
            model=False)
    p.add_argument("--construct", action="append", required=True,
                   help="NAME=item1,item2,... (repeatable)")

    p = add("mediate", _cmd_mediate, "effect decomposition with bootstrap intervals")
    _add_mediation(p, effect={"required": True, "help": "SRC:MED:DST (repeatable)"},
                   boot={"default": 2000,
                         "help": "bootstrap replicates; 0 switches to the delta method"})
    _add_estimation(p)

    p = add("simulate", _cmd_simulate, "draw a dataset from a parameterized model", data=False)
    p.add_argument("--params", required=True,
                   help="JSON with 'values', 'defaults', 'standardize_latents'")
    p.add_argument("--n", type=_POSITIVE_INT, required=True)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--out", required=True, help="CSV file to write")

    p = add("report", _cmd_report, "full pipeline: psychometrics, EFA, CFA, SEM, mediation")
    _add_mediation(p, effect={"default": None, "help": "SRC:MED:DST (repeatable; "
                                                      "default: derived from the model)"},
                   boot={"default": 500})
    _add_estimation(p)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run the selected subcommand; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
