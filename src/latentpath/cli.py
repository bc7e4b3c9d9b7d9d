"""Command-line interface.

Subcommands: fit, cfa, efa, reliability, mediate, simulate, report.
Exit status 0 on success, 1 on a domain error (non-convergence,
under-identification, estimation failure), 2 on a usage error (bad flags,
missing files, model syntax problems). Every run emits a provenance
header with input hashes, the seed, and the options in effect; the
``LATENTPATH_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import efa as efa_mod
from . import fit_indices
from .data import Dataset, covariance, load_table, save_table
from .effects import EffectDecomposition, bootstrap_ci, classify_hypotheses, delta_ci
from .errors import (
    DataError,
    EstimationError,
    LatentPathError,
    ModelSpecificationError,
    ModelSyntaxError,
    NotPositiveDefiniteError,
    UnderIdentifiedError,
)
from .model import ModelSpec, build_matrices, parse_model
from .reliability import (
    average_variance_extracted,
    bartlett,
    composite_reliability,
    cronbach_alpha,
    fornell_larcker,
    kmo,
)
from .report import Report, file_sha256, provenance, render_report
from .sem import (
    EstimationOptions,
    FitResult,
    fit,
    latent_covariance,
    simulate,
    theta_from_config,
)

_USAGE_ERRORS = (ModelSyntaxError, ModelSpecificationError, DataError, FileNotFoundError)
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
_POSITIVE_FLOAT = _ranged(float, lambda v: v > 0, "positive")
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
        "--stars", choices=("survey", "conventional"), default="survey",
        help="significance-star convention (default: * <0.1, ** <0.05, *** <0.001)",
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
    parser.add_argument("--gtol", type=_POSITIVE_FLOAT, default=1e-6)
    parser.add_argument("--chisq-n", choices=("n", "n-1"), default="n-1",
                        help="chi-square multiplier")
    parser.add_argument("--std-lv", action="store_true",
                        help="standardize latents instead of marker fixing")


def _options(args) -> EstimationOptions:
    return EstimationOptions(
        max_iter=args.max_iter, gtol=args.gtol,
        chisq_multiplier=args.chisq_n,
    )


def _read_model(path: str) -> ModelSpec:
    text = Path(path).read_text(encoding="utf-8")
    return parse_model(text)


def _new_report(args, options) -> Report:
    """An empty report whose provenance names the inputs, seed and options of args."""
    prov = provenance(getattr(args, "model", None), args.data, seed=_seed(args),
                      options=options)
    prov["covariance_divisor"] = args.divisor
    if hasattr(args, "boot"):
        prov["bootstrap"] = {"replicates": args.boot, "level": args.level}
        if args.boot > 0:
            # bootstrap_ci resamples with n-1 whatever --divisor says; the
            # effects among latents do not change when S is rescaled
            prov["bootstrap"]["covariance_divisor"] = "n-1"
    return Report(prov, args.stars)


def _emit(report: Report, args) -> None:
    rendered = render_report(report, args.format)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _dataset_payload(dataset: Dataset, zero_variance: list[str]) -> dict:
    return {
        "n": dataset.n, "p": dataset.p,
        "n_complete": int((~dataset.missing.any(axis=1)).sum()),
        "zero_variance": zero_variance,
    }


def _fit_payload(result: FitResult) -> dict:
    return {
        "estimates": result.estimates,
        "se": dict(zip(result.labels, result.se)),
        "crit_ratio": dict(zip(result.labels, result.crit_ratio)),
        "p_values": dict(zip(result.labels, result.p_values)),
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


def _indices_payload(report: fit_indices.FitIndexReport) -> dict:
    return {"values": report.values(), "passed": report.passed}


def _regression_payload(result: FitResult) -> dict:
    return {"paths": result.parameter_table(kind="path")}


def _constructs(spec: ModelSpec) -> list[tuple[str, list[str]]]:
    return [(lat.name, list(lat.indicators)) for lat in spec.latents]


def _convergent_payload(constructs: list[tuple[str, list[str]]],
                        result: FitResult | None) -> dict:
    """Standardized loadings, p-values and CR/AVE per construct; all blank without a fit."""
    standardized, p_by_label = {}, {}
    if result is not None:
        standardized = result.standardized
        p_by_label = {row["label"]: row["p"] for row in result.parameter_table(kind="loading")}
    blocks = []
    for name, items in constructs:
        labels = [f"{name}=~{item}" for item in items]
        loadings = [standardized.get(label) for label in labels]
        lam = np.array([v for v in loadings if v is not None])
        blocks.append({
            "name": name,
            "items": items,
            "loadings": loadings,
            "p_values": [p_by_label.get(label) for label in labels],
            "cr": composite_reliability(lam) if lam.size else None,
            "ave": average_variance_extracted(lam) if lam.size else None,
        })
    return {"constructs": blocks}


def _discriminant_payload(result: FitResult, convergent: dict) -> dict:
    """Fornell-Larcker check of the convergent section's AVEs against the fit's correlations."""
    cov_lat, lat_names = latent_covariance(result.matrices, result.theta)
    sd = np.sqrt(np.diag(cov_lat))
    corr = cov_lat / (sd[:, None] * sd)
    order = [c["name"] for c in convergent["constructs"]]
    ave = [c["ave"] for c in convergent["constructs"]]
    idx = [lat_names.index(nm) for nm in order]
    fl = fornell_larcker(dict(zip(order, ave)), corr[np.ix_(idx, idx)], order)
    return {
        "names": fl.names,
        "matrix": fl.matrix,
        "passed": fl.passed,
        "ave": ave,
        "all_passed": fl.all_passed,
    }


def _psychometric_payloads(dataset: Dataset, constructs: list[tuple[str, list[str]]],
                           divisor: str) -> tuple[dict, dict]:
    """The reliability (alpha) and sampling_adequacy (KMO, Bartlett) sections."""
    reliability, adequacy = [], []
    for name, items in constructs:
        sub = dataset.subset(items)
        moments = covariance(sub, divisor=divisor)
        chi2, df, p = bartlett(moments.R, moments.n)
        reliability.append({"name": name, "items": items,
                            "alpha": cronbach_alpha(sub.complete_rows())})
        adequacy.append({"name": name, "items": items, "kmo": kmo(moments.R),
                         "bartlett_chi2": chi2, "bartlett_df": df, "bartlett_p": p})
    return {"constructs": reliability}, {"constructs": adequacy}


def _hypotheses_payload(result: FitResult) -> dict:
    return {"verdicts": [v.__dict__ for v in classify_hypotheses(result)]}


def _mediation_payload(decs: list[EffectDecomposition]) -> dict:
    return {
        "effects": [
            {**{k: getattr(d, k) for k in (
                "source", "target", "mediator", "total", "direct", "indirect",
                "total_indirect", "total_bounds", "direct_bounds", "indirect_bounds",
                "level", "method", "n_replicates", "n_dropped")},
             "verdict": d.mediation_verdict()}
            for d in decs
        ],
        "additivity_tolerance": 0.002,
    }


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
    if "=" not in text:
        raise DataError(f"--construct wants NAME=item1,item2,..., got {text!r}")
    name, _, items = text.partition("=")
    items = [item.strip() for item in items.split(",") if item.strip()]
    if not items:
        raise DataError(f"--construct {name!r} lists no items")
    return name.strip(), items


# --- subcommand handlers ----------------------------------------------------


def _cmd_fit(args) -> int:
    spec = _read_model(args.model)
    dataset = load_table(args.data, delimiter=args.delimiter)
    moments = covariance(dataset, divisor=args.divisor)
    opts = _options(args)
    result = fit(spec, moments, opts, standardize_latents=args.std_lv)
    report = _new_report(args, opts)
    report.add("fit", "fit", _fit_payload(result))
    report.add("regression_weights", "regression_weights", _regression_payload(result))
    report.add("fit_indices", "fit_indices",
               _indices_payload(fit_indices.from_fit(result)))
    if spec.labels:
        report.add("hypotheses", "hypotheses", _hypotheses_payload(result))
    _emit(report, args)
    return 0 if result.converged else 1


def _cmd_cfa(args) -> int:
    spec = _read_model(args.model).without_regressions()
    dataset = load_table(args.data, delimiter=args.delimiter)
    moments = covariance(dataset, divisor=args.divisor)
    opts = _options(args)
    result = fit(spec, moments, opts, standardize_latents=args.std_lv)
    convergent = _convergent_payload(_constructs(spec), result)
    report = _new_report(args, opts)
    report.add("fit", "cfa_fit", _fit_payload(result))
    report.add("convergent_validity", "convergent_validity", convergent)
    report.add("discriminant_validity", "discriminant_validity",
               _discriminant_payload(result, convergent))
    report.add("fit_indices", "fit_indices",
               _indices_payload(fit_indices.from_fit(result)))
    _emit(report, args)
    return 0 if result.converged else 1


def _cmd_efa(args) -> int:
    dataset = load_table(args.data, delimiter=args.delimiter)
    moments = covariance(dataset, divisor=args.divisor)
    loadings = efa_mod.extract(moments.R, retention=args.retain,
                               names=moments.names, method=args.method)
    report = _new_report(args, {
        "retain": args.retain, "suppress": args.suppress,
        "rotation": args.rotation, "method": args.method,
    })
    report.add("efa", "efa", _efa_payload(loadings, args.rotation, args.suppress))
    _emit(report, args)
    return 0


def _cmd_reliability(args) -> int:
    dataset = load_table(args.data, delimiter=args.delimiter)
    constructs = [_parse_construct(c) for c in args.construct]
    reliability, adequacy = _psychometric_payloads(dataset, constructs, args.divisor)
    convergent = []  # no model given: one one-factor fit per construct
    for name, items in constructs:
        try:
            one_factor = parse_model(f"{name} =~ " + " + ".join(items))
            result = fit(one_factor, covariance(dataset.subset(items), divisor=args.divisor),
                         compute_se=False)
        except (LatentPathError, ValueError):
            result = None
        convergent += _convergent_payload([(name, items)], result)["constructs"]
    report = _new_report(args, {"constructs": args.construct})
    report.add("reliability", "reliability", reliability)
    report.add("sampling_adequacy", "sampling_adequacy", adequacy)
    report.add("convergent_validity", "convergent_validity", {"constructs": convergent})
    _emit(report, args)
    return 0


def _cmd_mediate(args) -> int:
    spec = _read_model(args.model)
    dataset = load_table(args.data, delimiter=args.delimiter)
    opts = _options(args)
    effects = [_parse_effect(e) for e in args.effect]
    converged = True  # the bootstrap raises when too many replicates do not converge
    if args.boot > 0:
        decs = bootstrap_ci(
            dataset, spec, effects, replicates=args.boot,
            level=args.level, seed=_seed(args), opts=opts,
            standardize_latents=args.std_lv, workers=args.workers,
        )
    else:
        moments = covariance(dataset, divisor=args.divisor)
        result = fit(spec, moments, opts, standardize_latents=args.std_lv)
        decs = delta_ci(result, effects, level=args.level)
        converged = result.converged
    report = _new_report(args, opts)
    report.add("mediation", "mediation", _mediation_payload(decs))
    _emit(report, args)
    return 0 if converged else 1


def _cmd_simulate(args) -> int:
    spec = _read_model(args.model)
    config = json.loads(Path(args.params).read_text(encoding="utf-8"))
    std_lv = bool(config.get("standardize_latents", False))
    m = build_matrices(spec, spec.indicator_names, standardize_latents=std_lv)
    theta = theta_from_config(m, config.get("values"), config.get("defaults"))
    seed = _seed(args)
    dataset = simulate(m, theta, args.n, seed)
    save_table(dataset, args.out)
    prov = provenance(args.model, seed=seed)
    prov["params"] = str(args.params)
    prov["params_sha256"] = file_sha256(args.params)
    prov["rows"] = args.n
    prov["written"] = str(args.out)
    report = Report(prov, args.stars)
    report.add("dataset", "dataset", _dataset_payload(dataset, []))
    _emit(report, args)
    return 0


def _cmd_report(args) -> int:
    spec = _read_model(args.model)
    dataset = load_table(args.data, delimiter=args.delimiter)
    moments = covariance(dataset, divisor=args.divisor)
    opts = _options(args)
    report = _new_report(args, opts)
    report.add("dataset", "dataset", _dataset_payload(dataset, moments.zero_variance))
    constructs = _constructs(spec)
    reliability, adequacy = _psychometric_payloads(dataset, constructs, args.divisor)
    report.add("reliability", "reliability", reliability)
    report.add("sampling_adequacy", "sampling_adequacy", adequacy)

    model_vars = spec.indicator_names
    sub_moments = covariance(dataset.subset(model_vars), divisor=args.divisor)
    loadings = efa_mod.extract(sub_moments.R, retention="kaiser", names=model_vars)
    report.add("efa", "efa", _efa_payload(loadings, "varimax", 0.4))

    cfa_result = fit(spec.without_regressions(), moments, opts,
                     standardize_latents=args.std_lv)
    convergent = _convergent_payload(constructs, cfa_result)
    report.add("convergent_validity", "convergent_validity", convergent)
    report.add("discriminant_validity", "discriminant_validity",
               _discriminant_payload(cfa_result, convergent))
    report.add("fit_indices", "cfa_fit_indices",
               _indices_payload(fit_indices.from_fit(cfa_result)))

    result = fit(spec, moments, opts, standardize_latents=args.std_lv)
    report.add("fit", "fit", _fit_payload(result))
    report.add("regression_weights", "regression_weights", _regression_payload(result))
    report.add("fit_indices", "sem_fit_indices",
               _indices_payload(fit_indices.from_fit(result)))

    triples = [_parse_effect(e) for e in args.effect] if args.effect \
        else _derive_mediation_triples(spec)
    if triples and args.boot > 0:
        decs = bootstrap_ci(
            dataset, spec, triples, replicates=args.boot, level=args.level,
            seed=_seed(args), opts=opts, standardize_latents=args.std_lv,
            workers=args.workers,
        )
        report.add("mediation", "mediation", _mediation_payload(decs))
    if spec.labels:
        report.add("hypotheses", "hypotheses", _hypotheses_payload(result))
    _emit(report, args)
    ok = result.converged and cfa_result.converged
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentpath",
        description="Latent-variable path models: ML estimation, fit indices, "
                    "psychometrics, EFA, and bootstrap mediation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_common(p)
        return p

    p = add("fit", _cmd_fit, "estimate a structural model by ML")
    p.add_argument("--model", required=True)
    _add_data(p)
    _add_estimation(p)

    p = add("cfa", _cmd_cfa, "measurement-only fit with freely covarying latents")
    p.add_argument("--model", required=True)
    _add_data(p)
    _add_estimation(p)

    p = add("efa", _cmd_efa, "exploratory factor analysis")
    _add_data(p)
    p.add_argument("--retain", type=_retention, default="kaiser",
                   help="'kaiser' or 'm=<k>' (default kaiser)")
    p.add_argument("--suppress", type=float, default=0.4)
    p.add_argument("--rotation", choices=("varimax", "none"), default="varimax")
    p.add_argument("--method", choices=("principal", "principal-axis"),
                   default="principal")

    p = add("reliability", _cmd_reliability, "alpha, KMO, Bartlett, CR/AVE per construct")
    _add_data(p)
    p.add_argument("--construct", action="append", required=True,
                   help="NAME=item1,item2,... (repeatable)")

    p = add("mediate", _cmd_mediate, "effect decomposition with bootstrap intervals")
    p.add_argument("--model", required=True)
    _add_data(p)
    p.add_argument("--effect", action="append", required=True,
                   help="SRC:MED:DST (repeatable)")
    p.add_argument("--boot", type=_REPLICATES, default=2000,
                   help="bootstrap replicates; 0 switches to the delta method")
    p.add_argument("--level", type=_LEVEL, default=0.95)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the replicates are refitted "
                        "together in one thread")
    _add_estimation(p)

    p = add("simulate", _cmd_simulate, "draw a dataset from a parameterized model")
    p.add_argument("--model", required=True)
    p.add_argument("--params", required=True,
                   help="JSON with 'values', 'defaults', 'standardize_latents'")
    p.add_argument("--n", type=_POSITIVE_INT, required=True)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--out", required=True, help="CSV file to write")

    p = add("report", _cmd_report, "full pipeline: psychometrics, EFA, CFA, SEM, mediation")
    p.add_argument("--model", required=True)
    _add_data(p)
    p.add_argument("--effect", action="append", default=None,
                   help="SRC:MED:DST (repeatable; default: derived from the model)")
    p.add_argument("--boot", type=_REPLICATES, default=500)
    p.add_argument("--level", type=_LEVEL, default=0.95)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the replicates are refitted "
                        "together in one thread")
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
