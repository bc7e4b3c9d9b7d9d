"""Report rendering: aligned text tables and stable-keyed JSON.

A report is a provenance header plus ordered named sections; each section
has a kind, which picks its text renderer, and a payload that carries
only that section's own keys (CR/AVE, for instance, live only under
``convergent_validity``). Every number shown in a text table is also
present, unrounded, in the JSON emission; text display rounds to 3
decimals (4 for CR/AVE), and an absent (None) number shows as blank. The
significance-star conventions are the table ``STARS``; the survey-report
one is the default.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .fit_indices import THRESHOLDS

SCHEMA_VERSION = 3


# each significance-star convention's cuts, smallest first: a p-value takes
# the mark of the first cut it is below
STARS = {
    "survey": ((0.001, "***"), (0.05, "**"), (0.1, "*")),
    "conventional": ((0.001, "***"), (0.01, "**"), (0.05, "*")),
}


def stars(p: float | None, convention: str = "survey") -> str:
    """Significance stars for a two-sided p-value under a convention of ``STARS``."""
    if p is None or np.isnan(p):
        return ""
    return next((mark for cut, mark in STARS[convention] if p < cut), "")


def _fmt(value: float | None, decimals: int = 3) -> str:
    if value is None:
        return ""
    if np.isnan(value):
        return "NA"
    return f"{value:.{decimals}f}"


def render_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Column-aligned plain-text table of cells already formatted."""
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def to_jsonable(obj):
    """The payload as JSON primitives, NaN as None; raises TypeError on a
    type no payload builder writes."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # np.float64 included
        return None if np.isnan(obj) else obj
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot write {type(obj).__name__} to a report")


def file_sha256(path: str | Path) -> str:
    """The SHA-256 of a file, read 64 KB at a time, so that hashing holds
    no more of the file than that."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(64 * 1024), b""):
            digest.update(chunk)
    return digest.hexdigest()


def provenance(model_path=None, data_path=None, seed=None, options=None) -> dict:
    prov = {"tool": "latentpath", "schema": SCHEMA_VERSION}
    if model_path is not None:
        prov["model"] = str(model_path)
        prov["model_sha256"] = file_sha256(model_path)
    if data_path is not None:
        prov["data"] = str(data_path)
        prov["data_sha256"] = file_sha256(data_path)
    if seed is not None:
        prov["seed"] = int(seed)
    if options is not None:
        prov["options"] = to_jsonable(options)
    return prov


def render_report(prov: dict, sections: dict[str, tuple[str, dict]], fmt: str,
                  star_convention: str) -> str:
    """A provenance header and the named sections, each a (kind, payload)
    in report order, as ``"json"`` or ``"text"``; a section's kind picks
    its text renderer."""
    if fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "provenance": to_jsonable(prov),
            "sections": {name: {"kind": kind, **to_jsonable(payload)}
                         for name, (kind, payload) in sections.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header = ["# latentpath report"] + [
        f"# {key}: {json.dumps(to_jsonable(prov[key]), sort_keys=True)}" for key in sorted(prov)]
    return "\n".join(["\n".join(header) + "\n"] + [
        _TEXT_RENDERERS[kind](name, payload, star_convention)
        for name, (kind, payload) in sections.items()])


# --- section text renderers -------------------------------------------------


def _reliability_text(name, payload, _stars):
    rows = []
    for block in payload["constructs"]:
        items = block["items"]
        for i, item in enumerate(items):
            rows.append([
                block["name"] if i == 0 else "",
                item,
                _fmt(block["alpha"]) if i == 0 else "",
            ])
    return render_table(["Construct", "Item", "Cronbach's alpha"], rows,
                        title="Reliability")


def _sampling_adequacy_text(name, payload, star_convention):
    headers = ["Measure"] + [blk["name"] for blk in payload["constructs"]]
    kmo_row = ["KMO coefficient"] + [_fmt(blk["kmo"]) for blk in payload["constructs"]]
    sig_row = ["Sig."] + [
        stars(blk["bartlett_p"], star_convention) or _fmt(blk["bartlett_p"])
        for blk in payload["constructs"]
    ]
    return render_table(headers, [kmo_row, sig_row], title="KMO and sphericity")


def _convergent_text(name, payload, star_convention):
    rows = []
    for block in payload["constructs"]:
        for i, item in enumerate(block["items"]):
            loading = block["loadings"][i]
            p = block["p_values"][i]
            rows.append([
                f"{item} <- {block['name']}",
                _fmt(loading),
                stars(p, star_convention),
                _fmt(block["cr"], 4) if i == 0 else "",
                _fmt(block["ave"], 4) if i == 0 else "",
            ])
    return render_table(["Path", "Estimate", "P", "CR", "AVE"], rows,
                        title="Convergent validity")


def _discriminant_text(name, payload, _stars):
    names = payload["names"]
    matrix = payload["matrix"]
    rows = []
    for i, nm in enumerate(names):
        row = [nm]
        for j in range(len(names)):
            if j < i:
                row.append(_fmt(matrix[i][j]))
            elif j == i:  # NaN where the construct has no AVE
                row.append("" if np.isnan(matrix[i][i]) else f"[{matrix[i][i]:.3f}]")
            else:
                row.append("")
        row.append("pass" if payload["passed"][nm] else "FAIL")
        rows.append(row)
    rows.append(["AVE"] + [_fmt(a) for a in payload["ave"]] + [""])
    return render_table(["Construct"] + names + ["sqrt(AVE) rule"], rows,
                        title="Discriminant validity (diagonal = sqrt AVE)")


def _fit_indices_text(name, payload, _stars):
    rows = []
    for key, (label, op, bound) in THRESHOLDS.items():
        value = payload["values"][key]
        passed = payload["passed"][key]
        rows.append([
            label, _fmt(value), f"{op} {bound:g}",
            "" if passed is None else ("Yes" if passed else "No"),
        ])
    title = (
        f"Model fit (chisq={payload['values']['chisq']:.3f}, "
        f"df={payload['values']['df']})"
    )
    return render_table(["Item", "Value", "Standard", "Meets the standard?"],
                        rows, title=title)


def _regression_text(name, payload, star_convention):
    rows = []
    for row in payload["paths"]:
        p = row["p"]
        p_text = stars(p, star_convention) if p is not None and p < 0.001 else _fmt(p)
        rows.append([
            f"{row['lhs']} <- {row['rhs']}",
            _fmt(row["estimate"]),
            _fmt(row["se"]),
            _fmt(row["crit_ratio"]),
            p_text,
            row["hypothesis"] or "",
        ])
    return render_table(["Path", "Estimate", "S.E.", "C.R.", "P", "Label"],
                        rows, title="Regression weights")


def _hypotheses_text(name, payload, _stars):
    rows = []
    for v in payload["verdicts"]:
        rows.append([
            v["label"], v["path"], _fmt(v["estimate"]),
            _fmt(v["p"]),
            v["verdict"],
        ])
    return render_table(["No.", "Path", "Estimate", "P", "Verdict"], rows,
                        title="Hypotheses")


def _mediation_text(name, payload, _stars):
    chunks = []
    for dec in payload["effects"]:
        rows = [[comp.capitalize() + " effect", _fmt(dec[comp]), *map(_fmt, dec[f"{comp}_bounds"])]
                for comp in ("total", "direct", "indirect")]
        title = (
            f"Effects: {dec['source']} -> {dec['mediator']} -> {dec['target']} "
            f"({dec['method']}, level={dec['level']:g}, "
            f"replicates={dec['n_replicates']}, dropped={dec['n_dropped']})"
        )
        table = render_table(["Component", "Estimate", "Lower bound", "Upper bound"],
                             rows, title=title)
        chunks.append(table + f"verdict: {dec['verdict']}\n")
    return "\n".join(chunks)


def _efa_text(name, payload, _stars):
    m = len(payload["eigenvalues_retained"])
    headers = ["Item"] + [f"F{j + 1}" for j in range(m)]
    rows = []
    for item, cells in zip(payload["items"], payload["cells"]):
        rows.append([item] + [(_fmt(c) if c is not None else "") for c in cells])
    title = (
        f"Rotated component matrix (|loading| < {payload['threshold']:g} "
        f"suppressed; rotation={payload['rotation']})"
    )
    eig = ", ".join(f"{e:.3f}" for e in payload["eigenvalues_retained"])
    return render_table(headers, rows, title=title) + f"retained eigenvalues: {eig}\n"


def _fit_text(name, payload, _stars):
    lines = [
        f"Fit summary [{name}]: n={payload['n']}, p={payload['p']}, "
        f"free parameters={len(payload['estimates'])}",
        f"converged={payload['converged']} after {payload['iterations']} iterations "
        f"(max |gradient| = {payload['gradient_norm']:.2e})",
        f"F_min={payload['f_min']:.6f}  chisq={payload['chisq']:.3f}  "
        f"df={payload['df']}  p={payload['chisq_p']:.3f}",
    ]
    if payload["heywood"]:
        lines.append(
            "WARNING negative variance estimate (Heywood case): "
            + ", ".join(payload["heywood"])
        )
    return "\n".join(lines) + "\n"


def _dataset_text(name, payload, _stars):
    return (f"Dataset: n={payload['n']} rows, p={payload['p']} variables\n"
            f"complete rows after listwise deletion: {payload['n_complete']}\n")


_TEXT_RENDERERS = {
    "fit": _fit_text,
    "reliability": _reliability_text,
    "sampling_adequacy": _sampling_adequacy_text,
    "convergent_validity": _convergent_text,
    "discriminant_validity": _discriminant_text,
    "fit_indices": _fit_indices_text,
    "regression_weights": _regression_text,
    "hypotheses": _hypotheses_text,
    "mediation": _mediation_text,
    "efa": _efa_text,
    "dataset": _dataset_text,
}
