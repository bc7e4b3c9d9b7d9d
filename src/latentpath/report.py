"""Report rendering: aligned text tables and stable-keyed JSON.

A report is a provenance header plus ordered named sections; each section
has a kind, which picks its text renderer, and a payload that carries
only that section's own keys (CR/AVE, for instance, live only under
``convergent_validity``). Every number shown in a text table is also
present, unrounded, in the JSON emission; text display rounds to 3
decimals (4 for CR/AVE), and an absent (None) number shows as blank. The
significance-star convention defaults to the survey-report style
(* < 0.1, ** < 0.05, *** < 0.001) and can be switched to the conventional
one (* < 0.05, ** < 0.01, *** < 0.001).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .fit_indices import THRESHOLDS

SCHEMA_VERSION = 2


def stars(p: float | None, convention: str = "survey") -> str:
    """Significance stars for a two-sided p-value."""
    if p is None or (isinstance(p, float) and np.isnan(p)):
        return ""
    if convention == "survey":
        cuts = ((0.001, "***"), (0.05, "**"), (0.1, "*"))
    elif convention == "conventional":
        cuts = ((0.001, "***"), (0.01, "**"), (0.05, "*"))
    else:
        raise ValueError(f"unknown star convention {convention!r}")
    for cut, mark in cuts:
        if p < cut:
            return mark
    return ""


def _fmt(value, decimals: int = 3) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "Yes" if value else "No"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if np.isnan(value):
            return "NA"
        return f"{value:.{decimals}f}"
    return str(value)


def render_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Column-aligned plain-text table."""
    cells = [[_fmt(c) if not isinstance(c, str) else c for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def to_jsonable(obj):
    """Recursively convert results into JSON-serializable primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return None if np.isnan(obj) else obj
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_") and f.repr
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


class Report:
    """Ordered named sections, rendered to JSON or text from one payload."""

    def __init__(self, prov: dict | None = None, star_convention: str = "survey"):
        self.prov = prov or {}
        self.star_convention = star_convention
        self.sections: list[tuple[str, str, dict]] = []  # (kind, name, payload)

    def add(self, kind: str, name: str, payload: dict) -> None:
        self.sections.append((kind, name, payload))

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "provenance": to_jsonable(self.prov),
            "sections": {
                name: {"kind": kind, **to_jsonable(payload)}
                for kind, name, payload in self.sections
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        chunks = []
        if self.prov:
            lines = ["# latentpath report"]
            for key in sorted(self.prov):
                lines.append(f"# {key}: {json.dumps(to_jsonable(self.prov[key]), sort_keys=True)}")
            chunks.append("\n".join(lines) + "\n")
        for kind, name, payload in self.sections:
            renderer = _TEXT_RENDERERS.get(kind)
            if renderer is None:
                chunks.append(f"[{name}] (no text renderer for kind {kind})\n")
            else:
                chunks.append(renderer(name, payload, self.star_convention))
        return "\n".join(chunks)


def render_report(report: Report, fmt: str = "text") -> str:
    """Render a report to ``"text"`` or ``"json"``."""
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown format {fmt!r}")


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
                stars(p, star_convention) if p is not None else "",
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
            elif j == i:
                row.append(f"[{matrix[i][i]:.3f}]")
            else:
                row.append("")
        row.append("pass" if payload["passed"][nm] else "FAIL")
        rows.append(row)
    rows.append(["AVE"] + [_fmt(a) for a in payload["ave"]] + [""])
    return render_table(["Construct"] + names + ["sqrt(AVE) rule"], rows,
                        title="Discriminant validity (diagonal = sqrt AVE)")


# row order and labels; each standard is the threshold its pass flag tests
_INDEX_DISPLAY = (
    ("chisq_df", "Chi/DF"),
    ("p", "P"),
    ("gfi", "GFI"),
    ("agfi", "AGFI"),
    ("tli", "TLI"),
    ("nfi", "NFI"),
    ("cfi", "CFI"),
    ("pnfi", "PNFI"),
    ("pcfi", "PCFI"),
    ("pgfi", "PGFI"),
    ("rmsea", "RMSEA"),
)


def _fit_indices_text(name, payload, _stars):
    rows = []
    for key, label in _INDEX_DISPLAY:
        op, bound = THRESHOLDS[key]
        value = payload["values"].get(key)
        passed = payload["passed"].get(key)
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
        dep, pred = row["label"].split("~")
        p = row["p"]
        p_text = stars(p, star_convention) if p is not None and p < 0.001 else _fmt(p)
        rows.append([
            f"{dep} <- {pred}",
            _fmt(row["estimate"]),
            _fmt(row["se"]),
            _fmt(row["crit_ratio"]),
            p_text,
            row.get("hypothesis") or "",
        ])
    return render_table(["Path", "Estimate", "S.E.", "C.R.", "P", "Label"],
                        rows, title="Regression weights")


def _hypotheses_text(name, payload, _stars):
    rows = []
    for v in payload["verdicts"]:
        rows.append([
            v["label"], v["path"], _fmt(v["estimate"]),
            _fmt(v["p"]) if v.get("p") is not None else "",
            v["verdict"],
        ])
    return render_table(["No.", "Path", "Estimate", "P", "Verdict"], rows,
                        title="Hypotheses")


def _mediation_text(name, payload, _stars):
    chunks = []
    for dec in payload["effects"]:
        route = f"{dec['source']} -> {dec['target']}"
        if dec.get("mediator"):
            route = f"{dec['source']} -> {dec['mediator']} -> {dec['target']}"
        rows = []
        for comp in ("total", "direct", "indirect"):
            bounds = dec.get(f"{comp}_bounds")
            lo, hi = (bounds if bounds else (None, None))
            rows.append([comp.capitalize() + " effect", _fmt(dec[comp]),
                         _fmt(lo), _fmt(hi)])
        title = (
            f"Effects: {route} ({dec['method']}, level={dec['level']:g}, "
            f"replicates={dec['n_replicates']}, dropped={dec['n_dropped']})"
        )
        table = render_table(["Component", "Estimate", "Lower bound", "Upper bound"],
                             rows, title=title)
        # a payload without total_indirect (e.g. published single-mediator
        # figures) has no indirect route besides the one reported
        gap = dec["total"] - dec["direct"] - dec.get("total_indirect", dec["indirect"])
        check = "ok" if abs(gap) <= payload.get("additivity_tolerance", 0.002) else "VIOLATED"
        chunks.append(
            table + f"additivity |total-direct-total_indirect| = {abs(gap):.2e} [{check}]\n")
        if dec.get("verdict"):
            chunks[-1] += f"verdict: {dec['verdict']}\n"
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
    if payload.get("heywood"):
        lines.append(
            "WARNING negative variance estimate (Heywood case): "
            + ", ".join(payload["heywood"])
        )
    return "\n".join(lines) + "\n"


def _dataset_text(name, payload, _stars):
    lines = [
        f"Dataset: n={payload['n']} rows, p={payload['p']} variables",
        f"complete rows after listwise deletion: {payload['n_complete']}",
    ]
    if payload.get("zero_variance"):
        lines.append(f"zero-variance columns: {', '.join(payload['zero_variance'])}")
    return "\n".join(lines) + "\n"


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
