"""Spans recorded from the benchmark's side of the latentpath API.

Tracing replaces the public functions that one latentpath module imports
from another (and a few public names a module calls on itself) with thin
wrappers that record a span per call: name, start, end, parent span,
thread and job id. Spans stay in memory and are written out when the run
ends. Nothing inside the package is edited; the wrappers are installed
and removed by :meth:`Tracer.installed`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

PACKAGE = "latentpath"
MODULES = ("cli", "sem", "effects", "efa", "fit_indices", "reliability",
           "data", "model", "report")

# public names called inside their own module, or through a module
# object (``efa_mod.extract``), which the import scan below cannot see
HOME_NAMES = {
    "sem": ("implied_covariance", "f_ml", "standardize"),
    "effects": ("decompose_fit",),
    "efa": ("extract", "varimax", "rotated_component_table"),
    "fit_indices": ("from_fit",),
    "cli": ("dispatch",),
}

# spans whose CPU time is recorded (process-wide, so pool threads count)
CPU_SPANS = {"effects.bootstrap_ci"}


@dataclass
class Span:
    id: int
    job: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _call_info(name: str, args, kwargs, result) -> dict:
    """Counts read off a call's arguments and result at the layer boundary."""
    if name == "sem.fit":
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged),
                "se": bool(kwargs.get("compute_se", True))}
    if name == "effects.bootstrap_ci":
        kept = result[0].n_replicates if result else 0
        dropped = result[0].n_dropped if result else 0
        return {"kept": int(kept), "dropped": int(dropped),
                "workers": int(kwargs.get("workers", 1))}
    return {}


class Tracer:
    """Collects spans; one job at a time is current (closed loop)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # a pool thread: its caller is the innermost span open on the
            # thread that submitted the work
            parent = self._main_stack[-1].id if self._main_stack else None
        sp = Span(next(self._ids), self.job, name, 0.0, parent=parent,
                  thread=threading.get_ident())
        stack.append(sp)
        cpu0 = time.process_time() if name in CPU_SPANS else None
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if cpu0 is not None:
                sp.info["cpu_s"] = time.process_time() - cpu0
            stack.pop()
            self.spans.append(sp)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                sp.info.update(_call_info(name, args, kwargs, result))
                return result
        traced.__wrapped_by_tracer__ = True
        return traced

    def _targets(self):
        """(namespace, attribute, span name) for every boundary to wrap."""
        pkg = importlib.import_module(PACKAGE)
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        out = []
        for ns_name, ns in [("", pkg)] + list(mods.items()):
            for attr, value in vars(ns).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith(PACKAGE + ".") or home == ns_name:
                    continue
                out.append((ns, attr, f"{home}.{attr}"))
        for home, names in HOME_NAMES.items():
            for attr in names:
                if inspect.isfunction(getattr(mods[home], attr, None)):
                    out.append((mods[home], attr, f"{home}.{attr}"))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for ns, attr, name in self._targets():
                fn = getattr(ns, attr)
                if getattr(fn, "__wrapped_by_tracer__", False):
                    continue
                saved.append((ns, attr, fn))
                setattr(ns, attr, self._wrap(name, fn))
            yield self
        finally:
            for ns, attr, fn in reversed(saved):
                setattr(ns, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n",
                        encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, cursor = 0.0, sp.start
        for lo, hi in sorted((max(c.start, sp.start), min(c.end, sp.end))
                             for c in children.get(sp.id, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], traced: dict[str, float], untraced: list[float],
                  se_pairs: list[tuple[float, float, int]]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    ``traced`` maps each traced job id to its wall time (s), ``untraced``
    lists the wall times of the untraced jobs run alternately with them,
    and ``se_pairs`` holds (ms with SEs, ms without, iterations) of fits
    repeated on one input with and without the SE step.
    """
    selfs = self_times(spans)
    jobs = {j: [s for s in spans if s.job == j] for j in traced}
    in_jobs = [s for group in jobs.values() for s in group]

    def per_call(name: str, scale: float) -> float:
        return _median(s.duration for s in spans if s.name == name) * scale

    def per_job(fn) -> float:
        return _median(fn(group) for group in jobs.values())

    def total(group, prefix: str) -> float:
        return sum(s.duration for s in group if s.name.startswith(prefix))

    # a call that raised carries no counts
    fits = [s for s in in_jobs if s.name == "sem.fit" and "iterations" in s.info]
    plain = [s for s in fits if not s.info["se"]]
    if plain:
        fit_ms = _median(s.duration for s in plain) * 1e3
        ms_per_iter = 1e3 * sum(s.duration for s in plain) / max(
            1, sum(s.info["iterations"] for s in plain))
    else:
        fit_ms = _median(p[1] for p in se_pairs)
        ms_per_iter = _median(p[1] / max(1, p[2]) for p in se_pairs)

    boots = [s for s in in_jobs if s.name == "effects.bootstrap_ci" and "kept" in s.info]
    rep_ms, rep_iters, kept, attempted, cpu, capacity = [], [], 0, 0, 0.0, 0.0
    by_parent: dict[int, list[Span]] = {}
    for s in in_jobs:
        by_parent.setdefault(s.parent, []).append(s)
    for b in boots:
        seen, busy = set(), 0.0
        for kid in sorted(by_parent.get(b.id, ()), key=lambda s: s.start):
            if kid.name not in seen:  # the full-sample covariance, fit, decomposition
                seen.add(kid.name)
                continue
            busy += kid.duration
            if kid.name == "sem.fit" and "iterations" in kid.info:
                rep_iters.append(kid.info["iterations"])
        reps = b.info["kept"] + b.info["dropped"]
        rep_ms.append(1e3 * busy / max(1, reps))
        kept += b.info["kept"]
        attempted += reps
        cpu += b.info["cpu_s"]
        capacity += b.duration * b.info["workers"]

    walls = list(traced.values())
    return {
        "model.parse_ms": per_call("model.parse_model", 1e3),
        "model.build_ms": per_call("model.build_matrices", 1e3),
        "data.load_ms": per_call("data.load_table", 1e3),
        "data.covariance_us": per_call("data.covariance", 1e6),
        "data.simulate_ms": per_call("sem.simulate", 1e3),
        "sem.fit_calls": per_job(lambda g: sum(s.name == "sem.fit" for s in g)),
        "sem.iterations_per_fit": (sum(s.info["iterations"] for s in fits) / len(fits)
                                   if fits else 0.0),
        "sem.ms_per_iter": ms_per_iter,
        "sem.fit_ms": fit_ms,
        "sem.se_step_ms": _median(p[0] - p[1] for p in se_pairs),
        "sem.implied_cov_us": per_call("sem.implied_covariance", 1e6),
        "sem.f_ml_us": per_call("sem.f_ml", 1e6),
        "sem.standardize_ms": per_call("sem.standardize", 1e3),
        "sem.nonconverged": float(sum(not s.info["converged"] for s in fits)),
        "fit_indices.from_fit_us": per_call("fit_indices.from_fit", 1e6),
        "reliability.construct_ms": per_job(
            lambda g: 1e3 * total(g, "reliability.") / max(
                1, sum(s.name == "reliability.cronbach_alpha" for s in g))),
        "efa.extract_varimax_ms": per_job(lambda g: 1e3 * total(g, "efa.")),
        "effects.bootstrap_s": _median(b.duration for b in boots),
        "effects.rep_ms": _median(rep_ms),
        "effects.rep_iterations": (sum(rep_iters) / len(rep_iters)) if rep_iters else 0.0,
        "effects.kept_ratio": kept / attempted if attempted else 0.0,
        "effects.dropped": float(attempted - kept),
        "effects.cpu_util": cpu / capacity if capacity else 0.0,
        "report.render_ms": per_call("report.render_report", 1e3),
        "cli.self_ms": per_job(lambda g: 1e3 * sum(
            selfs[s.id] for s in g if s.name == "cli.dispatch")),
        "trace.overhead_ms": 1e3 * (_median(walls) - _median(untraced)),
        "trace.self_share": _median(
            sum(selfs[s.id] for s in jobs[j]) / wall for j, wall in traced.items()),
        "trace.spans_per_job": per_job(len),
    }
