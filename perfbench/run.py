"""latentpath benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload survey_report --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
SE_PAIRS = 5


def import_program():
    """Import latentpath from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "latentpath" / "__init__.py").is_file():
        print(f"error: no latentpath sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import latentpath

    if Path(latentpath.__file__).resolve().parent != (src / "latentpath").resolve():
        print(f"error: imported latentpath from {latentpath.__file__}", file=sys.stderr)
        sys.exit(2)
    return latentpath


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank. Below 20 samples that percentile would not lie above
    the median, so the maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return ordered[rank - 1], f"p{pct}"


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: import, generate, write, parse."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Failures:
    """Failure counts by reason, each against what it was attempted on."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def add(self, reason: str, failed: int, attempted: int) -> None:
        entry = self.counts.setdefault(reason, [0, 0])
        entry[0] += failed
        entry[1] += attempted

    def totals(self) -> tuple[int, int]:
        failed = sum(c[0] for c in self.counts.values())
        attempted = sum(c[1] for c in self.counts.values())
        return failed, attempted


@dataclass
class JobRecord:
    id: str
    wall_s: float
    cpu_s: float
    traced: bool
    outcome: object = None  # None when the job raised


def run_jobs(job, seconds: float, tracer, failures: Failures, checks) -> list[JobRecord]:
    """Closed loop, one client: start the next job when one completes.

    Each job's output is collected and checked after its timed region.
    With a tracer, every second job is traced.
    """
    import latentpath as lp

    records = []
    start = time.perf_counter()
    while True:
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        error = None
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.job = f"job{k}"
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("bench.job"):
                        value = job.run()
                else:
                    value = job.run()
            except lp.LatentPathError as exc:
                error = ("latentpath_error", exc)
            except Exception as exc:  # keep measuring; the failure is counted
                error = ("other_exception", exc)
            t1 = time.perf_counter()
            c1 = cpu_seconds()
        record = JobRecord(f"job{k}", t1 - t0, c1 - c0, traced)
        records.append(record)
        for reason in ("latentpath_error", "other_exception"):
            failures.add(reason, int(error is not None and error[0] == reason), 1)
        if error is not None:
            traceback.print_exception(error[1], file=sys.stderr)
        else:
            with tracer.installed() if tracer else contextlib.nullcontext():
                if tracer:
                    tracer.job = "check"
                record.outcome = job.collect(k, value, checks)
        enough = time.perf_counter() - start >= seconds
        if enough and (tracer is None or len(records) >= 2):
            return records


def job_figures(records: list[JobRecord]) -> dict[str, float]:
    """Median, tail, throughput and CPU of the untraced jobs, printed each run."""
    plain = [r for r in records if not r.traced]
    walls = [r.wall_s for r in plain]
    ops = sum(o.replicates - o.dropped if o.replicates else o.fits
              for o in (r.outcome for r in plain) if o is not None)
    tail_value, tail_name = tail(walls)
    print(f"# untraced jobs {len(walls)}: median {1e3 * statistics.median(walls):.6g} ms, "
          f"{tail_name} {1e3 * tail_value:.6g} ms, {ops} ops in {sum(walls):.6g} s")
    return {
        "job.p50_ms": 1e3 * statistics.median(walls),
        "job.tail_ms": 1e3 * tail_value,
        "job.ops_per_s": ops / sum(walls),
        "job.cpu_s": sum(r.cpu_s for r in plain) / len(plain),
    }


def se_pairs(fit_inputs) -> list[tuple[float, float, int]]:
    """(ms with SEs, ms without, iterations) per input, medians of SE_PAIRS."""
    import latentpath as lp

    out = []
    for spec, moments in fit_inputs:
        with_se, without = [], []
        for _ in range(SE_PAIRS):
            t0 = time.perf_counter()
            lp.fit(spec, moments)
            t1 = time.perf_counter()
            res = lp.fit(spec, moments, compute_se=False)
            t2 = time.perf_counter()
            with_se.append(t1 - t0)
            without.append(t2 - t1)
        out.append((1e3 * statistics.median(with_se), 1e3 * statistics.median(without),
                    res.iterations))
    return out


def parse_args(workloads, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True,
                        help="simulation seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one job)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="compare against a deliberately wrong reference")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_program()
    import reference
    import tracing
    import workloads as wl

    args = parse_args(list(wl.JOBS), argv)

    workdir = WORK_DIR / f"{args.workload}-{args.seed}"
    if args.setup_only:
        wl.setup(args.workload, args.seed, workdir / "setup")
        print(repr(time.perf_counter() - T0))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        inputs = wl.setup(args.workload, args.seed, workdir)
    job = wl.JOBS[args.workload](inputs, workdir)
    job.warm()

    failures = Failures()
    checks = wl.Checks()
    records = run_jobs(job, args.seconds, tracer, failures, checks)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (usage_self + usage_children) / 1024.0

    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.job = "check"
        job.finish(checks)
        reference.check(args.workload, WORK_DIR, checks, corrupt=args.inject_failure)

    outcomes = [r.outcome for r in records if r.outcome is not None]
    failures.add("nonzero_exit", sum(o.nonzero_exit for o in outcomes),
                 sum(o.exits for o in outcomes))
    failures.add("nonconverged_fit", sum(o.nonconverged for o in outcomes),
                 sum(o.fits for o in outcomes))
    failures.add("dropped_replicate", sum(o.dropped for o in outcomes),
                 sum(o.replicates for o in outcomes))
    failures.add("failed_check", len(checks.failed), len(checks.results))
    failed, attempted = failures.totals()
    correct = not checks.failed and len(outcomes) == len(records)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# machine {json.dumps(machine_facts())}")
    figures = job_figures(records)
    if args.trace:
        traced = {r.id: r.wall_s for r in records if r.traced}
        untraced = [r.wall_s for r in records if not r.traced]
        values = tracing.layer_metrics(tracer.spans, traced, untraced,
                                       se_pairs(job.se_inputs()))
        values.update(figures)
        tracer.write(workdir / "spans.json")
        print(f"# traced jobs {len(traced)}, spans {len(tracer.spans)} written to "
              f"{(workdir / 'spans.json').relative_to(ROOT)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, entry in metrics.items():
            print(f"{name:>26} = {entry['value']:.6g} {entry['unit']}")
    else:
        setup = setup_samples(args)
        values = {
            "setup_s": (statistics.median(setup), len(setup), "median of fresh processes"),
            "peak_rss_mb": (peak_rss_mb, 1, "self + largest child"),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            value, n, note = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:>14} = {value:.6g} {m['unit']}  (n={n}, {note})")
    for reason, (bad, total) in failures.counts.items():
        print(f"# failures {reason}: {bad}/{total}")
    print(f"# failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for name, _, detail in checks.failed:
        print(f"# check failed: {name}: {detail}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
