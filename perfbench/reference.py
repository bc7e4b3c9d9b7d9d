"""Stored reference outputs on one fixed input per workload.

The timed inputs change with ``--seed``; these references do not. Each
run recomputes the workload's output on the reference input (seed 42)
outside the timed region and compares it with ``reference.json``.

The tolerances admit the changes the ROADMAP plans: warm-started or
Fisher-scoring optimizers stop within gtol of the same optimum (theta to
~1e-5), and a RAM parameterization reaches the same optimum. The 10% SE
tolerance leaves room for expected-information SEs, which for these
correctly specified models should differ from the observed-information
ones by less (not measured). A different optimum moves theta by far more
than 1e-4 and F_min by far more than 1e-8.

Regenerate (only when the program is meant to give new answers) with
``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 42

THETA_ATOL = 1e-4      # times max(1, |theta|)
FMIN_ATOL = 1e-8
SE_RTOL = 0.1
BOUND_ATOL = 1e-4


def compute(workload: str, workdir: Path) -> dict:
    """The workload's reference output, as plain JSON values."""
    import latentpath as lp
    import workloads as wl

    inputs = wl.setup(workload, REFERENCE_SEED, workdir / "reference")
    if workload == "mediate_pool":
        dec = lp.bootstrap_ci(inputs.dataset, inputs.spec, [wl.MEDIATION_EFFECT],
                              replicates=wl.BOOT_REPLICATES, seed=wl.MEDIATION_SEED,
                              workers=1)[0]
        return {"bounds": {k: list(getattr(dec, k)) for k in (
            "total_bounds", "direct_bounds", "indirect_bounds")}}
    res = lp.fit(inputs.spec, inputs.moments)
    return {"f_min": res.f_min,
            "theta": dict(zip(res.labels, res.theta.tolist())),
            "se": dict(zip(res.labels, res.se.tolist()))}


def check(workload: str, workdir: Path, checks, corrupt: bool = False) -> None:
    """Compare a fresh reference output with the stored one."""
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    if corrupt:  # a deliberately different optimum, for the self-test
        stored = json.loads(json.dumps(stored))
        if "theta" in stored:
            first = next(iter(stored["theta"]))
            stored["theta"][first] += 1.0
        else:
            stored["bounds"]["indirect_bounds"][0] += 1.0
    got = compute(workload, workdir)
    tag = f"reference.{workload}"
    if "bounds" in stored:
        for key, ref in stored["bounds"].items():
            gap = float(np.max(np.abs(np.subtract(got["bounds"][key], ref))))
            checks.add(f"{tag}.{key}", gap <= BOUND_ATOL, f"{key} off by {gap:.3g}")
        return
    checks.add(f"{tag}.labels", list(got["theta"]) == list(stored["theta"]),
               "parameter labels or their order changed")
    if list(got["theta"]) != list(stored["theta"]):
        return
    ref_theta = np.array(list(stored["theta"].values()))
    theta = np.array(list(got["theta"].values()))
    gap = float(np.max(np.abs(theta - ref_theta) / np.maximum(1.0, np.abs(ref_theta))))
    checks.add(f"{tag}.theta", gap <= THETA_ATOL, f"theta off by {gap:.3g} (scaled)")
    df = abs(got["f_min"] - stored["f_min"])
    checks.add(f"{tag}.f_min", df <= FMIN_ATOL, f"F_min off by {df:.3g}")
    ref_se = np.array(list(stored["se"].values()))
    se = np.array(list(got["se"].values()))
    rel = float(np.max(np.abs(se - ref_se) / ref_se))
    checks.add(f"{tag}.se", rel <= SE_RTOL, f"SEs off by {rel:.3g} (relative)")


def main() -> int:
    import run

    run.import_program()
    workdir = run.WORK_DIR
    import workloads as wl

    out = {w: compute(w, workdir) for w in wl.JOBS}
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
