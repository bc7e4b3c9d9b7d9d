"""Self-test of the benchmark: every workload for one second.

    python3 perfbench/selftest.py

Checks that each run ends with a result line naming every metric of
BENCHMARK.json with its unit, that a deliberately failed check shows up
as ``failed > 0`` and ``correct: false``, and that a directory holding
only the benchmark (no program sources) exits non-zero without a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def main() -> int:
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = result(run("--workload", w["name"], "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: entry["unit"] for name, entry in out["metrics"].items()}
            expect(got == want, f"{w['name']} trace {trace}: metrics {got} != {want}")
            expect(all(isinstance(e["value"], (int, float)) for e in out["metrics"].values()),
                   f"{w['name']} trace {trace}: a metric value is not a number")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{w['name']} trace {trace}: {out['failed']}/{out['attempted']} failed")
            print(f"ok  {w['name']} trace {trace}: {len(got)} metrics, "
                  f"failed {out['failed']}/{out['attempted']}")

    out = result(run("--workload", "fit_se_wide", "--seed", "7", "--seconds", "1",
                     "--inject-failure"))
    expect(not out["correct"] and out["failed"] / out["attempted"] > 0,
           "a deliberately failed check did not raise failed_ratio")
    print(f"ok  injected failure: failed {out['failed']}/{out['attempted']}, correct false")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("--workload", "fit_se_wide", "--seed", "7", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without program sources the benchmark must fail without a result")
    print(f"ok  benchmark alone exits {proc.returncode} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
