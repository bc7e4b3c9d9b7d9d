"""Golden outputs of the CLI: stdout, stderr and exit status of a fixed list
of commands on the seed-42, n = 519 simulation of the bundled model, in
text and JSON, and the flag table of every subcommand.

Paths are normalized: the temporary directory the commands run in reads
``<tmp>`` and the bundled assets directory ``<assets>``. The sha256 values
in the provenance headers are kept, so the data rows pin the bytes of the
simulated CSV and the model file.

Each command runs once, in-process, through ``cli.dispatch`` with
``--format json``; its text output is the same provenance and sections
rendered as text, which is what ``--format text`` writes. This halves the
run time of the bootstrap commands.

Float policy (fixed before the goldens were first compared):

- On the recording platform, every float is bit-identical: text and JSON
  are compared as strings. The platform is the machine architecture, the
  numpy and scipy versions, numpy's BLAS build and the CPU features numpy
  dispatches on; ``manifest.json`` records it.
- On any other platform, BLAS and LAPACK may order their reductions
  differently, which moves each sample moment by a few ulps (~1e-16
  relative). The survey model's information matrix is well conditioned
  (its asymptotic covariance has condition number ~25), so estimates,
  standard errors, p-values, indices and bootstrap bounds move by ~1e-12
  relative, far below the allowance. There a float matches when
  ``|a - b| <= 1e-6 * |b| + 1e-12``; the absolute term covers values that
  are zero up to rounding. A number printed in text is also allowed one
  unit of its last printed digit: each side's rounding adds up to half a
  unit, so a value inside the allowance can print as its neighbour.
- Everywhere, keys, strings, integers, booleans and nulls compare exactly,
  and so does every non-numeric part of the text.

A change that means to alter the output regenerates the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and states each change and
its cause.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import latentpath as lp
from latentpath import cli

GOLDEN = Path(__file__).parent / "golden"
ASSETS = Path(lp.__file__).parent / "assets"
REL_TOL, ABS_TOL = 1e-6, 1e-12

_MODEL = ["--model", "{assets}/wuliangye.model"]
_DATA = ["--data", "{tmp}/sim.csv"]
_EFFECT = ["--effect", "EnvSt:PerVa:PB"]
COMMANDS = {
    "simulate": ["simulate", *_MODEL, "--params", "{assets}/wuliangye_sim.json",
                 "--n", "519", "--seed", "42", "--out", "{tmp}/sim.csv"],
    "fit": ["fit", *_MODEL, *_DATA],
    "fit_std_lv_conventional": ["fit", *_MODEL, *_DATA, "--std-lv",
                                "--stars", "conventional"],
    "cfa": ["cfa", *_MODEL, *_DATA],
    "efa": ["efa", *_DATA],
    "efa_m3_principal_axis": ["efa", *_DATA, "--retain", "m=3", "--method", "principal-axis",
                              "--rotation", "none", "--suppress", "0.3"],
    "reliability": ["reliability", *_DATA, "--construct", "ConsEth=CE1,CE3,CE4,CE7,CE9,CE10",
                    "--construct", "Pair=PB1,PB2"],
    "mediate_delta": ["mediate", *_MODEL, *_DATA, *_EFFECT, "--boot", "0"],
    "mediate_boot": ["mediate", *_MODEL, *_DATA, *_EFFECT, "--boot", "100", "--seed", "1"],
    "report": ["report", *_MODEL, *_DATA, "--boot", "100", "--seed", "1"],
    "report_divisor_n_std_lv": ["report", *_MODEL, *_DATA, "--boot", "100", "--seed", "3",
                                "--divisor", "n", "--std-lv"],
    # exit statuses other than 0
    "fit_not_converged": ["fit", *_MODEL, *_DATA, "--max-iter", "1"],
    "mediate_delta_not_converged": ["mediate", *_MODEL, *_DATA, *_EFFECT, "--boot", "0",
                                    "--max-iter", "1"],
    "report_not_converged": ["report", *_MODEL, *_DATA, "--boot", "0", "--max-iter", "1"],
    "reliability_unknown_item": ["reliability", *_DATA, "--construct", "X=nope1,nope2"],
}


def platform_fingerprint() -> dict:
    """What decides the bits of a float result besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "machine": platform.machine(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas, "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def run_commands(tmp: Path) -> dict[str, dict]:
    """Each command's exit status, stderr and text and JSON output, normalized."""
    def normalize(text: str) -> str:
        return text.replace(str(tmp), "<tmp>").replace(str(ASSETS), "<assets>")

    runs, reports, render = {}, [], cli.render_report

    def capture(prov, sections, fmt, star_convention):
        reports.append((prov, sections, star_convention))
        return render(prov, sections, fmt, star_convention)

    cli.render_report = capture
    try:
        for name, template in COMMANDS.items():
            reports.clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.dispatch([arg.format(tmp=tmp, assets=ASSETS) for arg in template]
                                      + ["--format", "json"])
            assert len(reports) <= 1, name
            if reports:
                prov, sections, star_convention = reports[0]
                text = render(prov, sections, "text", star_convention)
            else:
                text = ""
            runs[name] = {"argv": template, "status": status,
                          "stderr": normalize(err.getvalue()),
                          "text": normalize(text), "json": normalize(out.getvalue())}
    finally:
        cli.render_report = render
    return runs


def flag_table() -> dict[str, dict]:
    """Every subcommand's help and, per flag, its options, default, type,
    choices, required and help, in the order argparse lists them."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: {"help": helps[name], "flags": [
            {"options": a.option_strings, "action": type(a).__name__, "default": a.default,
             "type": getattr(a.type, "__name__", None),
             "choices": list(a.choices) if a.choices is not None else None,
             "required": a.required, "help": a.help}
            for a in subparser._actions]}
        for name, subparser in sub.choices.items()
    }


# --- comparison --------------------------------------------------------------


def floats_match(a: float, b: float, slack: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * abs(b) + ABS_TOL + slack


def assert_json_match(got, want, where: str = "") -> None:
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_json_match(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_match(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert floats_match(got, want), f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


_NUMBER = re.compile(r"[-+]?\d+(?:\.(\d+))?(?:e([-+]\d+))?")


def assert_text_match(got: str, want: str) -> None:
    """Text whose words match exactly but for their decimal numbers, which
    match to the float allowance plus one unit of their last digit."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for line, (g_line, w_line) in enumerate(zip(got_lines, want_lines), 1):
        g_words, w_words = g_line.split(), w_line.split()
        assert len(g_words) == len(w_words), f"line {line}: {g_line!r} against {w_line!r}"
        for g, w in zip(g_words, w_words):
            if g == w:
                continue
            assert _NUMBER.split(g)[::3] == _NUMBER.split(w)[::3], f"line {line}: {g} vs {w}"
            for gm, wm in zip(_NUMBER.finditer(g), _NUMBER.finditer(w)):
                decimals, exponent = wm.group(1), wm.group(2)
                assert decimals is not None or gm.group() == wm.group(), \
                    f"line {line}: {g} against {w}"
                if decimals is not None:
                    unit = 10.0 ** (int(exponent or 0) - len(decimals))
                    assert floats_match(float(gm.group()), float(wm.group()), unit), \
                        f"line {line}: {g} against {w}"


# --- tests -------------------------------------------------------------------


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def test_every_command_has_a_golden(manifest):
    assert list(manifest["runs"]) == list(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_golden(runs, manifest, name):
    run, want = runs[name], manifest["runs"][name]
    assert run["argv"] == want["argv"]
    assert run["status"] == want["status"]
    assert run["stderr"] == want["stderr"]
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    doc = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if manifest["recorded_on"] == platform_fingerprint():
        assert run["text"] == text
        assert run["json"] == doc
    else:
        assert_text_match(run["text"], text)
        assert_json_match(json.loads(run["json"]) if run["json"] else None,
                          json.loads(doc) if doc else None)


def test_flag_table_matches_golden():
    want = json.loads((GOLDEN / "flags.json").read_text(encoding="utf-8"))
    assert json.loads(json.dumps(flag_table())) == want


class TestComparison:
    """The comparison's own rules, on small inputs."""

    def test_json_float_allowance(self):
        assert_json_match({"a": [1.0 + 1e-9]}, {"a": [1.0]})
        with pytest.raises(AssertionError):
            assert_json_match({"a": [1.0 + 1e-5]}, {"a": [1.0]})

    @pytest.mark.parametrize("got, want", [({"a": 1}, {"a": 1.0}), ({"a": True}, {"a": 1}),
                                           ({"b": 1}, {"a": 1}), ({"a": "x"}, {"a": "y"})])
    def test_json_exact_parts(self, got, want):
        with pytest.raises(AssertionError):
            assert_json_match(got, want)

    def test_text_rounding_allowance(self):
        assert_text_match("x  0.124  3.00e-07\n", "x  0.123  2.99e-07\n")
        for got in ("x  0.125  3.00e-07\n", "y  0.123  2.99e-07\n", "x  0.123  2.99e-06\n",
                    "x  0.123  2.99e-07 z\n"):
            with pytest.raises(AssertionError):
                assert_text_match(got, "x  0.123  2.99e-07\n")

    def test_text_integers_are_exact(self):
        with pytest.raises(AssertionError):
            assert_text_match("df=180  F2", "df=179  F2")
        with pytest.raises(AssertionError):
            assert_text_match("df=179  F3", "df=179  F2")


def main() -> None:
    """Rewrite the goldens from the code as it stands."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_commands(Path(tmp))
    for name, run in runs.items():
        (GOLDEN / f"{name}.txt").write_text(run.pop("text"), encoding="utf-8")
        (GOLDEN / f"{name}.json").write_text(run.pop("json"), encoding="utf-8")
    manifest = {"recorded_on": platform_fingerprint(), "runs": runs}
    for name, doc in (("manifest", manifest), ("flags", flag_table())):
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs and the flag table to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
