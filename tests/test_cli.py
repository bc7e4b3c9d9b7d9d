import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import latentpath as lp
from latentpath import cli
from latentpath import report as report_mod
from latentpath.cli import dispatch

from conftest import latent_covariance
from test_sem import CHAIN_MODEL, ZERO_LOADINGS_MODEL, two_factor_data

ASSETS = Path(lp.__file__).parent / "assets"
MODEL = str(ASSETS / "wuliangye.model")
PARAMS = str(ASSETS / "wuliangye_sim.json")


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sim.csv"
    status = dispatch([
        "simulate", "--model", MODEL, "--params", PARAMS,
        "--n", "519", "--seed", "42", "--out", str(out),
        "--output", str(out.parent / "sim_report.txt"),
    ])
    assert status == 0
    return str(out)


class TestSimulate:
    def test_writes_csv(self, sim_csv):
        ds = lp.load_table(sim_csv)
        assert ds.n == 519
        assert ds.p == 21
        assert set(ds.names) == set(lp.parse_model(Path(MODEL).read_text()).indicator_names)

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, path in (("1", a), ("2", b)):
            assert dispatch([
                "simulate", "--model", MODEL, "--params", PARAMS,
                "--n", "50", "--seed", seed, "--out", str(path),
                "--output", str(tmp_path / f"r{seed}.txt"),
            ]) == 0
        assert a.read_text() != b.read_text()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert dispatch([
                "simulate", "--model", MODEL, "--params", PARAMS,
                "--n", "50", "--seed", "9", "--out", str(path),
                "--output", str(tmp_path / "r.txt"),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_nonpositive_n_exits_2(self, tmp_path, n, capsys):
        out = tmp_path / "sim.csv"
        status = dispatch(["simulate", "--model", MODEL, "--params", PARAMS,
                           "--n", n, "--out", str(out)])
        assert status == 2
        assert "argument --n: must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_delimiter_is_refused(self, tmp_path, capsys):
        # simulate writes comma-separated files; only commands reading --data take it
        out = tmp_path / "sim.csv"
        status = dispatch(["simulate", "--model", MODEL, "--params", PARAMS,
                           "--n", "10", "--out", str(out), "--delimiter", ";"])
        assert status == 2
        assert "unrecognized arguments: --delimiter" in capsys.readouterr().err
        assert not out.exists()

    # a path other than --data that cannot be read or written: None makes
    # it a directory, bytes make it a file holding them
    @pytest.mark.parametrize("flag, content", [
        ("--model", None),
        ("--model", "CE =~ café".encode("latin-1")),
        ("--params", None),
        ("--params", b'{"values": '),
        ("--params", b"[1, 2]"),
        ("--output", None),
        ("--out", None),
    ], ids=["model-dir", "model-latin1", "params-dir", "params-malformed", "params-list",
            "output-dir", "out-dir"])
    def test_bad_path_exits_2_naming_it(self, tmp_path, flag, content, capsys):
        bad = tmp_path / "bad"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        paths = {"--model": MODEL, "--params": PARAMS, "--out": str(tmp_path / "sim.csv"),
                 "--output": str(tmp_path / "sim.txt"), flag: str(bad)}
        status = dispatch(["simulate", "--n", "10",
                           *(arg for item in paths.items() for arg in item)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, key", [
        ('{"values": 3}', "'values'"),
        ('{"defaults": "x"}', "'defaults'"),
        ('{"values": {"nope": 1}}', "'nope'"),
        ('{"standardize_latents": "no"}', "'standardize_latents'"),
        ('{"defaults": {"loading": 0.75, "loadingz": 1.0}}', "'loadingz'"),
        ('{"values": {"PB~PerVa": "0.3"}}', "['PB~PerVa']"),
        ('{"defaults": {"loading": 0.75}}', "no value or default for parameters"),
    ], ids=["values-number", "defaults-string", "values-unknown", "std-lv-string",
            "defaults-unknown-kind", "values-string-number", "no-value-or-default"])
    def test_bad_params_content_exits_2_naming_the_key(self, tmp_path, content, key, capsys):
        params = tmp_path / "params.json"
        params.write_text(content, encoding="utf-8")
        out = tmp_path / "sim.csv"
        status = dispatch(["simulate", "--model", MODEL, "--params", str(params),
                           "--n", "10", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", "-1"])
    def test_bad_env_seed_exits_2(self, tmp_path, seed, monkeypatch, capsys):
        monkeypatch.setenv("LATENTPATH_SEED", seed)
        out = tmp_path / "sim.csv"
        status = dispatch(["simulate", "--model", MODEL, "--params", PARAMS,
                           "--n", "10", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert f"LATENTPATH_SEED must be a non-negative integer, got '{seed}'" in err
        assert not out.exists()


class TestFit:
    def test_happy_path_text(self, sim_csv, tmp_path):
        out = tmp_path / "fit.txt"
        status = dispatch(["fit", "--model", MODEL, "--data", sim_csv,
                           "--output", str(out)])
        assert status == 0
        text = out.read_text()
        assert "Regression weights" in text
        assert "PB <- ConsEth" in text
        assert "H1" in text
        assert "Meets the standard?" in text

    def test_json_is_deterministic_and_full_precision(self, sim_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert dispatch(["fit", "--model", MODEL, "--data", sim_csv,
                             "--format", "json", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["schema"] == 3
        assert "provenance" in doc
        assert doc["provenance"]["model_sha256"]
        fit_section = doc["sections"]["fit"]
        assert fit_section["converged"] is True
        # full-precision numerics present in JSON
        est = fit_section["estimates"]["PB~PerVa"]
        assert isinstance(est, float)
        assert abs(est) > 1e-12

    def test_text_numbers_appear_in_json(self, sim_csv, tmp_path):
        txt, js = tmp_path / "r.txt", tmp_path / "r.json"
        assert dispatch(["fit", "--model", MODEL, "--data", sim_csv,
                         "--output", str(txt)]) == 0
        assert dispatch(["fit", "--model", MODEL, "--data", sim_csv,
                         "--format", "json", "--output", str(js)]) == 0
        doc = json.loads(js.read_text())
        paths = doc["sections"]["regression_weights"]["paths"]
        text = txt.read_text()
        for row in paths:
            rounded = f"{row['estimate']:.3f}"
            assert rounded in text

    def test_cyclic_model_exits_2(self, sim_csv, tmp_path, capsys):
        bad = tmp_path / "cyclic.model"
        bad.write_text("A =~ CE1 + CE3\nB =~ CE4 + CE7\nA ~ B\nB ~ A\n")
        status = dispatch(["fit", "--model", str(bad), "--data", sim_csv])
        assert status == 2
        assert "cycle" in capsys.readouterr().err

    def test_non_finite_fixed_value_exits_2(self, sim_csv, tmp_path, capsys):
        bad = tmp_path / "inf.model"
        bad.write_text(Path(MODEL).read_text().replace("ConsEth =~ ", "ConsEth =~ inf*"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = dispatch(["fit", "--model", str(bad), "--data", sim_csv])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fixed value 'inf' is not finite (line 5, column 12)")
        assert "Traceback" not in err

    def test_huge_fixed_value_exits_1_without_a_warning(self, sim_csv, tmp_path, capsys):
        # finite, so the model parses; Sigma overflows and the start is refused
        bad = tmp_path / "huge.model"
        bad.write_text(Path(MODEL).read_text().replace("ConsEth =~ ", "ConsEth =~ 1e308*"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = dispatch(["fit", "--model", str(bad), "--data", sim_csv])
        assert status == 1
        assert capsys.readouterr().err == ("estimation error: starting values give a "
                                           "non-positive-definite implied covariance\n")

    def test_linalg_error_exits_1(self, sim_csv, tmp_path, capsys):
        chain = tmp_path / "chain.model"
        chain.write_text(CHAIN_MODEL)
        for command in (["fit"], ["mediate", "--effect", "P:Q:R", "--boot", "0"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status = dispatch(command + ["--model", str(chain), "--data", sim_csv])
            assert status == 1
            assert capsys.readouterr().err == ("estimation error: starting values give a "
                                               "non-positive-definite implied covariance\n")

    def test_standard_errors_that_cannot_be_computed_show_as_na(self, tmp_path, capsys):
        data, model = tmp_path / "six.csv", tmp_path / "zero.model"
        lp.save_table(two_factor_data(), data)
        model.write_text(ZERO_LOADINGS_MODEL)
        status = dispatch(["fit", "--model", str(model), "--data", str(data), "--max-iter", "1"])
        assert status == 1  # not converged
        rows = capsys.readouterr().out.splitlines()
        assert rows[rows.index("Regression weights") + 3].split() == [
            "G", "<-", "F", "0.000", "NA", "NA", "NA"]

    def test_missing_file_exits_2(self, tmp_path):
        status = dispatch(["fit", "--model", MODEL, "--data",
                           str(tmp_path / "ghost.csv")])
        assert status == 2

    def test_undecodable_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("café,x\n1,2\n".encode("latin-1"))
        status = dispatch(["fit", "--model", MODEL, "--data", str(bad)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv is not UTF-8 text" in err

    def test_under_identified_exits_1(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 2))
        data.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in X) + "\n")
        bad = tmp_path / "over.model"
        bad.write_text("Lx =~ 1*x\nLy =~ 1*y\nLx ~~ Ly\n")
        status = dispatch(["fit", "--model", str(bad), "--data", str(data)])
        assert status == 1
        assert "estimation error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, sim_csv):
        assert dispatch(["fit", "--model", MODEL, "--data", sim_csv,
                         "--nope"]) == 2


class TestCfa:
    def test_convergent_and_discriminant_blocks(self, sim_csv, tmp_path):
        out = tmp_path / "cfa.txt"
        assert dispatch(["cfa", "--model", MODEL, "--data", sim_csv,
                         "--output", str(out)]) == 0
        text = out.read_text()
        assert "Convergent validity" in text
        assert "Discriminant validity" in text
        assert "CE1 <- ConsEth" in text


class TestDiscriminantCorrelations:
    """The Fornell-Larcker correlations are those of the CFA's latent covariance."""

    @pytest.fixture(scope="class")
    def two_factors(self, tmp_path_factory):
        C = np.full((6, 6), 0.3)
        C[:3, :3] = C[3:, 3:] = 0.6
        np.fill_diagonal(C, 1.0)
        X = np.random.default_rng(11).multivariate_normal(np.zeros(6), C, 400)
        tmp = tmp_path_factory.mktemp("two_factors")
        data, model = tmp / "two.csv", tmp / "two.model"
        lp.save_table(lp.Dataset(list("abcdef"), X), data)
        model.write_text("F =~ a + b + c\nG =~ d + e + f\n")
        return str(data), str(model)

    def run_cfa(self, argv, tmp_path, monkeypatch, planted=None):
        """The cfa JSON sections and the fit behind them, whose estimates of
        the ``planted`` labels are replaced by their values."""
        fits = []

        def recorded(*args, **kwargs):
            res = lp.fit(*args, **kwargs)
            theta = res.theta.copy()
            for label, value in (planted or {}).items():
                theta[res.labels.index(label)] = value
            fits.append(dataclasses.replace(res, theta=theta))
            return fits[-1]

        monkeypatch.setattr(cli, "fit", recorded)
        out = tmp_path / "cfa.json"
        assert dispatch(["cfa", *argv, "--format", "json", "--output", str(out)]) == 0
        (res,) = fits
        return json.loads(out.read_text())["sections"], res

    def assert_reference_correlations(self, sections, res):
        cov, names = latent_covariance(res.matrices, res.theta)
        sd = np.sqrt(np.diag(cov))
        corr = cov / (sd[:, None] * sd)
        fl = sections["discriminant_validity"]
        idx = [names.index(nm) for nm in fl["names"]]
        for i in range(len(idx)):
            for j in range(i):
                assert fl["matrix"][i][j] == corr[idx[i], idx[j]], (fl["names"][i], fl["names"][j])

    @pytest.mark.parametrize("std_lv", [[], ["--std-lv"]], ids=["marker", "std_lv"])
    def test_survey_cfa(self, sim_csv, std_lv, tmp_path, monkeypatch):
        sections, res = self.run_cfa(["--model", MODEL, "--data", sim_csv, *std_lv],
                                     tmp_path, monkeypatch)
        self.assert_reference_correlations(sections, res)

    def test_fixed_zero_covariance(self, two_factors, tmp_path, monkeypatch):
        data, model = two_factors
        fixed = Path(model).with_name("fixed.model")
        fixed.write_text(Path(model).read_text() + "F ~~ 0*G\n")
        sections, res = self.run_cfa(["--model", str(fixed), "--data", data],
                                     tmp_path, monkeypatch)
        self.assert_reference_correlations(sections, res)
        assert sections["discriminant_validity"]["matrix"][1][0] == 0.0

    def test_negative_latent_variance_blanks_every_construct(self, two_factors, tmp_path,
                                                             monkeypatch):
        # F~~F planted at -0.2 in a converged fit: the solution cannot be
        # standardized, so no construct has loadings, CR or AVE, and each
        # fails the Fornell-Larcker rule, without a warning on the way
        data, model = two_factors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sections, res = self.run_cfa(["--model", model, "--data", data], tmp_path,
                                         monkeypatch, {"F~~F": -0.2})
        assert res.converged
        for block in sections["convergent_validity"]["constructs"]:
            assert block["loadings"] == [None, None, None]
            assert block["cr"] is None and block["ave"] is None
        fl = sections["discriminant_validity"]
        assert fl["passed"] == {"F": False, "G": False} and not fl["all_passed"]


class TestReliability:
    def test_alpha_cr_ave_block(self, sim_csv, tmp_path):
        out = tmp_path / "rel.json"
        assert dispatch([
            "reliability", "--data", sim_csv,
            "--construct", "ConsEth=CE1,CE3,CE4,CE7,CE9,CE10",
            "--construct", "PerVa=PV1,PV2,PV3,PV4",
            "--format", "json", "--output", str(out),
        ]) == 0
        sections = json.loads(out.read_text())["sections"]

        def block(section):
            return {b["name"]: b for b in sections[section]["constructs"]}["ConsEth"]

        assert 0.6 < block("reliability")["alpha"] <= 1.0
        assert 0 < block("convergent_validity")["ave"] <= 1.0
        assert 0 < block("convergent_validity")["cr"] <= 1.0
        assert block("sampling_adequacy")["kmo"] > 0.5

    def test_unidentified_one_factor_leaves_cr_ave_blank(self, sim_csv, tmp_path):
        # two items cannot identify a one-factor model, so it has no CR/AVE
        txt, js = tmp_path / "rel2.txt", tmp_path / "rel2.json"
        for fmt, out in (("text", txt), ("json", js)):
            assert dispatch([
                "reliability", "--data", sim_csv, "--construct", "EnvSt=ES1,ES3",
                "--format", fmt, "--output", str(out),
            ]) == 0
        assert "ES1 <- EnvSt" in txt.read_text()
        (block,) = json.loads(js.read_text())["sections"]["convergent_validity"]["constructs"]
        assert block["cr"] is None and block["ave"] is None
        assert block["loadings"] == [None, None]

    def test_bad_construct_spec_exits_2(self, sim_csv):
        assert dispatch(["reliability", "--data", sim_csv,
                         "--construct", "nonsense"]) == 2

    def test_construct_without_items_exits_2(self, sim_csv, capsys):
        assert dispatch(["reliability", "--data", sim_csv, "--construct", "F= , "]) == 2
        assert capsys.readouterr().err == "error: --construct 'F' lists no items\n"

    @pytest.mark.parametrize("construct, message", [
        ("CE1=CE1,CE3,CE4", "--construct 'CE1' lists its own name as an item"),
        ("A=CE1,CE1", "--construct 'A' lists CE1 more than once"),
        ("=CE1,CE3", "--construct '=CE1,CE3' has no name"),
    ])
    def test_malformed_construct_exits_2(self, sim_csv, capsys, construct, message):
        assert dispatch(["reliability", "--data", sim_csv, "--construct", construct]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_construct_named_twice_exits_2(self, sim_csv, capsys):
        assert dispatch(["reliability", "--data", sim_csv, "--construct", "A=CE1,CE3,CE4",
                         "--construct", "A=PV1,PV2,PV3"]) == 2
        assert capsys.readouterr().err == "error: --construct 'A' given more than once\n"

    @pytest.mark.parametrize("name", ["Brand Trust", "1st"])
    def test_name_outside_the_model_language_is_fitted(self, sim_csv, tmp_path, name):
        # the one-factor model is built, not parsed, so any name is a construct name
        blocks = {}
        for construct in (name, "BrandTrust"):
            out = tmp_path / f"{construct}.json"
            assert dispatch(["reliability", "--data", sim_csv, "--format", "json",
                             "--construct", f"{construct}=CE1,CE3,CE4",
                             "--output", str(out)]) == 0
            section = json.loads(out.read_text())["sections"]["convergent_validity"]
            (blocks[construct],) = section["constructs"]
        assert blocks[name] == {**blocks["BrandTrust"], "name": name}
        block = blocks[name]
        assert (round(block["loadings"][0], 3), round(block["cr"], 4),
                round(block["ave"], 4)) == (0.774, 0.7948, 0.5637)


class TestEfa:
    def test_retention_and_suppression(self, sim_csv, tmp_path):
        out = tmp_path / "efa.json"
        assert dispatch(["efa", "--data", sim_csv, "--suppress", "0.4",
                         "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        efa = doc["sections"]["efa"]
        assert efa["n_factors"] == 5
        # suppression blanks at least one cross loading
        assert any(cell is None for row in efa["cells"] for cell in row)

    def test_fixed_retention(self, sim_csv, tmp_path):
        out = tmp_path / "efa2.json"
        assert dispatch(["efa", "--data", sim_csv, "--retain", "m=2",
                         "--rotation", "none",
                         "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sections"]["efa"]["n_factors"] == 2

    @pytest.mark.parametrize("suppress", ["nan", "inf", "-0.1"])
    def test_bad_suppress_exits_2(self, sim_csv, suppress, capsys):
        assert dispatch(["efa", "--data", sim_csv, "--suppress", suppress]) == 2
        assert (f"argument --suppress: must be finite and non-negative, got {suppress}"
                in capsys.readouterr().err)

    def test_bad_delimiter_exits_2(self, sim_csv, capsys):
        assert dispatch(["efa", "--data", sim_csv, "--delimiter", ";;"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the delimiter must be one character, got ';;'")

    def test_no_factors_exits_2(self, sim_csv, capsys):
        assert dispatch(["efa", "--data", sim_csv, "--retain", "m=0"]) == 2
        assert capsys.readouterr().err == "error: factor count must be in 1..21\n"

    @pytest.mark.parametrize("retain", ["m=abc", "m=", "three"])
    def test_malformed_retention_exits_2(self, sim_csv, retain, capsys):
        assert dispatch(["efa", "--data", sim_csv, "--retain", retain]) == 2
        assert "argument --retain: must be 'kaiser' or 'm=<k>'" in capsys.readouterr().err


class TestMediate:
    def test_bootstrap_output(self, sim_csv, tmp_path):
        out = tmp_path / "med.json"
        assert dispatch([
            "mediate", "--model", MODEL, "--data", sim_csv,
            "--effect", "EnvSt:PerVa:PB", "--boot", "150", "--seed", "3",
            "--format", "json", "--output", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        effect = doc["sections"]["mediation"]["effects"][0]
        assert effect["method"] == "percentile-bootstrap"
        assert effect["indirect_bounds"][0] <= effect["indirect_bounds"][1]
        assert effect["verdict"] in ("partial mediation", "full mediation",
                                     "no mediation", "none", "partial", "full")

    def test_delta_mode(self, sim_csv, tmp_path):
        out = tmp_path / "med_delta.json"
        assert dispatch([
            "mediate", "--model", MODEL, "--data", sim_csv,
            "--effect", "EnvSt:PerVa:PB", "--boot", "0",
            "--format", "json", "--output", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        effect = doc["sections"]["mediation"]["effects"][0]
        assert effect["method"] == "delta"
        # PerVa is the only mediator of EnvSt -> PB, so its route carries
        # all of total - direct
        assert effect["indirect"] == pytest.approx(
            effect["total"] - effect["direct"], abs=1e-12)

    def test_delta_mode_exits_1_when_the_fit_did_not_converge(self, sim_csv, tmp_path):
        out = tmp_path / "med_delta.json"
        assert dispatch([
            "mediate", "--model", MODEL, "--data", sim_csv,
            "--effect", "EnvSt:PerVa:PB", "--boot", "0", "--max-iter", "1",
            "--format", "json", "--output", str(out),
        ]) == 1
        # the intervals are still reported, as fit reports its estimates
        assert json.loads(out.read_text())["sections"]["mediation"]["effects"]

    def test_provenance_states_the_bootstrap_divisor(self, sim_csv, tmp_path):
        # the replicates resample with n-1 whatever --divisor says; without
        # replicates there is no bootstrap divisor to state
        prov = {}
        for command, boot in (("mediate", "100"), ("report", "100"), ("mediate", "0")):
            out = tmp_path / f"{command}{boot}.json"
            assert dispatch([
                command, "--model", MODEL, "--data", sim_csv, "--divisor", "n",
                "--effect", "EnvSt:PerVa:PB", "--boot", boot, "--seed", "1",
                "--format", "json", "--output", str(out),
            ]) == 0
            prov[command, boot] = json.loads(out.read_text())["provenance"]
        for key in (("mediate", "100"), ("report", "100")):
            assert prov[key]["covariance_divisor"] == "n"
            assert prov[key]["bootstrap"]["covariance_divisor"] == "n-1"
        assert "covariance_divisor" not in prov["mediate", "0"]["bootstrap"]

    def test_seed_reproducibility(self, sim_csv, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert dispatch([
                "mediate", "--model", MODEL, "--data", sim_csv,
                "--effect", "PBC:PerVa:PB", "--boot", "120", "--seed", "11",
                "--format", "json", "--output", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_override(self, sim_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("LATENTPATH_SEED", "77")
        out1 = tmp_path / "e1.json"
        assert dispatch([
            "mediate", "--model", MODEL, "--data", sim_csv,
            "--effect", "PBC:PerVa:PB", "--boot", "120",
            "--format", "json", "--output", str(out1),
        ]) == 0
        doc = json.loads(out1.read_text())
        assert doc["provenance"]["seed"] == 77


class TestReport:
    def test_full_pipeline(self, sim_csv, tmp_path):
        out = tmp_path / "full.txt"
        assert dispatch([
            "report", "--model", MODEL, "--data", sim_csv,
            "--boot", "120", "--seed", "5", "--output", str(out),
        ]) == 0
        text = out.read_text()
        for heading in ("Reliability", "KMO and sphericity",
                        "Rotated component matrix", "Convergent validity",
                        "Discriminant validity", "Regression weights",
                        "Hypotheses", "Effects:"):
            assert heading in text, heading


    def test_malformed_effect_exits_2(self, sim_csv, capsys):
        assert dispatch(["mediate", "--model", MODEL, "--data", sim_csv,
                         "--effect", "EnvSt:PB", "--boot", "0"]) == 2
        assert capsys.readouterr().err == ("error: --effect wants SRC:MED:DST, "
                                           "got 'EnvSt:PB'\n")

    def test_effect_outside_the_model_exits_2_without_replicates(self, sim_csv, tmp_path,
                                                                  capsys):
        out = tmp_path / "r.txt"
        assert dispatch(["report", "--model", MODEL, "--data", sim_csv, "--boot", "0",
                         "--effect", "X:Y:Z", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: 'X' is not a latent in the model\n"
        assert not out.exists()


def json_sections(argv: list[str], out: Path) -> dict:
    """The sections of a command's JSON report, each as its canonical JSON text."""
    assert dispatch(argv + ["--format", "json", "--output", str(out)]) == 0
    return {name: json.dumps(section, sort_keys=True) for name, section
            in json.loads(out.read_text())["sections"].items()}


class TestModelColumns:
    """A model command reads the model's indicators and no other column."""

    @pytest.fixture(scope="class")
    def with_column(self, sim_csv, tmp_path_factory):
        """The simulated file with a text column appended, and with a numeric
        column appended that is missing in the first row."""
        rows = Path(sim_csv).read_text().splitlines()
        folder = tmp_path_factory.mktemp("columns")
        gender, note = folder / "gender.csv", folder / "note.csv"
        gender.write_text("\n".join([rows[0] + ",gender"]
                                    + [row + ",Male" for row in rows[1:]]) + "\n")
        note.write_text("\n".join([rows[0] + ",note", rows[1] + ",NA"]
                                  + [row + ",1" for row in rows[2:]]) + "\n")
        return {"gender": str(gender), "note": str(note)}

    @pytest.mark.parametrize("argv", [
        ["fit"],
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--boot", "100", "--seed", "1"],
        ["report", "--boot", "100", "--seed", "1"],
    ], ids=["fit", "mediate", "report"])
    def test_text_column_changes_no_section(self, sim_csv, with_column, tmp_path, argv):
        base = json_sections([*argv, "--model", MODEL, "--data", sim_csv],
                             tmp_path / "base.json")
        extra = json_sections([*argv, "--model", MODEL, "--data", with_column["gender"]],
                              tmp_path / "extra.json")
        assert extra == base

    def test_missing_cell_in_another_column_drops_no_row(self, sim_csv, with_column,
                                                          tmp_path):
        argv = ["report", "--model", MODEL, "--boot", "0"]
        base = json_sections([*argv, "--data", sim_csv], tmp_path / "base.json")
        extra = json_sections([*argv, "--data", with_column["note"]], tmp_path / "extra.json")
        assert json.loads(extra["dataset"])["n_complete"] == 519
        assert extra == base

    def test_efa_names_the_text_column(self, with_column, capsys):
        # efa reads every column of the file, so a text column leaves no complete row
        assert dispatch(["efa", "--data", with_column["gender"]]) == 2
        assert capsys.readouterr().err == ("error: need at least 2 complete rows, have 0; "
                                           "no number in column(s): gender\n")

    def test_missing_indicator_exits_2(self, sim_csv, tmp_path, capsys):
        rows = [row.split(",") for row in Path(sim_csv).read_text().splitlines()]
        k = rows[0].index("CE1")
        data = tmp_path / "no_ce1.csv"
        data.write_text("\n".join(",".join(row[:k] + row[k + 1:]) for row in rows) + "\n")
        for command in (["fit"], ["report", "--boot", "0"]):
            assert dispatch([*command, "--model", MODEL, "--data", str(data)]) == 2
            assert capsys.readouterr().err == "error: data lacks model indicators: ['CE1']\n"


class TestConstantColumn:
    """A column without variance stops every command that analyses it with a
    usage error naming it, before numpy can warn about it."""

    @pytest.fixture(scope="class")
    def constant_pb5(self, sim_csv, tmp_path_factory):
        rows = [row.split(",") for row in Path(sim_csv).read_text().splitlines()]
        k = rows[0].index("PB5")
        for row in rows[1:]:
            row[k] = "3.0"
        path = tmp_path_factory.mktemp("constant") / "pb5.csv"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", MODEL],
        ["cfa", "--model", MODEL],
        ["efa"],
        ["reliability", "--construct", "PB=PB1,PB2,PB3,PB4,PB5"],
        ["mediate", "--model", MODEL, "--effect", "EnvSt:PerVa:PB", "--boot", "100"],
        ["report", "--model", MODEL, "--boot", "100"],
    ], ids=lambda argv: argv[0])
    def test_names_the_column_and_exits_2(self, constant_pb5, argv, tmp_path, capsys):
        out = tmp_path / "r.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = dispatch([*argv, "--data", constant_pb5, "--output", str(out)])
        assert status == 2
        assert capsys.readouterr().err == "error: no variance in column(s): PB5\n"
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestOverflowingColumn:
    """A column whose variance overflows a float is a usage error naming it,
    not an S of inf and NaN that numpy warns about and the commands fit,
    factor or score."""

    @pytest.fixture(scope="class")
    def huge_b(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(200)
        X = f[:, None] + rng.standard_normal((200, 3))
        X[:, 1] *= 1e160
        path = tmp_path_factory.mktemp("overflow") / "huge_b.csv"
        path.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n"
                                            for row in X.tolist()))
        (path.parent / "f.model").write_text("F =~ a + b + c\n")
        return path

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "f.model"],
        ["efa"],
        ["reliability", "--construct", "F=a,b,c"],
    ], ids=lambda argv: argv[0])
    def test_names_the_column_and_exits_2(self, huge_b, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(huge_b.parent)
        out = tmp_path / "r.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = dispatch([*argv, "--data", huge_b.name, "--output", str(out)])
        assert status == 2
        assert capsys.readouterr().err == \
            "error: variance overflows in column(s): b; rescale them\n"
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestHeywood:
    def test_fit_text_names_the_negative_variance(self, tmp_path):
        # test_sem's Heywood triad: s12 * s13 / s23 = 1.28 > s11, so the ML
        # solution needs a negative error variance on a. The rows are whitened
        # and recoloured so that their sample covariance is S to rounding.
        S = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
        z = np.random.default_rng(0).standard_normal((200, 3))
        z = (z - z.mean(axis=0)) @ np.linalg.inv(np.linalg.cholesky(np.cov(z.T))).T
        data, model, out = tmp_path / "triad.csv", tmp_path / "triad.model", tmp_path / "fit.txt"
        lp.save_table(lp.Dataset(["a", "b", "c"], z @ np.linalg.cholesky(S).T), data)
        model.write_text("F =~ 1*a + b + c\n")
        status = dispatch(["fit", "--model", str(model), "--data", str(data),
                           "--output", str(out)])
        assert status == 0
        assert "WARNING negative variance estimate (Heywood case): a~~a\n" in out.read_text()

    @pytest.fixture(scope="class")
    def two_constructs(self, tmp_path_factory):
        # corr(a, b) = corr(a, c) = .85 against corr(b, c) = .6 puts F=~a's
        # standardized loading at 1.075
        C = np.full((6, 6), 0.2)
        C[:3, :3] = [[1.0, 0.85, 0.85], [0.85, 1.0, 0.6], [0.85, 0.6, 1.0]]
        C[3:, 3:] = 0.5
        np.fill_diagonal(C, 1.0)
        X = np.random.default_rng(5).multivariate_normal(np.zeros(6), C, 400)
        tmp = tmp_path_factory.mktemp("heywood")
        data, model = tmp / "heywood.csv", tmp / "heywood.model"
        lp.save_table(lp.Dataset(list("abcdef"), X), data)
        model.write_text("F =~ a + b + c\nG =~ d + e + f\n")
        return str(data), str(model)

    @pytest.mark.parametrize("argv", [
        ["cfa", "--model", "{model}"],
        ["report", "--model", "{model}", "--boot", "0"],
        ["reliability", "--construct", "F=a,b,c"],
    ], ids=["cfa", "report", "reliability"])
    def test_construct_gets_no_cr_or_ave(self, two_constructs, argv, tmp_path):
        # a standardized loading beyond 1 leaves its construct without CR and
        # AVE, and fails it on the Fornell-Larcker rule; the commands still run
        data, model = two_constructs
        argv = [a.format(model=model) for a in argv] + ["--data", data]
        out = tmp_path / "out.json"
        assert dispatch(argv + ["--format", "json", "--output", str(out)]) == 0
        sections = json.loads(out.read_text())["sections"]
        F = sections["convergent_validity"]["constructs"][0]
        assert F["name"] == "F" and F["loadings"][0] > 1.0
        assert F["cr"] is None and F["ave"] is None
        text = tmp_path / "out.txt"
        assert dispatch(argv + ["--output", str(text)]) == 0
        assert not re.search(r"\bnan\b", text.read_text(), re.IGNORECASE)
        if "discriminant_validity" in sections:
            fl = sections["discriminant_validity"]
            assert fl["matrix"][0][0] is None and fl["ave"][0] is None
            assert fl["passed"] == {"F": False, "G": True}


class TestReportSections:
    def run_json(self, sim_csv, out):
        assert dispatch(["report", "--model", MODEL, "--data", sim_csv, "--boot", "0",
                         "--format", "json", "--output", str(out)]) == 0
        return json.loads(out.read_text())["sections"]

    def test_each_section_carries_its_own_keys(self, sim_csv, tmp_path):
        sections = self.run_json(sim_csv, tmp_path / "r.json")
        rel = sections["reliability"]["constructs"]
        adequacy = sections["sampling_adequacy"]["constructs"]
        assert [b["name"] for b in rel] == [b["name"] for b in adequacy]
        for r, a in zip(rel, adequacy):
            assert set(r) & set(a) == {"name", "items"}
            assert r["items"] == a["items"]
        holders = {name for name, section in sections.items()
                   for b in section.get("constructs", ()) if {"cr", "ave"} & set(b)}
        assert holders == {"convergent_validity"}

    def test_cr_ave_come_from_the_cfa_alone(self, sim_csv, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return lp.fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit", counted)
        self.run_json(sim_csv, tmp_path / "r.json")
        # the CFA and the structural model; no one-factor fit per construct
        assert len(calls) == 2


class TestReportIsTheUnionOfItsSubcommands:
    def test_sections_match(self, sim_csv, tmp_path):
        data = ["--model", MODEL, "--data", sim_csv]
        boot = ["--boot", "100", "--seed", "1"]
        report = json_sections(["report", *data, *boot], tmp_path / "report.json")
        fit = json_sections(["fit", *data], tmp_path / "fit.json")
        cfa = json_sections(["cfa", *data], tmp_path / "cfa.json")
        mediate = json_sections(["mediate", *data, *boot, "--effect", "EnvSt:PerVa:PB"],
                                tmp_path / "mediate.json")
        for name in ("fit", "regression_weights", "hypotheses"):
            assert report[name] == fit[name], name
        assert report["sem_fit_indices"] == fit["fit_indices"]
        for name in ("convergent_validity", "discriminant_validity"):
            assert report[name] == cfa[name], name
        assert report["cfa_fit_indices"] == cfa["fit_indices"]
        entries = {(e["source"], e["mediator"], e["target"]): json.dumps(e, sort_keys=True)
                   for e in json.loads(report["mediation"])["effects"]}
        (alone,) = json.loads(mediate["mediation"])["effects"]
        assert entries[("EnvSt", "PerVa", "PB")] == json.dumps(alone, sort_keys=True)

    # the simulated file holds exactly the model's indicators, in the
    # model's order; its permuted copy holds them in another order, which
    # report's efa follows as efa does
    @pytest.mark.parametrize("permute", [False, True], ids=["model_order", "permuted"])
    def test_psychometric_and_efa_sections_match(self, sim_csv, tmp_path, permute):
        if permute:
            data = lp.load_table(sim_csv)
            order = np.random.default_rng(0).permutation(data.p)
            sim_csv = str(tmp_path / "permuted.csv")
            lp.save_table(data.subset([data.names[i] for i in order]), sim_csv)
        report = json_sections(["report", "--model", MODEL, "--data", sim_csv, "--boot", "0"],
                               tmp_path / "report.json")
        efa = json_sections(["efa", "--data", sim_csv], tmp_path / "efa.json")
        assert report["efa"] == efa["efa"]
        spec = lp.parse_model(Path(MODEL).read_text(encoding="utf-8"))
        constructs = [f"--construct={lat.name}={','.join(lat.indicators)}"
                      for lat in spec.latents]
        reliability = json_sections(["reliability", "--data", sim_csv, *constructs],
                                    tmp_path / "reliability.json")
        for name in ("reliability", "sampling_adequacy"):
            assert report[name] == reliability[name], name


class TestFlagRanges:
    @pytest.mark.parametrize("argv", [
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--boot", "1"],
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--boot", "99"],
        ["report", "--boot", "-5"],
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--boot", "0", "--level", "1.5"],
        ["report", "--boot", "0", "--level", "0"],
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--level", "nan"],
        ["fit", "--max-iter", "0"],
        ["cfa", "--max-iter", "-3"],
        ["fit", "--gtol", "0"],
        ["fit", "--gtol", "inf"],
        ["report", "--boot", "0", "--gtol", "nan"],
        ["mediate", "--effect", "EnvSt:PerVa:PB", "--boot", "100", "--seed", "-1"],
        ["report", "--boot", "100", "--seed", "-3"],
    ], ids=lambda argv: " ".join(argv[0:1] + argv[-2:]))
    def test_out_of_range_exits_2(self, sim_csv, argv, capsys):
        status = dispatch(argv[:1] + ["--model", MODEL, "--data", sim_csv] + argv[1:])
        assert status == 2
        flag = argv[-2]
        assert f"argument {flag}" in capsys.readouterr().err


class TestModuleEntry:
    def test_help_via_python_m(self):
        env = dict(os.environ)
        src_dir = str(Path(lp.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "latentpath.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "usage: latentpath" in proc.stdout
        assert "report" in proc.stdout


class TestStars:
    def test_survey_convention(self):
        assert report_mod.stars(0.0005) == "***"
        assert report_mod.stars(0.07) == "*"
        assert report_mod.stars(0.5) == ""
        assert report_mod.stars(0.03) == "**"

    def test_conventional(self):
        assert report_mod.stars(0.03, "conventional") == "*"
        assert report_mod.stars(0.007, "conventional") == "**"
        assert report_mod.stars(0.0005, "conventional") == "***"


class TestToJsonable:
    def test_payload_types(self):
        payload = {"a": (1, np.float64(0.5), float("nan")), 2: np.array([[True, None]]),
                   "s": ["x", None, False]}
        assert report_mod.to_jsonable(payload) == {
            "a": [1, 0.5, None], "2": [[True, None]], "s": ["x", None, False]}

    @pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}, object()],
                             ids=["int64", "bool_", "set", "object"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError, match="^cannot write .* to a report$"):
            report_mod.to_jsonable({"x": [value]})


class TestFileSha256:
    def test_hashes_in_chunks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(8 * 1024 * 1024))
        tracemalloc.start()
        try:
            digest = report_mod.file_sha256(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 1024 * 1024  # reading the whole file peaked at 8 MB
