import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentpath as lp
from latentpath import cli
from latentpath.cli import dispatch
from latentpath.report import stars

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
        assert doc["schema"] == 2
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
        assert effect["total_indirect"] == pytest.approx(
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
    def sections(self, argv, out):
        assert dispatch(argv + ["--model", MODEL, "--format", "json",
                                "--output", str(out)]) == 0
        return {name: json.dumps(section, sort_keys=True) for name, section
                in json.loads(out.read_text())["sections"].items()}

    def test_sections_match(self, sim_csv, tmp_path):
        data = ["--data", sim_csv]
        boot = ["--boot", "100", "--seed", "1"]
        report = self.sections(["report", *data, *boot], tmp_path / "report.json")
        fit = self.sections(["fit", *data], tmp_path / "fit.json")
        cfa = self.sections(["cfa", *data], tmp_path / "cfa.json")
        mediate = self.sections(["mediate", *data, *boot, "--effect", "EnvSt:PerVa:PB"],
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
        assert stars(0.0005) == "***"
        assert stars(0.07) == "*"
        assert stars(0.5) == ""
        assert stars(0.03) == "**"

    def test_conventional(self):
        assert stars(0.03, "conventional") == "*"
        assert stars(0.007, "conventional") == "**"
        assert stars(0.0005, "conventional") == "***"
