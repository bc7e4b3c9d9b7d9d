import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_numeric_file(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        ds = lp.load_table(path)
        assert (ds.n, ds.p) == (3, 2)
        assert ds.names == ["a", "b"]
        assert not ds.missing.any()

    def test_blank_cell_marks_missing(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b\n1,\n3,4\n"))
        assert ds.missing[0, 1]
        assert np.isnan(ds.values[0, 1])

    def test_na_marker(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b\n1,NA\n3,4\n"))
        assert ds.missing[0, 1]

    def test_non_numeric_cell_is_missing_but_kept_raw(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b\n1,Male\n3,Female\n"))
        assert ds.missing[:, 1].all()
        assert ds.raw[0][1] == "Male"

    def test_non_finite_cells_are_missing(self, tmp_path):
        # float() parses these, but a NaN or inf row would poison S under listwise deletion
        ds = lp.load_table(write(tmp_path, "a,b,c\n1,2,3\n2,nan,1\n3,1,4\n"
                                           "4,5,-inf\n5,3,2\n"))
        assert ds.missing[1, 1] and ds.missing[3, 2]
        assert ds.missing.sum() == 2
        assert np.isnan(ds.values[ds.missing]).all()
        assert ds.raw[1][1] == "nan"
        moments = lp.covariance(ds)
        assert moments.n == 3
        assert np.isfinite(moments.S).all()

    def test_header_only_errors(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            lp.load_table(write(tmp_path, "a,b\n"))

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            lp.load_table(write(tmp_path, ""))

    def test_ragged_rows_error(self, tmp_path):
        with pytest.raises(DataError, match="row 3 has 3 cells"):
            lp.load_table(write(tmp_path, "a,b\n1,2\n1,2,3\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            lp.load_table(tmp_path / "nope.csv")

    def test_tab_delimiter(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a\tb\n1\t2\n3\t4\n"), delimiter="\t")
        assert ds.names == ["a", "b"]
        assert ds.values[1, 1] == 4

    def test_save_round_trip(self, tmp_path):
        from latentpath.data import save_table

        ds = lp.load_table(write(tmp_path, "a,b\n1.5,\n3,4\n"))
        out = tmp_path / "echo.csv"
        save_table(ds, out)
        again = lp.load_table(out)
        np.testing.assert_array_equal(ds.missing, again.missing)
        assert np.allclose(ds.values, again.values, equal_nan=True)


def brute_force_cov(X, ddof=1):
    """Direct double-loop covariance, the slow way."""
    n, p = X.shape
    xbar = [sum(X[:, j]) / n for j in range(p)]
    S = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            acc = 0.0
            for i in range(n):
                acc += (X[i, a] - xbar[a]) * (X[i, b] - xbar[b])
            S[a, b] = acc / (n - ddof)
    return S


class TestCovariance:
    def test_hand_dataset_matches_brute_force(self):
        X = np.array([
            [1.0, 2.0, 0.5],
            [2.0, 1.0, 1.5],
            [3.0, 5.0, 2.0],
            [4.0, 3.0, 0.0],
        ])
        mom = lp.covariance(lp.from_array(X))
        np.testing.assert_allclose(mom.S, brute_force_cov(X), atol=1e-12)

    def test_identical_columns_correlate_fully(self):
        col = np.array([1.0, 2.0, 5.0, 3.0])
        mom = lp.covariance(lp.from_array(np.column_stack([col, col])))
        assert mom.R[0, 1] == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        mom = lp.covariance(lp.from_array(X, ["const", "x"]))
        assert mom.zero_variance == ["const"]
        assert np.isnan(mom.R[0, 1])
        assert mom.R[1, 1] == 1.0

    def test_divisor_n_relation(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((13, 4))
        ds = lp.from_array(X)
        a = lp.covariance(ds, divisor="n-1")
        b = lp.covariance(ds, divisor="n")
        np.testing.assert_allclose(b.S, a.S * (13 - 1) / 13, atol=1e-12)

    def test_listwise_deletion(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0], [2.0, 1.0], [4.0, 5.0]])
        mom = lp.covariance(lp.from_array(X))
        assert mom.n == 3

    def test_insufficient_rows(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0]])
        with pytest.raises(DataError, match="at least 2 complete rows"):
            lp.covariance(lp.from_array(X))

    @given(st.floats(-1e3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_centering_invariance(self, shift):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 3))
        shifted = X.copy()
        shifted[:, 1] += shift
        a = lp.covariance(lp.from_array(X))
        b = lp.covariance(lp.from_array(shifted))
        np.testing.assert_allclose(a.S, b.S, atol=1e-9)

    def test_correlations_bounded(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6))
        mom = lp.covariance(lp.from_array(X))
        assert np.all(mom.R <= 1.0 + 1e-12) and np.all(mom.R >= -1.0 - 1e-12)
        np.testing.assert_allclose(np.diag(mom.R), 1.0)


class TestFrequencyTable:
    def test_gender_style_column(self, tmp_path):
        rows = ["gender"] + ["Male"] * 236 + ["Female"] * 283
        path = tmp_path / "g.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        ds = lp.load_table(path)
        table = lp.frequency_table(ds, "gender")
        by_level = {level: (count, pct) for level, count, pct in table}
        assert by_level["Male"][0] == 236
        assert by_level["Male"][1] == pytest.approx(45.47, abs=0.005)
        assert sum(count for _, count, _ in table) == 519

    def test_single_level(self):
        ds = lp.from_array(np.ones((4, 1)), ["v"])
        table = lp.frequency_table(ds, "v")
        assert len(table) == 1
        assert table[0][1] == 4
        assert table[0][2] == pytest.approx(100.0)

    def test_three_levels(self):
        ds = lp.from_array(np.array([[1.0], [2.0], [3.0], [3.0]]), ["v"])
        table = lp.frequency_table(ds, "v")
        assert [(lvl, c) for lvl, c, _ in table] == [("1", 1), ("2", 1), ("3", 2)]
        assert [pct for _, _, pct in table] == [25.0, 25.0, 50.0]

    def test_unknown_variable(self):
        ds = lp.from_array(np.ones((3, 1)), ["v"])
        with pytest.raises(DataError, match="unknown variable"):
            lp.frequency_table(ds, "w")

    def test_missing_pooled_as_na(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("v\n1\nNA\n1\n", encoding="utf-8")
        ds = lp.load_table(path)
        table = lp.frequency_table(ds, "v")
        assert table[-1][0] == "NA"
        assert table[-1][1] == 1
        assert sum(c for _, c, _ in table) == 3
