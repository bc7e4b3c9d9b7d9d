import csv
import dataclasses
import gc
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latentpath as lp
from latentpath.data import _covariance_matrix, save_table
from latentpath.errors import DataError

from conftest import v_names


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def as_written(path):
    """The file's text with its line ends as written, as load_table reads it."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


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

    def test_non_numeric_cell_is_missing(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b\n1,Male\n3,Female\n"))
        assert ds.missing[:, 1].all()
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 3.0])

    def test_non_finite_cells_are_missing(self, tmp_path):
        # float() parses these, but a NaN or inf row would poison S under listwise deletion
        ds = lp.load_table(write(tmp_path, "a,b,c\n1,2,3\n2,nan,1\n3,1,4\n"
                                           "4,5,-inf\n5,3,2\n"))
        assert ds.missing[1, 1] and ds.missing[3, 2]
        assert ds.missing.sum() == 2
        assert np.isnan(ds.values[ds.missing]).all()
        moments = lp.covariance(ds)
        assert moments.n == 3
        assert np.isfinite(moments.S).all()

    def test_header_only_errors(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            lp.load_table(write(tmp_path, "a,b\n"))

    def test_duplicate_header_names_error(self, tmp_path):
        with pytest.raises(DataError, match="duplicate column names in header$"):
            lp.load_table(write(tmp_path, "a,b, a\n1,2,3\n"))

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            lp.load_table(write(tmp_path, ""))

    def test_ragged_rows_error(self, tmp_path):
        with pytest.raises(DataError, match="row 3 has 3 cells"):
            lp.load_table(write(tmp_path, "a,b\n1,2\n1,2,3\n"))

    def test_ragged_row_names_its_file_line(self, tmp_path):
        with pytest.raises(DataError, match="row 5 has 3 cells"):
            lp.load_table(write(tmp_path, "a,b\n\n\n1,2\n1,2,3\n"))

    def test_quoted_cell_keeps_its_line_break(self, tmp_path):
        # "1\n2" is one cell that is not a number; without its break it would read 12
        ds = lp.load_table(write(tmp_path, 'a,b\n"1\n2",3\n4,5\n'))
        np.testing.assert_array_equal(ds.missing, [[True, False], [False, False]])
        np.testing.assert_array_equal(ds.values[:, 1], [3.0, 5.0])
        # the break counts as a line of the file in a ragged row's number
        with pytest.raises(DataError, match="row 5 has 3 cells"):
            lp.load_table(write(tmp_path, 'a,b\n"1\n2",3\n4,5\n1,2,3\n'))
        # separators other than line breaks stay inside a cell too: one row, not two
        ds = lp.load_table(write(tmp_path, "a,b\nx\u2028y,1\n"))
        assert ds.n == 1
        np.testing.assert_array_equal(ds.values, [[np.nan, 1.0]])

    def test_quoted_cell_keeps_its_line_ends_as_written(self, tmp_path):
        # the header is the one row whose cells are kept as text
        path = tmp_path / "crlf.csv"
        path.write_bytes(b'"x\r\ny","u\rv"\r\n"1\r\n",2\r\n3,"4\r"\r\n')
        ds = lp.load_table(path)
        assert ds.names == ["x\r\ny", "u\rv"]
        np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"a,b\r1,2\r\r3,4\r")
        ds = lp.load_table(path)
        np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])
        path.write_bytes(b"a,b\r1,2\r\r1,2,3\r")
        with pytest.raises(DataError, match="row 4 has 3 cells"):
            lp.load_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            lp.load_table(tmp_path / "nope.csv")

    def test_tab_delimiter(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a\tb\n1\t2\n3\t4\n"), delimiter="\t")
        assert ds.names == ["a", "b"]
        assert ds.values[1, 1] == 4

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        with pytest.raises(DataError, match="delimiter must be one character"):
            lp.load_table(write(tmp_path, "a,b\n1,2\n"), delimiter=delimiter)

    def test_save_round_trip(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b\n1.5,\n3,4\n"))
        out = tmp_path / "echo.csv"
        save_table(ds, out)
        again = lp.load_table(out)
        np.testing.assert_array_equal(ds.missing, again.missing)
        assert np.allclose(ds.values, again.values, equal_nan=True)

    def test_latin1_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("caf\xe9,b\n1,2\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin.csv is not UTF-8 text"):
            lp.load_table(path)
        # a byte met after many kilobytes is placed within the file, not within
        # the block the reader was decoding
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xe9\n")
        with pytest.raises(DataError, match="byte 0xe9 in position 20006"):
            lp.load_table(path)

    def test_oversized_cell_names_path_and_row(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3," + "9" * 200_000 + "\n")
        with pytest.raises(DataError, match=r"data\.csv: row 3: field larger than field limit"):
            lp.load_table(path)

    def test_subset_follows_named_columns(self, tmp_path):
        ds = lp.load_table(write(tmp_path, "a,b,c\n 1 ,x,NA\n\n2,\"y, z\",3\n"))
        np.testing.assert_array_equal(ds.values, [[1.0, np.nan, np.nan], [2.0, np.nan, 3.0]])
        sub = ds.subset(["c", "a"])
        assert sub.names == ["c", "a"]
        np.testing.assert_array_equal(sub.values, [[np.nan, 1.0], [3.0, 2.0]])
        with pytest.raises(DataError, match="unknown variable 'd'"):
            ds.subset(["a", "d"])

    def test_file_is_closed_on_every_error(self, tmp_path):
        ragged = write(tmp_path, "a,b\n1,2\n1,2,3\n", "ragged.csv")
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"a,b\n1,2\n3,\xe9\n")
        empty = write(tmp_path, "", "empty.csv")
        # an open file left to the collector warns as it is freed, which here
        # is when the exception and its traceback go, or at gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for path, message in ((ragged, "has 3 cells"), (latin, "is not UTF-8 text"),
                                  (empty, "is empty")):
                try:
                    lp.load_table(path)
                except DataError as exc:
                    assert message in str(exc)
                else:
                    pytest.fail(f"{path.name} loaded")
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def eager_load(text, delimiter=","):
    """An eager parser of the whole text at once. It reads rows as
    load_table does: a quoted cell keeps its line breaks, and a ragged row
    is numbered by the file line it ends on."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    rows = [(row, reader.line_num) for row in reader]
    rows = [(row, line) for row, line in rows
            if any(cell.strip() for cell in row) or len(row) > 1]
    if not rows:
        raise DataError("is empty")
    header = [cell.strip() for cell in rows[0][0]]
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    body = rows[1:]
    if not body:
        raise DataError("has a header but no data rows")
    p = len(header)
    values = np.empty((len(body), p))
    mask = np.zeros((len(body), p), dtype=bool)
    for i, (row, line) in enumerate(body):
        if len(row) != p:
            raise DataError(f"row {line} has {len(row)} cells, expected {p}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                values[i, j] = value
            else:
                values[i, j], mask[i, j] = np.nan, True
    return header, values, mask


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, math.nan]

CELL_WORDS = ["", "NA", "nan", "-nan", "inf", "-Infinity", "Male", "Female", "1_000",
              "1e999", "yes no", "0x10", "\u0663", "\u00a03\u00a0"]


@st.composite
def csv_texts(draw):
    p = draw(st.integers(1, 4))
    cell = st.one_of(
        st.sampled_from(CELL_WORDS),
        st.integers(-50, 50).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    )
    pad = st.sampled_from(["", " ", "  ", "\t"])

    def render(value):
        value = draw(pad) + value + draw(pad)
        if draw(st.booleans()) or any(ch in value for ch in ',"\r\n'):
            value = '"' + value.replace('"', '""') + '"'
        return value

    names = [draw(pad) + f"c{j}" + draw(pad) for j in range(p)]
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        arity = p + draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1]))
        lines.append(",".join(render(draw(cell)) for _ in range(max(arity, 1))))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestLoadTableProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_save_load_round_trip_is_bit_exact(self, tmp_path_factory, data):
        n, p = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        cell = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                         st.floats(allow_nan=True, allow_infinity=True))
        X = np.array(data.draw(st.lists(st.lists(cell, min_size=p, max_size=p),
                                        min_size=n, max_size=n)), dtype=float)
        # a cell that is not finite is missing, NaN, as loading makes it
        ds = lp.Dataset(v_names(p), np.where(np.isfinite(X), X, np.nan))
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        save_table(ds, path)
        again = lp.load_table(path)
        assert again.names == ds.names
        np.testing.assert_array_equal(again.missing, ~np.isfinite(X))
        np.testing.assert_array_equal(bits(again.values), bits(ds.values))

    @given(csv_texts())
    @settings(max_examples=25, deadline=None)
    def test_matches_eager_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("eager") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            header, values, mask = eager_load(as_written(path))
        except DataError as exc:
            with pytest.raises(DataError) as got:
                lp.load_table(path)
            assert str(got.value).endswith(str(exc))
            return
        ds = lp.load_table(path)
        assert ds.names == header
        np.testing.assert_array_equal(ds.missing, mask)
        np.testing.assert_array_equal(bits(ds.values), bits(values))

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_bytes_load_or_raise_data_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("bytes") / "b.csv"
        path.write_bytes(blob)
        try:
            ds = lp.load_table(path)
        except DataError:
            return
        header, values, mask = eager_load(blob.decode("utf-8"))
        assert ds.names == header
        np.testing.assert_array_equal(ds.missing, mask)
        np.testing.assert_array_equal(bits(ds.values), bits(values))


class TestLoadTableMemory:
    def test_load_holds_numbers_not_cells(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "wide.csv"
        save_table(lp.Dataset(v_names(48), rng.standard_normal((2000, 48))), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ds = lp.load_table(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the eager parser peaked at 6.0x and held 4.4x; the whole file's bytes,
        # decoded text and compressed copy peaked at 2.5x and held 0.9x
        assert peak <= 0.75 * size
        assert held <= 0.5 * size
        _, values, _ = eager_load(as_written(path))
        np.testing.assert_array_equal(bits(ds.values), bits(values))


def csv_writer_bytes(dataset, delimiter):
    """The file save_table writes, built by csv.writer from the whole table at once."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, delimiter=delimiter)
    writer.writerow(dataset.names)
    for row, gone in zip(dataset.values.tolist(), dataset.missing.tolist()):
        writer.writerow(["NA" if g else repr(v) for v, g in zip(row, gone)])
    return out.getvalue().encode("utf-8")


class TestSaveTable:
    # complete rows and rows with missing cells, signed zero, the smallest
    # subnormal and a value near the largest double
    VALUES = np.array([
        [-0.0, 5e-324, 1e308],
        [1.5, np.nan, -2.25],
        [-1e-07, 3.0, 1e22],
        [np.nan, 0.1, -0.0],
        [12.0, -1e308, 2.5e-300],
    ])

    @pytest.mark.parametrize("delimiter", [",", "\t", ";", "|", ".", "e", "-", "N"])
    def test_bytes_match_csv_writer(self, tmp_path, delimiter):
        ds = lp.Dataset(["a", "N-e", 'q"t'], self.VALUES)
        path = tmp_path / "out.csv"
        save_table(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds, ",")
        # what csv.writer writes with any delimiter loads back, also one that
        # a number or NA holds, around which csv.writer quotes the cell
        path.write_bytes(csv_writer_bytes(ds, delimiter))
        again = lp.load_table(path, delimiter=delimiter)
        np.testing.assert_array_equal(again.missing, ds.missing)
        np.testing.assert_array_equal(bits(again.values), bits(ds.values))

    def test_write_holds_one_row_at_a_time(self, tmp_path):
        rng = np.random.default_rng(2024)
        ds = lp.Dataset(v_names(48), rng.standard_normal((2000, 48)))
        path = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            save_table(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * path.stat().st_size  # building every row first peaked at 2.2x
        assert path.read_bytes() == csv_writer_bytes(ds, ",")


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
        mom = lp.covariance(lp.Dataset(v_names(3), X))
        np.testing.assert_allclose(mom.S, brute_force_cov(X), atol=1e-12)

    def test_identical_columns_correlate_fully(self):
        col = np.array([1.0, 2.0, 5.0, 3.0])
        mom = lp.covariance(lp.Dataset(["a", "b"], np.column_stack([col, col])))
        assert mom.R[0, 1] == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        # the mean of 519 rows of 0.1 is not 0.1, so that column's variance is 8e-31
        X = np.column_stack([np.ones(519), np.arange(519.0), np.full(519, 0.1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                lp.covariance(lp.Dataset(["const", "x", "tenth"], X))
        assert str(err.value) == "no variance in column(s): const, tenth"

    def test_constant_indicator_in_the_survey_simulation(self, planted):
        # moments with a constant PB5 would make bartlett return NaN after a
        # numpy warning, and kmo and extract reject R
        m, theta = planted
        data = lp.simulate(m, theta, 519, seed=42)
        data.values[:, data.names.index("PB5")] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                lp.covariance(data)
        assert str(err.value) == "no variance in column(s): PB5"

    def test_r_is_derived_from_s(self):
        X = np.random.default_rng(4).standard_normal((30, 3))
        mom = lp.covariance(lp.Dataset(v_names(3), X))
        assert [f.name for f in dataclasses.fields(mom)] == ["S", "n", "names"]
        np.testing.assert_allclose(mom.R, np.corrcoef(X, rowvar=False), atol=1e-12)
        assert np.all(np.diag(mom.R) == 1.0)

    def test_divisor_n_relation(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((13, 4))
        ds = lp.Dataset(v_names(4), X)
        a = lp.covariance(ds, divisor="n-1")
        b = lp.covariance(ds, divisor="n")
        np.testing.assert_allclose(b.S, a.S * (13 - 1) / 13, atol=1e-12)

    def test_unknown_divisor_is_a_data_error(self):
        ds = lp.Dataset(v_names(2), np.random.default_rng(5).standard_normal((13, 2)))
        with pytest.raises(DataError, match="^divisor must be 'n-1' or 'n'$") as exc:
            lp.covariance(ds, divisor="N")
        assert isinstance(exc.value, lp.LatentPathError)

    def test_listwise_deletion(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0], [2.0, 1.0], [4.0, 5.0]])
        mom = lp.covariance(lp.Dataset(v_names(2), X))
        assert mom.n == 3

    def test_nan_cell_of_a_dataset_built_directly_is_missing(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0], [2.0, 1.0], [4.0, 5.0]])
        ds = lp.Dataset(["a", "b"], X)
        np.testing.assert_array_equal(ds.missing, np.isnan(X))
        mom = lp.covariance(ds)
        assert mom.n == 3
        assert mom.S.tobytes() == lp.covariance(lp.Dataset(["a", "b"], X[[0, 2, 3]])).S.tobytes()

    def test_infinite_cell_of_a_dataset_built_directly_is_missing(self):
        X = np.random.default_rng(4).standard_normal((5, 3))
        X[1, 2], X[3, 0] = np.inf, -np.inf
        ds = lp.Dataset(v_names(3), X)
        np.testing.assert_array_equal(ds.missing, ~np.isfinite(X))
        mom = lp.covariance(ds)
        assert mom.n == 3
        assert mom.S.tobytes() == lp.covariance(lp.Dataset(v_names(3), X[[0, 2, 4]])).S.tobytes()

    def test_insufficient_rows(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0]])
        with pytest.raises(DataError, match="at least 2 complete rows"):
            lp.covariance(lp.Dataset(v_names(2), X))

    def test_insufficient_rows_name_the_empty_columns(self):
        X = np.array([[1.0, np.nan, 2.0, np.nan], [2.0, np.nan, 3.0, np.nan]])
        with pytest.raises(DataError) as err:
            lp.covariance(lp.Dataset(["a", "gender", "b", "note"], X))
        assert str(err.value) == \
            "need at least 2 complete rows, have 0; no number in column(s): gender, note"

    @given(st.floats(-1e3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_centering_invariance(self, shift):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 3))
        shifted = X.copy()
        shifted[:, 1] += shift
        a = lp.covariance(lp.Dataset(v_names(3), X))
        b = lp.covariance(lp.Dataset(v_names(3), shifted))
        np.testing.assert_allclose(a.S, b.S, atol=1e-9)

    def test_correlations_bounded(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6))
        mom = lp.covariance(lp.Dataset(v_names(6), X))
        assert np.all(mom.R <= 1.0 + 1e-12) and np.all(mom.R >= -1.0 - 1e-12)
        np.testing.assert_allclose(np.diag(mom.R), 1.0)


class TestCompleteRows:
    def test_complete_dataset_gives_a_read_only_view(self):
        ds = lp.Dataset(v_names(4), np.random.default_rng(4).standard_normal((30, 4)))
        X = ds.complete_rows()
        assert np.shares_memory(X, ds.values)
        assert not X.flags.writeable
        assert ds.values.flags.writeable
        np.testing.assert_array_equal(X, ds.values)

    def test_missing_row_is_left_out_of_a_copy(self):
        X = np.random.default_rng(4).standard_normal((30, 4))
        X[7, 2] = np.nan
        ds = lp.Dataset(v_names(4), X)
        kept = ds.complete_rows()
        assert not np.shares_memory(kept, ds.values)
        np.testing.assert_array_equal(kept, np.delete(X, 7, axis=0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_covariance_bits_match_a_copy_of_the_kept_rows(self, order):
        X = np.random.default_rng(9).standard_normal((500, 6)) * 3.0 + 1.0
        ds = lp.Dataset(v_names(6), np.asarray(X, order=order))
        expected = _covariance_matrix(ds.values[np.ones(ds.n, dtype=bool)], ds.n - 1)
        np.testing.assert_array_equal(bits(lp.covariance(ds).S), bits(expected))

    def test_loaded_subset_gives_a_view(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "t.csv"
        save_table(lp.Dataset(v_names(8), rng.standard_normal((200, 8))), path)
        sub = lp.load_table(path).subset(["v7", "v2", "v5"])
        assert np.shares_memory(sub.complete_rows(), sub.values)
        expected = _covariance_matrix(sub.values[np.ones(sub.n, dtype=bool)], sub.n - 1)
        np.testing.assert_array_equal(bits(lp.covariance(sub).S), bits(expected))

