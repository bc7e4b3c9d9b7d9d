import numpy as np
import pytest

import latentpath as lp
from latentpath.efa import _varimax_criterion
from latentpath.errors import DataError

from conftest import v_names


def two_cluster_correlation(k1=4, k2=4, within=0.6, between=0.1):
    p = k1 + k2
    R = np.full((p, p), between)
    R[:k1, :k1] = within
    R[k1:, k1:] = within
    np.fill_diagonal(R, 1.0)
    return R


def column_match(A, B, atol=1e-8):
    """True when B equals A up to column permutation and sign."""
    if A.shape != B.shape:
        return False
    m = A.shape[1]
    used = set()
    for j in range(m):
        found = False
        for k in range(m):
            if k in used:
                continue
            if np.allclose(A[:, j], B[:, k], atol=atol) or \
               np.allclose(A[:, j], -B[:, k], atol=atol):
                used.add(k)
                found = True
                break
        if not found:
            return False
    return True


class TestExtract:
    def test_identity_retains_nothing(self):
        lm = lp.extract(np.eye(5), retention="kaiser")
        np.testing.assert_allclose(lm.eigenvalues, np.ones(5))
        assert lm.n_factors == 0

    def test_compound_symmetric_closed_form(self):
        # R = lam lam' + (1-lam^2) I with equal loadings 0.8: the top
        # eigenvalue is 1 + (p-1) * 0.64, the rest are 1 - 0.64.
        p, lam = 6, 0.8
        R = np.full((p, p), lam * lam)
        np.fill_diagonal(R, 1.0)
        lm = lp.extract(R, retention="kaiser")
        assert lm.n_factors == 1
        assert lm.eigenvalues[0] == pytest.approx(1 + (p - 1) * lam**2, abs=1e-10)
        np.testing.assert_allclose(lm.eigenvalues[1:], 1 - lam**2, atol=1e-10)

    def test_two_block_structure_retains_two(self):
        lm = lp.extract(two_cluster_correlation(), retention="kaiser")
        assert lm.n_factors == 2

    def test_eigenvalue_sum_is_p(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 7))
        R = lp.covariance(lp.Dataset(v_names(7), X)).R
        lm = lp.extract(R, retention="m=3")
        assert lm.eigenvalues.sum() == pytest.approx(7.0, abs=1e-9)

    def test_fixed_retention(self):
        lm = lp.extract(two_cluster_correlation(), retention="m=3")
        assert lm.n_factors == 3

    def test_non_integer_factor_count_rejected(self):
        with pytest.raises(DataError, match="factor count of 'm=abc' is not an integer"):
            lp.extract(two_cluster_correlation(), retention="m=abc")

    def test_non_symmetric_rejected(self):
        R = np.eye(3)
        R[0, 1] = 0.5
        with pytest.raises(DataError, match="symmetric"):
            lp.extract(R)

    def test_loadings_reproduce_eigenstructure(self):
        R = two_cluster_correlation()
        lm = lp.extract(R, retention="m=8")
        # full extraction reconstructs R
        np.testing.assert_allclose(lm.loadings @ lm.loadings.T, R, atol=1e-8)


class TestVarimax:
    def test_single_factor_unchanged(self):
        R = np.full((4, 4), 0.5)
        np.fill_diagonal(R, 1.0)
        lm = lp.extract(R, retention="kaiser")
        rotated = lp.varimax(lm)
        np.testing.assert_allclose(rotated.loadings, lm.loadings)

    def test_perfect_simple_structure_is_fixed_point(self):
        lam = np.zeros((6, 2))
        lam[:3, 0] = [0.8, 0.7, 0.6]
        lam[3:, 1] = [0.75, 0.65, 0.6]
        lm = lp.LoadingMatrix(lam.copy(), np.array([2.0, 1.5]),
                              [f"v{i}" for i in range(6)])
        rotated = lp.varimax(lm)
        assert column_match(rotated.loadings, lam, atol=1e-6)

    def test_cross_loadings_resolved(self):
        lm = lp.extract(two_cluster_correlation(), retention="kaiser")
        rotated = lp.varimax(lm)
        for i in range(8):
            row = np.abs(rotated.loadings[i])
            assert row.max() > 0.5
            assert row.min() < 0.4

    def test_communalities_preserved(self):
        lm = lp.extract(two_cluster_correlation(), retention="kaiser")
        rotated = lp.varimax(lm)
        np.testing.assert_allclose(
            rotated.communalities, lm.communalities, atol=1e-10)

    def test_rotation_matrix_is_orthogonal_and_consistent(self):
        lm = lp.extract(two_cluster_correlation(), retention="kaiser")
        rotated = lp.varimax(lm)
        T = rotated.rotation_matrix
        np.testing.assert_allclose(T.T @ T, np.eye(T.shape[1]), atol=1e-12)
        np.testing.assert_allclose(lm.loadings @ T, rotated.loadings, atol=1e-12)

    def test_criterion_never_decreases(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((80, 6))
        R = lp.covariance(lp.Dataset(v_names(6), X)).R
        lm = lp.extract(R, retention="m=3")
        rotated = lp.varimax(lm)
        h = np.sqrt((lm.loadings**2).sum(axis=1))[:, None]
        before = _varimax_criterion(lm.loadings / h)
        after = _varimax_criterion(rotated.loadings / h)
        assert after >= before - 1e-12

    def test_row_permutation_equivariance(self):
        R = two_cluster_correlation()
        perm = np.array([3, 0, 6, 1, 7, 2, 5, 4])
        a = lp.varimax(lp.extract(R, retention="kaiser")).loadings
        b = lp.varimax(lp.extract(R[np.ix_(perm, perm)], retention="kaiser")).loadings
        assert column_match(a[perm], b, atol=1e-6)


class TestComponentTable:
    def test_threshold_blanks(self):
        lam = np.array([[0.8, 0.1], [0.35, 0.75]])
        lm = lp.LoadingMatrix(lam, np.array([1.2, 1.1]), ["a", "b"])
        table = lp.rotated_component_table(lm, suppress_below=0.4)
        flat = {(name, j): cell for name, cells in zip(table.names, table.cells)
                for j, cell in enumerate(cells)}
        assert flat[("a", 0)] == pytest.approx(0.8)
        assert flat[("a", 1)] is None
        assert flat[("b", 0)] is None
        assert flat[("b", 1)] == pytest.approx(0.75)

    def test_zero_threshold_shows_all(self):
        lam = np.array([[0.8, 0.1], [0.35, 0.75]])
        lm = lp.LoadingMatrix(lam, np.array([1.2, 1.1]), ["a", "b"])
        table = lp.rotated_component_table(lm, suppress_below=0.0)
        assert all(cell is not None for cells in table.cells for cell in cells)

    def test_excessive_threshold_blanks_all(self):
        lam = np.array([[0.8, 0.1], [0.35, 0.75]])
        lm = lp.LoadingMatrix(lam, np.array([1.2, 1.1]), ["a", "b"])
        table = lp.rotated_component_table(lm, suppress_below=1.1)
        assert all(cell is None for cells in table.cells for cell in cells)

    def test_items_grouped_by_dominant_factor(self):
        lm = lp.varimax(lp.extract(two_cluster_correlation(), retention="kaiser",
                                   names=[f"v{i}" for i in range(8)]))
        table = lp.rotated_component_table(lm, suppress_below=0.4)
        assert table.dominant == sorted(table.dominant)
