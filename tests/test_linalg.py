"""Dense-matrix helpers: closed-form spectra and structural identities."""

import numpy as np
import pytest

from netlms.errors import InvalidInputError
from netlms.linalg import (
    as_matrix,
    block_diag,
    laplacian,
    sym_eigenvalues,
    symmetrize,
)


def test_as_matrix_validation():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.shape == (2, 2)
    with pytest.raises(InvalidInputError):
        as_matrix([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        as_matrix([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones((2, 3)), square=True)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 2.0, (5, 5))
    np.fill_diagonal(a, 0.0)
    lap = laplacian(a)
    assert np.abs(lap.sum(axis=1)).max() < 1e-12
    assert np.allclose(lap - np.diag(np.diagonal(lap)), -a)
    with pytest.raises(InvalidInputError):
        laplacian(np.eye(3))


def test_complete_graph_laplacian_spectrum():
    # K_n with unit weights has eigenvalues {0, n, ..., n}.
    n = 6
    a = np.ones((n, n)) - np.eye(n)
    vals = sym_eigenvalues(laplacian(a))
    assert abs(vals[0]) < 1e-12
    assert np.abs(vals[1:] - n).max() < 1e-12


def test_path_graph_algebraic_connectivity():
    # Path P_n: eigenvalues 2 - 2 cos(pi k / n), k = 0..n-1.
    n = 7
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    vals = sym_eigenvalues(laplacian(a))
    expected = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    assert np.abs(vals - np.sort(expected)).max() < 1e-12


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    # ... but accepts roundoff-level skew
    m = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
    vals = sym_eigenvalues(m)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)


def test_symmetrize():
    m = np.array([[1.0, 4.0], [0.0, 2.0]])
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, [[1.0, 2.0], [2.0, 2.0]])


def test_block_diag_rectangular():
    blocks = [np.ones((2, 3)), 2 * np.ones((3, 3)), 3 * np.ones((3, 3))]
    out = block_diag(blocks)
    assert out.shape == (8, 9)
    assert np.array_equal(out[:2, :3], blocks[0])
    assert np.array_equal(out[2:5, 3:6], blocks[1])
    assert np.array_equal(out[5:, 6:], blocks[2])
    assert out[:2, 3:].max() == 0.0 and out[2:, :3].max() == 0.0
    assert block_diag([]).shape == (0, 0)


def test_eigenvalue_residual_oracle():
    """Independent check: det(A - lambda I) vanishes at reported eigenvalues."""
    rng = np.random.default_rng(21)
    m = symmetrize(rng.normal(size=(5, 5)))
    vals = sym_eigenvalues(m)
    assert np.all(np.diff(vals) >= 0.0)
    for lam in vals:
        assert abs(np.linalg.det(m - lam * np.eye(5))) < 1e-9
