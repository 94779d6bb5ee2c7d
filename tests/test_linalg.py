"""Dense-matrix helpers: closed-form spectra and structural identities."""

import numpy as np
import pytest

from netlms.errors import InvalidInputError
from netlms.linalg import (
    as_matrix,
    block_diag,
    laplacian,
    sym_eigenvalues,
    sym_eigmax,
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


def _eigmax3_oracle(g):
    """The 3x3 closed form of ``sym_eigmax`` written out with a fresh
    temporary per operation: what its in-place form must equal bit for
    bit."""
    a, b, c = g[0, 0], g[1, 1], g[2, 2]
    d, e, f = g[0, 1], g[0, 2], g[1, 2]
    q = (a + b + c) / 3.0
    p = np.sqrt(((a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * (d * d + e * e + f * f)) / 6.0)
    safe = np.where(p > 0.0, p, 1.0)
    aa, bb, cc = (a - q) / safe, (b - q) / safe, (c - q) / safe
    dd, ee, ff = d / safe, e / safe, f / safe
    half_det = 0.5 * (aa * (bb * cc - ff * ff) - dd * (dd * cc - ff * ee) + ee * (dd * ff - bb * ee))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    return np.where(p > 0.0, q + 2.0 * p * np.cos(phi), q)


def test_sym_eigmax_3x3_in_place_equals_the_closed_form():
    """2000 random batches of symmetric 3x3 matrices, with +-inf, NaN,
    tiny, huge and zero entries and multiples of the identity (``p = 0``)
    among them: the same bits as the oracle, NaN signs and payloads
    included."""
    rng = np.random.default_rng(25)
    special = np.array([np.inf, -np.inf, 5e-324, -1e-310, 1e-160, 1e300, -1e300, 1e155, 0.0, np.nan])
    for _ in range(2000):
        batch = tuple(rng.integers(1, 5, size=rng.integers(0, 3)))
        g = rng.normal(size=(3, 3, *batch)) * 10.0 ** rng.integers(-3, 4)
        hit = rng.random(g.shape) < rng.choice([0.0, 0.1, 0.5])
        g[hit] = rng.choice(special, size=int(hit.sum()))
        # NaNs of either sign and each with its own payload, so that a
        # swapped operand shows wherever two NaNs meet
        nan = np.isnan(g)
        payload = rng.integers(1, 1 << 51, size=int(nan.sum()), dtype=np.uint64)
        sign = rng.integers(0, 2, size=payload.size, dtype=np.uint64) << np.uint64(63)
        g[nan] = (np.uint64(0x7FF8000000000000) | payload | sign).view(float)
        g = np.triu(np.moveaxis(g, (0, 1), (-2, -1)))
        g = np.moveaxis(g + np.swapaxes(np.triu(g, 1), -2, -1), (-2, -1), (0, 1))
        if rng.random() < 0.2:  # q I, zero included
            g = np.multiply.outer(np.eye(3), np.full(batch, rng.choice([0.0, 1.5, -2.0, 1e300])))
        # the oracle on arrays: for a single matrix, numpy's scalar math
        # may pick other NaN payloads
        with np.errstate(all="ignore"):
            got, want = sym_eigmax(g), _eigmax3_oracle(g[..., None])[..., 0]
        assert got.shape == want.shape == batch
        assert got.tobytes() == want.tobytes()
