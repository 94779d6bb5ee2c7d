"""Small dense-matrix layer used by every other module.

Everything here operates on plain 2-D float64 numpy arrays.  Inputs are
validated at the boundary (shape and finiteness) so the numerical code
above this layer never sees NaN or Inf; :func:`as_index` likewise keeps
a float count or index from being truncated, and :func:`as_real` a
string, ``None`` or a bool from being read as a number.
"""

from __future__ import annotations

import operator
from numbers import Real

import numpy as np

__all__ = [
    "as_index",
    "as_real",
    "as_matrix",
    "laplacian",
    "symmetrize",
    "sym_eigenvalues",
    "block_diag",
    "sym_eigmax",
]

from .errors import InvalidInputError


def as_index(value, name: str) -> int:
    """``value`` as an int; a float, a bool or any other non-integer is an
    error, never truncated or read as 0 or 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def as_real(value, name: str) -> float:
    """``value`` as a float; a bool, a string, ``None`` or any other
    non-real is an error, never parsed or read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array, validating shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains NaN or Inf")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    return m


def laplacian(adjacency) -> np.ndarray:
    """Weighted digraph Laplacian ``L = D - A`` with ``D = diag(row sums)``.

    Rows index receivers: ``A[i, j]`` is the weight node ``i`` places on the
    link from node ``j``.  The diagonal of ``A`` must be exactly zero
    (no self-loops).
    """
    a = as_matrix(adjacency, "adjacency", square=True)
    d = np.diagonal(a)
    if a.size and np.any(d != 0.0):
        raise InvalidInputError("adjacency has nonzero diagonal entries")
    return np.diag(a.sum(axis=1)) - a


def symmetrize(a) -> np.ndarray:
    """Symmetric part ``(A + A^T) / 2`` of a square matrix."""
    m = as_matrix(a, "matrix", square=True)
    return 0.5 * (m + m.T)


def sym_eigenvalues(s) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    The input must be symmetric up to a small absolute skew; anything with
    ``|A - A^T|`` beyond ``1e-10 * max(1, |A|)`` is rejected rather than
    silently symmetrized.
    """
    m = as_matrix(s, "matrix", square=True)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if m.size and float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise InvalidInputError("matrix is not symmetric")
    return np.linalg.eigvalsh(m)


def block_diag(blocks) -> np.ndarray:
    """Stack matrices along the diagonal; off-diagonal blocks are zero.

    Blocks may be rectangular with differing shapes, e.g. per-node
    observation matrices of sizes ``(2, 3), (3, 3), (3, 3)`` stack to an
    ``8 x 9`` matrix.
    """
    mats = [as_matrix(b, f"block {i}") for i, b in enumerate(blocks)]
    if not mats:
        return np.zeros((0, 0))
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def sym_eigmax(g: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric matrices ``g[:, :, ...]``, batched
    over the trailing axes, so each elementwise pass of the closed forms
    runs over the whole batch as one block.

    Closed forms up to 3x3 (trigonometric solution of the characteristic
    cubic), LAPACK beyond.  The norm-bound checks evaluate this once per
    simulated step, where per-step eigendecompositions would dominate the
    run time.
    """
    m = g.shape[0]
    if m == 1:
        return np.asarray(g)[0, 0] + 0.0
    if m == 2:
        a, b, c = g[0, 0], g[1, 1], g[0, 1]
        return 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    if m == 3:
        # in place on flat buffers, every operation in the operand order of
        #   q = (a + b + c) / 3,  p^2 = ((a-q)^2 + (b-q)^2 + (c-q)^2
        #                               + 2 (d^2 + e^2 + f^2)) / 6,
        #   half_det = det((G - q I) / p) / 2,
        #   max = q + 2 p cos(arccos(clip(half_det, -1, 1)) / 3)
        a, b, c, d, e, f = g.reshape(9, g[0, 0].size)[[0, 4, 8, 1, 2, 5]]
        # a sum goes into its second operand: on one element, numpy's add
        # into the first may keep the other operand's NaN
        t = np.add(a, b)
        q = np.add(t, c)
        q /= 3.0
        aa, bb, cc = a - q, b - q, c - q
        u = np.square(aa)
        np.add(u, np.square(bb, out=t), out=t)
        np.add(t, np.square(cc, out=u), out=u)
        p = np.multiply(d, d)
        np.add(p, np.multiply(e, e, out=t), out=t)
        np.add(t, np.multiply(f, f, out=p), out=p)
        p *= 2.0
        np.add(u, p, out=p)
        p /= 6.0
        np.sqrt(p, out=p)
        # p == 0 means the matrix is q I, whose only eigenvalue is q
        flat = ~(p > 0.0)
        safe = np.where(flat, 1.0, p)
        aa /= safe
        bb /= safe
        cc /= safe
        dd = np.divide(d, safe, out=t)
        ee = np.divide(e, safe, out=u)
        ff = np.divide(f, safe, out=safe)
        half_det = np.multiply(bb, cc)
        tmp = np.multiply(ff, ff)
        half_det -= tmp
        np.multiply(aa, half_det, out=half_det)
        np.multiply(dd, cc, out=tmp)
        tmp -= np.multiply(ff, ee, out=cc)
        np.multiply(dd, tmp, out=tmp)
        half_det -= tmp
        np.multiply(dd, ff, out=tmp)
        tmp -= np.multiply(bb, ee, out=cc)
        np.multiply(ee, tmp, out=tmp)
        half_det = np.add(half_det, tmp, out=tmp)
        half_det *= 0.5
        np.clip(half_det, -1.0, 1.0, out=half_det)
        np.arccos(half_det, out=half_det)
        half_det /= 3.0
        np.cos(half_det, out=half_det)
        p *= 2.0
        np.multiply(p, half_det, out=p)
        np.add(q, p, out=p)
        np.copyto(p, q, where=flat)
        return p.reshape(g.shape[2:])
    return np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))[..., -1]


def ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis`` strictly in index order, ``((a0 + a1) + a2) + ...``.

    numpy's own reductions pick their association from the array's shape
    and memory layout; this one does not, so a simulated run rounds the
    same way whatever batch or chunk it is computed in.
    """
    index = [slice(None)] * a.ndim
    index[axis] = 0
    acc = a[tuple(index)] + 0.0
    for k in range(1, a.shape[axis]):
        index[axis] = k
        acc += a[tuple(index)]
    return acc


def uniform_rows(rngs, slab: np.ndarray, count: int) -> np.ndarray:
    """Fill ``slab[r, :count]`` with uniforms from ``rngs[r]`` for every run
    ``r`` of a runs-first buffer and return ``slab[:, :count]``.  Each row
    is contiguous, so the generator writes in place and draws exactly the
    values of ``rngs[r].random(slab[r, :count].shape)``."""
    for rng, row in zip(rngs, slab):
        rng.random(out=row[:count])
    return slab[:, :count]
