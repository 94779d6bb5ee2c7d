"""Measurement noise, channel noise, and the noisy-link message model.

A message sent from node ``j`` to node ``i`` arrives as

    mu_ji = x_j + f(x_j - x_i) * xi_ji

where ``f`` is a state-dependent intensity (affine in the disagreement
norm) and ``xi_ji`` is an n-vector of i.i.d. channel noise.  The stacked
forms ``W`` and ``M`` reproduce exactly the consensus-noise term
``W M xi`` of the compact recursion, with ``xi`` laid out receiver-major:
entry block ``(i, j)`` of ``xi`` is ``xi_ji``.

Measurement noise ``v_i(k)`` and channel noise ``xi_ji(k)`` follow one
i.i.d. law, zero or Gaussian with a scalar standard deviation:
:class:`ChannelNoise` is :class:`MeasurementNoise` under its own name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, as_real, ordered_sum, sym_eigmax

__all__ = [
    "NOISE_KINDS",
    "NoiseIntensity",
    "MeasurementNoise",
    "ChannelNoise",
    "BoundCheckReport",
    "BoundTally",
    "norm_bound_sides",
    "received_messages",
    "build_WM",
]

NOISE_KINDS = ("zero", "gaussian")


def _finite_nonnegative(**values) -> bool:
    v = np.array([as_real(value, name) for name, value in values.items()])
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0))


@dataclass(frozen=True)
class NoiseIntensity:
    """Affine intensity ``f(z) = sigma * ||z|| + bias`` with both
    coefficients nonnegative."""

    sigma: float
    bias: float

    def __post_init__(self):
        if not _finite_nonnegative(sigma=self.sigma, bias=self.bias):
            raise InvalidInputError("intensity coefficients must be finite and nonnegative")

    def matrix(self, states: np.ndarray) -> np.ndarray:
        """All pairwise intensities: entry ``(i, j)`` is ``f(x_j - x_i)``,
        i.e. the intensity on the link from sender ``j`` to receiver ``i``."""
        x = np.asarray(states, dtype=float)
        diffs = x[None, :, :] - x[:, None, :]
        return self.sigma * np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)) + self.bias


@dataclass(frozen=True)
class MeasurementNoise:
    """I.i.d. additive observation noise ``v_i(k)``: ``kind`` is
    ``"zero"`` or ``"gaussian"`` with standard deviation ``std``."""

    kind: str = "gaussian"
    std: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInputError(f"unknown noise kind {self.kind!r}")
        if not _finite_nonnegative(std=self.std):
            raise InvalidInputError("std must be finite and nonnegative")

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Draw into the contiguous float array ``out`` in place and return
        it; the zero kind draws nothing."""
        if self.kind == "zero":
            out.fill(0.0)
        else:
            rng.standard_normal(out=out)
            out *= self.std
        return out

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """A fresh array of ``shape`` drawn by :meth:`fill`."""
        return self.fill(rng, np.empty(shape))


class ChannelNoise(MeasurementNoise):
    """I.i.d. link noise ``xi_ji``, with the law of :class:`MeasurementNoise`."""


def received_messages(states, intensity: NoiseIntensity, xi: np.ndarray) -> np.ndarray:
    """All pairwise messages: ``out[i, j] = mu_ji`` received by ``i`` from
    ``j``, given channel draws ``xi[i, j]``."""
    x = np.asarray(states, dtype=float)
    n_nodes, dim = x.shape
    draws = np.asarray(xi, dtype=float)
    if draws.shape != (n_nodes, n_nodes, dim):
        raise InvalidInputError(f"xi must have shape {(n_nodes, n_nodes, dim)}, got {draws.shape}")
    f = intensity.matrix(x)
    return x[None, :, :] + f[:, :, None] * draws


def build_WM(adjacency, states, intensity: NoiseIntensity) -> tuple[np.ndarray, np.ndarray]:
    """Stacked consensus-noise factors.

    ``W`` is the ``Nn x N^2 n`` block-diagonal matrix whose ``i``-th block
    is ``row_i(A) (x) I_n``; ``M`` is the ``N^2 n`` diagonal matrix of link
    intensities, receiver-major, each repeated ``n`` times.  With ``xi``
    laid out the same way, ``W M xi`` is the stacked consensus noise.
    """
    a = as_matrix(adjacency, "adjacency", square=True)
    x = np.asarray(states, dtype=float)
    if x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise InvalidInputError("states must be (N, n) with N matching the adjacency")
    n_nodes, dim = x.shape
    eye = np.eye(dim)
    w = np.zeros((n_nodes * dim, n_nodes * n_nodes * dim))
    for i in range(n_nodes):
        w[i * dim : (i + 1) * dim, i * n_nodes * dim : (i + 1) * n_nodes * dim] = np.kron(
            a[i : i + 1, :], eye
        )
    f = intensity.matrix(x)
    m = np.diag(np.repeat(f.reshape(-1), dim))
    return w, m


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of the stacked-factor norm bounds over a trajectory slice.

    The two inequalities checked at every step, with no tolerance, are
    ``||W|| <= sqrt(N) ||A||`` and ``||M||^2 <= 4 sigma^2 V + 2 bias^2``
    (``V`` the total squared estimation error at that step).  A step
    counts as a violation unless its margin is ``>= 0``, so a non-finite
    margin is a violation too.  ``first_nonfinite_step`` is the first
    step whose ``V`` is not finite (``None`` while every state is finite).
    """

    steps_checked: int
    w_violations: int
    m_violations: int
    min_w_margin: float
    min_m_margin: float
    first_nonfinite_step: int | None = None

    @property
    def holds(self) -> bool:
        return self.w_violations == 0 and self.m_violations == 0


def norm_bound_sides(adjacency, distances, intensity: NoiseIntensity, v_total):
    """Closed-form sides of the two norm bounds, batched over trailing axes.

    ``adjacency`` is ``(N, N, ...)``; ``distances`` is ``(N, N, ...)`` and
    holds every link distance ``|x_j - x_i|`` of the states, in any pair
    order; ``v_total`` holds the matching total squared errors ``(...)``.
    Returns ``(|W|, sqrt(N)|A|, |M|^2, 4 sigma^2 V + 2 bias^2)``.  For the
    block structure built by :func:`build_WM`, ``|W|`` equals the largest
    row 2-norm of the adjacency and ``|M|`` the largest link intensity;
    both identities are exercised against the explicit matrices in tests.

    The squared row norms are the diagonal of the Gram ``A A^T`` that
    ``sqrt(N)|A|`` needs anyway: the same products, summed in the same
    order.  With the matrix axes first, every pass runs over the whole
    batch as one block, as :func:`netlms.estimator.simulate` lays out a
    chunk's steps and runs.  It passes the distances that its step loop
    computed, or, without link noise, computes them from the states in
    one batched sum.
    """
    a = np.asarray(adjacency, dtype=float)
    gram = ordered_sum(a[:, None] * a[None, :], 2)  # A A^T
    w_norm = np.sqrt(np.diagonal(gram, 0, 0, 1).max(axis=-1))
    a_norm = np.sqrt(np.maximum(sym_eigmax(gram), 0.0))
    f_max = intensity.sigma * distances.max(axis=(0, 1)) + intensity.bias
    return (
        w_norm,
        np.sqrt(a.shape[0]) * a_norm,
        f_max * f_max,
        4.0 * intensity.sigma**2 * np.asarray(v_total) + 2.0 * intensity.bias**2,
    )


class BoundTally:
    """Per-run fold of norm-bound margins over consecutive blocks of steps.

    ``add`` takes margins (right side minus left side) and total squared
    errors shaped ``(steps, runs)``; ``reports`` returns one
    :class:`BoundCheckReport` per run.
    """

    def __init__(self, runs: int):
        self.steps = 0
        self.w_bad = np.zeros(runs, dtype=np.int64)
        self.m_bad = np.zeros(runs, dtype=np.int64)
        self.min_w = np.full(runs, np.inf)
        self.min_m = np.full(runs, np.inf)
        self.first_nonfinite = np.full(runs, -1, dtype=np.int64)

    def add(self, w_margins: np.ndarray, m_margins: np.ndarray, v_total: np.ndarray) -> None:
        # ``not >= 0`` rather than ``< 0``: NaN margins are violations
        self.w_bad += (~(w_margins >= 0.0)).sum(axis=0)
        self.m_bad += (~(m_margins >= 0.0)).sum(axis=0)
        self.min_w = np.minimum(self.min_w, w_margins.min(axis=0))
        self.min_m = np.minimum(self.min_m, m_margins.min(axis=0))
        bad = ~np.isfinite(v_total)
        fresh = (self.first_nonfinite < 0) & bad.any(axis=0)
        self.first_nonfinite[fresh] = self.steps + bad.argmax(axis=0)[fresh]
        self.steps += w_margins.shape[0]

    def reports(self) -> list[BoundCheckReport]:
        return [
            BoundCheckReport(
                steps_checked=self.steps,
                w_violations=int(self.w_bad[r]),
                m_violations=int(self.m_bad[r]),
                min_w_margin=float(self.min_w[r]),
                min_m_margin=float(self.min_m[r]),
                first_nonfinite_step=(
                    None if self.first_nonfinite[r] < 0 else int(self.first_nonfinite[r])
                ),
            )
            for r in range(self.w_bad.size)
        ]
