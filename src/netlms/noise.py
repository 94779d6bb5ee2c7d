"""Measurement noise, channel noise, and the noisy-link message model.

A message sent from node ``j`` to node ``i`` arrives as

    mu_ji = x_j + f(x_j - x_i) * xi_ji

where ``f`` is a state-dependent intensity (affine in the disagreement
norm) and ``xi_ji`` is an n-vector of i.i.d. channel noise.  The stacked
forms ``W`` and ``M`` reproduce exactly the consensus-noise term
``W M xi`` of the compact recursion, with ``xi`` laid out receiver-major:
entry block ``(i, j)`` of ``xi`` is ``xi_ji``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, ordered_sum, spectral_norm, sym_eigmax

__all__ = [
    "NOISE_KINDS",
    "NoiseIntensity",
    "MeasurementNoise",
    "ChannelNoise",
    "BoundCheckReport",
    "BoundTally",
    "norm_bound_sides",
    "received_message",
    "received_messages",
    "build_WM",
    "verify_A1_A2_bounds",
]

NOISE_KINDS = ("zero", "gaussian")


def _finite_nonnegative(value) -> bool:
    v = np.asarray(value, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0))


@dataclass(frozen=True)
class NoiseIntensity:
    """Affine intensity ``f(z) = sigma * ||z|| + bias`` with both
    coefficients nonnegative."""

    sigma: float
    bias: float

    def __post_init__(self):
        if not _finite_nonnegative((self.sigma, self.bias)):
            raise InvalidInputError("intensity coefficients must be finite and nonnegative")

    def __call__(self, diff) -> float:
        d = np.asarray(diff, dtype=float)
        return self.sigma * float(np.linalg.norm(d)) + self.bias

    def matrix(self, states: np.ndarray) -> np.ndarray:
        """All pairwise intensities: entry ``(i, j)`` is ``f(x_j - x_i)``,
        i.e. the intensity on the link from sender ``j`` to receiver ``i``."""
        x = np.asarray(states, dtype=float)
        diffs = x[None, :, :] - x[:, None, :]
        return self.sigma * np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)) + self.bias


@dataclass(frozen=True)
class MeasurementNoise:
    """Additive observation noise; ``kind`` is ``"zero"`` or ``"gaussian"``.

    ``std`` may be a scalar or a per-component array.
    """

    kind: str = "gaussian"
    std: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInputError(f"unknown measurement-noise kind {self.kind!r}")
        if not _finite_nonnegative(self.std):
            raise InvalidInputError("std must be finite and nonnegative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(size)
        return rng.standard_normal(size) * self.std

    def second_moment(self, size: int) -> float:
        """Exact ``E||v||^2`` for a draw of ``size`` components."""
        if self.kind == "zero":
            return 0.0
        return float(np.sum(np.broadcast_to(np.square(self.std), (size,))))


@dataclass(frozen=True)
class ChannelNoise:
    """I.i.d. link noise; ``kind`` is ``"zero"`` or ``"gaussian"``."""

    kind: str = "gaussian"
    std: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInputError(f"unknown channel-noise kind {self.kind!r}")
        if not _finite_nonnegative(self.std):
            raise InvalidInputError("std must be finite and nonnegative")

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(shape)
        return rng.standard_normal(shape) * self.std

    def second_moment(self, size: int) -> float:
        if self.kind == "zero":
            return 0.0
        return float(size) * self.std**2


def received_message(x_j, x_i, intensity: NoiseIntensity, xi_draw) -> np.ndarray:
    """One corrupted message: ``x_j + f(x_j - x_i) * xi``.

    ``xi_draw`` may be a scalar or a vector matching the state dimension.
    """
    xj = np.asarray(x_j, dtype=float)
    xi_state = np.asarray(x_i, dtype=float)
    if xj.shape != xi_state.shape:
        raise InvalidInputError("sender and receiver states must share a shape")
    xi = np.asarray(xi_draw, dtype=float)
    if xi.ndim not in (0, 1) or (xi.ndim == 1 and xi.shape != xj.shape):
        raise InvalidInputError("xi_draw must be a scalar or match the state dimension")
    return xj + intensity(xj - xi_state) * xi


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


def norm_bound_sides(adjacency, states, intensity: NoiseIntensity, v_total):
    """Closed-form sides of the two norm bounds, batched over leading axes.

    ``adjacency`` is ``(..., N, N)``, ``states`` ``(..., N, n)`` and
    ``v_total`` the matching total squared errors ``(...)``.  Returns
    ``(|W|, sqrt(N)|A|, |M|^2, 4 sigma^2 V + 2 bias^2)``.  For the block
    structure built by :func:`build_WM`, ``|W|`` equals the largest row
    2-norm of the adjacency and ``|M|`` the largest link intensity; both
    identities are exercised against the explicit matrices in tests.
    """
    a = np.asarray(adjacency, dtype=float)
    x = np.asarray(states, dtype=float)
    n_nodes = a.shape[-1]
    w_norm = np.sqrt(ordered_sum(a * a, -1).max(axis=-1))
    gram = ordered_sum(a[..., :, None, :] * a[..., None, :, :], -1)  # A A^T
    a_norm = np.sqrt(np.maximum(sym_eigmax(gram), 0.0))
    d = x[..., None, :, :] - x[..., :, None, :]
    f_max = intensity.sigma * np.sqrt(ordered_sum(d * d, -1)).max(axis=(-2, -1)) + intensity.bias
    return (
        w_norm,
        np.sqrt(n_nodes) * a_norm,
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


def verify_A1_A2_bounds(
    adjacencies,
    state_seq,
    intensity: NoiseIntensity,
    x0,
    build_matrices: bool = True,
) -> BoundCheckReport:
    """Check the norm bounds at every step of a recorded slice.

    ``adjacencies`` and ``state_seq`` are step-aligned sequences of ``(N, N)``
    and ``(N, n)`` arrays.  The right-hand sides always come from
    :func:`norm_bound_sides`; with ``build_matrices`` the stacked ``W`` and
    ``M`` are constructed explicitly and their spectral norms used on the
    left-hand sides, otherwise the closed forms are used.
    """
    adjs = [np.asarray(a, dtype=float) for a in adjacencies]
    states = [np.asarray(x, dtype=float) for x in state_seq]
    steps = min(len(adjs), len(states))
    if steps == 0:
        raise InvalidInputError("empty trajectory slice")
    a = np.stack(adjs[:steps])
    x = np.stack(states[:steps])
    err = x - np.asarray(x0, dtype=float)
    v_total = ordered_sum(ordered_sum(err * err, -1), -1)
    w_lhs, w_rhs, m_lhs, m_rhs = norm_bound_sides(a, x, intensity, v_total)
    if build_matrices:
        w_lhs = np.empty(steps)
        m_lhs = np.empty(steps)
        for k in range(steps):
            w, m = build_WM(a[k], x[k], intensity)
            w_lhs[k] = spectral_norm(w)
            m_lhs[k] = spectral_norm(m) ** 2
    tally = BoundTally(1)
    tally.add((w_rhs - w_lhs)[:, None], (m_rhs - m_lhs)[:, None], v_total[:, None])
    return tally.reports()[0]
