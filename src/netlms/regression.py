"""Per-node observation models y_i(k) = H_i(k) x0 + v_i(k).

Each node ``i`` observes the unknown n-vector through its own random
matrix ``H_i(k)`` of shape ``(n_i, n)``.  Process kinds:

``fixed``
    constant matrices;
``entrywise-uniform``
    ``H_i(k) = base_i + coef_i * u`` with a fresh uniform draw per active
    cell (cells where ``coef_i`` is nonzero) per step;
``bernoulli-failure``
    ``H_i(k) = mu_i(k) * pattern_i`` with ``mu_i(k)`` i.i.d. Bernoulli —
    the whole sensor drops out when the draw fails;
``ar-driven``
    scalar autoregression per node: ``H_i(k)`` is the row of the last
    ``n`` outputs and the unknown parameter is the AR coefficient vector,
    so ``y_i(k) = H_i(k) x0 + v_i(k)`` is the recursion itself.

Every draw goes through :func:`regression_block`, which returns the
stacked matrices and measurements of a block of consecutive steps for a
batch of runs; one step is a block of one.  It draws into a runs-first
:func:`regression_slab` buffer that a caller may keep across blocks.  A
:class:`RegressionProcess` holds only its law's parameters, and each
block stacks them anew.

Fixed, entrywise-uniform and bernoulli-failure have closed-form
conditional Grams, the same at every step; ar-driven does not (its
regressor is a function of past outputs) and must go through the
explicit Monte Carlo helper.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidInputError, UnsupportedAnalyticError
from .linalg import as_index, as_matrix, block_diag, ordered_sum, uniform_rows
from .noise import MeasurementNoise

__all__ = [
    "RegressionProcess",
    "fixed_regression",
    "entrywise_uniform_regression",
    "bernoulli_failure_regression",
    "ar_driven_regression",
    "regression_slab",
    "regression_block",
    "conditional_expected_node_gram",
    "conditional_expected_gram",
    "spatio_temporal_gram",
    "monte_carlo_expected_gram",
    "support_gram_norm_bound",
]

_KINDS = ("fixed", "entrywise-uniform", "bernoulli-failure", "ar-driven")


@dataclass(frozen=True, eq=False)
class RegressionProcess:
    kind: str
    nodes: int
    dim: int
    node_dims: tuple[int, ...]
    h_nodes: tuple[np.ndarray, ...] | None = None
    base: tuple[np.ndarray, ...] | None = None
    coef: tuple[np.ndarray, ...] | None = None
    low: float = 0.0
    high: float = 1.0
    active_prob: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown regression kind {self.kind!r}")

    @property
    def offsets(self) -> tuple[int, ...]:
        """Stacked-row offset of each node's block, then the row total."""
        return tuple(accumulate(self.node_dims, initial=0))

    @property
    def total_rows(self) -> int:
        return sum(self.node_dims)

    @property
    def support(self) -> np.ndarray:
        """``(sum n_i, n)`` boolean over the stacked regressor cells, stated
        once per law: True where a draw can be nonzero.  That is ``h != 0``
        for fixed, ``base != 0 | coef != 0`` for entrywise-uniform, ``coef
        != 0`` for bernoulli-failure and every cell for ar-driven.  Every
        other cell is a zero in every draw, the signed zero that the law
        states, so its product with a finite entry is an exact zero."""
        if self.kind == "fixed":
            return np.concatenate(self.h_nodes) != 0
        if self.kind == "entrywise-uniform":
            return (np.concatenate(self.base) != 0) | (np.concatenate(self.coef) != 0)
        if self.kind == "bernoulli-failure":
            return np.concatenate(self.coef) != 0
        return np.ones((self.total_rows, self.dim), dtype=bool)


def _check_h_list(h_list, name: str) -> tuple[tuple[np.ndarray, ...], int]:
    mats = tuple(as_matrix(h, f"{name}[{i}]") for i, h in enumerate(h_list))
    if not mats:
        raise InvalidInputError("need at least one node")
    dim = mats[0].shape[1]
    for m in mats:
        if m.shape[1] != dim:
            raise InvalidInputError("all per-node matrices must share the column count")
        m.flags.writeable = False
    return mats, dim


def fixed_regression(h_nodes) -> RegressionProcess:
    """Constant per-node observation matrices."""
    mats, dim = _check_h_list(h_nodes, "h_nodes")
    return RegressionProcess(
        kind="fixed",
        nodes=len(mats),
        dim=dim,
        node_dims=tuple(m.shape[0] for m in mats),
        h_nodes=mats,
    )


def entrywise_uniform_regression(base, coef, low: float = 0.0, high: float = 1.0) -> RegressionProcess:
    """``H_i(k) = base_i + coef_i * u``, fresh ``u ~ U(low, high)`` per
    nonzero cell of ``coef_i`` per step, independent across cells."""
    bases, dim = _check_h_list(base, "base")
    coefs, dim_c = _check_h_list(coef, "coef")
    if len(bases) != len(coefs) or dim != dim_c:
        raise InvalidInputError("base and coef must be equally shaped lists")
    for b, c in zip(bases, coefs):
        if b.shape != c.shape:
            raise InvalidInputError("base and coef must be equally shaped lists")
    if not (np.isfinite(low) and np.isfinite(high)) or low > high:
        raise InvalidInputError("need finite low <= high")
    # every drawn cell, base + coef (low + u (high - low)), must stay finite
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(high) - low):
            raise InvalidInputError("need a finite high - low")
        reach = max(abs(low), abs(high))
        if not all(np.isfinite(np.abs(b) + np.abs(c) * reach).all() for b, c in zip(bases, coefs)):
            raise InvalidInputError("cells can overflow: need a finite |base| + |coef| max(|low|, |high|)")
    return RegressionProcess(
        kind="entrywise-uniform",
        nodes=len(bases),
        dim=dim,
        node_dims=tuple(b.shape[0] for b in bases),
        base=bases,
        coef=coefs,
        low=float(low),
        high=float(high),
    )


def bernoulli_failure_regression(patterns, active_prob: float) -> RegressionProcess:
    """Whole-sensor dropout: node ``i`` observes through ``patterns[i]``
    with probability ``active_prob``, else through the zero matrix."""
    mats, dim = _check_h_list(patterns, "patterns")
    if not (isinstance(active_prob, numbers.Real) and 0.0 <= active_prob <= 1.0):
        raise InvalidInputError(f"active_prob must be a number in [0, 1], got {active_prob!r}")
    return RegressionProcess(
        kind="bernoulli-failure",
        nodes=len(mats),
        dim=dim,
        node_dims=tuple(m.shape[0] for m in mats),
        coef=mats,
        active_prob=float(active_prob),
    )


def ar_driven_regression(nodes: int, order: int) -> RegressionProcess:
    """Scalar AR(``order``) outputs per node; the unknown parameter is the
    coefficient vector, so ``dim == order`` and every ``n_i == 1``."""
    nodes, order = as_index(nodes, "nodes"), as_index(order, "order")
    if nodes < 1 or order < 1:
        raise InvalidInputError("nodes and order must be positive")
    return RegressionProcess(kind="ar-driven", nodes=nodes, dim=order, node_dims=(1,) * nodes)


def regression_slab(process: RegressionProcess, runs: int, steps: int) -> np.ndarray | None:
    """A runs-first buffer that :func:`regression_block` draws up to
    ``steps`` steps of ``runs`` runs into: ``(R, steps, cells)`` uniforms
    for entrywise-uniform (one per nonzero cell of the stacked ``coef``),
    ``(R, steps, N)`` for bernoulli-failure, ``None`` for the kinds that
    draw nothing (fixed, ar-driven)."""
    if process.kind == "entrywise-uniform":
        return np.empty((runs, steps, np.count_nonzero(np.concatenate(process.coef))))
    if process.kind == "bernoulli-failure":
        return np.empty((runs, steps, process.nodes))
    return None


def _regressor_block(process: RegressionProcess, count: int, rngs, slab) -> np.ndarray:
    """Stacked observation matrices ``(count, sum n_i, n, R)``, runs last,
    of the kinds drawn independently per step (all but ar-driven)."""
    if process.kind == "bernoulli-failure":
        # one draw per node and step; row r of the stack belongs to node row_node[r]
        active = uniform_rows(rngs, slab, count).transpose(1, 2, 0) < process.active_prob
        row_node = np.repeat(np.arange(process.nodes), process.node_dims)
        return np.concatenate(process.coef)[None, :, :, None] * active[:, row_node, None]
    stacked = np.concatenate(process.h_nodes if process.kind == "fixed" else process.base)
    constant = np.broadcast_to(stacked[None, :, :, None], (count, *stacked.shape, len(rngs)))
    if process.kind == "fixed":
        return constant  # a read-only view that every step shares
    out = np.array(constant)
    coef = np.concatenate(process.coef).ravel()
    idx = np.flatnonzero(coef)
    if idx.size:
        # fresh uniform per random cell, in stacked row-major order
        u = uniform_rows(rngs, slab, count)
        u *= process.high - process.low
        u += process.low
        u *= coef[idx]
        out.reshape(count, -1, len(rngs))[:, idx] += u.transpose(1, 2, 0)
    return out


def _check_ar_history(process: RegressionProcess, ar_history, *runs: int) -> np.ndarray:
    if ar_history is None:
        raise InvalidInputError("ar-driven sampling needs ar_history (N, order), newest first")
    hist = np.asarray(ar_history, dtype=float)
    if hist.shape != (process.nodes, process.dim, *runs):
        raise InvalidInputError(
            f"ar_history must have shape {(process.nodes, process.dim, *runs)}, got {hist.shape}"
        )
    return hist


def regression_block(
    process: RegressionProcess,
    x0: np.ndarray,
    count: int,
    rngs,
    noise_draws: np.ndarray,
    ar_history: np.ndarray | None = None,
    slab: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Observation models and measurements of ``count`` consecutive steps
    for a batch of runs, run ``r`` drawing from ``rngs[r]``.

    ``noise_draws`` holds the steps' measurement noise, ``(count, sum n_i,
    R)``.  Returns ``(h, y_clean, y, ar_history)``, runs last: the stacked
    matrices ``(count, sum n_i, n, R)``, the noise-free outputs ``H x0``,
    the measurements, and (ar-driven only) each node's last ``order``
    outputs after the block, ``(N, order, R)`` newest first.  Run ``r``
    draws into ``slab[r, :count]`` of a :func:`regression_slab` buffer of
    at least ``count`` steps, a fresh one when ``slab`` is ``None``.  Each
    generator is consumed step by step, so one block of ``count`` steps
    draws the values of ``count`` blocks of one.  The ar-driven recursion
    draws nothing itself: its regressor is the output history, driven by
    the measurement noise.
    """
    count = as_index(count, "count")
    weights = np.asarray(x0, dtype=float)
    if weights.shape != (process.dim,):
        raise InvalidInputError(f"x0 must have shape ({process.dim},), got {weights.shape}")
    weights = weights[:, None]
    if process.kind != "ar-driven":
        if slab is None:
            slab = regression_slab(process, len(rngs), count)
        h = _regressor_block(process, count, rngs, slab)
        y_clean = ordered_sum(h * weights, 2)
        return h, y_clean, y_clean + noise_draws, None
    hist = _check_ar_history(process, ar_history, len(rngs))
    h = np.empty((count, process.nodes, process.dim, len(rngs)))
    y_clean = np.empty((count, process.nodes, len(rngs)))
    for j in range(count):
        h[j] = hist
        y_clean[j] = ordered_sum(hist * weights, 1)
        hist = np.concatenate([(y_clean[j] + noise_draws[j])[:, None], hist[:, :-1]], axis=1)
    return h, y_clean, y_clean + noise_draws, hist


def conditional_expected_node_gram(process: RegressionProcess, node: int) -> np.ndarray:
    """Closed-form ``E[H_i(k)^T H_i(k) | F(cut)]`` for one node.

    Every kind with a closed form draws independently across steps, so
    the answer is the same for every step ``k`` and every earlier cut.
    """
    node = as_index(node, "node index")
    if not 0 <= node < process.nodes:
        raise InvalidInputError("node index out of range")
    if process.kind == "fixed":
        h = process.h_nodes[node]
        return h.T @ h
    if process.kind == "entrywise-uniform":
        # Independent cells: E[H^T H] = M^T M + Var(u) * diag(column sums of coef^2)
        # with M = base + coef * E[u].
        mean_u = 0.5 * (process.low + process.high)
        var_u = (process.high - process.low) ** 2 / 12.0
        m = process.base[node] + process.coef[node] * mean_u
        return m.T @ m + var_u * np.diag((process.coef[node] ** 2).sum(axis=0))
    if process.kind == "bernoulli-failure":
        c = process.coef[node]
        return process.active_prob * (c.T @ c)
    raise UnsupportedAnalyticError(
        "ar-driven regressors are functions of past outputs; "
        "use monte_carlo_expected_gram explicitly"
    )


def conditional_expected_gram(process: RegressionProcess) -> np.ndarray:
    """``E[H^T H | F(cut)]`` for the stacked block-diagonal observation
    matrix of any step, an ``(N n) x (N n)`` block-diagonal result."""
    return block_diag([conditional_expected_node_gram(process, i) for i in range(process.nodes)])


def spatio_temporal_gram(process: RegressionProcess, window: int) -> np.ndarray:
    """Sum of all nodes' expected Grams over a window of ``window`` steps.

    This is the ``n x n`` matrix ``sum_{i in window} sum_j E[H_j(i)^T
    H_j(i) | F(cut)]`` with the cut just before the window, the quantity
    whose smallest eigenvalue the joint-observability condition bounds.
    No closed-form node Gram depends on the step, so it is ``window``
    times the one-step sum over nodes.
    """
    window = as_index(window, "window")
    if window < 1:
        raise InvalidInputError("window must be positive")
    grams = [conditional_expected_node_gram(process, node) for node in range(process.nodes)]
    return window * ordered_sum(np.stack(grams), 0)


def monte_carlo_expected_gram(
    process: RegressionProcess,
    x0,
    step: int,
    noise: MeasurementNoise,
    rng: np.random.Generator,
    samples: int = 10_000,
    ar_init: np.ndarray | None = None,
) -> np.ndarray:
    """Monte Carlo estimate of ``E[H^T H]`` at ``step``.

    The explicit fallback for kinds without a closed form.  For ar-driven
    processes each sample replays the recursion from ``ar_init`` (zeros by
    default) up to ``step``, so the estimate is the unconditional Gram
    given that initial history.
    """
    if samples < 1 or step < 0:
        raise InvalidInputError("samples must be positive and step nonnegative")
    count = step + 1 if process.kind == "ar-driven" else 1
    hist = None
    if process.kind == "ar-driven":
        start = np.zeros((process.nodes, process.dim)) if ar_init is None else ar_init
        hist = np.asarray(start, dtype=float)[..., None]
    size = process.nodes * process.dim
    acc = np.zeros((size, size))
    for _ in range(samples):
        draws = noise.sample(rng, (count, process.total_rows))[..., None]
        h = regression_block(process, x0, count, [rng], draws, hist)[0]
        hb = block_diag(np.split(h[-1, :, :, 0], process.offsets[1:-1]))
        acc += hb.T @ hb
    return acc / samples


def support_gram_norm_bound(process: RegressionProcess) -> float:
    """Deterministic upper bound on ``||H^T H||`` valid for every draw.

    Uses ``||H^T H|| = max_i ||H_i||^2 <= max_i ||H_i||_F^2`` with each
    cell bounded over its support.  Raises for ar-driven, whose regressor
    support is unbounded.
    """
    if process.kind == "fixed":
        return max(float(np.linalg.norm(h, 2) ** 2) for h in process.h_nodes)
    if process.kind == "entrywise-uniform":
        worst = 0.0
        for b, c in zip(process.base, process.coef):
            hi = np.maximum(np.abs(b + c * process.low), np.abs(b + c * process.high))
            worst = max(worst, float((hi * hi).sum()))
        return worst
    if process.kind == "bernoulli-failure":
        return max(float(np.linalg.norm(c, 2) ** 2) for c in process.coef)
    raise UnsupportedAnalyticError("ar-driven regressors have unbounded support")
