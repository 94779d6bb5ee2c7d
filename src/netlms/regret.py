"""Online-regret metrics for simulated runs.

A node's regret at horizon ``T`` is its cumulative expected excess loss
over the best fixed parameter in hindsight.  With zero-mean measurement
noise that best parameter is the true one, and the excess loss at step
``t`` collapses to ``(1/2) sum_j ||H_j(t) (x_i(t) - x0)||^2`` — the noise
contribution cancels exactly.  Trajectory records store precisely those
per-step increments, so the estimators here are plain folds over runs:
no noisy loss differencing, which would drown the signal in Monte Carlo
variance at practical run counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnobservableHorizonError
from .estimator import TrajectoryRecord
from .regression import RegressionProcess, conditional_expected_node_gram

__all__ = [
    "RegretSeries",
    "RegretBoundReport",
    "oracle_parameter",
    "empirical_regret",
    "mar",
    "lemma_regret_bound_check",
    "regret_series",
    "fold_runs",
    "normalized_max_regret",
]


@dataclass(frozen=True, eq=False)
class RegretSeries:
    """Per-step regret statistics folded over a batch of runs.

    ``regret[t, i]`` estimates node ``i``'s regret at horizon ``t`` (mean
    over runs of the cumulative excess loss), ``regret_se`` its standard
    error across runs, ``mar[t]`` the maximum regret over nodes normalized
    by ``t^(1-tau) ln t`` (``nan`` below ``t = 2``), and ``mean_v`` the
    across-run mean of the total squared estimation error.
    """

    steps: np.ndarray
    regret: np.ndarray
    regret_se: np.ndarray
    mar: np.ndarray
    mean_v: np.ndarray
    oracle: np.ndarray | None
    runs: int
    tau: float


@dataclass(frozen=True)
class RegretBoundReport:
    """Outcome of checking regret against the accumulated-error bound.

    The bound is ``(1/2) N rho0 sum_{t<=T} mean V(t)``, checked at every
    horizon up to ``steps_checked - 1`` for every node, with a two
    standard-error Monte Carlo allowance on the regret estimate.
    """

    passed: bool
    runs: int
    steps_checked: int
    rho0: float
    min_margin: float
    worst_node: int
    worst_step: int
    regret_at_worst: float
    bound_at_worst: float


def oracle_parameter(
    process: RegressionProcess,
    x0,
    horizon: int,
) -> np.ndarray:
    """Best fixed parameter for the expected cumulative loss up to
    ``horizon`` (inclusive), by solving the normal equations.

    With zero-mean measurement noise the minimizer of
    ``sum_{t<=T} sum_j E||H_j(t) x - y_j(t)||^2`` satisfies
    ``(sum E[H^T H]) x = (sum E[H^T H]) x0``, so a nonsingular pooled Gram
    returns the true parameter; the solve is still performed explicitly so
    the identity is computed, not assumed.  A pooled Gram that is singular
    at this horizon (some direction never excited) raises
    :class:`UnobservableHorizonError`.
    """
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (process.dim,):
        raise InvalidInputError(f"x0 must have shape ({process.dim},), got {x0.shape}")
    gram = np.zeros((process.dim, process.dim))
    for t in range(horizon + 1):
        for i in range(process.nodes):
            gram += conditional_expected_node_gram(process, i, t)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if eigs[-1] <= 0.0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise UnobservableHorizonError(
            f"pooled Gram over steps 0..{horizon} is singular "
            f"(smallest eigenvalue {eigs[0]:.3g}); no unique best parameter"
        )
    return np.linalg.solve(gram, gram @ x0)


@np.errstate(over="ignore", invalid="ignore")  # a diverged run folds to inf or NaN
def fold_runs(samples) -> tuple[np.ndarray, np.ndarray]:
    """Across-run mean and sum of squared deviations of equally shaped
    per-run arrays, folded one run at a time in order (Welford), so the
    result does not depend on how the runs were batched."""
    mean = m2 = None
    for j, sample in enumerate(samples, start=1):
        if mean is None:
            mean = np.zeros(np.shape(sample))
            m2 = np.zeros_like(mean)
        delta = sample - mean
        mean += delta / j
        m2 += delta * (sample - mean)
    if mean is None:
        raise InvalidInputError("need at least one run")
    return mean, m2


def normalized_max_regret(regret, steps, tau: float) -> np.ndarray:
    """Maximum over nodes (last axis) of ``regret`` at each of ``steps``,
    divided by ``t^(1-tau) ln t``; ``nan`` below ``t = 2``, where the
    normalizer is not positive."""
    steps = np.asarray(steps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = steps ** (1.0 - tau) * np.log(steps)
        ratio = np.max(regret, axis=-1) / np.where(steps >= 2, norm, 1.0)
        return np.where(steps >= 2, ratio, np.nan)


def _check_records(records) -> list[TrajectoryRecord]:
    recs = list(records)
    if not recs:
        raise InvalidInputError("need at least one run record")
    shape = recs[0].excess_losses.shape
    for r in recs[1:]:
        if r.excess_losses.shape != shape:
            raise InvalidInputError("run records disagree on horizon or node count")
    return recs


def empirical_regret(records, node: int, horizon: int) -> float:
    """Monte Carlo regret estimate for one node at one horizon: the mean
    over runs of the cumulative excess loss through step ``horizon``
    (inclusive)."""
    recs = _check_records(records)
    rows, n_nodes = recs[0].excess_losses.shape
    if not 0 <= node < n_nodes:
        raise InvalidInputError("node index out of range")
    if not 0 <= horizon < rows:
        raise InvalidInputError(f"horizon must lie in [0, {rows - 1}]")
    total = 0.0
    for r in recs:
        total += float(r.excess_losses[: horizon + 1, node].sum())
    return total / len(recs)


def mar(records, horizon: int, tau: float) -> float:
    """Maximum-over-nodes regret at ``horizon``, normalized by
    ``horizon^(1-tau) * ln(horizon)``.  Needs ``horizon >= 2`` for a
    positive normalizer."""
    if horizon < 2:
        raise InvalidInputError("mar needs horizon >= 2 (positive log)")
    recs = _check_records(records)
    n_nodes = recs[0].excess_losses.shape[1]
    regret = [empirical_regret(recs, i, horizon) for i in range(n_nodes)]
    return float(normalized_max_regret(regret, horizon, tau))


def regret_series(
    records,
    tau: float,
    oracle: np.ndarray | None = None,
) -> RegretSeries:
    """Fold a batch of runs into full per-step regret statistics.

    Computes, at every recorded step, the across-run mean and standard
    error of each node's cumulative excess loss, the mean total squared
    error, and the normalized maximum regret, folding the runs in order.
    """
    recs = _check_records(records)
    runs = len(recs)
    mean_cum, m2_cum = fold_runs(np.cumsum(r.excess_losses, axis=0) for r in recs)
    mean_v, _ = fold_runs(r.v for r in recs)
    if runs > 1:
        se = np.sqrt(m2_cum / (runs - 1) / runs)
    else:
        se = np.zeros_like(mean_cum)
    steps = recs[0].steps
    mar_series = normalized_max_regret(mean_cum, steps, tau)
    return RegretSeries(
        steps=steps,
        regret=mean_cum,
        regret_se=se,
        mar=mar_series,
        mean_v=mean_v,
        oracle=None if oracle is None else np.asarray(oracle, dtype=float),
        runs=runs,
        tau=float(tau),
    )


def lemma_regret_bound_check(records, rho0: float, horizon: int | None = None) -> RegretBoundReport:
    """Check every node's regret against the accumulated mean-square-error
    bound at every horizon.

    For each ``T`` up to ``horizon`` and each node ``i``, requires
    ``regret(i, T) <= (1/2) N rho0 sum_{t<=T} mean V(t)`` within two
    standard errors of the regret estimate.  Reports the tightest margin
    seen (bound minus regret, before the allowance).
    """
    if rho0 <= 0:
        raise InvalidInputError("rho0 must be positive")
    recs = _check_records(records)
    series = regret_series(recs, tau=0.5)
    rows, n_nodes = series.regret.shape
    last = rows - 1 if horizon is None else int(horizon)
    if not 0 <= last < rows:
        raise InvalidInputError(f"horizon must lie in [0, {rows - 1}]")

    bound = 0.5 * n_nodes * rho0 * np.cumsum(series.mean_v)[: last + 1]
    regret = series.regret[: last + 1]
    margins = bound[:, None] - regret
    allowed = margins + 2.0 * series.regret_se[: last + 1]
    flat = int(np.argmin(margins))
    worst_step, worst_node = divmod(flat, n_nodes)
    return RegretBoundReport(
        passed=bool((allowed >= 0.0).all()),
        runs=series.runs,
        steps_checked=last + 1,
        rho0=float(rho0),
        min_margin=float(margins.min()),
        worst_node=int(worst_node),
        worst_step=int(worst_step),
        regret_at_worst=float(regret[worst_step, worst_node]),
        bound_at_worst=float(bound[worst_step]),
    )
