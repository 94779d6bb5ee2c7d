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

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnobservableHorizonError
from .estimator import TrajectoryRecord
from .regression import RegressionProcess, spatio_temporal_gram

__all__ = [
    "RegretSeries",
    "RegretBoundReport",
    "oracle_parameter",
    "mar",
    "lemma_regret_bound_check",
    "regret_series",
]


@dataclass(frozen=True, eq=False)
class RegretSeries:
    """Regret statistics folded over a batch of runs, at ``steps``.

    ``regret[t, i]`` estimates node ``i``'s regret at horizon ``steps[t]``
    (mean over runs of the cumulative excess loss), ``regret_se`` its
    standard error across runs, ``mar[t]`` the maximum regret over nodes
    normalized by ``t^(1-tau) ln t`` (``nan`` below ``t = 2``), and
    ``mean_v`` the across-run mean of the total squared estimation error.
    """

    steps: np.ndarray
    regret: np.ndarray
    regret_se: np.ndarray
    mar: np.ndarray
    mean_v: np.ndarray
    runs: int


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
    gram = spatio_temporal_gram(process, horizon + 1)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if eigs[-1] <= 0.0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise UnobservableHorizonError(
            f"pooled Gram over steps 0..{horizon} is singular "
            f"(smallest eigenvalue {eigs[0]:.3g}); no unique best parameter"
        )
    return np.linalg.solve(gram, gram @ x0)


# a diverged run folds to inf or NaN, and below t = 2 the normalizer is 0 ln 0
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _summary(runs, steps, tau: float) -> RegretSeries:
    """Fold ``(cumulative excess losses, V)`` pairs, one run at a time in
    run order (Welford), into a :class:`RegretSeries` at ``steps``.  The
    result does not depend on how the runs were batched, and each run's
    arrays can be dropped once folded."""
    if not np.isfinite(tau):
        raise InvalidInputError("tau must be finite")
    count = 0
    for count, (cum, v) in enumerate(runs, start=1):
        if count == 1:
            mean, m2, mean_v = np.zeros(cum.shape), np.zeros(cum.shape), np.zeros(v.shape)
        mean_v += (v - mean_v) / count
        delta = cum - mean
        mean += delta / count
        m2 += delta * (cum - mean)
    if count == 0:
        raise InvalidInputError("need at least one run")
    # free the last run's arrays before the statistics below allocate: one
    # run of 3e4 steps otherwise peaks about 1 MB higher
    del cum, v, delta
    se = np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros_like(mean)
    t = np.asarray(steps, dtype=float)
    norm = np.where(t >= 2, t ** (1.0 - tau) * np.log(t), 1.0)
    mar = np.where(t >= 2, np.max(mean, axis=-1) / norm, np.nan)
    return RegretSeries(steps=steps, regret=mean, regret_se=se, mar=mar, mean_v=mean_v, runs=count)


def _check_records(records) -> list[TrajectoryRecord]:
    recs = list(records)
    if not recs:
        raise InvalidInputError("need at least one run record")
    shape = recs[0].excess_losses.shape
    for r in recs[1:]:
        if r.excess_losses.shape != shape:
            raise InvalidInputError("run records disagree on horizon or node count")
    return recs


def _horizon(recs, horizon, low: int) -> int:
    """``horizon`` as an index into the records' steps, at least ``low``."""
    rows = recs[0].excess_losses.shape[0]
    try:
        if low <= operator.index(horizon) < rows:
            return operator.index(horizon)
    except TypeError:
        pass
    raise InvalidInputError(f"horizon must be an integer in [{low}, {rows - 1}], got {horizon!r}")


def regret_series(records, tau: float) -> RegretSeries:
    """Fold a batch of runs into full per-step regret statistics.

    Computes, at every recorded step, the across-run mean and standard
    error of each node's cumulative excess loss, the mean total squared
    error, and the normalized maximum regret, folding the runs in order.
    """
    recs = _check_records(records)
    return _summary(((np.cumsum(r.excess_losses, axis=0), r.v) for r in recs), recs[0].steps, tau)


def mar(records, horizon: int, tau: float) -> float:
    """Maximum-over-nodes regret at ``horizon``, normalized by
    ``horizon^(1-tau) * ln(horizon)``: entry ``horizon`` of
    ``regret_series(records, tau).mar``.  Needs ``horizon >= 2`` for a
    positive normalizer."""
    recs = _check_records(records)
    t = _horizon(recs, horizon, 2)
    return float(regret_series(recs, tau).mar[t])


def lemma_regret_bound_check(records, rho0: float, horizon: int | None = None) -> RegretBoundReport:
    """Check every node's regret against the accumulated mean-square-error
    bound at every horizon.

    For each ``T`` up to ``horizon`` and each node ``i``, requires
    ``regret(i, T) <= (1/2) N rho0 sum_{t<=T} mean V(t)`` within two
    standard errors of the regret estimate.  Reports the tightest margin
    seen (bound minus regret, before the allowance).
    """
    if not (np.isfinite(rho0) and rho0 > 0):
        raise InvalidInputError("rho0 must be finite and positive")
    recs = _check_records(records)
    last = recs[0].excess_losses.shape[0] - 1 if horizon is None else _horizon(recs, horizon, 0)
    series = regret_series(recs, tau=0.5)
    n_nodes = series.regret.shape[1]

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
