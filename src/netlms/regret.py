"""Online-regret metrics for simulated runs.

A node's regret at horizon ``T`` is its cumulative expected excess loss
over the best fixed parameter in hindsight.  With zero-mean measurement
noise that best parameter is the true one, and the excess loss at step
``t`` collapses to ``(1/2) sum_j ||H_j(t) (x_i(t) - x0)||^2`` — the noise
contribution cancels exactly.  Trajectory records store precisely those
per-step increments, so the estimators here are plain folds over runs:
no noisy loss differencing, which would drown the signal in Monte Carlo
variance at practical run counts.

Every statistic comes from one across-run fold that takes the runs'
cumulative excess losses and V one block of steps at a time: from record
slices (:func:`regret_series`, :func:`lemma_regret_bound_check`), from
the kernel's chunk statistics without any record (:func:`simulate_regret`),
or as one block at the batch runner's record grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import InvalidInputError, UnobservableHorizonError
from .estimator import ChunkStats, SimulationModel, TrajectoryRecord, _run_seed, simulate
from .linalg import as_index
from .noise import BoundCheckReport
from .regression import RegressionProcess, spatio_temporal_gram

__all__ = [
    "RegretSeries",
    "RegretBoundReport",
    "oracle_parameter",
    "lemma_regret_bound_check",
    "regret_series",
    "simulate_regret",
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
    horizon = as_index(horizon, "horizon")
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


# Steps per block of the across-run fold.  A block holds about
# ``runs x BLOCK x N`` floats per array, and the fold's loop over runs runs
# once per block.
BLOCK = 1024


# a diverged run folds to inf or NaN
@np.errstate(over="ignore", invalid="ignore")
def _fold(runs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one block of steps of ``(cumulative excess losses, V)`` pairs,
    one run at a time in run order (Welford), into the across-run mean of
    the cumulative excess losses, its standard error and the mean V.
    Every entry depends only on the same entry of each run, so a horizon
    folded block by block gives the same bits whatever the block edges."""
    for count, (cum, v) in enumerate(runs, start=1):
        if count == 1:
            mean, m2, mean_v = np.zeros(cum.shape), np.zeros(cum.shape), np.zeros(v.shape)
        mean_v += (v - mean_v) / count
        delta = cum - mean
        mean += delta / count
        m2 += delta * (cum - mean)
    se = np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros_like(mean)
    return mean, se, mean_v


class _SeriesFill:
    """A :class:`RegretSeries` at ``steps`` of ``runs`` runs, filled one
    folded block of steps at a time, in step order."""

    def __init__(self, steps, tau: float, runs: int, nodes: int):
        if not np.isfinite(tau):
            raise InvalidInputError("tau must be finite")
        rows = len(steps)
        self.tau, self.filled = tau, 0
        self.series = RegretSeries(
            steps=steps,
            regret=np.empty((rows, nodes)),
            regret_se=np.empty((rows, nodes)),
            mar=np.empty(rows),
            mean_v=np.empty(rows),
            runs=runs,
        )

    # a diverged run folds to inf or NaN, and below t = 2 the normalizer
    # is 0 ln 0
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def fold(self, runs) -> None:
        """Fold the next block's ``(cumulative excess losses, V)`` pairs."""
        s, lo = self.series, self.filled
        mean, se, mean_v = _fold(runs)
        hi = self.filled = lo + len(mean_v)
        s.regret[lo:hi], s.regret_se[lo:hi], s.mean_v[lo:hi] = mean, se, mean_v
        t = np.asarray(s.steps[lo:hi], dtype=float)
        norm = np.where(t >= 2, t ** (1.0 - self.tau) * np.log(t), 1.0)
        s.mar[lo:hi] = np.where(t >= 2, np.max(mean, axis=-1) / norm, np.nan)


def _record_runs(recs, lo: int, hi: int, carry: np.ndarray):
    """Each record's ``(cumulative excess losses, V)`` at rows ``lo .. hi - 1``.
    The sum goes on from ``carry`` (one row per record, updated here) the
    way the kernel carries it from chunk to chunk, so it is the same
    sequential sum as ``np.cumsum`` over the whole record."""
    for rec, c in zip(recs, carry):
        cum = rec.excess_losses[lo:hi].copy()
        cum[0] += c
        np.cumsum(cum, axis=0, out=cum)
        c[:] = cum[-1]
        yield cum, rec.v[lo:hi]


def _spans(stop: int):
    """``(lo, hi)`` of each block of rows ``0 .. stop - 1``."""
    return ((lo, min(lo + BLOCK, stop)) for lo in range(0, stop, BLOCK))


def _record_blocks(recs):
    """Every row of the records in blocks of :data:`BLOCK` steps: per
    block, the pairs of :func:`_record_runs`."""
    rows, nodes = recs[0].excess_losses.shape
    carry = np.zeros((len(recs), nodes))
    for lo, hi in _spans(rows):
        yield _record_runs(recs, lo, hi, carry)


def _check_records(records) -> list[TrajectoryRecord]:
    recs = list(records)
    if not recs:
        raise InvalidInputError("need at least one run record")
    shape = recs[0].excess_losses.shape
    for r in recs[1:]:
        if r.excess_losses.shape != shape:
            raise InvalidInputError("run records disagree on horizon or node count")
    return recs


def regret_series(records, tau: float) -> RegretSeries:
    """Fold a batch of runs into full per-step regret statistics.

    Computes, at every recorded step, the across-run mean and standard
    error of each node's cumulative excess loss, the mean total squared
    error, and the normalized maximum regret, folding the runs in order
    one block of steps at a time.
    """
    recs = _check_records(records)
    rows, nodes = recs[0].excess_losses.shape
    fill = _SeriesFill(np.arange(rows), tau, len(recs), nodes)
    for runs in _record_blocks(recs):
        fill.fold(runs)
    return fill.series


def simulate_regret(config: ExperimentConfig, runs) -> tuple[RegretSeries, list[BoundCheckReport]]:
    """Simulate the runs with indices ``runs`` under ``config.seed``
    together and fold them into their :class:`RegretSeries` at every step,
    at ``tau = config.gains.a_exp``, without building a record.

    The series equals ``regret_series(run_trajectories(config, runs),
    config.gains.a_exp)`` bit for bit: the kernel's chunk statistics are
    buffered into blocks of :data:`BLOCK` steps, and each block is folded
    across the runs in run order.  Besides the series, memory holds one
    block of every run.  Returns the series and one
    :class:`BoundCheckReport` per run (see :func:`simulate`).
    """
    seeds = [_run_seed(config.seed, r) for r in runs]
    rows, nodes = config.horizon + 1, config.nodes
    fill = _SeriesFill(np.arange(rows), config.gains.a_exp, len(seeds), nodes)
    # runs first, so each run's block is contiguous for the fold
    cum, v = np.empty((len(seeds), BLOCK, nodes)), np.empty((len(seeds), BLOCK))

    def on_chunk(stats: ChunkStats) -> None:
        k = 0  # rows of the chunk already buffered
        while k < len(stats.v):
            at = (stats.start + k) % BLOCK
            n = min(BLOCK - at, len(stats.v) - k)
            cum[:, at : at + n] = stats.cum_excess[k : k + n].transpose(2, 0, 1)
            v[:, at : at + n] = stats.v[k : k + n].T
            k += n
            if at + n == BLOCK or stats.start + k == rows:
                fill.fold(zip(cum[:, : at + n], v[:, : at + n]))

    model = SimulationModel.from_config(config)
    _, reports = simulate(model, seeds, config.horizon, on_chunk)
    return fill.series, reports


# a diverged run's regret and bound are inf, and their margin NaN
@np.errstate(over="ignore", invalid="ignore")
def lemma_regret_bound_check(source, rho0: float) -> RegretBoundReport:
    """Check every node's regret against the accumulated mean-square-error
    bound at every horizon.

    For each horizon ``T`` of ``source`` and each node ``i``, requires
    ``regret(i, T) <= (1/2) N rho0 sum_{t<=T} mean V(t)`` within two
    standard errors of the regret estimate.  Reports the tightest margin
    seen (bound minus regret, before the allowance): the first NaN margin
    if there is one, else the first smallest.

    ``source`` is a :class:`RegretSeries` at every step ``0..T`` (the bound
    sums mean V over every step) or a batch of run records.  Records are
    folded one block of steps at a time, and only the running worst
    margin, the running sum of mean V and the worst position are kept, so
    no full-length series is built.
    """
    if not (np.isfinite(rho0) and rho0 > 0):
        raise InvalidInputError("rho0 must be finite and positive")
    if isinstance(source, RegretSeries):
        rows, nodes = source.regret.shape
        if rows == 0 or not np.array_equal(source.steps, np.arange(rows)):
            raise InvalidInputError("the regret series must be at every step 0..T")
        runs = source.runs
        blocks = (
            (source.regret[lo:hi], source.regret_se[lo:hi], source.mean_v[lo:hi])
            for lo, hi in _spans(rows)
        )
    else:
        recs = _check_records(source)
        rows, nodes = recs[0].excess_losses.shape
        runs = len(recs)
        blocks = map(_fold, _record_blocks(recs))

    scale = 0.5 * nodes * rho0
    passed, carry, lo, worst = True, 0.0, 0, None
    for regret, se, mean_v in blocks:
        # the bound's running sum goes on from the last block's, as one
        # np.cumsum over every step would
        bound = mean_v.copy()
        bound[0] += carry
        np.cumsum(bound, out=bound)
        carry = bound[-1]
        bound *= scale
        margins = bound[:, None] - regret
        passed = passed and bool((margins + 2.0 * se >= 0.0).all())
        # np.argmin's rule across blocks: the first NaN, else the first minimum
        k, i = divmod(int(np.argmin(margins)), nodes)
        m = margins[k, i]
        if worst is None or (not np.isnan(worst[0]) and (np.isnan(m) or m < worst[0])):
            worst = (m, lo + k, i, regret[k, i], bound[k])
        lo += len(mean_v)
    min_margin, worst_step, worst_node, regret_at, bound_at = worst
    return RegretBoundReport(
        passed=passed,
        runs=runs,
        steps_checked=rows,
        rho0=float(rho0),
        min_margin=float(min_margin),
        worst_node=int(worst_node),
        worst_step=int(worst_step),
        regret_at_worst=float(regret_at),
        bound_at_worst=float(bound_at),
    )
