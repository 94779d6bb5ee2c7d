"""Distributed online estimator: innovation + consensus + shrinkage.

Each node updates its estimate with a local least-mean-square innovation
term, a consensus move toward the (noisy) messages of its in-neighbours,
and a vanishing ridge-style shrinkage pulling the estimate toward zero:

    x_i+ = x_i + a(k) H_i^T (y_i - H_i x_i)
               + b(k) sum_j w_ij (mu_ji - x_i)
               - lambda(k) x_i.

``node_step`` evaluates exactly that; ``compact_step`` evaluates the
equivalent stacked recursion built from the graph Laplacian, the
block-diagonal observation matrix and the stacked noise factors.  The two
must agree to machine precision on identical draws — that equivalence is
the main structural test of the package, and both serve as oracles for
:func:`simulate`, the kernel every simulation goes through: it advances a
batch of runs together, draws each exogenous source in blocks of steps
and folds the recorded statistics once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import InvalidInputError
from .graphs import GraphProcess, GraphSample, graph_block
from .linalg import ordered_sum
from .noise import (
    BoundCheckReport,
    BoundTally,
    ChannelNoise,
    MeasurementNoise,
    NoiseIntensity,
    build_WM,
    norm_bound_sides,
)
from .regression import RegressionProcess, RegressionSample, regression_block

__all__ = [
    "GainSchedule",
    "GainConditionReport",
    "EstimatorState",
    "TrajectoryRecord",
    "validate_gains",
    "node_step",
    "compact_step",
    "SimulationModel",
    "ChunkStats",
    "SOURCES",
    "source_streams",
    "simulate",
    "run_trajectory",
    "run_trajectories",
    "substream",
]


@dataclass(frozen=True)
class GainSchedule:
    """Power-law step sizes.

    ``a(k) = a_coef (k+1)^-a_exp`` weights the innovation, ``b`` the
    consensus term and ``lam`` the shrinkage, all evaluated at ``k + 1``
    so step 0 uses the coefficient itself.
    """

    a_coef: float
    a_exp: float
    b_coef: float
    b_exp: float
    lam_coef: float
    lam_exp: float

    def __post_init__(self):
        vals = (self.a_coef, self.a_exp, self.b_coef, self.b_exp, self.lam_coef, self.lam_exp)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise InvalidInputError("gain coefficients and exponents must be finite and nonnegative")

    def a(self, k: int) -> float:
        return self.a_coef * (k + 1) ** -self.a_exp

    def b(self, k: int) -> float:
        return self.b_coef * (k + 1) ** -self.b_exp

    def lam(self, k: int) -> float:
        return self.lam_coef * (k + 1) ** -self.lam_exp

    def at(self, k: int) -> tuple[float, float, float]:
        return self.a(k), self.b(k), self.lam(k)

    def table(self, steps) -> np.ndarray:
        """``(len(steps), 3)`` array of ``a, b, lam`` at ``steps``, from one
        elementwise power per gain (which may differ from :meth:`at` by an
        ulp, but not with the other steps in the table)."""
        k1 = np.asarray(steps, dtype=float) + 1.0
        return np.column_stack(
            [
                self.a_coef * k1**-self.a_exp,
                self.b_coef * k1**-self.b_exp,
                self.lam_coef * k1**-self.lam_exp,
            ]
        )

    @classmethod
    def from_config(cls, cfg: ExperimentConfig) -> "GainSchedule":
        g = cfg.gains
        return cls(g.a_coef, g.a_exp, g.b_coef, g.b_exp, g.lambda_coef, g.lambda_exp)


@dataclass(frozen=True)
class GainConditionReport:
    """Pass/fail of each clause of a step-size condition."""

    mode: str
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, ok, _ in self.checks if not ok)


def validate_gains(schedule: GainSchedule, mode: str = "C1") -> GainConditionReport:
    """Check a power-law schedule against one of the two admissibility
    conditions.

    For power laws the asymptotic clauses reduce to exponent
    inequalities: ``sum min(a, b)`` diverges iff both coefficients are
    positive and ``max(a_exp, b_exp) <= 1``; a power law is
    square-summable iff twice its exponent exceeds 1; and ``f = o(g)``
    iff f's exponent strictly exceeds g's (or f vanishes identically).
    """
    if mode not in ("C1", "C2"):
        raise InvalidInputError(f"mode must be 'C1' or 'C2', got {mode!r}")
    s = schedule
    slow = max(s.a_exp, s.b_exp)
    lam_zero = s.lam_coef == 0.0
    checks: list[tuple[str, bool, str]] = []

    diverges = s.a_coef > 0 and s.b_coef > 0 and slow <= 1.0
    checks.append(
        (
            "persistent-stepsizes",
            diverges,
            f"sum min(a,b) diverges iff a_coef,b_coef > 0 and max(a_exp, b_exp) <= 1; "
            f"max exponent is {slow}",
        )
    )
    if mode == "C1":
        checks.append(
            (
                "square-summable-gains",
                2 * s.a_exp > 1 and 2 * s.b_exp > 1,
                f"needs a_exp > 0.5 and b_exp > 0.5, got {s.a_exp}, {s.b_exp}",
            )
        )
        checks.append(
            (
                "summable-shrinkage",
                lam_zero or s.lam_exp > 1,
                "lambda identically zero" if lam_zero else f"needs lam_exp > 1, got {s.lam_exp}",
            )
        )
        checks.append(
            (
                "shrinkage-dominated",
                lam_zero or s.lam_exp > slow,
                "lambda identically zero"
                if lam_zero
                else f"lambda = o(min(a,b)) needs lam_exp > {slow}, got {s.lam_exp}",
            )
        )
        checks.append(
            (
                "slow-decay-ratio",
                True,
                "a(k)/a(k+1) -> 1 for every power law, so a(k) = O(a(k+1)) holds",
            )
        )
    else:
        vanish = (
            (s.a_coef == 0 or s.a_exp > 0)
            and (s.b_coef == 0 or s.b_exp > 0)
            and (lam_zero or s.lam_exp > 0)
        )
        checks.append(("vanishing-gains", vanish, "every nonzero gain needs a positive exponent"))
        checks.append(
            (
                "squared-gains-dominated",
                2 * s.a_exp > slow and 2 * s.b_exp > slow,
                f"a^2 + b^2 = o(min(a,b)) needs 2 a_exp > {slow} and 2 b_exp > {slow}",
            )
        )
        checks.append(
            (
                "shrinkage-dominated",
                lam_zero or s.lam_exp > slow,
                "lambda identically zero"
                if lam_zero
                else f"lambda = o(min(a,b)) needs lam_exp > {slow}, got {s.lam_exp}",
            )
        )
    return GainConditionReport(mode=mode, passed=all(ok for _, ok, _ in checks), checks=tuple(checks))


@dataclass(slots=True)
class EstimatorState:
    """Estimates of all nodes at one step; ``estimates`` has shape (N, n)."""

    step: int
    estimates: np.ndarray
    x0: np.ndarray


def node_step(
    state: EstimatorState,
    graph: GraphSample,
    regression: RegressionSample,
    messages: np.ndarray,
    gains: tuple[float, float, float],
) -> EstimatorState:
    """One update in per-node form.

    ``messages[i, j]`` is the (noisy) message node ``i`` received from
    node ``j``; entries for pairs with zero weight are ignored.  Messages
    must be present (finite) for every j with ``w_ij != 0``.
    """
    a, b, lam = gains
    x = state.estimates
    w = graph.adjacency
    h = regression.h_stacked
    # per-row residual against the owning node's estimate, then fold the
    # weighted rows back into per-node innovation vectors
    resid = regression.y - np.einsum("rn,rn->r", h, x[regression._row_node])
    innov = np.add.reduceat(h * resid[:, None], regression._starts, axis=0)
    consensus = np.einsum("ij,ijn->in", w, messages) - w.sum(axis=1)[:, None] * x
    new_x = (1.0 - lam) * x + a * innov + b * consensus
    return EstimatorState(step=state.step + 1, estimates=new_x, x0=state.x0)


def compact_step(
    state: EstimatorState,
    graph: GraphSample,
    regression: RegressionSample,
    xi: np.ndarray,
    gains: tuple[float, float, float],
    intensity,
) -> EstimatorState:
    """One update in stacked form: ``x+ = P x + a H^T y + b W M xi`` with
    ``P = (1 - lam) I - b (L (x) I_n) - a H^T H``.

    ``xi`` may be shaped ``(N, N, n)`` (receiver-major, like the message
    draws) or already flat of length ``N^2 n``.  Mathematically identical
    to :func:`node_step`; kept as an independent implementation so the
    two can be checked against each other.
    """
    a, b, lam = gains
    x = state.estimates
    n_nodes, dim = x.shape
    xf = x.reshape(-1)
    hb = regression.h_block
    lap_big = np.kron(graph.laplacian, np.eye(dim))
    xi_flat = np.asarray(xi, dtype=float).reshape(-1)
    if xi_flat.shape[0] != n_nodes * n_nodes * dim:
        raise InvalidInputError("xi must have N^2 n entries")
    w, m = build_WM(graph.adjacency, x, intensity)
    new_flat = (
        (1.0 - lam) * xf
        - b * (lap_big @ xf)
        - a * (hb.T @ (hb @ xf))
        + a * (hb.T @ regression.y)
        + b * (w @ (m @ xi_flat))
    )
    return EstimatorState(step=state.step + 1, estimates=new_flat.reshape(n_nodes, dim), x0=state.x0)


@dataclass
class TrajectoryRecord:
    """Everything recorded along one simulated run.

    Arrays are indexed by step ``0..horizon`` inclusive; row ``k`` holds
    the state *before* the update at ``k`` together with that step's
    draws, so ``v[k]`` is the total squared error ``sum_i |x_i(k) - x0|^2``
    and ``excess_losses[k, i]`` the per-step quantity
    ``0.5 sum_j |H_j(k) (x_i(k) - x0)|^2`` whose cumulative sums estimate
    regret.  ``cum_losses`` accumulates the raw losses
    ``0.5 sum_j |H_j(k) x_i(k) - y_j(k)|^2``.  Records simulated together
    may share (read-only) storage for ``steps`` and ``gains_used``.
    """

    seed: int
    horizon: int
    steps: np.ndarray
    v: np.ndarray
    err_norms: np.ndarray
    est_norms: np.ndarray
    gains_used: np.ndarray
    cum_losses: np.ndarray
    excess_losses: np.ndarray
    x_final: np.ndarray
    x0: np.ndarray
    bound_report: BoundCheckReport | None = None


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-run generator: stream ``index`` under one master seed.

    Uses ``SeedSequence(master, spawn_key=(index,))``, so adding runs
    never perturbs earlier ones.  Simulations do not draw from the
    generator itself: they spawn one substream per source from its seed
    sequence (see :func:`source_streams`).
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


# Exogenous random sources of a run, in spawn-key order.
SOURCES = ("graph", "regression", "measurement", "channel")


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator
    if isinstance(seed, np.random.BitGenerator):
        seed = seed.seed_seq
        if not isinstance(seed, np.random.SeedSequence):
            raise InvalidInputError("the generator was not created from a SeedSequence")
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def source_streams(seed) -> tuple[np.random.Generator, ...]:
    """One generator per entry of :data:`SOURCES` for the run seeded by
    ``seed`` (an int, a ``SeedSequence``, or a ``Generator`` or
    ``BitGenerator``, whose own seed sequence is used).

    Source ``s`` of a run with seed sequence ``SeedSequence(e,
    spawn_key=key)`` draws from ``SeedSequence(e, spawn_key=(*key, s))``;
    for run ``r`` of a batch under master seed ``m`` that is
    ``SeedSequence(m, spawn_key=(r, s))``.
    """
    ss = _seed_sequence(seed)
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, s), pool_size=ss.pool_size)
        )
        for s in range(len(SOURCES))
    )


@dataclass(frozen=True, eq=False)
class SimulationModel:
    """Everything the simulation kernel reads: the graph and regression
    processes, the noise laws, the gains and the initial conditions."""

    graph: GraphProcess
    regression: RegressionProcess
    measurement: MeasurementNoise
    channel: ChannelNoise
    intensity: NoiseIntensity
    gains: GainSchedule
    x0: np.ndarray
    init: np.ndarray
    ar_init: np.ndarray | None = None

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "SimulationModel":
        rp = config.regression.to_process(config.nodes, config.dim)
        ar_init = None
        if rp.kind == "ar-driven":
            ar_init = (
                np.zeros((config.nodes, config.dim))
                if config.regression.ar_init is None
                else np.asarray(config.regression.ar_init, dtype=float)
            )
        return cls(
            graph=config.graph.to_process(config.nodes),
            regression=rp,
            measurement=config.noise.measurement(),
            channel=config.noise.channel(),
            intensity=config.noise.intensity(),
            gains=GainSchedule.from_config(config),
            x0=np.asarray(config.x0, dtype=float),
            init=np.asarray(config.init, dtype=float),
            ar_init=ar_init,
        )


@dataclass(frozen=True)
class ChunkStats:
    """Statistics of rows ``start .. start + K - 1`` of every run of a
    batch.  ``v`` is ``(K, R)``; the other arrays are ``(K, N, R)``:
    error and estimate norms per node, cumulative raw losses, per-step
    excess losses and their cumulative sums (see :class:`TrajectoryRecord`)."""

    start: int
    v: np.ndarray
    err_norms: np.ndarray
    est_norms: np.ndarray
    cum_losses: np.ndarray
    excess_losses: np.ndarray
    cum_excess: np.ndarray


# Steps per chunk: as many as keep a chunk's arrays near this many floats
# (512 KB), but at least 16.  The per-chunk cost is paid per run and
# source, so one run wants long chunks and a batch short ones.  In a sweep
# of fixed chunk sizes (3x3 presets, one BLAS thread), one 3e4-step run
# ran 2.3x faster at 425 steps than at 16, 4 % faster again at 1024, and
# peaked 4 MB higher at 4096; 20 runs ran 5 % faster at 64 steps than at
# 21 but peaked 2 MB higher.  For 50 runs the budget alone gives 8 steps,
# 25-50 % slower per run-step than 16.
_CHUNK_FLOATS = 1 << 16


def _default_chunk(runs: int, nodes: int, dim: int, rows: int) -> int:
    per_step = dim * dim * nodes + nodes * nodes * (2 * dim + 1) + rows * (dim + nodes + 2)
    return max(16, _CHUNK_FLOATS // (runs * per_step))


# a diverging run overflows to inf and NaN; first_nonfinite_step reports it
@np.errstate(over="ignore", invalid="ignore")
def simulate(
    model: SimulationModel,
    seeds,
    horizon: int,
    on_chunk,
    check_bounds: bool = True,
) -> tuple[np.ndarray, list[BoundCheckReport] | None]:
    """Advance ``R = len(seeds)`` runs together for ``horizon`` updates.

    Each run draws its graph, regressors, measurement noise and channel
    noise from its own per-source substreams (:func:`source_streams`), in
    blocks of :func:`_default_chunk` steps.  Every draw is exogenous: only the link
    intensity ``f(x)`` depends on the estimates, and it scales pre-drawn
    channel noise.  So each chunk precomputes, for all its steps, the
    pieces of the stacked recursion

        x_i+ = ((1 - lam) I - a H_i^T H_i) x_i - b (L x)_i + a H_i^T y_i
               + b sum_j a_ij (bias + sigma |x_j - x_i|) xi_ij,

    and the loop over steps evaluates only what involves the state.  The
    values of a run depend neither on the block size nor on the other
    runs of the batch.

    ``on_chunk`` receives one :class:`ChunkStats` per chunk, in step
    order; rows ``0..horizon`` are covered, row ``horizon`` without an
    update.  Returns the final states ``(R, N, n)`` and, with
    ``check_bounds``, one :class:`BoundCheckReport` per run.
    """
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    streams = [source_streams(s) for s in seeds]
    runs = len(streams)
    if runs == 0:
        raise InvalidInputError("need at least one run")
    gp, rp, x0 = model.graph, model.regression, model.x0
    n_nodes, dim = model.init.shape
    rows = rp.total_rows
    node_rows = [range(lo, hi) for lo, hi in zip(rp.offsets[:-1], rp.offsets[1:])]
    chunk = _default_chunk(runs, n_nodes, dim, rows)
    sigma, bias = model.intensity.sigma, model.intensity.bias
    # the state-dependent part of the link noise vanishes without sigma
    link_noise = sigma > 0.0 and model.channel.kind != "zero"
    node_diag, comp_diag = np.arange(n_nodes), np.arange(dim)

    # Runs sit on the last axis of every array and states are stored
    # component-major: x[q, i, r] is component q of node i in run r.
    # Every sum runs in index order, either through ordered_sum or as a
    # numpy reduction over a leading axis of a C-ordered array (which
    # numpy adds up in order), so a run rounds the same way alone, in any
    # batch and with any chunk size.
    x = np.repeat(model.init.T[:, :, None], runs, axis=2)
    graph_rngs, regression_rngs, noise_rngs, channel_rngs = zip(*streams)
    graph_state = None
    ar_hist = None if model.ar_init is None else np.repeat(model.ar_init[:, :, None], runs, axis=2)
    tally = BoundTally(runs) if check_bounds else None
    carry_loss = np.zeros((n_nodes, runs))
    carry_excess = np.zeros((n_nodes, runs))
    add = np.add.reduce
    for start in range(0, horizon + 1, chunk):
        count = min(chunk, horizon + 1 - start)
        updates = min(count, horizon - start)

        adj, graph_state = graph_block(gp, start, count, graph_rngs, graph_state)
        noise = np.stack([model.measurement.sample(g, (count, rows)) for g in noise_rngs], axis=-1)
        h, y_clean, y, ar_hist = regression_block(rp, x0, count, regression_rngs, noise, ar_hist)
        # channel noise indexed (step, sender j, component, receiver i, run)
        shape = (count, n_nodes, n_nodes, dim)
        xi = np.stack(
            [model.channel.sample(g, shape).transpose(0, 2, 3, 1) for g in channel_rngs], axis=-1
        )

        if updates > 0:
            gains = model.gains.table(range(start, start + updates))
            a, b, lam = (g[:, None, None, None] for g in gains.T)
            hu, au = h[:updates], adj[:updates]
            # own[k, q, q', i] = entry (q', q) of (1 - lam) I - a H_i^T H_i;
            # H_i^T H_i is exactly symmetric, so the transpose is free
            own = np.empty((updates, dim, dim, n_nodes, runs))
            hty = np.empty((updates, dim, n_nodes, runs))
            for i, span in enumerate(node_rows):
                # row by row, in order: the Gram's outer products stay small
                own[:, :, :, i] = hu[:, span[0], :, None] * hu[:, span[0], None, :]
                for row in span[1:]:
                    own[:, :, :, i] += hu[:, row, :, None] * hu[:, row, None, :]
                hty[:, :, i] = ordered_sum(hu[:, span] * y[:updates, span, None], 1)
            own *= -a[..., None]
            own[:, comp_diag, comp_diag] += 1.0 - lam
            # b L^T, indexed (step, k, i): the weight of x_k in (b L x)_i
            lap_t = np.negative(au.transpose(0, 2, 1, 3), order="C")
            lap_t[:, node_diag, node_diag] = ordered_sum(au, 2)
            lap_t *= b
            # link noise sum_j a_ij f_ij xi_ij: its bias part is exogenous
            axi = xi[:updates]
            axi *= au.transpose(0, 2, 1, 3)[:, :, None]
            const = a * hty + (b * bias) * ordered_sum(axi, 1)
            axi *= b[..., None] * sigma

        # row j holds the state entering step start + j; one spare row
        states = np.empty((count + 1, dim, n_nodes, runs))
        states[0] = x
        for j in range(updates):
            x, nxt = states[j], states[j + 1]
            add(own[j] * x[:, None], 0, out=nxt)
            nxt -= add(lap_t[j] * x[:, :, None], 1)
            nxt += const[j]
            if link_noise:
                d = x[:, :, None] - x[:, None]  # x_j - x_i at [q, j, i]
                dist = np.sqrt(add(d * d, 0))
                nxt += add(dist[:, None] * axi[j], 0)
        x = states[updates].copy()
        states = states[:count]

        err = states - x0[:, None, None]
        per_err = ordered_sum(err * err, 1)
        v = ordered_sum(per_err, 1)
        # hx[k, i, row] = H_row x_i
        hx = states[:, 0, :, None] * h[:, None, :, 0]
        for q in range(1, dim):
            hx += states[:, q, :, None] * h[:, None, :, q]
        resid = y[:, None] - hx
        losses = 0.5 * ordered_sum(resid * resid, 2)
        hx -= y_clean[:, None]
        excess = 0.5 * ordered_sum(hx * hx, 2)
        # carrying into the first row keeps the running sums sequential,
        # hence independent of the chunk size
        losses[0] += carry_loss
        cum_losses = np.cumsum(losses, axis=0)
        cum_excess = excess.copy()
        cum_excess[0] += carry_excess
        cum_excess = np.cumsum(cum_excess, axis=0)
        carry_loss, carry_excess = cum_losses[-1], cum_excess[-1]
        if tally is not None:
            w_lhs, w_rhs, m_lhs, m_rhs = norm_bound_sides(
                adj.transpose(0, 3, 1, 2), states.transpose(0, 3, 2, 1), model.intensity, v
            )
            tally.add(w_rhs - w_lhs, m_rhs - m_lhs, v)
        on_chunk(
            ChunkStats(
                start=start,
                v=v,
                err_norms=np.sqrt(per_err),
                est_norms=np.sqrt(ordered_sum(states * states, 1)),
                cum_losses=cum_losses,
                excess_losses=excess,
                cum_excess=cum_excess,
            )
        )
    return np.ascontiguousarray(x.transpose(2, 1, 0)), None if tally is None else tally.reports()


def _records(config, seeds, horizon, check_bounds, label) -> list[TrajectoryRecord]:
    horizon = config.horizon if horizon is None else int(horizon)
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    model = SimulationModel.from_config(config)
    rows, runs, n_nodes = horizon + 1, len(seeds), config.nodes
    v = np.empty((runs, rows))
    err_norms, est_norms, cum_losses, excess = (np.empty((runs, rows, n_nodes)) for _ in range(4))

    def fold(stats: ChunkStats) -> None:
        span = slice(stats.start, stats.start + stats.v.shape[0])
        v[:, span] = stats.v.T
        for dst, src in (
            (err_norms, stats.err_norms),
            (est_norms, stats.est_norms),
            (cum_losses, stats.cum_losses),
            (excess, stats.excess_losses),
        ):
            dst[:, span] = src.transpose(2, 0, 1)

    x_final, reports = simulate(model, seeds, horizon, fold, check_bounds)
    steps = np.arange(rows)
    gains_used = model.gains.table(steps)
    for shared in (steps, gains_used):
        shared.flags.writeable = False
    return [
        TrajectoryRecord(
            seed=label,
            horizon=horizon,
            steps=steps,
            v=v[r],
            err_norms=err_norms[r],
            est_norms=est_norms[r],
            gains_used=gains_used,
            cum_losses=cum_losses[r],
            excess_losses=excess[r],
            x_final=x_final[r],
            x0=model.x0,
            bound_report=None if reports is None else reports[r],
        )
        for r in range(runs)
    ]


def run_trajectory(
    config: ExperimentConfig,
    seed,
    horizon: int | None = None,
    check_bounds: bool = True,
) -> TrajectoryRecord:
    """Simulate one run: the batch kernel :func:`simulate` with ``R = 1``.

    ``seed`` may be an int, a ``SeedSequence``, or a ``Generator`` or
    ``BitGenerator``; a generator contributes only its seed sequence, so
    ``run_trajectory(config, substream(config.seed, r))`` equals run ``r``
    of :func:`run_trajectories` and of ``run_experiment``.  With
    ``check_bounds`` the stacked-factor norm bounds are verified (exactly,
    no tolerance) at every step from the closed forms.  Horizon ``T``
    records rows ``0..T`` and applies ``T`` updates; the draws at row
    ``T`` complete that row's losses.
    """
    label = int(seed) if isinstance(seed, (int, np.integer)) else -1
    return _records(config, [_seed_sequence(seed)], horizon, check_bounds, label)[0]


def run_trajectories(
    config: ExperimentConfig,
    runs,
    check_bounds: bool = True,
) -> list[TrajectoryRecord]:
    """Simulate the runs with indices ``runs`` under ``config.seed``
    together, for ``config.horizon`` updates; record ``i`` equals
    ``run_trajectory(config, substream(config.seed, runs[i]))`` bit for
    bit, whatever the batch.
    """
    seeds = [np.random.SeedSequence(config.seed, spawn_key=(int(r),)) for r in runs]
    return _records(config, seeds, None, check_bounds, -1)
