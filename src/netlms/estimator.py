"""Distributed online estimator: innovation + consensus + shrinkage.

Each node updates its estimate with a local least-mean-square innovation
term, a consensus move toward the (noisy) messages of its in-neighbours,
and a vanishing ridge-style shrinkage pulling the estimate toward zero:

    x_i+ = x_i + a(k) H_i^T (y_i - H_i x_i)
               + b(k) sum_j w_ij (mu_ji - x_i)
               - lambda(k) x_i.

``node_step`` evaluates exactly that, node by node; ``compact_step``
evaluates the equivalent stacked recursion built from the graph
Laplacian, the block-diagonal observation matrix and the stacked noise
factors.  Both take plain arrays: the estimates, the adjacency, each
node's ``H_i`` and ``y_i``, the channel draws and the gains.  The two must
agree to machine precision on identical draws — that equivalence is the
main structural test of the package, and both serve as oracles for
:func:`simulate`, the kernel every simulation goes through: it advances a
batch of runs together, draws each exogenous source in blocks of steps
(:func:`graphs.graph_block`, :func:`regression.regression_block`) and
folds the recorded statistics once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import InvalidInputError
from .graphs import GraphProcess, graph_block
from .linalg import as_index, block_diag, laplacian, ordered_sum
from .noise import (
    BoundCheckReport,
    BoundTally,
    ChannelNoise,
    MeasurementNoise,
    NoiseIntensity,
    build_WM,
    norm_bound_sides,
)
from .regression import RegressionProcess, regression_block

__all__ = [
    "GainSchedule",
    "GainConditionReport",
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

    def at(self, k: int) -> tuple[float, float, float]:
        """``a, b, lam`` at step ``k`` from scalar powers: the oracle that
        replays single steps in the tests.  It may differ from
        :meth:`table`, which the simulator and the audit read, by an ulp."""
        k1 = k + 1
        return (
            self.a_coef * k1**-self.a_exp,
            self.b_coef * k1**-self.b_exp,
            self.lam_coef * k1**-self.lam_exp,
        )

    def table(self, steps) -> np.ndarray:
        """``(len(steps), 3)`` array of ``a, b, lam`` at ``steps``, from one
        elementwise power per gain, so a step's gains do not depend on the
        other steps in the table."""
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


def node_step(
    estimates: np.ndarray,
    adjacency: np.ndarray,
    h_nodes,
    y_nodes,
    messages: np.ndarray,
    gains: tuple[float, float, float],
) -> np.ndarray:
    """One update in per-node form; returns the new ``(N, n)`` estimates.

    ``h_nodes[i]`` and ``y_nodes[i]`` are node ``i``'s ``(n_i, n)``
    observation matrix and ``n_i`` measurements.  ``messages[i, j]`` is
    the (noisy) message node ``i`` received from node ``j``; entries for
    pairs with zero weight are ignored.  Messages must be present (finite)
    for every j with ``w_ij != 0``.
    """
    a, b, lam = gains
    x = np.asarray(estimates, dtype=float)
    w = np.asarray(adjacency, dtype=float)
    new_x = np.empty_like(x)
    for i, (h, y) in enumerate(zip(h_nodes, y_nodes)):
        innovation = h.T @ (y - h @ x[i])
        consensus = w[i] @ (messages[i] - x[i])
        new_x[i] = (1.0 - lam) * x[i] + a * innovation + b * consensus
    return new_x


def compact_step(
    estimates: np.ndarray,
    adjacency: np.ndarray,
    h_nodes,
    y_nodes,
    xi: np.ndarray,
    gains: tuple[float, float, float],
    intensity: NoiseIntensity,
) -> np.ndarray:
    """One update in stacked form: ``x+ = P x + a H^T y + b W M xi`` with
    ``P = (1 - lam) I - b (L (x) I_n) - a H^T H``; returns the new
    ``(N, n)`` estimates.

    ``xi`` may be shaped ``(N, N, n)`` (receiver-major, like the message
    draws) or already flat of length ``N^2 n``.  Mathematically identical
    to :func:`node_step`; kept as an independent implementation so the
    two can be checked against each other.
    """
    a, b, lam = gains
    x = np.asarray(estimates, dtype=float)
    n_nodes, dim = x.shape
    xf = x.reshape(-1)
    hb = block_diag(h_nodes)
    y = np.concatenate(y_nodes)
    lap_big = np.kron(laplacian(adjacency), np.eye(dim))
    xi_flat = np.asarray(xi, dtype=float).reshape(-1)
    if xi_flat.shape[0] != n_nodes * n_nodes * dim:
        raise InvalidInputError("xi must have N^2 n entries")
    w, m = build_WM(adjacency, x, intensity)
    new_flat = (
        (1.0 - lam) * xf
        - b * (lap_big @ xf)
        - a * (hb.T @ (hb @ xf))
        + a * (hb.T @ y)
        + b * (w @ (m @ xi_flat))
    )
    return new_flat.reshape(n_nodes, dim)


@dataclass
class TrajectoryRecord:
    """Everything recorded along one simulated run.

    Arrays are indexed by step ``0..horizon`` inclusive; row ``k`` holds
    the state *before* the update at ``k`` together with that step's
    draws, so ``v[k]`` is the total squared error ``sum_i |x_i(k) - x0|^2``
    and ``excess_losses[k, i]`` the per-step quantity
    ``0.5 sum_j |H_j(k) (x_i(k) - x0)|^2`` whose cumulative sums estimate
    regret.
    """

    v: np.ndarray
    err_norms: np.ndarray
    est_norms: np.ndarray
    excess_losses: np.ndarray
    x_final: np.ndarray
    bound_report: BoundCheckReport | None = None


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-run generator: stream ``index`` under one master seed.

    Uses ``SeedSequence(master, spawn_key=(index,))``, so adding runs
    never perturbs earlier ones.  Simulations do not draw from the
    generator itself: they spawn one substream per source from its seed
    sequence (see :func:`source_streams`).
    """
    return np.random.default_rng(_run_seed(master_seed, index))


def _run_seed(master_seed: int, run) -> np.random.SeedSequence:
    """Seed sequence of run ``run`` under ``master_seed``."""
    return np.random.SeedSequence(master_seed, spawn_key=(as_index(run, "run index"),))


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
        noise = config.noise
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
            measurement=MeasurementNoise(kind=noise.measurement_kind, std=noise.measurement_std),
            channel=ChannelNoise(kind=noise.channel_kind, std=noise.channel_std),
            intensity=NoiseIntensity(sigma=noise.sigma_f, bias=noise.b_f),
            gains=GainSchedule.from_config(config),
            x0=np.asarray(config.x0, dtype=float),
            init=np.asarray(config.init, dtype=float),
            ar_init=ar_init,
        )


@dataclass(frozen=True)
class ChunkStats:
    """Statistics of rows ``start .. start + K - 1`` of every run of a
    batch.  ``v`` is ``(K, R)``; the other arrays are ``(K, N, R)``:
    error and estimate norms per node, per-step excess losses and their
    cumulative sums (see :class:`TrajectoryRecord`)."""

    start: int
    v: np.ndarray
    err_norms: np.ndarray
    est_norms: np.ndarray
    excess_losses: np.ndarray
    cum_excess: np.ndarray


# Steps per chunk: as many as keep a chunk's arrays near this many floats
# (1.5 MB), but at least 16.  ``_step_floats`` counts, per run and step, the
# fused operator (``n + 2N + 1`` slots per output), the step input ``z``,
# the channel draws and the regression arrays; the operator build, where a
# chunk peaks, holds about that many, and no array outlives its chunk.  The
# per-chunk cost is paid per run and source, so one run wants long chunks
# and a batch short ones.  In a sweep of fixed chunk sizes (regret with
# 4000 steps for 20 runs, setting-i with 3e4 steps for one; one BLAS
# thread, best CPU time of 3, median of three passes), 20 runs took 5.6 us
# per run-step at 24 steps, 4.3 at 49 and 3.7 at 96, with traced peaks of
# 0.91, 1.78 and 3.22 MB; one run took 13.5 us per step at 491 and at 983
# and 11.7 at 2048, peaking at 0.84, 1.65 and 3.36 MB.  Run to run, these
# times spread by up to 40 %.  That sweep predates the operator scratch
# below, which the budget now also holds: the defaults are 47 steps for
# 20 runs and 942 for one.
_CHUNK_FLOATS = 3 << 16

# Floats of the steps-first scratch that the step loop copies the operator
# into, one sub-block of steps at a time, so that each step reads its
# weights as one contiguous row: 91 steps for one run of the 3-node
# presets, 4 for 20 runs (64 KB).  It comes out of the chunk budget, so a
# larger one shortens a batch's chunks (at 1 << 16, 20 runs would get 32
# steps), which the sweep above prices higher than the rows save.
_SCRATCH_FLOATS = 1 << 13


def _op_floats(nodes: int, dim: int) -> int:
    """Floats of the fused operator per run and step, link slots included."""
    return (dim + 2 * nodes + 1) * dim * nodes


def _step_floats(nodes: int, dim: int, rows: int) -> int:
    """Floats that one step of one run adds to a chunk's arrays."""
    width = dim * nodes
    per_step = _op_floats(nodes, dim) + width + nodes * nodes * (dim + 1) + 1
    return per_step + rows * (dim + nodes + 2)


def _scratch_steps(runs: int, nodes: int, dim: int) -> int:
    """Steps per sub-block of the operator scratch: as many as fit in
    :data:`_SCRATCH_FLOATS` for ``runs`` runs, but at least one."""
    return max(1, _SCRATCH_FLOATS // (runs * _op_floats(nodes, dim)))


def _default_chunk(runs: int, nodes: int, dim: int, rows: int) -> int:
    scratch = _scratch_steps(runs, nodes, dim) * runs * _op_floats(nodes, dim)
    return max(16, (_CHUNK_FLOATS - scratch) // (runs * _step_floats(nodes, dim, rows)))


def _fused_operator(model, link_noise, start, updates, adj, h, y, xi):
    """``op[s, p, k]``, the weight of slot ``s`` of output ``p = q' N + i``
    at step ``start + k`` (see :func:`simulate`), for a chunk's
    ``updates`` steps.  It is built and returned with steps and runs last,
    so each call below writes ``updates * R`` contiguous values; the step
    loop copies it steps first, a sub-block at a time.  Scales ``xi`` in
    place without link noise."""
    n_nodes, dim = model.init.shape
    slots = dim + n_nodes * (2 if link_noise else 1) + 1
    op = np.empty((slots, dim, n_nodes, updates, adj.shape[-1]))
    comp_diag = np.arange(dim)
    a, b, lam = (g[:, None] for g in model.gains.table(range(start, start + updates)).T)
    # views: adj_t[j, i, k] = a_ij at step k; ht[row, q, k] = H_row[q]
    adj_t = adj[:updates].transpose(2, 1, 0, 3)
    ht = h[:updates].transpose(1, 2, 0, 3)
    yt = y[:updates].transpose(1, 0, 2)
    # -b L_ik: b a_ik off the diagonal, -b sum_j a_ij on it
    consensus = op[dim : dim + n_nodes]
    np.multiply(adj_t[:, None], b, out=consensus)
    degree = ordered_sum(adj_t, 0)
    offsets = model.regression.offsets
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        # own[q, q'] = entry (q', q) of (1 - lam) I - a H_i^T H_i;
        # H_i^T H_i is exactly symmetric, so the transpose is free
        own = op[:dim, :, i]
        # row by row, in order: the Gram's outer products stay small
        np.multiply(ht[lo, :, None], ht[lo, None, :], out=own)
        for row in range(lo + 1, hi):
            own += ht[row, :, None] * ht[row, None, :]
        own *= -a
        own[comp_diag, comp_diag] += 1.0 - lam
        np.multiply(degree[i], -b, out=consensus[i, :, i])
        np.multiply(ordered_sum(ht[lo:hi] * yt[lo:hi, None], 0), a, out=op[-1, :, i])
    # link noise sum_j a_ij f_ij xi_ij: its bias part is exogenous
    axi = xi[:updates].transpose(1, 2, 3, 0, 4)
    link = op[dim + n_nodes : -1] if link_noise else axi
    np.multiply(axi, adj_t[:, None], out=link)
    op[-1] += (b * model.intensity.bias) * ordered_sum(link, 0)
    if link_noise:
        link *= b * model.intensity.sigma
    return op.reshape(slots, dim * n_nodes, updates, adj.shape[-1])


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
    chunks of :func:`_default_chunk` steps.  Every draw is exogenous: only
    the link intensity ``f(x)`` depends on the estimates, and it scales
    pre-drawn channel noise.  So the recursion

        x_i+ = ((1 - lam) I - a H_i^T H_i) x_i - b (L x)_i + a H_i^T y_i
               + b sum_j a_ij (bias + sigma |x_j - x_i|) xi_ij

    is affine in ``z = [x, dist, 1]``, where ``dist`` holds the distances
    ``|x_j - x_i|`` (only when the link noise depends on the state).  Each
    chunk builds, for all its steps, one fused operator over the entries
    of ``z`` that each output reads: component ``q'`` of ``x_i+`` is the
    sum, in slot order, of

    - ``x_i``'s components times column ``q'`` of the own block
      ``(1 - lam) I - a H_i^T H_i``;
    - component ``q'`` of every ``x_k`` times ``-b L_ik``;
    - every distance ``|x_j - x_i|`` times ``b sigma a_ij xi_ij``;
    - 1 times the exogenous ``a H_i^T y_i + b bias sum_j a_ij xi_ij``.

    The operator is built with steps and runs last; the step loop copies
    it, :func:`_scratch_steps` steps at a time, into a fixed steps-first
    scratch, so each step reads its weights as one contiguous ``(slots,
    n N R)`` row.  A step is then eight numpy calls, three without link
    noise: one take of ``x_k[q]`` and ``x_i[q]`` for every pair into a
    buffer, their difference and its square on the flat buffer, an
    in-order sum over the components into the flat distance rows of
    ``z`` and a square root (the link-noise part); then one take of ``z``
    into the operator's slots, one multiply with the step's row and one
    ordered sum over the slots into the flat next state.  The values of a
    run depend neither on the block or sub-block size nor on the other
    runs of the batch.

    One call handles one chunk, from its draws to its statistics, and
    only the state, the graph and ar-driven histories and the running
    excess sum outlive it; the operator dies with the step loop, before
    the statistics.  So the peak holds one chunk's arrays, about
    :func:`_step_floats` floats per run and step, and the scratch.

    ``on_chunk`` receives one :class:`ChunkStats` per chunk, in step
    order; rows ``0..horizon`` are covered, row ``horizon`` without an
    update.  Returns the final states ``(R, N, n)`` and, with
    ``check_bounds``, one :class:`BoundCheckReport` per run.
    """
    horizon = as_index(horizon, "horizon")
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    streams = [source_streams(s) for s in seeds]
    runs = len(streams)
    if runs == 0:
        raise InvalidInputError("need at least one run")
    gp, rp, x0 = model.graph, model.regression, model.x0
    n_nodes, dim = model.init.shape
    rows = rp.total_rows
    chunk = _default_chunk(runs, n_nodes, dim, rows)
    # the state-dependent part of the link noise vanishes without sigma
    link_noise = model.intensity.sigma > 0.0 and model.channel.kind != "zero"
    node_diag, comp_diag = np.arange(n_nodes), np.arange(dim)

    # Runs sit on the last axis of every array and states are stored
    # component-major: x[q, i, r] is component q of node i in run r.
    # Every sum runs in index order, either through ordered_sum or as a
    # numpy reduction over a leading axis of a C-ordered array (which
    # numpy adds up in order), so a run rounds the same way alone, in any
    # batch and with any chunk size.
    #
    # Rows of z: the state, the distances |x_j - x_i| at j N + i (left
    # unset and unread without link noise), the 1.  gather[s, p] is the
    # row of z in slot s of output p = q' N + i.
    width = dim * n_nodes
    inputs = width + n_nodes * n_nodes + 1
    out_comp, out_node = np.divmod(np.arange(width), n_nodes)
    gather = np.concatenate(
        [
            comp_diag[:, None] * n_nodes + out_node,  # x_i[q]
            out_comp * n_nodes + node_diag[:, None],  # x_k[q']
            *([width + node_diag[:, None] * n_nodes + out_node] if link_noise else []),
            np.full((1, width), inputs - 1),
        ]
    )
    slots, flat_x = len(gather), width * runs
    gathered = np.empty((slots, width, runs))
    flat_gathered = gathered.reshape(slots, flat_x)
    # pair_rows[:, (q N + k) N + i] = the rows of x_k[q] and x_i[q] in z
    senders, receivers = np.divmod(np.arange(n_nodes * n_nodes), n_nodes)
    pair_rows = (comp_diag[:, None] * n_nodes + np.stack([senders, receivers])[:, None]).reshape(2, -1)
    pairs = np.empty((2, dim * n_nodes * n_nodes, runs))
    sender_x, receiver_x = pairs.reshape(2, -1)
    sq_diff = sender_x.reshape(dim, -1)
    # scratch[k] holds the operator of one step of a sub-block as one row
    sub = _scratch_steps(runs, n_nodes, dim)
    scratch = np.empty((sub, slots, width, runs))
    scratch_rows = scratch.reshape(sub, slots, flat_x)

    x = np.repeat(model.init.T[:, :, None], runs, axis=2)
    graph_rngs, regression_rngs, noise_rngs, channel_rngs = zip(*streams)
    graph_state = None
    ar_hist = None if model.ar_init is None else np.repeat(model.ar_init[:, :, None], runs, axis=2)
    tally = BoundTally(runs) if check_bounds else None
    carry_excess = np.zeros((n_nodes, runs))
    add = np.add.reduce

    def run_steps(op, x, count):
        """The states ``(count + 1, n, N, R)`` of a chunk from ``x``, its
        updates applied.  Only this frame holds the operator, so the
        operator and the loop's views of it die when it returns."""
        # z[k] is the input of step start + k; one spare row for the state
        # after the chunk's last update
        z = np.empty((count + 1, inputs, runs))
        z[:, -1] = 1.0
        states = z[:, :width].reshape(count + 1, dim, n_nodes, runs)
        states[0] = x
        # flat_z[k] is z[k] with runs folded into the entries; the three
        # row iterators run on across sub-blocks, since zip stops at the
        # end of a sub-block before it draws from them
        flat_z = z.reshape(count + 1, inputs * runs)
        inputs_j, next_xs, dists = iter(z), iter(flat_z[1:, :flat_x]), iter(flat_z[:, flat_x:-runs])
        op = op.transpose(2, 0, 1, 3)
        for lo in range(0, len(op), sub):
            block = op[lo : lo + sub]
            np.copyto(scratch[: len(block)], block)
            # the calls take out by position and use ndarray.take, not
            # np.take: at R = 1 a keyword out costs about 0.7 us per call
            # and np.take's wrapper about 2 us
            for op_j, z_j, next_x, dist in zip(scratch_rows[: len(block)], inputs_j, next_xs, dists):
                if link_noise:
                    z_j.take(pair_rows, 0, pairs, "clip")
                    np.subtract(sender_x, receiver_x, sender_x)
                    np.square(sender_x, sender_x)
                    add(sq_diff, 0, None, dist)
                    np.sqrt(dist, dist)
                z_j.take(gather, 0, gathered, "clip")
                np.multiply(op_j, flat_gathered, flat_gathered)
                add(flat_gathered, 0, None, next_x)
        return states

    def run_chunk(start, x, graph_state, ar_hist, carry_excess):
        """Draw, advance and fold rows ``start .. start + count - 1`` and
        hand their :class:`ChunkStats` to ``on_chunk``.  Returns what the
        next chunk reads: the state after the updates, the graph and
        ar-driven histories and the running excess sum.  Every other array
        of the chunk dies on return."""
        count = min(chunk, horizon + 1 - start)
        updates = min(count, horizon - start)
        adj, graph_state = graph_block(gp, start, count, graph_rngs, graph_state)
        noise = np.stack([model.measurement.sample(g, (count, rows)) for g in noise_rngs], axis=-1)
        h, y_clean, y, ar_hist = regression_block(rp, x0, count, regression_rngs, noise, ar_hist)
        del noise
        # channel noise indexed (step, sender j, component, receiver i, run)
        shape = (count, n_nodes, n_nodes, dim)
        xi = np.stack(
            [model.channel.sample(g, shape).transpose(0, 2, 3, 1) for g in channel_rngs], axis=-1
        )
        states = run_steps(_fused_operator(model, link_noise, start, updates, adj, h, y, xi), x, count)
        # only the operator reads these; the statistics below peak without
        # them
        del xi, y
        x = states[updates].copy()
        states = states[:count]
        err = states - x0[:, None, None]
        per_err = ordered_sum(err * err, 1)
        v = ordered_sum(per_err, 1)
        # hx[k, i, row] = H_row x_i
        hx = states[:, 0, :, None] * h[:, None, :, 0]
        for q in range(1, dim):
            hx += states[:, q, :, None] * h[:, None, :, q]
        hx -= y_clean[:, None]
        excess = 0.5 * ordered_sum(hx * hx, 2)
        # carrying into the first row keeps the running sum sequential,
        # hence independent of the chunk size
        cum_excess = excess.copy()
        cum_excess[0] += carry_excess
        cum_excess = np.cumsum(cum_excess, axis=0)
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
                excess_losses=excess,
                cum_excess=cum_excess,
            )
        )
        return x, graph_state, ar_hist, cum_excess[-1].copy()

    for start in range(0, horizon + 1, chunk):
        x, graph_state, ar_hist, carry_excess = run_chunk(start, x, graph_state, ar_hist, carry_excess)
    return np.ascontiguousarray(x.transpose(2, 1, 0)), None if tally is None else tally.reports()


def _sample_runs(config, seeds, grid, fields, check_bounds=True):
    """Simulate one run per seed for ``config.horizon`` updates and keep the
    :class:`ChunkStats` ``fields`` at the sorted step array ``grid``, runs
    first: ``(R, len(grid))`` for ``v``, ``(R, len(grid), N)`` for the
    others.  Returns those arrays by field, the final states and the bound
    reports of :func:`simulate`."""
    runs, nodes = len(seeds), config.nodes
    out = {f: np.empty((runs, len(grid), nodes)[: 2 if f == "v" else 3]) for f in fields}

    def on_chunk(stats: ChunkStats) -> None:
        lo, hi = np.searchsorted(grid, (stats.start, stats.start + len(stats.v)))
        at = grid[lo:hi] - stats.start
        for f, dst in out.items():
            src = getattr(stats, f).take(at, axis=0)
            dst[:, lo:hi] = src.transpose(-1, *range(src.ndim - 1))

    model = SimulationModel.from_config(config)
    return (out, *simulate(model, seeds, config.horizon, on_chunk, check_bounds))


def _records(config, seeds, check_bounds) -> list[TrajectoryRecord]:
    steps = np.arange(config.horizon + 1)
    got, x_final, reports = _sample_runs(
        config, seeds, steps, ("v", "err_norms", "est_norms", "excess_losses"), check_bounds
    )
    return [
        TrajectoryRecord(
            v=got["v"][r],
            err_norms=got["err_norms"][r],
            est_norms=got["est_norms"][r],
            excess_losses=got["excess_losses"][r],
            x_final=x_final[r],
            bound_report=None if reports is None else reports[r],
        )
        for r in range(len(seeds))
    ]


def run_trajectory(
    config: ExperimentConfig,
    seed,
    check_bounds: bool = True,
) -> TrajectoryRecord:
    """Simulate one run of ``config.horizon`` updates: the batch kernel
    :func:`simulate` with ``R = 1``.

    ``seed`` may be an int, a ``SeedSequence``, or a ``Generator`` or
    ``BitGenerator``; a generator contributes only its seed sequence, so
    ``run_trajectory(config, substream(config.seed, r))`` equals run ``r``
    of :func:`run_trajectories` and of ``run_experiment``.  With
    ``check_bounds`` the stacked-factor norm bounds are verified (exactly,
    no tolerance) at every step from the closed forms.  Horizon ``T``
    records rows ``0..T`` and applies ``T`` updates; the draws at row
    ``T`` complete that row's losses.
    """
    return _records(config, [_seed_sequence(seed)], check_bounds)[0]


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
    return _records(config, [_run_seed(config.seed, r) for r in runs], check_bounds)
