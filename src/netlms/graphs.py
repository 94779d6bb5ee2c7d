"""Random time-varying communication graphs.

A graph process describes the law of a sequence of weighted digraphs on a
fixed node set.  Adjacency rows index receivers: ``A[i, j]`` is the weight
node ``i`` places on the link from node ``j``, and the neighbour set of
``i`` at step ``k`` is ``{j : A[i, j] != 0}`` (negative weights included).

Four built-in kinds cover the models used throughout:

``fixed``
    the same adjacency every step;
``alternating-uniform``
    i.i.d. uniform weights whose range alternates with step parity
    (even steps one range, odd steps another);
``iid-uniform``
    i.i.d. uniform weights, one range for all steps;
``markov-switching``
    a finite adjacency list driven by a Markov chain.

A ``custom`` kind wraps an arbitrary sampler; conditional expectations for
it fall back to Monte Carlo averaging.

Every draw goes through :func:`graph_block`, which returns the
adjacencies of a block of consecutive steps for a batch of runs; one step
is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NoUniqueStationaryError
from .linalg import as_matrix, laplacian, symmetrize

__all__ = [
    "GraphProcess",
    "ConditionalExpectation",
    "Gamma1Report",
    "fixed_graph",
    "alternating_uniform_graph",
    "iid_uniform_graph",
    "markov_switching_graph",
    "custom_graph",
    "graph_block",
    "conditional_expected_adjacency",
    "conditional_expected_sym_laplacian",
    "is_conditionally_balanced",
    "stationary_distribution",
    "gamma1_membership",
]

_KINDS = ("fixed", "alternating-uniform", "iid-uniform", "markov-switching", "custom")


@dataclass(frozen=True, eq=False)
class GraphProcess:
    """Immutable description of a random adjacency sequence."""

    kind: str
    nodes: int
    adjacency: np.ndarray | None = None
    even_range: tuple[float, float] | None = None
    odd_range: tuple[float, float] | None = None
    weight_range: tuple[float, float] | None = None
    states: tuple[np.ndarray, ...] | None = None
    transition: np.ndarray | None = None
    initial_state: int = 0
    sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None
    mc_samples: int = 10_000

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown graph kind {self.kind!r}")
        if self.nodes < 1:
            raise InvalidInputError("graph needs at least one node")


@dataclass(frozen=True, eq=False)
class ConditionalExpectation:
    """A conditional mean matrix plus how it was obtained.

    ``exactness`` is ``"analytic"`` for closed forms and ``"monte-carlo"``
    for sample averages (``samples`` then holds the draw count).
    """

    matrix: np.ndarray
    exactness: str
    samples: int | None = None


@dataclass(frozen=True)
class Gamma1Report:
    """Result of the conditional nonnegativity + balance membership test."""

    member: bool
    exactness: str
    detail: str


def _check_adjacency(a, nodes: int | None = None) -> np.ndarray:
    m = as_matrix(a, "adjacency", square=True)
    if np.any(np.diagonal(m) != 0.0):
        raise InvalidInputError("adjacency has nonzero diagonal entries")
    if nodes is not None and m.shape[0] != nodes:
        raise InvalidInputError(f"adjacency must be {nodes}x{nodes}, got {m.shape}")
    m = m.copy()
    m.flags.writeable = False
    return m


def _check_range(rng_pair, name: str) -> tuple[float, float]:
    lo, hi = float(rng_pair[0]), float(rng_pair[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise InvalidInputError(f"{name} must be a finite (low, high) pair with low <= high")
    return lo, hi


def fixed_graph(adjacency) -> GraphProcess:
    """Process that emits the same adjacency at every step."""
    a = _check_adjacency(adjacency)
    return GraphProcess(kind="fixed", nodes=a.shape[0], adjacency=a)


def alternating_uniform_graph(nodes, even_range, odd_range) -> GraphProcess:
    """I.i.d. uniform weights whose range depends on step parity."""
    return GraphProcess(
        kind="alternating-uniform",
        nodes=int(nodes),
        even_range=_check_range(even_range, "even_range"),
        odd_range=_check_range(odd_range, "odd_range"),
    )


def iid_uniform_graph(nodes, weight_range) -> GraphProcess:
    """I.i.d. uniform weights with one range for every step."""
    return GraphProcess(
        kind="iid-uniform",
        nodes=int(nodes),
        weight_range=_check_range(weight_range, "weight_range"),
    )


def markov_switching_graph(states, transition, initial_state: int = 0) -> GraphProcess:
    """Adjacency list indexed by a finite Markov chain."""
    mats = tuple(_check_adjacency(s) for s in states)
    if not mats:
        raise InvalidInputError("markov-switching needs at least one state")
    nodes = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != nodes:
            raise InvalidInputError("all adjacency states must share one node count")
    p = _check_transition(transition, len(mats))
    initial_state = int(initial_state)
    if not 0 <= initial_state < len(mats):
        raise InvalidInputError("initial_state out of range")
    return GraphProcess(
        kind="markov-switching",
        nodes=nodes,
        states=mats,
        transition=p,
        initial_state=initial_state,
    )


def custom_graph(nodes, sampler, mc_samples: int = 10_000) -> GraphProcess:
    """Wrap a user sampler ``(step, rng) -> adjacency``.

    Conditional expectations for this kind are Monte Carlo averages over
    ``mc_samples`` fresh draws.
    """
    if not callable(sampler):
        raise InvalidInputError("sampler must be callable")
    if mc_samples < 1:
        raise InvalidInputError("mc_samples must be positive")
    return GraphProcess(kind="custom", nodes=int(nodes), sampler=sampler, mc_samples=int(mc_samples))


def _check_transition(p, n_states: int) -> np.ndarray:
    m = as_matrix(p, "transition", square=True)
    if m.shape[0] != n_states:
        raise InvalidInputError(f"transition must be {n_states}x{n_states}, got {m.shape}")
    if np.any(m < -1e-12):
        raise InvalidInputError("transition has negative entries")
    if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
        raise InvalidInputError("transition rows must sum to 1")
    m = np.clip(m, 0.0, None)
    m = m / m.sum(axis=1, keepdims=True)
    m.flags.writeable = False
    return m


def graph_block(
    process: GraphProcess,
    start: int,
    count: int,
    rngs,
    prev_states=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw the adjacencies of steps ``start .. start + count - 1`` for a
    batch of runs, run ``r`` drawing from ``rngs[r]``.

    Returns a ``(count, N, N, R)`` array, runs last (a read-only broadcast
    view for the fixed kind), and for markov-switching processes the
    states ``(R,)`` realized at the last step (``None`` for the other
    kinds); ``prev_states`` are the states realized at ``start - 1``.
    Each run's generator is consumed step by step in a fixed order: one
    uniform per adjacency cell (diagonal included), one uniform per Markov
    transition (none at step 0), or whatever the custom sampler draws.  A
    block of ``count`` steps therefore holds exactly the values of
    ``count`` blocks of one step, and no run's values depend on the other
    runs, which keeps simulations independent of block size and batch.
    """
    if start < 0 or count < 1:
        raise InvalidInputError("need start >= 0 and count >= 1")
    n, runs = process.nodes, len(rngs)
    if process.kind == "fixed":
        return np.broadcast_to(process.adjacency[None, :, :, None], (count, n, n, runs)), None
    steps = range(start, start + count)
    if process.kind in ("alternating-uniform", "iid-uniform"):
        a = np.stack([rng.random((count, n, n)) for rng in rngs], axis=-1)
        if process.kind == "alternating-uniform":
            # step parity picks the range: even steps first
            for offset, (lo, hi) in enumerate((process.even_range, process.odd_range)):
                cells = a[(start + offset) % 2 :: 2]
                cells *= hi - lo
                cells += lo
        else:
            lo, hi = process.weight_range
            a *= hi - lo
            a += lo
        a[:, np.arange(n), np.arange(n)] = 0.0
        return a, None
    if process.kind == "markov-switching":
        if start > 0 and prev_states is None:
            raise InvalidInputError("markov-switching sampling needs prev_state for step > 0")
        cum = np.cumsum(process.transition, axis=1)
        last = len(process.states) - 1
        draws = iter(np.stack([rng.random(count - (start == 0)) for rng in rngs], axis=-1))
        index = np.empty((count, runs), dtype=np.intp)
        state = None if prev_states is None else np.asarray(prev_states, dtype=np.intp)
        for j, k in enumerate(steps):
            if k == 0:
                state = np.full(runs, process.initial_state, dtype=np.intp)
            else:
                # searchsorted(cum[state], u, side="right") for every run
                state = np.minimum((cum[state] <= next(draws)[:, None]).sum(axis=1), last)
            index[j] = state
        adjacency = np.stack(process.states, axis=-1)[:, :, index]
        return np.ascontiguousarray(adjacency.transpose(2, 0, 1, 3)), state
    # custom: the user sampler, one call per step and run
    a = np.empty((count, n, n, runs))
    for r, rng in enumerate(rngs):
        for j, k in enumerate(steps):
            a[j, :, :, r] = _check_adjacency(np.array(process.sampler(k, rng), dtype=float), n)
    return a, None


def _mean_adjacency(process: GraphProcess, step: int) -> np.ndarray:
    """Unconditional mean adjacency at ``step`` for the independent kinds."""
    n = process.nodes
    if process.kind == "fixed":
        return process.adjacency.copy()
    if process.kind == "alternating-uniform":
        lo, hi = process.even_range if step % 2 == 0 else process.odd_range
    else:
        lo, hi = process.weight_range
    a = np.full((n, n), 0.5 * (lo + hi))
    np.fill_diagonal(a, 0.0)
    return a


def conditional_expected_adjacency(
    process: GraphProcess,
    step: int,
    history_cut: int = -1,
    state_at_cut: int | None = None,
    rng: np.random.Generator | None = None,
) -> ConditionalExpectation:
    """``E[A(step) | F(history_cut)]``.

    For the independent kinds the answer is the unconditional mean (the
    cut only orders the request).  For markov-switching the expectation is
    ``sum_l P^m(s, l) A_l`` with ``m = step - cut`` transitions from the
    state ``s`` realized at the cut; a cut below zero conditions on nothing
    and starts the chain from its initial state at step 0.
    """
    if step < 0:
        raise InvalidInputError("step must be nonnegative")
    if history_cut > step:
        raise InvalidInputError("history_cut must not exceed step")

    if process.kind == "markov-switching":
        if history_cut < 0:
            s, m = process.initial_state, step
        else:
            if state_at_cut is None:
                raise InvalidInputError("markov-switching conditioning needs state_at_cut")
            if not 0 <= state_at_cut < len(process.states):
                raise InvalidInputError("state_at_cut out of range")
            s, m = int(state_at_cut), step - history_cut
        probs = np.linalg.matrix_power(process.transition, m)[s]
        mean = np.tensordot(probs, np.stack(process.states), axes=1)
        return ConditionalExpectation(matrix=mean, exactness="analytic")

    if process.kind == "custom":
        if rng is None:
            rng = np.random.default_rng(0)
        acc = np.zeros((process.nodes, process.nodes))
        for _ in range(process.mc_samples):
            acc += _check_adjacency(
                np.array(process.sampler(step, rng), dtype=float), process.nodes
            )
        return ConditionalExpectation(
            matrix=acc / process.mc_samples,
            exactness="monte-carlo",
            samples=process.mc_samples,
        )

    if history_cut == step and process.kind != "fixed":
        raise InvalidInputError(
            "conditioning an independent draw on its own step needs the realization; "
            "use an earlier history cut"
        )
    return ConditionalExpectation(matrix=_mean_adjacency(process, step), exactness="analytic")


def conditional_expected_sym_laplacian(
    process: GraphProcess,
    step: int,
    history_cut: int = -1,
    state_at_cut: int | None = None,
    rng: np.random.Generator | None = None,
) -> ConditionalExpectation:
    """``E[sym-Laplacian(step) | F(history_cut)]``.

    The Laplacian and its symmetrization are linear in the adjacency, so
    this is exactly the symmetrized Laplacian of the conditional mean
    adjacency.
    """
    ce = conditional_expected_adjacency(process, step, history_cut, state_at_cut, rng)
    return ConditionalExpectation(
        matrix=symmetrize(laplacian(ce.matrix)),
        exactness=ce.exactness,
        samples=ce.samples,
    )


def is_conditionally_balanced(
    expected_adjacency,
    nonneg_tol: float = 1e-12,
    balance_tol: float = 1e-10,
) -> bool:
    """True when a conditional mean adjacency is entrywise nonnegative and
    every node's expected in-weight equals its expected out-weight.

    Accepts either a :class:`ConditionalExpectation` or a raw matrix.
    """
    m = getattr(expected_adjacency, "matrix", expected_adjacency)
    m = as_matrix(m, "expected adjacency", square=True)
    if m.size == 0:
        return True
    if float(m.min()) < -nonneg_tol:
        return False
    scale = max(1.0, float(np.abs(m).max()))
    return bool(np.all(np.abs(m.sum(axis=1) - m.sum(axis=0)) <= balance_tol * scale))


def gamma1_membership(process: GraphProcess) -> Gamma1Report:
    """Check that every one-step conditional mean adjacency the process can
    produce is nonnegative and balanced.

    For markov-switching this checks the initial state's adjacency and the
    one-step mixture from every state (exact); for the independent kinds it
    checks the per-parity unconditional means; for custom processes it
    checks a Monte Carlo mean.
    """
    if process.kind == "markov-switching":
        mats = [("initial state", process.states[process.initial_state])]
        for s in range(len(process.states)):
            mix = np.tensordot(process.transition[s], np.stack(process.states), axes=1)
            mats.append((f"one-step mean from state {s}", mix))
        exactness = "analytic"
    elif process.kind == "custom":
        ce = conditional_expected_adjacency(process, 0, -1, rng=np.random.default_rng(0))
        mats = [("monte-carlo mean", ce.matrix)]
        exactness = "monte-carlo"
    else:
        steps = (0, 1) if process.kind == "alternating-uniform" else (0,)
        mats = [(f"mean at step {k}", _mean_adjacency(process, k)) for k in steps]
        exactness = "analytic"
    for label, m in mats:
        if not is_conditionally_balanced(m):
            return Gamma1Report(False, exactness, f"{label} is not nonnegative and balanced")
    return Gamma1Report(True, exactness, "all conditional mean adjacencies nonnegative and balanced")


def stationary_distribution(
    transition,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    Power iteration is run from the uniform distribution and from every
    basis vector; all runs must converge to the same fixed point within
    ``tol`` (L1 residual).  Chains without a unique reachable fixed point
    (identity-like, reducible with several closed classes, periodic) raise
    :class:`NoUniqueStationaryError`.
    """
    p = _check_transition(transition, as_matrix(transition, "transition", square=True).shape[0])
    m = p.shape[0]
    starts = [np.full(m, 1.0 / m)] + [np.eye(m)[i] for i in range(m)]
    fixed = []
    for x in starts:
        converged = False
        for _ in range(max_iter):
            nxt = x @ p
            s = nxt.sum()
            if s <= 0:
                break
            nxt = nxt / s
            if float(np.abs(nxt - x).sum()) <= tol:
                x = nxt
                converged = True
                break
            x = nxt
        if not converged:
            raise NoUniqueStationaryError(
                "power iteration did not reach a fixed point within the budget"
            )
        fixed.append(x)
    base = fixed[0]
    for other in fixed[1:]:
        if float(np.abs(base - other).sum()) > 1e-8:
            raise NoUniqueStationaryError("transition matrix has multiple stationary distributions")
    return base
