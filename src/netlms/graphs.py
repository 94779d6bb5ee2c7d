"""Random time-varying communication graphs.

A graph process describes the law of a sequence of weighted digraphs on a
fixed node set.  Adjacency rows index receivers: ``A[i, j]`` is the weight
node ``i`` places on the link from node ``j``, and the neighbour set of
``i`` at step ``k`` is ``{j : A[i, j] != 0}`` (negative weights included).

Three kinds cover the models used throughout:

``fixed``
    the same adjacency every step;
``alternating-uniform``
    i.i.d. uniform weights whose range alternates with step parity
    (even steps one range, odd steps another);
    :func:`iid_uniform_graph` is its case with one range for all steps;
``markov-switching``
    a finite adjacency list driven by a Markov chain.

Each law's conditional mean adjacency has a closed form, which
:func:`conditional_expected_adjacency` states once.

Every draw goes through :func:`graph_block`, which returns the
adjacencies of a block of consecutive steps for a batch of runs as
``adj[i, j, k, r]``, steps and runs last like every array of a simulated
chunk; one step is a block of one.  It draws into a runs-first
:func:`graph_slab` buffer that a caller may keep across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoUniqueStationaryError
from .linalg import as_index, as_matrix, laplacian, symmetrize, uniform_rows

__all__ = [
    "GraphProcess",
    "Gamma1Report",
    "fixed_graph",
    "alternating_uniform_graph",
    "iid_uniform_graph",
    "markov_switching_graph",
    "graph_slab",
    "graph_block",
    "conditional_expected_adjacency",
    "conditional_expected_sym_laplacian",
    "window_sym_laplacians",
    "is_conditionally_balanced",
    "stationary_distribution",
    "gamma1_membership",
]

_KINDS = ("fixed", "alternating-uniform", "markov-switching")


@dataclass(frozen=True, eq=False)
class GraphProcess:
    """Immutable description of a random adjacency sequence."""

    kind: str
    nodes: int
    adjacency: np.ndarray | None = None
    even_range: tuple[float, float] | None = None
    odd_range: tuple[float, float] | None = None
    states: tuple[np.ndarray, ...] | None = None
    transition: np.ndarray | None = None
    initial_state: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown graph kind {self.kind!r}")
        if self.nodes < 1:
            raise InvalidInputError("graph needs at least one node")


@dataclass(frozen=True)
class Gamma1Report:
    """Result of the conditional nonnegativity + balance membership test."""

    member: bool
    detail: str


def _check_adjacency(a) -> np.ndarray:
    m = as_matrix(a, "adjacency", square=True)
    if np.any(np.diagonal(m) != 0.0):
        raise InvalidInputError("adjacency has nonzero diagonal entries")
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
        nodes=as_index(nodes, "nodes"),
        even_range=_check_range(even_range, "even_range"),
        odd_range=_check_range(odd_range, "odd_range"),
    )


def iid_uniform_graph(nodes, weight_range) -> GraphProcess:
    """I.i.d. uniform weights with one range for every step: the
    alternating kind with equal ranges."""
    r = _check_range(weight_range, "weight_range")
    return alternating_uniform_graph(nodes, r, r)


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
    initial_state = as_index(initial_state, "initial_state")
    if not 0 <= initial_state < len(mats):
        raise InvalidInputError("initial_state out of range")
    return GraphProcess(
        kind="markov-switching",
        nodes=nodes,
        states=mats,
        transition=p,
        initial_state=initial_state,
    )


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


def graph_slab(process: GraphProcess, runs: int, steps: int) -> np.ndarray | None:
    """A runs-first buffer that :func:`graph_block` draws up to ``steps``
    steps of ``runs`` runs into: ``(R, steps, N, N)`` cell uniforms for the
    alternating kind, ``(R, steps)`` transition uniforms for
    markov-switching, ``None`` for the fixed kind, which draws nothing."""
    if process.kind == "alternating-uniform":
        return np.empty((runs, steps, process.nodes, process.nodes))
    if process.kind == "markov-switching":
        return np.empty((runs, steps))
    return None


def graph_block(
    process: GraphProcess,
    start: int,
    count: int,
    rngs,
    prev_states=None,
    slab: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw the adjacencies of steps ``start .. start + count - 1`` for a
    batch of runs, run ``r`` drawing from ``rngs[r]``.

    Returns ``adj[i, j, k, r]``, the weight ``a_ij`` at step ``start +
    k`` of run ``r``, and for markov-switching processes the states
    ``(R,)`` realized at the last step (``None`` for the other kinds);
    ``prev_states`` are the states realized at ``start - 1``.  Run ``r``
    draws into ``slab[r, :count]`` of a :func:`graph_slab` buffer of at
    least ``count`` steps, a fresh one when ``slab`` is ``None``.  The
    fixed kind returns a read-only broadcast view; the other kinds a
    fresh array, which the next draw into the slab leaves alone.  Each
    run's generator is consumed step by step in a fixed order: one
    uniform per adjacency cell (diagonal included) or one uniform per
    Markov transition (none at step 0).  A block of ``count`` steps
    therefore holds exactly the values of ``count`` blocks of one step,
    and no run's values depend on the other runs, which keeps simulations
    independent of block size and batch.
    """
    start, count = as_index(start, "start"), as_index(count, "count")
    if start < 0 or count < 1:
        raise InvalidInputError("need start >= 0 and count >= 1")
    n, runs = process.nodes, len(rngs)
    if process.kind == "fixed":
        return np.broadcast_to(process.adjacency[:, :, None, None], (n, n, count, runs)), None
    if process.kind == "markov-switching" and start > 0 and prev_states is None:
        raise InvalidInputError("markov-switching sampling needs prev_state for step > 0")
    if slab is None:
        slab = graph_slab(process, runs, count)
    if process.kind == "alternating-uniform":
        # in place on the runs-first rows, each run's steps contiguous
        u = uniform_rows(rngs, slab, count)
        # step parity picks the range: even steps first
        for offset, (lo, hi) in enumerate((process.even_range, process.odd_range)):
            cells = u[:, (start + offset) % 2 :: 2]
            cells *= hi - lo
            cells += lo
        u[:, :, np.arange(n), np.arange(n)] = 0.0
        return np.ascontiguousarray(u.transpose(2, 3, 1, 0)), None
    # markov-switching
    cum = np.cumsum(process.transition, axis=1)
    last = len(process.states) - 1
    draws = iter(uniform_rows(rngs, slab, count - (start == 0)).T)
    index = np.empty((count, runs), dtype=np.intp)
    state = None if prev_states is None else np.asarray(prev_states, dtype=np.intp)
    for j, k in enumerate(range(start, start + count)):
        if k == 0:
            state = np.full(runs, process.initial_state, dtype=np.intp)
        else:
            # searchsorted(cum[state], u, side="right") for every run
            state = np.minimum((cum[state] <= next(draws)[:, None]).sum(axis=1), last)
        index[j] = state
    return np.stack(process.states, axis=-1).take(index, axis=2), state


def _check_stateless(process: GraphProcess, state_at_cut) -> None:
    """A kind without chain states takes no state at the cut."""
    if state_at_cut is not None:
        raise InvalidInputError(f"{process.kind} graphs have no state at the cut; state_at_cut must be None")


def conditional_expected_adjacency(
    process: GraphProcess,
    step: int,
    history_cut: int = -1,
    state_at_cut: int | None = None,
) -> np.ndarray:
    """``E[A(step) | F(history_cut)]``.

    For the independent kinds the answer is the unconditional mean (the
    cut only orders the request): the adjacency itself for the fixed kind,
    the midpoint of the step's range off the diagonal for the alternating
    kind.  For markov-switching the expectation is ``sum_l P^m(s, l) A_l``
    with ``m = step - cut`` transitions from the state ``s`` realized at
    the cut; a cut below zero conditions on nothing and starts the chain
    from its initial state at step 0.  The independent kinds have no
    state, so ``state_at_cut`` must be ``None`` for them.
    """
    step, history_cut = as_index(step, "step"), as_index(history_cut, "history_cut")
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
            s, m = as_index(state_at_cut, "state_at_cut"), step - history_cut
            if not 0 <= s < len(process.states):
                raise InvalidInputError("state_at_cut out of range")
        probs = np.linalg.matrix_power(process.transition, m)[s]
        return np.tensordot(probs, np.stack(process.states), axes=1)
    _check_stateless(process, state_at_cut)
    if process.kind == "fixed":
        return process.adjacency.copy()
    if history_cut == step:
        raise InvalidInputError(
            "conditioning an independent draw on its own step needs the realization; "
            "use an earlier history cut"
        )
    lo, hi = process.even_range if step % 2 == 0 else process.odd_range
    a = np.full((process.nodes, process.nodes), 0.5 * (lo + hi))
    np.fill_diagonal(a, 0.0)
    return a


def conditional_expected_sym_laplacian(
    process: GraphProcess,
    step: int,
    history_cut: int = -1,
    state_at_cut: int | None = None,
) -> np.ndarray:
    """``E[sym-Laplacian(step) | F(history_cut)]``.

    The Laplacian and its symmetrization are linear in the adjacency, so
    this is exactly the symmetrized Laplacian of the conditional mean
    adjacency.
    """
    return symmetrize(laplacian(conditional_expected_adjacency(process, step, history_cut, state_at_cut)))


def window_sym_laplacians(process: GraphProcess, window: int) -> np.ndarray:
    """The step-by-step conditional mean symmetrized Laplacians of every law
    pattern a window of ``window`` steps can take, ``(P, window, N, N)``;
    :func:`_pattern_index` gives each window's pattern.

    The fixed kind has one pattern; the alternating kind one per parity of
    the window's first step (one when ``window`` is even); markov-switching
    one for window 0, which conditions on nothing, then one per state at
    the cut.  Each distinct law is evaluated once, as
    :func:`conditional_expected_sym_laplacian` at a step that takes it: one
    for the fixed kind, one per step parity for the alternating kind, and
    for markov-switching one per step of window 0 and one per state at the
    cut and count of steps since it.
    """
    window = as_index(window, "window")
    if process.kind == "fixed":
        calls, patterns = [(0, -1, None)], np.zeros((1, window), dtype=np.intp)
    elif process.kind == "alternating-uniform":
        calls = [(0, -1, None), (1, -1, None)]
        patterns = (np.arange(1 + window % 2)[:, None] + np.arange(window)) % 2
    else:
        calls = [(i, -1, None) for i in range(window)]
        calls += [(window + i, window - 1, s) for s in range(len(process.states)) for i in range(window)]
        patterns = np.arange(len(calls)).reshape(-1, window)
    return np.array([conditional_expected_sym_laplacian(process, *call) for call in calls])[patterns]


def _pattern_index(
    process: GraphProcess, window: int, window_indices, state_at_cut: int | None = None
) -> np.ndarray:
    """Each window's pattern in :func:`window_sym_laplacians`, for the
    windows ``window_indices`` conditioned at their cuts ``k window - 1``
    on ``state_at_cut``.  A markov-switching state is range-checked
    whatever the windows; window 0 needs none.  The other kinds take
    none."""
    ks = np.asarray(window_indices, dtype=np.intp)
    if process.kind != "markov-switching":
        _check_stateless(process, state_at_cut)
        return ks * window % 2 if process.kind == "alternating-uniform" else np.zeros_like(ks)
    if state_at_cut is None:
        if np.any(ks > 0):
            raise InvalidInputError("markov-switching conditioning needs state_at_cut")
        return np.zeros_like(ks)
    s = as_index(state_at_cut, "state_at_cut")
    if not 0 <= s < len(process.states):
        raise InvalidInputError("state_at_cut out of range")
    return np.where(ks > 0, 1 + s, 0)


def is_conditionally_balanced(expected_adjacency) -> bool:
    """True when a conditional mean adjacency is entrywise nonnegative (to
    1e-12) and every node's expected in-weight equals its expected
    out-weight (to 1e-10 times the largest entry, or 1e-10 below 1)."""
    m = as_matrix(expected_adjacency, "expected adjacency", square=True)
    if m.size == 0:
        return True
    if float(m.min()) < -1e-12:
        return False
    scale = max(1.0, float(np.abs(m).max()))
    return bool(np.all(np.abs(m.sum(axis=1) - m.sum(axis=0)) <= 1e-10 * scale))


def gamma1_membership(process: GraphProcess) -> Gamma1Report:
    """Check that every one-step conditional mean adjacency the process can
    produce is nonnegative and balanced.

    For markov-switching this checks the initial state's adjacency and the
    one-step mixture from every state; for the independent kinds it checks
    the unconditional means at steps 0 and 1, one per parity.
    """
    if process.kind == "markov-switching":
        mats = [("initial state", process.states[process.initial_state])]
        mats += [(f"one-step mean from state {s}", conditional_expected_adjacency(process, 1, 0, s))
                 for s in range(len(process.states))]
    else:
        mats = [(f"mean at step {k}", conditional_expected_adjacency(process, k)) for k in (0, 1)]
    for label, m in mats:
        if not is_conditionally_balanced(m):
            return Gamma1Report(False, f"{label} is not nonnegative and balanced")
    return Gamma1Report(True, "all conditional mean adjacencies nonnegative and balanced")


def stationary_distribution(transition) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    Power iteration is run from the uniform distribution and from every
    basis vector; within 200,000 steps all runs must converge to the same
    fixed point, to an L1 residual of 1e-12.  Chains without a unique
    reachable fixed point (identity-like, reducible with several closed
    classes, periodic) raise :class:`NoUniqueStationaryError`.
    """
    p = _check_transition(transition, as_matrix(transition, "transition", square=True).shape[0])
    m = p.shape[0]
    starts = [np.full(m, 1.0 / m)] + [np.eye(m)[i] for i in range(m)]
    fixed = []
    for x in starts:
        converged = False
        for _ in range(200_000):
            nxt = x @ p
            nxt /= nxt.sum()
            if float(np.abs(nxt - x).sum()) <= 1e-12:
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
