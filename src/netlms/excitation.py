"""Excitation analysis for the distributed estimator.

The estimator can only converge if, over sliding windows of ``h`` steps,
the network keeps injecting information: graphs must stay connected *in
conditional mean* and the pooled observation matrices must excite every
direction of the parameter space.  This module computes the windowed
information matrices whose smallest eigenvalues quantify that, checks the
two windowed conditions (joint connectivity of the expected graphs and
joint observability of the expected Grams), verifies an eigenvalue lower
bound tying the two together, and audits Markov-switching topologies
through their stationary distribution.

Windows follow the convention ``[kh, (k+1)h - 1]`` with the conditioning
cut at ``kh - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import InvalidInputError, UnsupportedAnalyticError
from .estimator import GainSchedule
from .graphs import (
    GraphProcess,
    Gamma1Report,
    conditional_expected_sym_laplacian,
    gamma1_membership,
    is_conditionally_balanced,
    stationary_distribution,
)
from .linalg import as_matrix, kron, sym_eigenvalues
from .regression import (
    RegressionProcess,
    conditional_expected_gram,
    spatio_temporal_gram,
    support_gram_norm_bound,
)

__all__ = [
    "ExcitationReport",
    "WindowCheckReport",
    "LowerBoundReport",
    "LowerBoundSummary",
    "StationaryCheckReport",
    "info_matrix",
    "lambda_min_window",
    "check_definition1",
    "check_definition2",
    "lemma_lower_bound_check",
    "corollary1_stationary_check",
    "pe_diagnostic",
]


@dataclass(frozen=True)
class WindowCheckReport:
    """Result of a windowed threshold check.

    ``values[k]`` is the tested eigenvalue for window ``k``; the check
    passes when every value reaches ``threshold``.
    """

    passed: bool
    threshold: float
    min_value: float
    min_window: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class LowerBoundReport:
    """Both sides of the windowed information-matrix lower bound.

    ``lhs`` is the smallest eigenvalue of the gainless window information
    matrix; ``rhs`` is ``lambda2 / (2 N h rho0 + N lambda2)`` times the
    smallest eigenvalue of the window's pooled expected Gram.  ``passed``
    requires the premises (balanced conditional graphs, Gram norm within
    ``rho0``) and ``lhs >= rhs`` up to a 1e-10 numerical allowance.
    """

    passed: bool
    premise_ok: bool
    lhs: float
    rhs: float
    lambda2: float
    gram_lambda_min: float
    rho0: float
    margin: float
    note: str = ""


@dataclass(frozen=True)
class LowerBoundSummary:
    windows_checked: int
    violations: int
    min_margin: float
    premise_ok: bool


@dataclass(frozen=True)
class StationaryCheckReport:
    """Stationary-regime audit of a Markov-switching network.

    Checks that the chain has a unique stationary distribution, that the
    stationary mean adjacency is nonnegative, balanced and spans the
    network from some root, and that the stationary mixture of per-node
    Grams is positive definite.
    """

    passed: bool
    pi: np.ndarray
    stationary_adjacency: np.ndarray
    nonnegative: bool
    balanced: bool
    has_spanning_tree: bool
    obs_lambda_min: float
    obs_positive: bool


@dataclass(frozen=True)
class ExcitationReport:
    """Everything ``pe_diagnostic`` measures over a horizon of windows.

    ``lambda_series[k]`` is the smallest eigenvalue of the gain-weighted
    window information matrix, ``gainless_series[k]`` the same without
    gains; ``cumulative`` is the running sum of ``lambda_series`` and
    ``r_series`` its reciprocal (``inf`` until the sum is positive).
    ``excited`` is a finite-horizon heuristic — the cumulative sum is
    still growing at the end — and ``sublinear_warning`` flags a tail
    decaying faster than ``1/k``, which at this horizon *suggests* (but
    cannot prove) a convergent sum.
    """

    window: int
    windows_checked: int
    lambda_series: np.ndarray
    gainless_series: np.ndarray
    cumulative: np.ndarray
    r_series: np.ndarray
    jointly_connected: WindowCheckReport
    jointly_observable: WindowCheckReport
    gamma1: Gamma1Report
    bound_check: LowerBoundSummary
    excited: bool
    sublinear_warning: bool
    tail_exponent: float
    notes: tuple[str, ...]


def _check_window_args(window: int, windows: int) -> None:
    if window < 1:
        raise InvalidInputError("window must be positive")
    if windows < 1:
        raise InvalidInputError("need at least one window to check")


def _cut_states(process: GraphProcess, cut: int):
    """Conditioning states to sweep at a cut: markov chains after step 0
    could sit in any state, so checks quantify over all of them."""
    if process.kind == "markov-switching" and cut >= 0:
        return tuple(range(len(process.states)))
    return (None,)


def _window_sym_laplacian(
    process: GraphProcess,
    window_index: int,
    window: int,
    state_at_cut: int | None,
) -> np.ndarray:
    cut = window_index * window - 1
    total = np.zeros((process.nodes, process.nodes))
    for step in range(window_index * window, (window_index + 1) * window):
        total += conditional_expected_sym_laplacian(
            process, step, history_cut=cut, state_at_cut=state_at_cut
        ).matrix
    return total


def info_matrix(
    graph_process: GraphProcess,
    regression_process: RegressionProcess,
    gains: GainSchedule | None,
    window_index: int,
    window: int,
    state_at_cut: int | None = None,
) -> np.ndarray:
    """Window information matrix, an ``(N n) x (N n)`` symmetric matrix.

    Sums ``b(i) E[sym-Laplacian(i)] (x) I_n + a(i) E[H^T(i) H(i)]`` over the
    window's steps, expectations conditioned at the window's cut.  Passing
    ``gains=None`` drops the step-size weights (both set to one), giving
    the raw excitation content of the window.

    For markov-switching graphs past the first window the conditional mean
    depends on the state occupied at the cut, which ``state_at_cut`` must
    pin; :func:`pe_diagnostic` takes the minimum over every state.
    """
    _check_window_args(window, 1)
    if window_index < 0:
        raise InvalidInputError("window_index must be nonnegative")
    if graph_process.nodes != regression_process.nodes:
        raise InvalidInputError("graph and regression disagree on the node count")
    n = regression_process.dim
    cut = window_index * window - 1
    eye = np.eye(n)
    out = np.zeros((graph_process.nodes * n, graph_process.nodes * n))
    for step in range(window_index * window, (window_index + 1) * window):
        a_k, b_k, _ = gains.at(step) if gains is not None else (1.0, 1.0, 0.0)
        lap = conditional_expected_sym_laplacian(
            graph_process, step, history_cut=cut, state_at_cut=state_at_cut
        ).matrix
        gram = conditional_expected_gram(regression_process, step, history_cut=cut).matrix
        out += b_k * kron(lap, eye) + a_k * gram
    return out


def lambda_min_window(info: np.ndarray) -> float:
    """Smallest eigenvalue of a (symmetric) window information matrix."""
    m = as_matrix(info, "info", square=True)
    return float(sym_eigenvalues(m).eigenvalues[0])


def check_definition1(
    graph_process: GraphProcess,
    window: int,
    theta1: float,
    windows: int,
) -> WindowCheckReport:
    """Joint connectivity of the conditional mean graphs.

    For each of the first ``windows`` windows, sums the conditional
    expected symmetrized Laplacians over the window and requires the
    second-smallest eigenvalue to reach ``theta1``.  Markov-switching
    processes are checked from every state the chain could occupy at the
    cut, so a pass is state-uniform.
    """
    _check_window_args(window, windows)
    if graph_process.nodes < 2:
        raise InvalidInputError("joint connectivity needs at least two nodes")
    values = []
    for k in range(windows):
        worst = np.inf
        for s in _cut_states(graph_process, k * window - 1):
            lap = _window_sym_laplacian(graph_process, k, window, s)
            worst = min(worst, float(sym_eigenvalues(lap).eigenvalues[1]))
        values.append(worst)
    arr = np.asarray(values)
    worst_k = int(arr.argmin())
    return WindowCheckReport(
        passed=bool(arr.min() >= theta1),
        threshold=float(theta1),
        min_value=float(arr.min()),
        min_window=worst_k,
        values=tuple(values),
    )


def check_definition2(
    regression_process: RegressionProcess,
    window: int,
    theta2: float,
    windows: int,
) -> WindowCheckReport:
    """Joint observability of the pooled expected Grams.

    For each window, sums every node's conditional expected Gram over the
    window's steps (an ``n x n`` matrix) and requires its smallest
    eigenvalue to reach ``theta2``.
    """
    _check_window_args(window, windows)
    values = []
    for k in range(windows):
        gram = spatio_temporal_gram(regression_process, k, window)
        values.append(float(sym_eigenvalues(gram).eigenvalues[0]))
    arr = np.asarray(values)
    worst_k = int(arr.argmin())
    return WindowCheckReport(
        passed=bool(arr.min() >= theta2),
        threshold=float(theta2),
        min_value=float(arr.min()),
        min_window=worst_k,
        values=tuple(values),
    )


_BOUND_ATOL = 1e-10


def _lower_bound_pieces(
    graph_process: GraphProcess,
    regression_process: RegressionProcess,
    window: int,
    rho0: float,
    window_index: int,
    state_at_cut: int | None,
    gainless_lambda: float | None = None,
) -> LowerBoundReport:
    n_nodes = graph_process.nodes
    if gainless_lambda is None:
        gainless_lambda = lambda_min_window(
            info_matrix(graph_process, regression_process, None, window_index, window, state_at_cut)
        )
    lap = _window_sym_laplacian(graph_process, window_index, window, state_at_cut)
    lambda2 = float(sym_eigenvalues(lap).eigenvalues[1]) if n_nodes > 1 else 0.0
    gram_min = float(
        sym_eigenvalues(spatio_temporal_gram(regression_process, window_index, window)).eigenvalues[0]
    )
    rhs = lambda2 / (2.0 * n_nodes * window * rho0 + n_nodes * lambda2) * gram_min
    margin = gainless_lambda - rhs

    premise_ok = True
    note = ""
    try:
        sup_gram = support_gram_norm_bound(regression_process)
        if sup_gram > rho0:
            premise_ok = False
            note = f"sup ||H^T H|| bound {sup_gram:.6g} exceeds rho0 = {rho0:.6g}"
    except UnsupportedAnalyticError:
        note = "Gram norm premise not checkable in closed form for this process"
    gamma1 = gamma1_membership(graph_process)
    if not gamma1.member:
        premise_ok = False
        note = (note + "; " if note else "") + f"graph process outside the balanced class: {gamma1.detail}"

    return LowerBoundReport(
        passed=bool(premise_ok and margin >= -_BOUND_ATOL),
        premise_ok=premise_ok,
        lhs=float(gainless_lambda),
        rhs=float(rhs),
        lambda2=lambda2,
        gram_lambda_min=gram_min,
        rho0=float(rho0),
        margin=float(margin),
        note=note,
    )


def lemma_lower_bound_check(
    graph_process: GraphProcess,
    regression_process: RegressionProcess,
    window: int,
    rho0: float,
    window_index: int,
    state_at_cut: int | None = None,
) -> LowerBoundReport:
    """Verify the connectivity-observability lower bound on one window.

    The smallest eigenvalue of the gainless window information matrix is
    bounded below by ``lambda2 / (2 N h rho0 + N lambda2)`` times the
    smallest eigenvalue of the pooled expected Gram, where ``lambda2`` is
    the spectral gap of the window-averaged conditional Laplacian.  The
    premises — conditional mean graphs nonnegative and balanced, and
    ``rho0`` dominating the Gram norm — are checked and reported; a
    failing premise fails the report without asserting the inequality.
    """
    _check_window_args(window, 1)
    if window_index < 0:
        raise InvalidInputError("window_index must be nonnegative")
    if rho0 <= 0:
        raise InvalidInputError("rho0 must be positive")
    return _lower_bound_pieces(
        graph_process, regression_process, window, rho0, window_index, state_at_cut
    )


def _has_spanning_tree(adjacency: np.ndarray, tol: float = 1e-12) -> bool:
    """True when some root reaches every node along directed support edges.

    ``adjacency[i, j] > tol`` is read as an edge from sender ``j`` to
    receiver ``i``, so reachability follows information flow.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    support = a > tol
    for root in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for j in frontier:
                for i in np.flatnonzero(support[:, j]):
                    if not seen[i]:
                        seen[i] = True
                        nxt.append(int(i))
            frontier = nxt
        if seen.all():
            return True
    return False


def corollary1_stationary_check(
    graph_states,
    transition,
    h_states,
) -> StationaryCheckReport:
    """Audit a Markov-switching network in its stationary regime.

    ``graph_states[l]`` is the adjacency in chain state ``l``,
    ``transition`` the chain's row-stochastic matrix, and ``h_states[l]``
    the per-node observation matrices active in state ``l``.  The report
    requires: a unique stationary distribution ``pi`` (propagating the
    no-unique-distribution error), stationary mean adjacency nonnegative +
    balanced + rooted-spanning-tree connected, and the stationary Gram
    mixture ``sum_i sum_l pi_l H_{i,l}^T H_{i,l}`` positive definite.
    No single state needs to be observable or connected on its own.
    """
    states = [as_matrix(a, f"graph_states[{l}]", square=True) for l, a in enumerate(graph_states)]
    if not states:
        raise InvalidInputError("need at least one graph state")
    n_nodes = states[0].shape[0]
    if any(a.shape != (n_nodes, n_nodes) for a in states):
        raise InvalidInputError("all graph states must share the node count")
    pi = stationary_distribution(transition)
    if len(pi) != len(states):
        raise InvalidInputError("transition size must match the number of states")
    if len(h_states) != len(states):
        raise InvalidInputError("need one observation-matrix list per chain state")

    a_bar = np.tensordot(pi, np.stack(states), axes=1)
    nonneg = bool(a_bar.min() >= -1e-12)
    balanced = is_conditionally_balanced(a_bar)
    tree = _has_spanning_tree(a_bar)

    dim = as_matrix(h_states[0][0], "h_states[0][0]").shape[1]
    obs = np.zeros((dim, dim))
    for l, node_mats in enumerate(h_states):
        if len(node_mats) != n_nodes:
            raise InvalidInputError("each state needs one observation matrix per node")
        for i, h in enumerate(node_mats):
            m = as_matrix(h, f"h_states[{l}][{i}]")
            if m.shape[1] != dim:
                raise InvalidInputError("observation matrices must share the column count")
            obs += pi[l] * (m.T @ m)
    obs_min = float(sym_eigenvalues(obs).eigenvalues[0])
    positive = obs_min > 0.0

    return StationaryCheckReport(
        passed=bool(nonneg and balanced and tree and positive),
        pi=pi,
        stationary_adjacency=a_bar,
        nonnegative=nonneg,
        balanced=balanced,
        has_spanning_tree=tree,
        obs_lambda_min=obs_min,
        obs_positive=positive,
    )


def pe_diagnostic(config: ExperimentConfig, windows: int | None = None) -> ExcitationReport:
    """Excitation survey of a configured experiment over ``windows``
    windows (defaulting to as many as fit in the configured horizon).

    Produces the gain-weighted and gainless eigenvalue series, their
    running sum and its reciprocal, the connectivity/observability checks
    at the configured thresholds, the balanced-class membership, and the
    per-window lower-bound audit.  For markov-switching graphs every
    window past the first takes the minimum over the states the chain
    could occupy at its cut.  Whether the cumulative sum diverges is
    undecidable at any finite horizon, so the report only flags growth
    behavior: ``excited`` says the sum was still growing at the end, and
    ``sublinear_warning`` says the tail decayed faster than ``1/k`` —
    heuristics, never verdicts.
    """
    config.validate()
    h = config.excitation.window
    if windows is None:
        windows = max(1, (config.horizon + 1) // h)
    _check_window_args(h, windows)
    gp = config.graph.to_process()
    rp = config.regression.to_process(config.nodes, config.dim)
    gains = GainSchedule.from_config(config)

    lam = np.empty(windows)
    raw = np.empty(windows)
    margins = np.empty(windows)
    premise_all = True
    for k in range(windows):
        # markov chains could sit in any state at a cut past step 0: take
        # the state-uniform minimum, as check_definition1 does
        cut_states = _cut_states(gp, k * h - 1)
        lam[k] = min(lambda_min_window(info_matrix(gp, rp, gains, k, h, s)) for s in cut_states)
        pieces = [
            _lower_bound_pieces(
                gp, rp, h, config.excitation.rho0, k, s,
                lambda_min_window(info_matrix(gp, rp, None, k, h, s)),
            )
            for s in cut_states
        ]
        raw[k] = min(piece.lhs for piece in pieces)
        margins[k] = min(piece.margin for piece in pieces)
        premise_all = premise_all and all(piece.premise_ok for piece in pieces)
    cumulative = np.cumsum(lam)
    with np.errstate(divide="ignore"):
        r_series = np.where(cumulative > 0.0, 1.0 / np.where(cumulative > 0, cumulative, 1.0), np.inf)

    notes = [
        "growth flags are finite-horizon heuristics, not convergence verdicts",
    ]
    excited = bool(lam[-1] > 0.0)
    tail_exponent = float("nan")
    if windows >= 8 and lam[-1] > 0.0 and lam[windows // 2] > 0.0:
        tail_exponent = float(
            np.log(lam[-1] / lam[windows // 2]) / np.log(windows / (windows // 2 + 1))
        )
    sublinear = bool(not excited or (np.isfinite(tail_exponent) and tail_exponent < -1.0))
    if sublinear:
        notes.append("window eigenvalue tail decays faster than 1/k at this horizon")

    connected = check_definition1(gp, h, config.excitation.theta1, windows)
    observable = check_definition2(rp, h, config.excitation.theta2, windows)
    bound = LowerBoundSummary(
        windows_checked=windows,
        violations=int((margins < -_BOUND_ATOL).sum()),
        min_margin=float(margins.min()),
        premise_ok=premise_all,
    )
    return ExcitationReport(
        window=h,
        windows_checked=windows,
        lambda_series=lam,
        gainless_series=raw,
        cumulative=cumulative,
        r_series=r_series,
        jointly_connected=connected,
        jointly_observable=observable,
        gamma1=gamma1_membership(gp),
        bound_check=bound,
        excited=excited,
        sublinear_warning=sublinear,
        tail_exponent=tail_exponent,
        notes=tuple(notes),
    )
