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
cut at ``kh - 1``.  Every function reads one table, the step-by-step
conditional mean Laplacians of each law pattern a window can take
(:func:`graphs.window_sym_laplacians`, each distinct law evaluated once
per call), through one index, each window's pattern
(``graphs._pattern_index``).  Each call builds one analyzer
(``_Analyzer``) that holds what depends only on the pattern, once per
pattern: the spectral gap, the gainless information matrix, its smallest
eigenvalue and the lower bound's sides; and what depends on no step: the
expected Grams and the lower bound's premises.  The one-window functions
read the same per-pattern rows as the audit.  Only the gain-weighted
matrix is evaluated per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import InvalidInputError
from .estimator import GainSchedule
from .graphs import (
    GraphProcess,
    Gamma1Report,
    _pattern_index,
    gamma1_membership,
    is_conditionally_balanced,
    stationary_distribution,
    window_sym_laplacians,
)
from .linalg import as_index, as_matrix, as_real, ordered_sum, sym_eigenvalues
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
    still growing over the last cycle of law patterns — and
    ``sublinear_warning`` flags a tail decaying faster than ``1/k``
    (``tail_exponent``, the slope in log-log of the last excited window
    against the one of its pattern midway), which at this horizon
    *suggests* (but cannot prove) a convergent sum.
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


def _check_threshold(value, name: str) -> None:
    if not (np.isfinite(as_real(value, name)) and value >= 0):
        raise InvalidInputError(f"{name} must be finite and nonnegative")


def _check_window_args(window: int, windows: int) -> tuple[int, int]:
    """``window`` and ``windows`` as ints, each at least 1."""
    window, windows = as_index(window, "window"), as_index(windows, "windows")
    if window < 1:
        raise InvalidInputError("window must be positive")
    if windows < 1:
        raise InvalidInputError("need at least one window to check")
    return window, windows


class _Analyzer:
    """What the window checks read of the laws, built once per call from
    the processes, the window length and, where the caller has it,
    ``rho0``; nothing in it depends on the window.

    ``gaps`` holds each law pattern's spectral gap, that of its summed
    :func:`window_sym_laplacians` (steps summed in index order; 0 for one
    node).  Given a regression process, ``gram`` is the block-diagonal
    expected Gram, ``big`` each pattern's lifted Laplacians ``kron(L,
    I_n)`` and ``gainless`` its gainless information matrix.  Given
    ``rho0`` too, ``gram_min`` is the pooled expected Gram's smallest
    eigenvalue, the same for every window; ``gamma1``, ``premise_ok``
    and ``note`` are the lower bound's premises; ``rows`` holds each
    pattern's ``(gap, lhs, margin)`` and ``rhs`` its bound's right side.
    """

    def __init__(self, graph_process, window, regression_process=None, rho0=None):
        self.graph, self.window = graph_process, window
        if regression_process is not None:
            # ar-driven raises here, before any law is evaluated
            self.gram = conditional_expected_gram(regression_process)
        table = window_sym_laplacians(graph_process, window)
        self.gaps = np.zeros(len(table))
        if graph_process.nodes > 1:
            self.gaps = np.linalg.eigvalsh(ordered_sum(table, axis=1))[:, 1]
        if regression_process is None:
            return
        # kron(L, I_n) of every step: np.kron's products, without its set-up
        eye = np.eye(len(self.gram) // graph_process.nodes)
        self.big = (table[..., :, None, :, None] * eye[:, None, :]).reshape(*table.shape[:2], *self.gram.shape)
        self.gainless = ordered_sum(self.big + self.gram, axis=1)
        if rho0 is None:
            return
        self.gram_min = float(sym_eigenvalues(spatio_temporal_gram(regression_process, window))[0])
        # a process without a closed-form Gram norm bound raises rather than pass
        notes, sup_gram = [], support_gram_norm_bound(regression_process)
        if sup_gram > rho0:
            notes.append(f"sup ||H^T H|| bound {sup_gram:.6g} exceeds rho0 = {rho0:.6g}")
        self.gamma1 = gamma1_membership(graph_process)
        if not self.gamma1.member:
            notes.append(f"graph process outside the balanced class: {self.gamma1.detail}")
        self.premise_ok, self.note = not notes, "; ".join(notes)
        lhs = np.linalg.eigvalsh(self.gainless)[:, 0]
        self.rhs = _bound_rhs(self.gaps, self.gram_min, graph_process.nodes, window, rho0)
        self.rows = np.array([self.gaps, lhs, lhs - self.rhs])

    def index(self, ks, state_at_cut):
        """The patterns of windows ``ks`` conditioned on ``state_at_cut``."""
        return _pattern_index(self.graph, self.window, ks, state_at_cut)

    def weighted(self, ab, which):
        """Gain-weighted information matrices of windows of patterns
        ``which``, given the windows' :func:`_gain_rows` ``ab``.  Each
        step's ``b big + a gram`` is formed in one buffer, multiplied and
        added in place, then summed over the window's steps in index
        order."""
        terms = self.big[which]
        terms *= ab[..., 1, None, None]
        terms += ab[..., 0, None, None] * self.gram
        return ordered_sum(terms, axis=1)


def _gain_rows(gains: GainSchedule, window: int, lo: int, hi: int) -> np.ndarray:
    """``(hi - lo, window, 3)``: the gains ``a, b, lam`` that the simulator
    steps with at each step of windows ``lo .. hi - 1``."""
    return gains.table(np.arange(lo * window, hi * window)).reshape(hi - lo, window, 3)


def _one_window(graph_process, regression_process, window_index, window, state_at_cut, rho0=None):
    """The one-window functions' input checks, then the analyzer of the
    call and the window's pattern."""
    window, _ = _check_window_args(window, 1)
    window_index = as_index(window_index, "window_index")
    if window_index < 0:
        raise InvalidInputError("window_index must be nonnegative")
    if graph_process.nodes != regression_process.nodes:
        raise InvalidInputError("graph and regression disagree on the node count")
    analyzer = _Analyzer(graph_process, window, regression_process, rho0)
    return analyzer, int(analyzer.index([window_index], state_at_cut)[0])


def _bound_rhs(lambda2, gram_min: float, nodes: int, window: int, rho0: float):
    return lambda2 / (2.0 * nodes * window * rho0 + nodes * lambda2) * gram_min


# Windows evaluated together: enough to batch the eigenvalue calls, few
# enough that the working set does not grow with the window count.
_BLOCK = 64
# Steps of one gain table in ``pe_diagnostic``: a segment of whole blocks,
# 16 at window 2 and one from window 17 on, so that the table stays small
# beside a block's working set however many windows the audit covers.
_TABLE_STEPS = 2048


def _edges(lo: int, hi: int, span: int) -> list[int]:
    """Edges of the runs of windows ``lo .. hi - 1`` as the audit cuts
    them, ``lo`` itself an edge: window 0 alone, then ``span`` windows at
    a time from window 1."""
    return [lo, *range(lo + span if lo else 1, hi, span), hi]


def _state_minima(process: GraphProcess, first: int, out: np.ndarray, evaluate) -> np.ndarray:
    """Fill ``out``, ``(q, n)``, with the rows of windows ``first .. first
    + n - 1`` minimized over the states the chain could hold at each
    window's cut: any state past step 0, so window 0, which conditions on
    nothing, runs alone.  ``evaluate(ks, state, rows)`` writes the
    ``(q, len(ks))`` rows of a block of at most ``_BLOCK`` windows ``ks``
    into ``rows``: the first state straight into ``out``, each later one
    into a scratch block that replaces a value only where strictly
    smaller, as ``min`` does.  Returns ``out``."""
    states = tuple(range(len(process.states))) if process.kind == "markov-switching" else (None,)
    scratch = np.empty((len(out), _BLOCK))
    edges = _edges(first, first + out.shape[1], _BLOCK)
    for lo, hi in zip(edges, edges[1:]):
        rows, ks = out[:, lo - first : hi - first], range(lo, hi)
        cut_states = states if lo > 0 else (None,)
        evaluate(ks, cut_states[0], rows)
        for s in cut_states[1:]:
            v = scratch[:, : hi - lo]
            evaluate(ks, s, v)
            np.copyto(rows, v, where=v < rows)
    return out


def _threshold_report(values: np.ndarray, threshold: float) -> WindowCheckReport:
    return WindowCheckReport(
        passed=bool(values.min() >= threshold),
        threshold=float(threshold),
        min_value=float(values.min()),
        min_window=int(values.argmin()),
        values=tuple(values.tolist()),
    )


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
    analyzer, which = _one_window(graph_process, regression_process, window_index, window, state_at_cut)
    if gains is None:
        return analyzer.gainless[which]
    return analyzer.weighted(_gain_rows(gains, window, window_index, window_index + 1), [which])[0]


def lambda_min_window(info: np.ndarray) -> float:
    """Smallest eigenvalue of a (symmetric) window information matrix."""
    m = as_matrix(info, "info", square=True)
    return float(sym_eigenvalues(m)[0])


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
    window, windows = _check_window_args(window, windows)
    _check_threshold(theta1, "theta1")
    if graph_process.nodes < 2:
        raise InvalidInputError("joint connectivity needs at least two nodes")
    analyzer = _Analyzer(graph_process, window)

    def evaluate(ks, s, rows):
        np.take(analyzer.gaps, analyzer.index(ks, s), out=rows[0])

    (gaps,) = _state_minima(graph_process, 0, np.empty((1, windows)), evaluate)
    return _threshold_report(gaps, theta1)


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
    window, windows = _check_window_args(window, windows)
    _check_threshold(theta2, "theta2")
    gram_min = float(sym_eigenvalues(spatio_temporal_gram(regression_process, window))[0])
    return _threshold_report(np.full(windows, gram_min), theta2)


_BOUND_ATOL = 1e-10


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
    if not (np.isfinite(as_real(rho0, "rho0")) and rho0 > 0):
        raise InvalidInputError("rho0 must be finite and positive")
    analyzer, which = _one_window(graph_process, regression_process, window_index, window, state_at_cut, rho0)
    lambda2, lhs, margin = analyzer.rows[:, which].tolist()
    return LowerBoundReport(
        passed=bool(analyzer.premise_ok and margin >= -_BOUND_ATOL),
        premise_ok=analyzer.premise_ok,
        lhs=lhs,
        rhs=float(analyzer.rhs[which]),
        lambda2=lambda2,
        gram_lambda_min=analyzer.gram_min,
        rho0=float(rho0),
        margin=margin,
        note=analyzer.note,
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
    if n_nodes < 1:
        raise InvalidInputError("graph needs at least one node")
    if any(a.shape != (n_nodes, n_nodes) for a in states):
        raise InvalidInputError("all graph states must share the node count")
    pi = stationary_distribution(transition)
    if len(pi) != len(states):
        raise InvalidInputError("transition size must match the number of states")
    if len(h_states) != len(states):
        raise InvalidInputError("need one observation-matrix list per chain state")
    if any(len(node_mats) != n_nodes for node_mats in h_states):
        raise InvalidInputError("each state needs one observation matrix per node")

    a_bar = np.tensordot(pi, np.stack(states), axes=1)
    nonneg = bool(a_bar.min() >= -1e-12)
    balanced = is_conditionally_balanced(a_bar)
    tree = _has_spanning_tree(a_bar)

    dim = as_matrix(h_states[0][0], "h_states[0][0]").shape[1]
    obs = np.zeros((dim, dim))
    for l, node_mats in enumerate(h_states):
        for i, h in enumerate(node_mats):
            m = as_matrix(h, f"h_states[{l}][{i}]")
            if m.shape[1] != dim:
                raise InvalidInputError("observation matrices must share the column count")
            obs += pi[l] * (m.T @ m)
    obs_min = float(sym_eigenvalues(obs)[0])
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
    behavior: ``excited`` says the sum was still growing over the last
    cycle of law patterns, and ``sublinear_warning`` says the tail decayed
    faster than ``1/k`` — heuristics, never verdicts.

    Window 0 is solved alone, then blocks of ``_BLOCK`` windows, each
    with one batched eigenvalue call per state at the cut.  The gains are
    read from one table per segment of blocks (``_TABLE_STEPS``), and each
    block writes its four rows (gap, gainless eigenvalue, margin, weighted
    eigenvalue) into one ``(4, windows)`` array, so the working set stays
    a block's whatever the window count.
    """
    h = config.excitation.window
    if windows is None:
        windows = max(1, (config.horizon + 1) // h)
    h, windows = _check_window_args(h, windows)
    gp, gains = config.model.graph, config.model.gains
    analyzer = _Analyzer(gp, h, config.model.regression, config.excitation.rho0)
    if gp.nodes < 2:
        raise InvalidInputError("joint connectivity needs at least two nodes")

    # each segment's gains in one table, each block's rows written in place
    series = np.empty((4, windows))
    segments = _edges(0, windows, _BLOCK * max(1, _TABLE_STEPS // (_BLOCK * h)))
    for lo, hi in zip(segments, segments[1:]):
        ab = _gain_rows(gains, h, lo, hi)

        def evaluate(ks, s, rows):
            which = analyzer.index(ks, s)
            np.take(analyzer.rows, which, axis=1, out=rows[:3])
            rows[3] = np.linalg.eigvalsh(analyzer.weighted(ab[ks.start - lo : ks.stop - lo], which))[:, 0]

        _state_minima(gp, lo, series[:, lo:hi], evaluate)
    gaps, raw, margins, lam = series
    cumulative = np.cumsum(lam)
    with np.errstate(divide="ignore"):
        r_series = np.where(cumulative > 0.0, 1.0 / np.where(cumulative > 0, cumulative, 1.0), np.inf)

    notes = [
        "growth flags are finite-horizon heuristics, not convergence verdicts",
    ]
    # windows past the first cycle through this many patterns; the flags
    # read whole cycles, so a pattern that never excites decides nothing
    period = len(analyzer.gaps) if gp.kind == "alternating-uniform" else 1
    excited = bool((lam[-period:] > 0.0).any())
    tail_exponent = float("nan")
    if windows >= 8 and excited:
        # the last excited window against the window of its pattern midway
        end = windows - 1 - int(np.argmax(lam[-period:][::-1] > 0.0))
        mid = windows // 2 + (end - windows // 2) % period
        if lam[mid] > 0.0:
            tail_exponent = float(np.log(lam[end] / lam[mid]) / np.log((end + 1) / (mid + 1)))
    sublinear = bool(not excited or (np.isfinite(tail_exponent) and tail_exponent < -1.0))
    if sublinear:
        notes.append("window eigenvalue tail decays faster than 1/k at this horizon")

    bound = LowerBoundSummary(
        windows_checked=windows,
        # ``not >=`` rather than ``<``: NaN margins are violations
        violations=int((~(margins >= -_BOUND_ATOL)).sum()),
        min_margin=float(margins.min()),
        premise_ok=analyzer.premise_ok,
    )
    return ExcitationReport(
        window=h,
        windows_checked=windows,
        lambda_series=lam,
        gainless_series=raw,
        cumulative=cumulative,
        r_series=r_series,
        jointly_connected=_threshold_report(gaps, config.excitation.theta1),
        jointly_observable=_threshold_report(np.full(windows, analyzer.gram_min), config.excitation.theta2),
        gamma1=analyzer.gamma1,
        bound_check=bound,
        excited=excited,
        sublinear_warning=sublinear,
        tail_exponent=tail_exponent,
        notes=tuple(notes),
    )
