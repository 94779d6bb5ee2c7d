"""The windowed excitation quantities against an independent oracle.

The oracle rebuilds every window's information matrix step by step from
the conditional mean adjacency, ``np.kron`` and the per-node expected
Grams, with numpy's own eigensolver, and shares no code with the
analyzer's window pass beyond those two closed forms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netlms.estimator import GainSchedule
from netlms.excitation import (
    check_definition1,
    info_matrix,
    lemma_lower_bound_check,
    pe_diagnostic,
)
from netlms.graphs import (
    alternating_uniform_graph,
    conditional_expected_adjacency,
    fixed_graph,
    iid_uniform_graph,
    markov_switching_graph,
)
from netlms.regression import (
    bernoulli_failure_regression,
    conditional_expected_node_gram,
    entrywise_uniform_regression,
    fixed_regression,
)

REL = 1e-12


def oracle_window(gp, rp, gains, k, window, state):
    """Gain-weighted and gainless information matrices and summed
    symmetrized Laplacian of window ``k``, conditioned on ``state`` at its
    cut."""
    nodes, dim = gp.nodes, rp.dim
    weighted = np.zeros((nodes * dim, nodes * dim))
    gainless = np.zeros_like(weighted)
    lap_sum = np.zeros((nodes, nodes))
    for step in range(k * window, (k + 1) * window):
        adj = conditional_expected_adjacency(gp, step, k * window - 1, state)
        lap = np.diag(adj.sum(axis=1)) - adj
        sym = (lap + lap.T) / 2.0
        gram = np.zeros_like(weighted)
        for i in range(nodes):
            gram[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = (
                conditional_expected_node_gram(rp, i)
            )
        a, b = (1.0, 1.0) if gains is None else gains.at(step)[:2]
        weighted += b * np.kron(sym, np.eye(dim)) + a * gram
        gainless += np.kron(sym, np.eye(dim)) + gram
        lap_sum += sym
    return weighted, gainless, lap_sum


def oracle_pooled_gram(rp, window):
    return sum(conditional_expected_node_gram(rp, i)
               for step in range(window) for i in range(rp.nodes))


def oracle_cut_states(gp, k):
    if gp.kind == "markov-switching" and k > 0:
        return range(len(gp.states))
    return (None,)


def assert_close(actual, expected, scale):
    assert np.abs(np.asarray(actual) - np.asarray(expected)).max() <= REL * max(1.0, scale)


@st.composite
def models(draw):
    nodes = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def adjacency():
        a = rng.uniform(0.0, 1.0, (nodes, nodes)) * (rng.uniform(size=(nodes, nodes)) < 0.6)
        np.fill_diagonal(a, 0.0)
        return a

    graph_kind = draw(st.sampled_from(["fixed", "iid-uniform", "alternating-uniform", "markov"]))
    if graph_kind == "fixed":
        gp = fixed_graph(adjacency())
    elif graph_kind == "iid-uniform":
        gp = iid_uniform_graph(nodes, sorted(rng.uniform(-0.2, 1.0, 2)))
    elif graph_kind == "alternating-uniform":
        gp = alternating_uniform_graph(nodes, sorted(rng.uniform(-0.2, 1.0, 2)),
                                       sorted(rng.uniform(-0.2, 1.0, 2)))
    else:
        states = draw(st.integers(2, 3))
        p = rng.uniform(0.05, 1.0, (states, states))
        gp = markov_switching_graph([adjacency() for _ in range(states)],
                                    p / p.sum(axis=1, keepdims=True),
                                    int(rng.integers(states)))

    rows = [int(r) for r in rng.integers(1, 3, nodes)]
    regression_kind = draw(st.sampled_from(["fixed", "entrywise-uniform", "bernoulli-failure"]))
    mats = [rng.normal(size=(r, dim)) for r in rows]
    if regression_kind == "fixed":
        rp = fixed_regression(mats)
    elif regression_kind == "entrywise-uniform":
        rp = entrywise_uniform_regression(mats, [rng.uniform(0.0, 1.0, (r, dim)) for r in rows],
                                          *sorted(rng.uniform(-1.0, 1.0, 2)))
    else:
        rp = bernoulli_failure_regression(mats, float(rng.uniform()))

    gains = None
    if draw(st.booleans()):
        gains = GainSchedule(*rng.uniform(0.1, 1.5, 2), *rng.uniform(0.1, 1.5, 2),
                             *rng.uniform(0.0, 1.0, 2))
    return gp, rp, gains, window, float(rng.uniform(0.5, 5.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(models(), st.integers(0, 5), st.data())
def test_window_quantities_match_oracle(model, k, data):
    gp, rp, gains, window, rho0 = model
    state = data.draw(st.sampled_from(list(oracle_cut_states(gp, k))))
    weighted, gainless, lap_sum = oracle_window(gp, rp, gains, k, window, state)
    scale = np.abs(weighted).max()

    assert_close(info_matrix(gp, rp, gains, k, window, state), weighted, scale)
    assert_close(info_matrix(gp, rp, None, k, window, state), gainless, np.abs(gainless).max())

    lhs = np.linalg.eigvalsh(gainless)[0]
    lambda2 = np.linalg.eigvalsh(lap_sum)[1]
    gram_min = np.linalg.eigvalsh(oracle_pooled_gram(rp, window))[0]
    nodes = gp.nodes
    rhs = lambda2 / (2.0 * nodes * window * rho0 + nodes * lambda2) * gram_min
    rep = lemma_lower_bound_check(gp, rp, window, rho0, k, state)
    bound_scale = max(np.abs(gainless).max(), np.abs(lap_sum).max(), abs(gram_min))
    assert_close(rep.lhs, lhs, bound_scale)
    assert_close(rep.rhs, rhs, bound_scale)
    assert_close(rep.margin, lhs - rhs, bound_scale)

    windows = k + 1
    gaps = [min(np.linalg.eigvalsh(oracle_window(gp, rp, gains, j, window, s)[2])[1]
                for s in oracle_cut_states(gp, j)) for j in range(windows)]
    connected = check_definition1(gp, window, 0.1, windows)
    assert_close(connected.values, gaps, np.abs(lap_sum).max())


def test_pe_diagnostic_series_match_oracle_state_minimum(markov_pair):
    cfg = markov_pair
    gp = cfg.model.graph
    rp = cfg.model.regression
    gains = cfg.model.gains
    h, rho0, windows = cfg.excitation.window, cfg.excitation.rho0, 70
    rep = pe_diagnostic(cfg, windows=windows)

    gram_min = np.linalg.eigvalsh(oracle_pooled_gram(rp, h))[0]
    n = gp.nodes
    lam, raw, margins, gaps = [], [], [], []
    for k in range(windows):
        per_state = []
        for s in oracle_cut_states(gp, k):
            weighted, gainless, lap_sum = oracle_window(gp, rp, gains, k, h, s)
            lhs = np.linalg.eigvalsh(gainless)[0]
            lambda2 = np.linalg.eigvalsh(lap_sum)[1]
            rhs = lambda2 / (2.0 * n * h * rho0 + n * lambda2) * gram_min
            per_state.append((np.linalg.eigvalsh(weighted)[0], lhs, lhs - rhs, lambda2))
        lam_k, raw_k, margin_k, gap_k = np.min(per_state, axis=0)
        lam.append(lam_k)
        raw.append(raw_k)
        margins.append(margin_k)
        gaps.append(gap_k)

    assert_close(rep.lambda_series, lam, 1.0)
    assert_close(rep.gainless_series, raw, 1.0)
    assert_close(rep.jointly_connected.values, gaps, 1.0)
    assert_close(rep.bound_check.min_margin, min(margins), 1.0)
    assert rep.bound_check.violations == sum(m < -1e-10 for m in margins)
