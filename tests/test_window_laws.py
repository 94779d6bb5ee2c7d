"""Every excitation function reads each step's conditional mean Laplacian
from one table, the steps of each law pattern a window can take, through
each window's pattern index.  These tests pin the one-window functions and
the audit bit for bit to the per-step evaluation (one
``conditional_expected_sym_laplacian`` call per step, window and state at
the cut), check the table's shape and the index, bound the number of law
evaluations and of eigenproblems, and pin the step-free window Gram sum to
its explicit double loop.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netlms import excitation, graphs, regression, regret
from netlms.config import ExcitationConfig, GraphConfig, get_preset
from netlms.errors import InvalidInputError
from netlms.estimator import GainSchedule
from netlms.excitation import pe_diagnostic
from netlms.graphs import (
    _pattern_index,
    alternating_uniform_graph,
    conditional_expected_sym_laplacian,
    fixed_graph,
    markov_switching_graph,
    window_sym_laplacians,
)
from netlms.linalg import ordered_sum, sym_eigenvalues
from netlms.regression import (
    conditional_expected_gram,
    conditional_expected_node_gram,
    spatio_temporal_gram,
)


def per_step_pass(gp, window, ks, state, gram, gains):
    """The window pass with one conditional mean Laplacian call per step."""
    steps = [range(k * window, (k + 1) * window) for k in ks]
    laps = np.array([
        [conditional_expected_sym_laplacian(gp, i, k * window - 1, state) for i in s]
        for k, s in zip(ks, steps)
    ])
    gaps = np.linalg.eigvalsh(ordered_sum(laps, axis=1))[:, 1]
    big = np.kron(laps, np.eye(gram.shape[0] // gp.nodes)[None, None])
    gainless = ordered_sum(big + gram, axis=1)
    ab = gains.table(np.ravel(steps)).reshape(len(ks), window, 3)
    a, b = ab[..., 0, None, None], ab[..., 1, None, None]
    return gaps, gainless, ordered_sum(b * big + a * gram, axis=1)


def per_step_series(cfg, windows):
    """``pe_diagnostic``'s gap, gainless, margin and gain-weighted series
    from the per-step pass, window 0 alone and later windows in blocks of
    64, each a minimum over the states at the cut."""
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    gains = GainSchedule.from_config(cfg)
    h, rho0 = cfg.excitation.window, cfg.excitation.rho0
    gram = conditional_expected_gram(rp)
    gram_min = float(sym_eigenvalues(spatio_temporal_gram(rp, h))[0])
    states = tuple(range(len(gp.states))) if gp.kind == "markov-switching" else (None,)
    edges = [0, *range(1, windows, 64), windows]
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        values = []
        for s in states if lo > 0 else (None,):
            gap, gainless, weighted = per_step_pass(gp, h, range(lo, hi), s, gram, gains)
            lhs = np.linalg.eigvalsh(gainless)[:, 0]
            margin = lhs - excitation._bound_rhs(gap, gram_min, gp.nodes, h, rho0)
            values.append(np.array([gap, lhs, margin, np.linalg.eigvalsh(weighted)[:, 0]]))
        blocks.append(reduce(lambda low, v: np.where(v < low, v, low), values))
    return np.concatenate(blocks, axis=1)


@st.composite
def graph_cases(draw):
    """A graph config for setting-i's three nodes: fixed, alternating, or a
    2-3 state Markov chain with one all-zero adjacency; and a window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = 3

    def adjacency():
        a = rng.uniform(0.0, 1.0, (nodes, nodes)) * (rng.uniform(size=(nodes, nodes)) < 0.7)
        np.fill_diagonal(a, 0.0)
        return tuple(map(tuple, a.tolist()))

    kind = draw(st.sampled_from(["fixed", "alternating-uniform", "markov-switching"]))
    if kind == "fixed":
        graph = GraphConfig(kind="fixed", adjacency=adjacency())
    elif kind == "alternating-uniform":
        (el, eh), (ol, oh) = np.sort(rng.uniform(-0.5, 1.0, (2, 2)), axis=1).tolist()
        graph = GraphConfig(kind=kind, even_low=el, even_high=eh, odd_low=ol, odd_high=oh)
    else:
        count = draw(st.integers(2, 3))
        states = [adjacency() for _ in range(count)]
        states[draw(st.integers(0, count - 1))] = ((0.0,) * nodes,) * nodes
        p = rng.uniform(0.05, 1.0, (count, count))
        p /= p.sum(axis=1, keepdims=True)
        graph = GraphConfig(kind=kind, states=tuple(states), transition=tuple(map(tuple, p.tolist())),
                            initial_state=draw(st.integers(0, count - 1)))
    window = draw(st.integers(1, 4))
    cfg = get_preset("setting-i")
    return replace(cfg, graph=graph, excitation=replace(cfg.excitation, window=window))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(graph_cases(), st.integers(0, 5), st.integers(1, 4))
def test_window_pass_matches_per_step_laplacians(cfg, first, count):
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    gains = GainSchedule.from_config(cfg)
    h, rho0 = cfg.excitation.window, cfg.excitation.rho0
    gram = conditional_expected_gram(rp)
    ks = range(first, first + count)
    states = tuple(range(len(gp.states))) if gp.kind == "markov-switching" else (None,)
    for s in states:
        gaps, gainless, weighted = per_step_pass(gp, h, ks, s, gram, gains)
        lhs = np.linalg.eigvalsh(gainless)[:, 0]
        for j, k in enumerate(ks):
            # window 0 conditions on nothing, so it takes no state
            cut = s if k > 0 else None
            assert np.array_equal(excitation.info_matrix(gp, rp, None, k, h, cut), gainless[j])
            assert np.array_equal(excitation.info_matrix(gp, rp, gains, k, h, cut), weighted[j])
            bound = excitation.lemma_lower_bound_check(gp, rp, h, rho0, k, cut)
            assert np.array_equal(bound.lambda2, gaps[j])
            assert np.array_equal(bound.lhs, lhs[j])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(graph_cases(), st.integers(1, 70))
def test_pe_diagnostic_series_match_per_step_laplacians(cfg, windows):
    rep = pe_diagnostic(cfg, windows=windows)
    gaps, raw, margins, lam = per_step_series(cfg, windows)
    assert np.array_equal(rep.jointly_connected.values, gaps)
    assert np.array_equal(rep.gainless_series, raw)
    assert np.array_equal(rep.lambda_series, lam)
    assert rep.bound_check.min_margin == margins.min()
    assert rep.bound_check.violations == int((~(margins >= -1e-10)).sum())


def test_law_table_covers_both_parities_and_every_cut_state():
    alt = alternating_uniform_graph(3, (0.0, 1.0), (-0.5, 0.5))
    table = window_sym_laplacians(alt, 3)
    assert table.shape == (2, 3, 3, 3)
    # a window starting on an odd step takes the other parity at every step
    assert np.array_equal(table[1], table[0][[1, 0, 1]])
    assert np.array_equal(_pattern_index(alt, 3, range(4)), [0, 1, 0, 1])
    assert len(window_sym_laplacians(alt, 2)) == 1
    assert not _pattern_index(alt, 2, range(4)).any()
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    chain = markov_switching_graph([a, np.zeros((2, 2)), a.T], np.full((3, 3), 1 / 3), 1)
    # window 0 conditions on nothing; later windows one pattern per state
    assert window_sym_laplacians(chain, 2).shape == (1 + 3, 2, 2, 2)
    which = np.array([_pattern_index(chain, 2, range(3), s) for s in range(3)])
    assert (which[:, 0] == 0).all()
    assert np.array_equal(which[:, 1], which[:, 2])
    assert sorted(which[:, 1].tolist()) == [1, 2, 3]
    with pytest.raises(InvalidInputError, match="needs state_at_cut"):
        _pattern_index(chain, 2, [1])
    with pytest.raises(InvalidInputError, match="out of range"):
        _pattern_index(chain, 2, [1], 3)
    fixed = fixed_graph(a)
    assert window_sym_laplacians(fixed, 5).shape == (1, 5, 2, 2)
    assert not _pattern_index(fixed, 5, range(3)).any()


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name``, rebound in ``module`` and in the
    modules that import it, so a call through an imported name counts too."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for holder in (module, excitation, regression, regret):
        if getattr(holder, name, None) is real:
            monkeypatch.setattr(holder, name, counted)
    return calls


def test_audit_evaluates_each_laplacian_law_once(monkeypatch, markov_pair):
    calls = _count_calls(monkeypatch, graphs, "conditional_expected_sym_laplacian")
    pe_diagnostic(get_preset("setting-i"), windows=1000)
    assert len(calls) <= 2
    silent = ((0.0, 0.0), (0.0, 0.0))
    graph = replace(markov_pair.graph, states=(*markov_pair.graph.states, silent),
                    transition=((0.6, 0.2, 0.2), (0.3, 0.5, 0.2), (0.1, 0.1, 0.8)))
    for h in (1, 2, 5):
        cfg = replace(markov_pair, graph=graph, excitation=ExcitationConfig(window=h))
        calls.clear()
        pe_diagnostic(cfg, windows=300)
        assert len(calls) <= h + 3 * h
        # one window reads the same table
        calls.clear()
        excitation.info_matrix(cfg.graph.to_process(cfg.nodes),
                               cfg.regression.to_process(cfg.nodes, cfg.dim), None, 4, h, 2)
        assert len(calls) <= h + 3 * h


def _count_eigenproblems(monkeypatch):
    """Count the matrices passed to ``np.linalg.eigvalsh``, each matrix of a
    batch on its own; ``excitation`` and ``linalg`` look it up at call
    time, so their calls count."""
    counts = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        counts.append(a.size // a.shape[-1] ** 2)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return counts


def test_audit_solves_one_eigenproblem_per_window_and_state(monkeypatch, markov_pair):
    counts = _count_eigenproblems(monkeypatch)
    pe_diagnostic(get_preset("setting-i"), windows=1000)
    assert sum(counts) <= 1000 + 4
    gp = get_preset("setting-i").graph.to_process(3)
    for graph in (gp, markov_pair.graph.to_process(markov_pair.nodes)):
        solved = []
        for windows in (10, 1000):
            counts.clear()
            excitation.check_definition1(graph, 3, 0.1, windows)
            solved.append(sum(counts))
        assert solved[0] == solved[1]
    silent = ((0.0, 0.0), (0.0, 0.0))
    graph = replace(markov_pair.graph, states=(*markov_pair.graph.states, silent),
                    transition=((0.6, 0.2, 0.2), (0.3, 0.5, 0.2), (0.1, 0.1, 0.8)))
    for h in (1, 2, 5):
        cfg = replace(markov_pair, graph=graph, excitation=ExcitationConfig(window=h))
        counts.clear()
        pe_diagnostic(cfg, windows=300)
        assert sum(counts) <= 3 * 300 + 2 * (1 + 3)


def _loop_gram(rp, window):
    out = np.zeros((rp.dim, rp.dim))
    for _ in range(window):
        for node in range(rp.nodes):
            out += conditional_expected_node_gram(rp, node)
    return out


def test_spatio_temporal_gram_evaluates_node_grams_once_and_scales_one_step_sum(monkeypatch):
    cfg = get_preset("regret")
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    window = 10_001
    calls = _count_calls(monkeypatch, regression, "conditional_expected_node_gram")
    gram = spatio_temporal_gram(rp, window)
    assert len(calls) == rp.nodes
    monkeypatch.undo()
    grams = [conditional_expected_node_gram(rp, i) for i in range(rp.nodes)]
    one_step = ordered_sum(np.stack(grams), 0)
    assert np.array_equal(gram, window * one_step)
    # the step-by-step loop drifts by its own rounding, about 1e-13 over this window
    loop = _loop_gram(rp, window)
    assert np.linalg.norm(gram - loop) <= 1e-13 * np.linalg.norm(loop)
