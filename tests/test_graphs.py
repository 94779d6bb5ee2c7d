"""Random graph processes: sampling, conditional means, membership checks."""

import numpy as np
import pytest

from netlms.errors import InvalidInputError, NoUniqueStationaryError
from netlms.graphs import (
    alternating_uniform_graph,
    conditional_expected_adjacency,
    conditional_expected_sym_laplacian,
    fixed_graph,
    gamma1_membership,
    graph_block,
    iid_uniform_graph,
    is_conditionally_balanced,
    markov_switching_graph,
    stationary_distribution,
)
from netlms.linalg import laplacian


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def test_fixed_graph_round_trip(rng):
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    gp = fixed_graph(a)
    block, state = graph_block(gp, 3, 4, [rng, rng])
    assert block.shape == (4, 2, 2, 2) and state is None
    assert all(np.array_equal(block[k, :, :, r], a) for k in range(4) for r in range(2))
    assert np.allclose(laplacian(block[0, :, :, 0]), [[2.0, -2.0], [-0.5, 0.5]])


def test_self_loops_rejected():
    with pytest.raises(InvalidInputError):
        fixed_graph([[1.0, 0.0], [0.0, 0.0]])


def test_uniform_sampling_zero_diagonal_and_range(rng):
    gp = iid_uniform_graph(4, (0.25, 0.75))
    block, _ = graph_block(gp, 0, 5, [rng])
    for adjacency in block[..., 0]:
        assert np.all(np.diagonal(adjacency) == 0.0)
        off = adjacency[~np.eye(4, dtype=bool)]
        assert off.min() >= 0.25 and off.max() <= 0.75


def test_alternating_means_are_exact(rng):
    gp = alternating_uniform_graph(3, (0.0, 1.0), (0.0, 0.5))
    even = conditional_expected_adjacency(gp, step=2)
    odd = conditional_expected_adjacency(gp, step=3)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(even[off], 0.5)
    assert np.allclose(odd[off], 0.25)
    assert np.all(np.diagonal(even) == 0.0)


def _zero_diag(a):
    np.fill_diagonal(a, 0.0)
    return a


def test_markov_one_step_conditional_is_transition_row(rng):
    a0 = _zero_diag(np.full((2, 2), 1.0))
    a1 = np.zeros((2, 2))
    p = np.array([[0.9, 0.1], [0.4, 0.6]])
    gp = markov_switching_graph([a0, a1], p, initial_state=0)
    # conditioning at cut k-1 on state 0: E[A(k)] = p[0,0] a0 + p[0,1] a1
    exp = conditional_expected_adjacency(gp, step=5, history_cut=4, state_at_cut=0)
    assert np.allclose(exp, 0.9 * a0 + 0.1 * a1)
    # two steps ahead uses the squared transition
    exp2 = conditional_expected_adjacency(gp, step=6, history_cut=4, state_at_cut=1)
    row = (p @ p)[1]
    assert np.allclose(exp2, row[0] * a0 + row[1] * a1)


def test_markov_sampling_follows_chain(rng):
    a0 = _zero_diag(np.ones((2, 2)))
    a1 = np.zeros((2, 2))
    gp = markov_switching_graph([a0, a1], np.eye(2), initial_state=1)
    state = None
    for k in range(4):  # identity transition: chain absorbed in state 1
        block, state = graph_block(gp, k, 1, [rng], state)
        assert state.tolist() == [1]
        assert np.array_equal(block[0, :, :, 0], a1)


def test_markov_initial_state_is_an_integer():
    """``initial_state`` takes what ``operator.index`` takes; a float is not
    truncated to a state."""
    a0, a1 = _zero_diag(np.ones((2, 2))), np.zeros((2, 2))
    gp = markov_switching_graph([a0, a1], np.eye(2), initial_state=np.int64(1))
    assert gp.initial_state == 1 and type(gp.initial_state) is int
    for bad in (1.5, 1.0, np.float64(1.0), "1", None):
        with pytest.raises(InvalidInputError, match="initial_state must be an integer"):
            markov_switching_graph([a0, a1], np.eye(2), initial_state=bad)


def test_sym_laplacian_expectation_consistency():
    gp = iid_uniform_graph(3, (0.0, 1.0))
    lap = conditional_expected_sym_laplacian(gp, step=0)
    a = conditional_expected_adjacency(gp, step=0)
    direct = 0.5 * ((np.diag(a.sum(1)) - a) + (np.diag(a.sum(1)) - a).T)
    assert np.allclose(lap, direct)


def test_balance_check():
    balanced = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_conditionally_balanced(balanced)
    lopsided = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_conditionally_balanced(lopsided)
    negative = np.array([[0.0, -0.1], [0.1, 0.0]])
    assert not is_conditionally_balanced(negative)


def test_gamma1_membership_cases():
    rep = gamma1_membership(iid_uniform_graph(3, (0.0, 1.0)))
    assert rep.member
    # fixed digraph with one-way edge: mean in-flow != out-flow
    rep = gamma1_membership(fixed_graph([[0.0, 1.0], [0.0, 0.0]]))
    assert not rep.member
    # markov mixture balanced from every state
    ring = np.array([[0.0, 1.0], [1.0, 0.0]])
    gp = markov_switching_graph([ring, 2 * ring], [[0.5, 0.5], [0.5, 0.5]])
    assert gamma1_membership(gp).member


def test_stationary_distribution_hand_solved():
    # pi P = pi for P = [[0.9, 0.1], [0.5, 0.5]] gives pi = (5/6, 1/6)
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = stationary_distribution(p)
    assert np.abs(pi - [5.0 / 6.0, 1.0 / 6.0]).max() < 1e-10
    assert abs(pi.sum() - 1.0) < 1e-12


def test_stationary_distribution_failures():
    with pytest.raises(NoUniqueStationaryError):
        stationary_distribution(np.eye(2))  # two ergodic classes
    with pytest.raises(NoUniqueStationaryError):
        stationary_distribution([[0.0, 1.0], [1.0, 0.0]])  # period 2


def test_periodic_chain_with_lazy_mixing_recovers():
    # adding any laziness breaks periodicity
    p = np.array([[0.1, 0.9], [0.9, 0.1]])
    pi = stationary_distribution(p)
    assert np.abs(pi - 0.5).max() < 1e-10
