"""Windowed excitation analyzers: closed-form information matrices,
threshold checks, the connectivity-observability lower bound, and the
stationary-regime audit."""

import numpy as np
import pytest

from netlms.config import get_preset, with_overrides
from netlms.errors import InvalidInputError, NoUniqueStationaryError
from netlms.estimator import GainSchedule
from netlms.excitation import (
    check_definition1,
    check_definition2,
    corollary1_stationary_check,
    info_matrix,
    lambda_min_window,
    lemma_lower_bound_check,
    pe_diagnostic,
)
from netlms.graphs import fixed_graph, iid_uniform_graph, markov_switching_graph
from netlms.regression import fixed_regression

# Two nodes, one-way link from node 2 into node 1; node 1 itself sees
# nothing.  Cooperation is then literally necessary: alone, node 1 could
# never identify the parameter.
ONE_WAY = fixed_graph([[0.0, 1.0], [0.0, 0.0]])
HARMONIC = GainSchedule(a_coef=1.0, a_exp=1.0, b_coef=1.0, b_exp=1.0,
                        lam_coef=0.0, lam_exp=0.0)


def test_one_way_link_information_closed_form():
    """Scalar unknown, H_2 = 1: the window eigenvalue is 1 / (2k + 2)."""
    rp = fixed_regression([np.zeros((1, 1)), np.ones((1, 1))])
    for k in (0, 1, 5, 40):
        lam = lambda_min_window(info_matrix(ONE_WAY, rp, HARMONIC, k, window=1))
        assert lam == pytest.approx(1.0 / (2.0 * k + 2.0), rel=1e-12)


def test_one_way_link_with_frozen_random_sensor():
    """H_2 = sqrt(x) for a realized x: eigenvalue has an explicit surd form."""
    rng = np.random.default_rng(414)
    for _ in range(5):
        x = rng.uniform(0.25, 1.25)
        rp = fixed_regression([np.zeros((1, 1)), np.array([[np.sqrt(x)]])])
        for k in (0, 3):
            lam = lambda_min_window(info_matrix(ONE_WAY, rp, HARMONIC, k, window=1))
            expected = (x + 1.0 - np.sqrt(x * x - 2.0 * x + 2.0)) / (2.0 * (k + 1.0))
            assert lam == pytest.approx(expected, rel=1e-12)


def test_info_matrix_shape_and_symmetry():
    rp = fixed_regression([np.eye(2), np.eye(2)])
    gp = iid_uniform_graph(2, (0.0, 1.0))
    m = info_matrix(gp, rp, None, 0, window=3)
    assert m.shape == (4, 4)
    assert np.abs(m - m.T).max() < 1e-14


def test_gainless_info_dominates_scaled_by_min_gain():
    """With PSD summands, the gain-weighted eigenvalue is at least the
    smallest windowed gain times the gainless one."""
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    sched = GainSchedule.from_config(cfg)
    h = cfg.excitation.window
    for w in (0, 3, 10):
        raw = lambda_min_window(info_matrix(gp, rp, None, w, h))
        weighted = lambda_min_window(info_matrix(gp, rp, sched, w, h))
        m = min(min(sched.at(k)[:2]) for k in range(w * h, (w + 1) * h))
        assert weighted >= m * raw - 1e-12


def test_benchmark_joint_connectivity_value():
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    rep = check_definition1(gp, window=2, theta1=0.5, windows=25)
    assert rep.passed
    # even-step mean graph is complete with weight 1/2, odd-step mean is
    # zero: the summed window Laplacian has second eigenvalue exactly 3/2
    assert rep.min_value == pytest.approx(1.5, abs=1e-12)
    assert len(rep.values) == 25
    # threshold above the true value must fail and locate a window
    bad = check_definition1(gp, window=2, theta1=1.6, windows=25)
    assert not bad.passed and 0 <= bad.min_window < 25


def test_benchmark_joint_observability_value():
    cfg = get_preset("setting-i")
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    rep = check_definition2(rp, window=2, theta2=0.2, windows=25)
    assert rep.passed
    # hand value: the pooled two-step Gram has smallest eigenvalue 13/6
    assert rep.min_value == pytest.approx(13.0 / 6.0, abs=1e-12)


def test_connectivity_needs_two_nodes():
    with pytest.raises(InvalidInputError):
        check_definition1(fixed_graph(np.zeros((1, 1))), 1, 0.1, 1)
    with pytest.raises(InvalidInputError):
        check_definition2(fixed_regression([np.eye(2)]), 0, 0.1, 1)


def test_disconnected_graph_fails_connectivity():
    rep = check_definition1(fixed_graph(np.zeros((3, 3))), 2, 0.5, 4)
    assert not rep.passed and rep.min_value == 0.0


def test_markov_connectivity_quantifies_over_states():
    ring = np.array([[0.0, 1.0], [1.0, 0.0]])
    # from state 0 the chain may move to the empty graph with prob 1:
    # the window mean from that cut state is disconnected
    gp = markov_switching_graph([ring, np.zeros((2, 2))],
                                [[0.0, 1.0], [0.0, 1.0]], initial_state=0)
    rep = check_definition1(gp, window=1, theta1=0.1, windows=3)
    assert not rep.passed


def test_lower_bound_on_benchmark_window():
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    rep = lemma_lower_bound_check(gp, rp, window=2, rho0=5.0, window_index=0)
    assert rep.passed and rep.premise_ok
    assert rep.lambda2 == pytest.approx(1.5, abs=1e-12)
    assert rep.gram_lambda_min == pytest.approx(13.0 / 6.0, abs=1e-12)
    # rhs = lambda2 / (2 N h rho0 + N lambda2) * gram_min with N=3, h=2
    rhs = 1.5 / (2 * 3 * 2 * 5.0 + 3 * 1.5) * (13.0 / 6.0)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)
    assert rep.lhs >= rep.rhs
    # rho0 below the true Gram-norm bound breaks the premise
    weak = lemma_lower_bound_check(gp, rp, window=2, rho0=0.5, window_index=0)
    assert not weak.premise_ok and not weak.passed


def test_lower_bound_across_many_windows():
    cfg = get_preset("setting-iii")
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    for w in range(12):
        rep = lemma_lower_bound_check(gp, rp, window=2, rho0=5.0, window_index=w)
        assert rep.passed, f"window {w}: margin {rep.margin}"


def test_stationary_audit_passes_on_balanced_pair():
    ring = np.array([[0.0, 0.5], [0.5, 0.0]])
    h0 = [np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])]
    h1 = [np.array([[0.0, 0.0]]), np.array([[0.0, 1.0]])]
    rep = corollary1_stationary_check([ring, ring], [[0.5, 0.5], [0.5, 0.5]], [h0, h1])
    assert rep.passed
    assert np.allclose(rep.pi, [0.5, 0.5])
    assert rep.obs_lambda_min == pytest.approx(0.5)
    assert rep.nonnegative and rep.balanced and rep.has_spanning_tree


def test_stationary_audit_fails_without_spanning_tree():
    isolated = np.zeros((2, 2))
    h = [np.eye(2), np.eye(2)]
    rep = corollary1_stationary_check([isolated], [[1.0]], [h])
    assert not rep.passed and not rep.has_spanning_tree


def test_stationary_audit_fails_without_observability():
    ring = np.array([[0.0, 0.5], [0.5, 0.0]])
    # both states observe only the first coordinate
    h = [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]
    rep = corollary1_stationary_check([ring], [[1.0]], [h])
    assert not rep.passed and not rep.obs_positive
    assert rep.has_spanning_tree


def test_stationary_audit_propagates_nonergodic_chain():
    ring = np.array([[0.0, 0.5], [0.5, 0.0]])
    h = [np.eye(2), np.eye(2)]
    with pytest.raises(NoUniqueStationaryError):
        corollary1_stationary_check([ring, ring], np.eye(2), [h, h])


def test_stationary_audit_absorbing_state_ignores_transient():
    ring = np.array([[0.0, 1.0], [1.0, 0.0]])
    junk = np.array([[0.0, 9.0], [0.0, 0.0]])  # unbalanced, but unreachable mass
    h_good = [np.eye(2), np.eye(2)]
    h_junk = [np.zeros((2, 2)), np.zeros((2, 2))]
    # state 0 absorbing: pi = (1, 0), so only state 0 matters
    rep = corollary1_stationary_check([ring, junk], [[1.0, 0.0], [0.5, 0.5]],
                                      [h_good, h_junk])
    assert rep.passed and np.allclose(rep.pi, [1.0, 0.0])


def test_pe_diagnostic_on_benchmark():
    cfg = with_overrides(get_preset("setting-i"), horizon=400)
    rep = pe_diagnostic(cfg)
    assert rep.window == 2 and rep.windows_checked == 200
    assert rep.excited and not rep.sublinear_warning
    assert rep.jointly_connected.passed and rep.jointly_observable.passed
    assert rep.gamma1.member
    assert rep.bound_check.violations == 0 and rep.bound_check.premise_ok
    lam = np.asarray(rep.lambda_series)
    assert lam.min() > 0.0
    cum = np.asarray(rep.cumulative)
    assert np.all(np.diff(cum) > 0.0)
    r = np.asarray(rep.r_series)
    finite = np.isfinite(r)
    assert np.all(np.diff(r[finite]) <= 1e-15)
    assert rep.notes  # heuristics are labeled as such


def test_pe_diagnostic_gain_ordering_between_presets():
    """Faster-decaying gains inject less information: R stays larger."""
    slow = pe_diagnostic(with_overrides(get_preset("setting-i"), horizon=300))
    fast = pe_diagnostic(with_overrides(get_preset("setting-iii"), horizon=300))
    assert fast.r_series[-1] > slow.r_series[-1]
    assert fast.cumulative[-1] < slow.cumulative[-1]


def test_pe_diagnostic_flags_starved_excitation():
    """Gains decaying faster than 1/k make the eigenvalue sum look
    convergent; the heuristic should warn."""
    import dataclasses

    from netlms.config import GainConfig

    cfg = with_overrides(get_preset("setting-i"), horizon=400)
    starved = dataclasses.replace(
        cfg, gains=GainConfig(a_coef=1.0, a_exp=1.5, b_coef=1.0, b_exp=1.5,
                              lambda_coef=0.0, lambda_exp=0.0))
    rep = pe_diagnostic(starved)
    assert rep.sublinear_warning


def test_windowed_checks_validate_arguments():
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    with pytest.raises(InvalidInputError):
        check_definition1(gp, window=0, theta1=0.5, windows=3)
    with pytest.raises(InvalidInputError):
        check_definition1(gp, window=2, theta1=0.5, windows=0)
    with pytest.raises(InvalidInputError):
        pe_diagnostic(cfg, windows=0)


def test_pe_diagnostic_on_markov_switching_takes_state_uniform_minimum(markov_pair):
    cfg = markov_pair
    rep = pe_diagnostic(cfg, windows=4)
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    gains = GainSchedule.from_config(cfg)
    h = cfg.excitation.window
    assert rep.lambda_series[0] == lambda_min_window(info_matrix(gp, rp, gains, 0, h))
    for k in range(1, 4):
        per_state = [lambda_min_window(info_matrix(gp, rp, gains, k, h, s)) for s in (0, 1)]
        assert rep.lambda_series[k] == min(per_state)
        raw = [lambda_min_window(info_matrix(gp, rp, None, k, h, s)) for s in (0, 1)]
        assert rep.gainless_series[k] == min(raw)
    assert rep.bound_check.windows_checked == 4
