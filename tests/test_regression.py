"""Observation-model processes and their expected Grams."""

import numpy as np
import pytest

from netlms.errors import InvalidInputError, UnsupportedAnalyticError
from netlms.linalg import block_diag
from netlms.noise import MeasurementNoise
from netlms.regression import (
    ar_driven_regression,
    bernoulli_failure_regression,
    conditional_expected_gram,
    conditional_expected_node_gram,
    entrywise_uniform_regression,
    fixed_regression,
    monte_carlo_expected_gram,
    regression_block,
    spatio_temporal_gram,
    support_gram_norm_bound,
)

ZERO_NOISE = MeasurementNoise(kind="zero", std=0.0)


def freeze_regression(process, rng, ar_history=None):
    """Draw the observation matrices once (at step 0) and return the fixed
    process that reuses them forever.

    A frozen draw is measurable from step 0 on, so its conditional Gram at
    any cut is the realized ``H^T H``, which is what the fixed kind
    returns.
    """
    hist = None if ar_history is None else np.asarray(ar_history, dtype=float)[..., None]
    no_noise = np.zeros((1, process.total_rows, 1))
    h = regression_block(process, np.zeros(process.dim), 1, [rng], no_noise, hist)[0]
    return fixed_regression([b.copy() for b in np.split(h[0, :, :, 0], process.offsets[1:-1])])


def _draw(rp, x0, rng, count=1, noise=ZERO_NOISE, ar_history=None):
    """``count`` steps of one run: the stacked matrices ``(count, sum n_i,
    n)``, the noise-free outputs and the measurements ``(count, sum n_i)``
    and the ar history after the block."""
    draws = noise.sample(rng, (count, rp.total_rows))[..., None]
    hist = None if ar_history is None else np.asarray(ar_history, dtype=float)[..., None]
    h, y_clean, y, hist = regression_block(rp, np.asarray(x0, dtype=float), count, [rng], draws, hist)
    return h[..., 0], y_clean[..., 0], y[..., 0], None if hist is None else hist[..., 0]


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def _benchmark_entrywise():
    """Three nodes observing a 2-vector through base-plus-uniform entries."""
    base = [np.array([[0.5, 0.0]]), np.array([[0.0, 0.5]]), np.array([[0.5, 0.5]])]
    coef = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])]
    return entrywise_uniform_regression(base, coef, 0.0, 1.0)


def test_fixed_sampling_and_measurements(rng):
    h = [np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]])]
    rp = fixed_regression(h)
    x0 = np.array([3.0, -1.0])
    h_drawn, y_clean, y, _ = _draw(rp, x0, rng)
    assert np.array_equal(h_drawn[0], np.concatenate(h))
    assert np.allclose(y, [[3.0, -2.0]])
    assert np.array_equal(y, y_clean)
    _, y_clean, y, _ = _draw(rp, x0, rng, noise=MeasurementNoise(kind="gaussian", std=1.0))
    assert not np.array_equal(y, y_clean)
    # one x0 entry would broadcast over both columns
    with pytest.raises(InvalidInputError):
        _draw(rp, x0[:1], rng)


def test_entrywise_second_moment_quadrature():
    """E[(u + 1/2)^2] = 13/12 for u ~ U(0,1): the scalar case done by hand."""
    rp = entrywise_uniform_regression([np.array([[0.5]])], [np.array([[1.0]])], 0.0, 1.0)
    gram = conditional_expected_node_gram(rp, 0)
    assert abs(gram[0, 0] - 13.0 / 12.0) < 1e-15


def test_entrywise_gram_closed_form():
    rp = _benchmark_entrywise()
    # node 2 has H = [0.5 + u, 0.5 + v] with independent u, v ~ U(0,1):
    # E[H^T H] = [[13/12, 1], [1, 13/12]]
    gram = conditional_expected_node_gram(rp, 2)
    assert np.abs(gram - np.array([[13.0 / 12.0, 1.0], [1.0, 13.0 / 12.0]])).max() < 1e-15


def test_entrywise_gram_matches_monte_carlo(rng):
    rp = _benchmark_entrywise()
    analytic = conditional_expected_gram(rp)
    mc = monte_carlo_expected_gram(rp, np.zeros(2), 0, ZERO_NOISE, rng, samples=20_000)
    # every Gram entry is a mean of variables bounded by 2.25 (entries of H
    # sit in [0, 1.5]), so Var <= 2.25^2/4 and 3 SE < 0.024
    assert np.abs(mc - analytic).max() < 0.03


def test_bernoulli_gram_scales_with_probability():
    c = [np.array([[1.0, 2.0], [0.0, 1.0]])]
    for p in (0.0, 0.3, 1.0):
        rp = bernoulli_failure_regression(c, p)
        gram = conditional_expected_node_gram(rp, 0)
        assert np.abs(gram - p * c[0].T @ c[0]).max() < 1e-15


def test_bernoulli_degenerate_probabilities(rng):
    c = [np.eye(2)]
    always, _, _, _ = _draw(bernoulli_failure_regression(c, 1.0), np.ones(2), rng)
    assert np.array_equal(always[0], np.eye(2))
    never, _, _, _ = _draw(bernoulli_failure_regression(c, 0.0), np.ones(2), rng)
    assert np.abs(never[0]).max() == 0.0


def test_ar_regressor_is_lagged_output(rng):
    rp = ar_driven_regression(nodes=2, order=2)
    theta = np.array([0.5, -0.25])
    hist = np.array([[1.0, 2.0], [0.0, 1.0]])
    h, _, y, after = _draw(rp, theta, rng, count=2, ar_history=hist)
    # regressor rows are the histories; outputs follow the recursion exactly
    assert np.array_equal(h[0], hist)
    assert np.allclose(y[0], hist @ theta)
    # threading: newest output becomes the first lag
    assert np.array_equal(h[1], np.column_stack([y[0], hist[:, 0]]))
    assert np.array_equal(after, np.column_stack([y[1], y[0]]))


def test_ar_requires_history(rng):
    rp = ar_driven_regression(2, 2)
    with pytest.raises(InvalidInputError):
        _draw(rp, np.zeros(2), rng)
    with pytest.raises(InvalidInputError):
        _draw(rp, np.zeros(2), rng, ar_history=np.zeros((3, 2)))
    with pytest.raises(UnsupportedAnalyticError):
        conditional_expected_node_gram(rp, 0)


def test_expected_grams_are_psd(rng):
    for rp in (_benchmark_entrywise(),
               bernoulli_failure_regression([np.array([[1.0, -1.0]])], 0.4)):
        g = conditional_expected_gram(rp)
        vals = np.linalg.eigvalsh(0.5 * (g + g.T))
        assert vals.min() > -1e-12


def test_spatio_temporal_gram_is_window_sum():
    rp = _benchmark_entrywise()
    per_step = sum(conditional_expected_node_gram(rp, i) for i in range(rp.nodes))
    window = spatio_temporal_gram(rp, window=3)
    assert np.allclose(window, 3 * per_step)


def test_freeze_regression_fixes_the_draw(rng):
    rp = _benchmark_entrywise()
    frozen = freeze_regression(rp, rng)
    assert frozen.kind == "fixed"
    h1, _, _, _ = _draw(frozen, np.zeros(2), np.random.default_rng(1), count=9)
    h2, _, _, _ = _draw(frozen, np.zeros(2), np.random.default_rng(2))
    assert all(np.array_equal(h, h2[0]) for h in h1)
    # the frozen draw stays inside the support base + coef * [0, 1]
    lo = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    assert np.all(h2[0] >= lo - 1e-12)
    assert np.all(h2[0] <= lo + 1.0 + 1e-12)


def test_support_gram_norm_bound_dominates_draws(rng):
    rp = _benchmark_entrywise()
    bound = support_gram_norm_bound(rp)
    h, _, _, _ = _draw(rp, np.zeros(2), rng, count=200)
    for stacked in h:
        top = max(np.linalg.norm(h_i, 2) ** 2 for h_i in np.split(stacked, rp.offsets[1:-1]))
        assert top <= bound + 1e-12


def test_node_dims_offsets():
    h = [np.ones((2, 3)), np.ones((3, 3)), np.ones((1, 3))]
    rp = fixed_regression(h)
    assert rp.node_dims == (2, 3, 1)
    assert rp.offsets == (0, 2, 5, 6)
    h, _, _, _ = _draw(rp, np.zeros(3), np.random.default_rng(0))
    assert h.shape == (1, 6, 3)
    assert block_diag(np.split(h[0], rp.offsets[1:-1])).shape == (6, 9)


def test_ar_monte_carlo_gram_and_freeze_replay_the_recursion(rng):
    """Without noise the ar-driven recursion is deterministic: the Monte
    Carlo Gram at step 2 is the Gram of the hand-computed regressors, and
    freezing keeps the step-0 regressor, the history itself."""
    rp = ar_driven_regression(nodes=2, order=2)
    theta = np.array([0.5, -0.25])
    hist = np.array([[1.0, 2.0], [0.0, 1.0]])
    # y(0) = (0, -0.25), y(1) = (-0.25, -0.125)
    h2 = [np.array([[-0.25, 0.0]]), np.array([[-0.125, -0.25]])]
    mc = monte_carlo_expected_gram(rp, theta, 2, ZERO_NOISE, rng, samples=2, ar_init=hist)
    assert np.array_equal(mc, block_diag([h.T @ h for h in h2]))
    frozen = freeze_regression(rp, rng, hist)
    assert frozen.kind == "fixed"
    assert np.array_equal(np.concatenate(frozen.h_nodes), hist)
