"""Channel model, stacked noise factors, and their norm identities."""

import numpy as np
import pytest

from netlms.errors import InvalidInputError
from netlms.linalg import spectral_norm
from netlms.noise import (
    BoundCheckReport,
    ChannelNoise,
    MeasurementNoise,
    NoiseIntensity,
    build_WM,
    received_message,
    received_messages,
    verify_A1_A2_bounds,
)

BENCH = NoiseIntensity(sigma=0.1, bias=0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(5150)


def test_intensity_scalar_and_matrix_agree(rng):
    x = rng.normal(size=(4, 3))
    f = BENCH.matrix(x)
    for i in range(4):
        for j in range(4):
            assert abs(f[i, j] - BENCH(x[j] - x[i])) < 1e-14
    assert np.allclose(np.diagonal(f), BENCH.bias)  # zero disagreement


def test_intensity_rejects_negative_coefficients():
    with pytest.raises(InvalidInputError):
        NoiseIntensity(sigma=-0.1, bias=0.0)
    with pytest.raises(InvalidInputError):
        NoiseIntensity(sigma=0.0, bias=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            NoiseIntensity(sigma=bad, bias=0.1)
        with pytest.raises(InvalidInputError):
            NoiseIntensity(sigma=0.1, bias=bad)


def test_received_message_formula(rng):
    x_j = np.array([1.0, 0.0])
    x_i = np.array([0.0, 0.0])
    xi = np.array([2.0, -1.0])
    out = received_message(x_j, x_i, BENCH, xi)
    assert np.allclose(out, x_j + (0.1 * 1.0 + 0.1) * xi)
    # zero noise draw delivers the sender state exactly
    assert np.allclose(received_message(x_j, x_i, BENCH, np.zeros(2)), x_j)


def test_received_messages_match_scalar_form(rng):
    x = rng.normal(size=(3, 2))
    xi = rng.normal(size=(3, 3, 2))
    out = received_messages(x, BENCH, xi)
    for i in range(3):
        for j in range(3):
            assert np.allclose(out[i, j], received_message(x[j], x[i], BENCH, xi[i, j]))


def test_stacked_noise_equals_pairwise_sum(rng):
    """W M xi reproduces sum_j a_ij f_ij xi_ji for every receiver."""
    n_nodes, dim = 3, 2
    x = rng.normal(size=(n_nodes, dim))
    a = rng.uniform(0.0, 1.0, (n_nodes, n_nodes))
    np.fill_diagonal(a, 0.0)
    xi = rng.normal(size=(n_nodes, n_nodes, dim))
    w, m = build_WM(a, x, BENCH)
    stacked = w @ m @ xi.reshape(-1)
    f = BENCH.matrix(x)
    for i in range(n_nodes):
        manual = sum(a[i, j] * f[i, j] * xi[i, j] for j in range(n_nodes))
        assert np.allclose(stacked[i * dim : (i + 1) * dim], manual)


def test_w_norm_identity(rng):
    """||W|| equals the largest row 2-norm of the adjacency."""
    for trial in range(5):
        n_nodes, dim = 4, 2
        x = rng.normal(size=(n_nodes, dim))
        a = rng.uniform(0.0, 2.0, (n_nodes, n_nodes))
        np.fill_diagonal(a, 0.0)
        w, _ = build_WM(a, x, BENCH)
        row_norm = np.sqrt((a * a).sum(axis=1).max())
        assert abs(spectral_norm(w) - row_norm) < 1e-10


def test_m_norm_identity(rng):
    """||M|| equals the largest link intensity."""
    x = rng.normal(size=(3, 2))
    _, m = build_WM(np.zeros((3, 3)), x, BENCH)
    assert abs(spectral_norm(m) - BENCH.matrix(x).max()) < 1e-12


def test_w_bound_random_instances(rng):
    """||W|| <= sqrt(N) ||A|| on arbitrary nonnegative adjacencies."""
    for trial in range(20):
        n_nodes = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 3.0, (n_nodes, n_nodes))
        np.fill_diagonal(a, 0.0)
        x = rng.normal(size=(n_nodes, 2))
        w, _ = build_WM(a, x, BENCH)
        assert spectral_norm(w) <= np.sqrt(n_nodes) * np.linalg.norm(a, 2) + 1e-10


def test_m_bound_at_consensus():
    """With all nodes at the truth (V = 0), ||M||^2 = bias^2 <= 2 bias^2."""
    x0 = np.array([1.0, -2.0])
    x = np.tile(x0, (3, 1))
    rep = verify_A1_A2_bounds([np.zeros((3, 3))], [x], BENCH, x0)
    assert rep.holds and rep.steps_checked == 1
    # lhs = bias^2 = 0.01, rhs = 2 bias^2 = 0.02
    assert abs(rep.min_m_margin - 0.01) < 1e-14


def test_bound_check_closed_form_matches_matrices(rng):
    n_nodes, dim = 3, 2
    x0 = rng.normal(size=dim)
    adjs, states = [], []
    for k in range(4):
        a = rng.uniform(0.0, 1.0, (n_nodes, n_nodes))
        np.fill_diagonal(a, 0.0)
        adjs.append(a)
        states.append(rng.normal(size=(n_nodes, dim)))
    explicit = verify_A1_A2_bounds(adjs, states, BENCH, x0, build_matrices=True)
    closed = verify_A1_A2_bounds(adjs, states, BENCH, x0, build_matrices=False)
    assert explicit.holds and closed.holds
    assert abs(explicit.min_w_margin - closed.min_w_margin) < 1e-9
    assert abs(explicit.min_m_margin - closed.min_m_margin) < 1e-9
    assert isinstance(explicit, BoundCheckReport)


def test_measurement_noise_moments(rng):
    gauss = MeasurementNoise(kind="gaussian", std=2.0)
    assert gauss.second_moment(5) == pytest.approx(20.0)
    draws = gauss.sample(rng, 200_000)
    assert abs(draws.var() - 4.0) < 0.1
    zero = MeasurementNoise(kind="zero")
    assert zero.second_moment(7) == 0.0 and np.abs(zero.sample(rng, 7)).max() == 0.0
    with pytest.raises(InvalidInputError):
        MeasurementNoise(kind="laplace")
    for bad in (-1.0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(InvalidInputError):
            MeasurementNoise(std=bad)


def test_channel_noise_moments(rng):
    chan = ChannelNoise(kind="gaussian", std=0.5)
    assert chan.second_moment(8) == pytest.approx(2.0)
    assert chan.sample(rng, (2, 2, 3)).shape == (2, 2, 3)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            ChannelNoise(std=bad)


def test_empty_slice_rejected():
    with pytest.raises(InvalidInputError):
        verify_A1_A2_bounds([], [], BENCH, np.zeros(2))


def test_nonfinite_margins_count_as_violations():
    x0 = np.zeros(2)
    adjs = [np.array([[0.0, 1.0], [1.0, 0.0]])] * 3
    states = [np.ones((2, 2)), np.full((2, 2), np.nan), np.ones((2, 2))]
    with np.errstate(invalid="ignore"):
        rep = verify_A1_A2_bounds(adjs, states, BENCH, x0, build_matrices=False)
    assert rep.m_violations == 1 and rep.w_violations == 0
    assert rep.first_nonfinite_step == 1 and not rep.holds
    clean = verify_A1_A2_bounds(adjs[:1], states[:1], BENCH, x0, build_matrices=False)
    assert clean.holds and clean.first_nonfinite_step is None
