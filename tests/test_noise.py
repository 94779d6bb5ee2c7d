"""Channel model, stacked noise factors, and their norm identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netlms.errors import InvalidInputError
from netlms.linalg import ordered_sum
from netlms.noise import (
    BoundCheckReport,
    BoundTally,
    ChannelNoise,
    MeasurementNoise,
    NoiseIntensity,
    build_WM,
    norm_bound_sides,
    received_messages,
)

BENCH = NoiseIntensity(sigma=0.1, bias=0.1)


def received_message(x_j, x_i, intensity, xi_draw):
    """One corrupted message ``x_j + f(x_j - x_i) * xi``, the single-link
    form of ``received_messages``: ``f`` is entry ``(0, 1)`` of the
    intensity matrix of receiver ``x_i`` and sender ``x_j``."""
    x_j, x_i = np.asarray(x_j, dtype=float), np.asarray(x_i, dtype=float)
    return x_j + intensity.matrix(np.stack([x_i, x_j]))[0, 1] * np.asarray(xi_draw, dtype=float)


def matrix_axes_first(m):
    """``m[..., i, j]`` as ``m[i, j, ...]``, the batching of
    ``norm_bound_sides``."""
    return np.moveaxis(m, (-2, -1), (0, 1))


def link_distances(states):
    """``out[i, j, ...] = |x_j - x_i|`` for states ``(..., N, n)``: the
    batched in-order sum over the components that the kernel's bound
    checks use without link noise."""
    x = np.moveaxis(np.asarray(states, dtype=float), (-1, -2), (0, 1))  # x[q, i, ...]
    d = x[:, None] - x[:, :, None]
    return np.sqrt(ordered_sum(d * d, 0))


def verify_A1_A2_bounds(adjacencies, state_seq, intensity, x0, build_matrices=True):
    """Check the norm bounds at every step of a recorded slice.

    ``adjacencies`` and ``state_seq`` are step-aligned sequences of ``(N, N)``
    and ``(N, n)`` arrays.  The right-hand sides always come from
    ``norm_bound_sides``; with ``build_matrices`` the stacked ``W`` and
    ``M`` are constructed explicitly and their spectral norms used on the
    left-hand sides, otherwise the closed forms are used.
    """
    steps = min(len(adjacencies), len(state_seq))
    if steps == 0:
        raise InvalidInputError("empty trajectory slice")
    a = np.stack([np.asarray(m, dtype=float) for m in adjacencies[:steps]])
    x = np.stack([np.asarray(s, dtype=float) for s in state_seq[:steps]])
    err = x - np.asarray(x0, dtype=float)
    v_total = ordered_sum(ordered_sum(err * err, -1), -1)
    w_lhs, w_rhs, m_lhs, m_rhs = norm_bound_sides(matrix_axes_first(a), link_distances(x), intensity, v_total)
    if build_matrices:
        w_lhs = np.empty(steps)
        m_lhs = np.empty(steps)
        for k in range(steps):
            w, m = build_WM(a[k], x[k], intensity)
            w_lhs[k] = np.linalg.norm(w, 2)
            m_lhs[k] = np.linalg.norm(m, 2) ** 2
    tally = BoundTally(1)
    tally.add((w_rhs - w_lhs)[:, None], (m_rhs - m_lhs)[:, None], v_total[:, None])
    return tally.reports()[0]


@pytest.fixture
def rng():
    return np.random.default_rng(5150)


def test_intensity_scalar_and_matrix_agree(rng):
    x = rng.normal(size=(4, 3))
    f = BENCH.matrix(x)
    for i in range(4):
        for j in range(4):
            assert abs(f[i, j] - (0.1 * np.linalg.norm(x[j] - x[i]) + 0.1)) < 1e-14
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
        assert abs(np.linalg.norm(w, 2) - row_norm) < 1e-10


def test_m_norm_identity(rng):
    """||M|| equals the largest link intensity."""
    x = rng.normal(size=(3, 2))
    _, m = build_WM(np.zeros((3, 3)), x, BENCH)
    assert abs(np.linalg.norm(m, 2) - BENCH.matrix(x).max()) < 1e-12


def test_w_bound_random_instances(rng):
    """||W|| <= sqrt(N) ||A|| on arbitrary nonnegative adjacencies."""
    for trial in range(20):
        n_nodes = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 3.0, (n_nodes, n_nodes))
        np.fill_diagonal(a, 0.0)
        x = rng.normal(size=(n_nodes, 2))
        w, _ = build_WM(a, x, BENCH)
        assert np.linalg.norm(w, 2) <= np.sqrt(n_nodes) * np.linalg.norm(a, 2) + 1e-10


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


# finite entries, overflowing ones and the +-inf and NaN of a diverging run
ENTRY = st.one_of(st.floats(allow_nan=False), st.sampled_from([np.inf, -np.inf, np.nan]))


def _same_bits(u, w) -> bool:
    """Equal bit for bit, where any NaN matches any NaN: the NaN that a
    max keeps depends on the order in which it meets them."""
    u, w = np.asarray(u), np.asarray(w)
    nan = np.isnan(u)
    return np.array_equal(nan, np.isnan(w)) and u[~nan].tobytes() == w[~nan].tobytes()


def _bound_inputs(data):
    """Adjacencies ``(..., N, N)``, states ``(..., N, n)`` and V ``(...)``
    for N <= 3, where the largest eigenvalue has a closed form."""
    batch = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    n_nodes, dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = data.draw(hnp.arrays(float, (*batch, n_nodes, n_nodes), elements=ENTRY))
    x = data.draw(hnp.arrays(float, (*batch, n_nodes, dim), elements=ENTRY))
    return a, x, data.draw(hnp.arrays(float, batch, elements=ENTRY))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_w_side_is_read_off_the_gram_diagonal(data):
    """|W| from the diagonal of ``A A^T`` equals the largest row norm
    summed on its own, bit for bit, non-finite entries included."""
    a, x, v = _bound_inputs(data)
    with np.errstate(all="ignore"):
        w_lhs = norm_bound_sides(matrix_axes_first(a), link_distances(x), BENCH, v)[0]
        want = np.sqrt(ordered_sum(a * a, -1).max(axis=-1))
    assert _same_bits(w_lhs, want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_m_side_from_given_distances_equals_the_states(data):
    """Distances laid out and summed as the kernel's step loop does
    (component-major, an in-order reduction over the components, sender
    before receiver) give the same sides as the batched distances that the
    kernel computes from the states without link noise, bit for bit,
    non-finite entries included."""
    a, x, v = _bound_inputs(data)
    comps = np.moveaxis(x, -1, 0)  # comps[q, ..., j] = x_j[q]
    with np.errstate(all="ignore"):
        diff = comps[..., :, None] - comps[..., None, :]  # [q, ..., j, i] = x_j[q] - x_i[q]
        dist = np.sqrt(np.add.reduce(np.ascontiguousarray(diff * diff), 0))
        given_dist = norm_bound_sides(matrix_axes_first(a), matrix_axes_first(dist), BENCH, v)
        from_states = norm_bound_sides(matrix_axes_first(a), link_distances(x), BENCH, v)
    for got, want in zip(given_dist, from_states, strict=True):
        assert _same_bits(got, want)


def test_measurement_noise_moments(rng):
    gauss = MeasurementNoise(kind="gaussian", std=2.0)
    draws = gauss.sample(rng, 200_000)
    assert abs(draws.var() - 4.0) < 0.1
    zero = MeasurementNoise(kind="zero")
    assert np.abs(zero.sample(rng, 7)).max() == 0.0
    with pytest.raises(InvalidInputError):
        MeasurementNoise(kind="laplace")
    for bad in (-1.0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(InvalidInputError):
            MeasurementNoise(std=bad)


def test_channel_noise_moments(rng):
    chan = ChannelNoise(kind="gaussian", std=0.5)
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
