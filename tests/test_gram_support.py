"""The fused operator's own blocks, built from the regression law's
support, against the dense row-by-row Gram that they replace."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netlms import estimator
from netlms.config import ExperimentConfig, GainConfig, GraphConfig, NoiseConfig, RegressionConfig, get_preset
from netlms.estimator import SimulationModel, simulate
from netlms.regression import (
    ar_driven_regression,
    bernoulli_failure_regression,
    entrywise_uniform_regression,
    fixed_regression,
)
from test_estimator import _assert_same_reports, _diverging, _kind_config, _pin_chunk
from test_experiment import _unobserved_third

ZERO_ROW = [[0.0, -0.0, 0.0]]
CELLS = [[0.0, 2.0, -0.0], [-1.0, 0.0, 0.0]]


def test_support_of_each_kind():
    """``fixed``: ``h != 0``; ``entrywise-uniform``: ``base != 0 | coef !=
    0``; ``bernoulli-failure``: ``coef != 0``; ``ar-driven``: every cell.
    A ``-0.0`` is a zero; rows stack node after node."""
    want = np.array([[False, True, False], [True, False, False], [False, False, False]])
    assert np.array_equal(fixed_regression([CELLS, ZERO_ROW]).support, want)
    assert np.array_equal(bernoulli_failure_regression([CELLS, ZERO_ROW], 0.5).support, want)
    base = [[[0.0, 0.0, 3.0], [-1.0, 0.0, 0.0]], ZERO_ROW]
    coef = [[[0.0, 2.0, -0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.5]]]
    got = entrywise_uniform_regression(base, coef).support
    assert np.array_equal(got, [[False, True, True], [True, False, False], [False, False, True]])
    assert got.dtype == bool
    assert np.array_equal(ar_driven_regression(2, 3).support, np.ones((2, 3), dtype=bool))


def _dense_own_blocks(model, start, h, op):
    """The dense build of the own blocks ``(1 - lam) I - a H_i^T H_i``,
    kept as the oracle: every row's full outer product, in row order,
    written into ``op`` in place of the support build's blocks."""
    n_nodes, dim = model.init.shape
    a, _, lam = (g[:, None] for g in model.gains.table(range(start, start + h.shape[0])).T)
    ht = h.transpose(1, 2, 0, 3)
    blocks = op.reshape(op.shape[0], dim, n_nodes, *op.shape[2:])
    comp_diag = np.arange(dim)
    offsets = model.regression.offsets
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        own = blocks[:dim, :, i]
        np.multiply(ht[lo, :, None], ht[lo, None, :], out=own)
        for row in range(lo + 1, hi):
            own += ht[row, :, None] * ht[row, None, :]
        own *= -a
        own[comp_diag, comp_diag] += 1.0 - lam


def _outputs(cfg, runs):
    """Every chunk statistic, the final states and the bound reports of one
    batch, in chunks of 7 steps."""
    parts = []
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(runs)]
    final, reports = simulate(SimulationModel.from_config(cfg), seeds, cfg.horizon, parts.append)
    stats = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
             for f in dataclasses.fields(parts[0]) if f.name != "start"}
    return stats, final, reports


def _assert_support_build_is_the_dense_one(cfg, runs):
    """The kernel with the support build and with the dense oracle swapped
    in: every statistic, final state and bound report equal bit for bit,
    NaN bytes included."""
    with pytest.MonkeyPatch.context() as mp:
        _pin_chunk(mp, 7)
        stats, final, reports = _outputs(cfg, runs)
        support_build = estimator._fused_operator

        def dense_build(model, link_noise, start, adj, h, y, xi, gram_rows):
            op = support_build(model, link_noise, start, adj, h, y, xi, gram_rows)
            _dense_own_blocks(model, start, h, op)
            return op

        mp.setattr(estimator, "_fused_operator", dense_build)
        dense_stats, dense_final, dense_reports = _outputs(cfg, runs)
    for name, value in stats.items():
        assert np.array_equal(value, dense_stats[name], equal_nan=True), name
        assert value.tobytes() == dense_stats[name].tobytes(), name
    assert np.array_equal(final, dense_final, equal_nan=True)
    assert final.tobytes() == dense_final.tobytes()
    _assert_same_reports(reports, dense_reports)
    assert repr(reports) == repr(dense_reports)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("sigma_f", [0.2, 0.0], ids=["link-noise", "sigma_f=0"])
@pytest.mark.parametrize("regression_kind",
                         ["fixed", "entrywise-uniform", "bernoulli-failure", "ar-driven"])
@pytest.mark.parametrize("graph_kind", ["fixed", "alternating-uniform", "iid-uniform",
                                        "markov-switching", "markov-silent"])
def test_support_build_matches_the_dense_gram(graph_kind, regression_kind, sigma_f, runs):
    cfg = _kind_config(graph_kind, regression_kind)
    cfg = dataclasses.replace(cfg, horizon=30, noise=dataclasses.replace(cfg.noise, sigma_f=sigma_f))
    _assert_support_build_is_the_dense_one(cfg, runs)


def _a_zero_unobserved_third():
    """The exactly-zero unobserved component with ``a(k) = 0``, no bias
    and Gaussian channel noise."""
    cfg = _unobserved_third(200)
    return dataclasses.replace(cfg, gains=dataclasses.replace(cfg.gains, a_coef=0.0),
                               noise=dataclasses.replace(cfg.noise, b_f=0.0, channel_kind="gaussian"))


def _a_zero_signed_weights():
    """``a(k) = 0`` and ``lam(k) > 1`` over two nodes that each observe one
    component, node 0 through a negative cell: the dense ``H_0^T H_0``
    has a ``-0`` off the diagonal where the support build has ``+0``, so
    the weights of ``x_0[1]`` in ``x_0[0]``'s update differ in sign.  On
    this seed every other term of that update is ``-0`` at the one step,
    so a slot sum that started from its first term would end at ``-0``
    with one build and ``+0`` with the other."""
    return ExperimentConfig(
        name="a-zero", seed=2, horizon=1, runs=1, nodes=2, dim=2, node_dims=(1, 1),
        x0=(0.5, 0.5), init=((0.0, 1.0), (-0.0, 1.0)),
        graph=GraphConfig(kind="fixed", adjacency=((0.0, 1.0), (1.0, 0.0))),
        regression=RegressionConfig(kind="fixed", h_nodes=(((-1.0, 0.0),), ((0.0, 1.0),))),
        noise=NoiseConfig(measurement_kind="gaussian", measurement_std=0.5, channel_kind="gaussian",
                          channel_std=0.7, sigma_f=0.0, b_f=0.0),
        gains=GainConfig(a_coef=0.0, a_exp=0.6, b_coef=0.4, b_exp=0.6, lambda_coef=3.0, lambda_exp=0.5),
    )


@pytest.mark.parametrize("cfg", [
    pytest.param(dataclasses.replace(get_preset("setting-i"), horizon=60), id="setting-i"),
    pytest.param(dataclasses.replace(get_preset("regret"), horizon=60), id="regret"),
    pytest.param(_diverging(400), id="diverging"),
    pytest.param(_a_zero_unobserved_third(), id="a=0-unobserved-third"),
    pytest.param(_a_zero_signed_weights(), id="a=0-signed-weights"),
])
@pytest.mark.parametrize("runs", [1, 3])
def test_support_build_matches_the_dense_gram_on_presets(cfg, runs):
    """The presets, setting-i with gains of 50, whose runs turn inf and
    NaN inside the horizon, and two configs with ``a(k) = 0``, where a
    zero weight of the other sign is not scaled away by ``a``: the slot
    sums still end at the same bits, ``x_final``'s zeros included."""
    _assert_support_build_is_the_dense_one(cfg, runs)


CELL_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.5, -0.25])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_support_build_matches_the_dense_gram_on_zero_masks(data):
    """entrywise-uniform laws with drawn zero masks over ``base`` and
    ``coef``: zero rows, zero columns and nodes without any support, with
    and without link noise."""
    n_nodes, dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    node_dims = tuple(data.draw(st.integers(1, 3)) for _ in range(n_nodes))
    zero_cols = [data.draw(st.booleans()) for _ in range(dim)]
    silent = [data.draw(st.booleans()) for _ in range(n_nodes)]

    def matrices():
        return tuple(
            tuple(tuple(0.0 if silent[i] or zero_row or zero_cols[q] else data.draw(CELL_VALUES)
                        for q in range(dim))
                  for zero_row in [data.draw(st.booleans()) for _ in range(rows)])
            for i, rows in enumerate(node_dims))

    sigma_f, channel_kind = data.draw(st.sampled_from([(0.3, "gaussian"), (0.0, "gaussian"), (0.3, "zero")]))
    cfg = ExperimentConfig(
        name="masks", seed=data.draw(st.integers(0, 2**32)), horizon=data.draw(st.integers(0, 20)),
        runs=1, nodes=n_nodes, dim=dim, node_dims=node_dims,
        x0=tuple(data.draw(CELL_VALUES) for _ in range(dim)),
        init=tuple(tuple(data.draw(CELL_VALUES) for _ in range(dim)) for _ in range(n_nodes)),
        graph=GraphConfig(kind="iid-uniform", low=-0.5, high=1.0),
        regression=RegressionConfig(kind="entrywise-uniform", base=matrices(), coef=matrices(),
                                    low=data.draw(st.sampled_from([-0.5, 0.0])), high=0.5),
        noise=NoiseConfig(measurement_kind=data.draw(st.sampled_from(["gaussian", "zero"])),
                          measurement_std=0.5, channel_kind=channel_kind, channel_std=0.7,
                          sigma_f=sigma_f, b_f=data.draw(st.sampled_from([0.0, 0.2]))),
        gains=GainConfig(a_coef=0.5, a_exp=0.6, b_coef=0.4, b_exp=0.6,
                         lambda_coef=data.draw(st.sampled_from([0.3, 3.0])), lambda_exp=2.0),
    )
    _assert_support_build_is_the_dense_one(cfg, data.draw(st.integers(1, 3)))


@pytest.mark.parametrize("rows", [
    pytest.param(((1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (0.0, 0.5, 0.0)), id="overlap-then-inside"),
    pytest.param(((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, -1.0, 0.0)), id="gap-column"),
    pytest.param(((1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.5, 1.0)), id="overlap-after-first"),
])
@pytest.mark.parametrize("kind", ["fixed", "entrywise-uniform"])
def test_support_build_matches_the_dense_gram_on_overlapping_rows(rows, kind):
    """Rows whose supported columns overlap in every order: a row that
    adds into a block written in part before, followed by a row inside
    it, and a row whose support skips a column."""
    cfg = _kind_config("iid-uniform", "fixed")
    other = ((1.0, 0.0, 0.0),)
    mats = (rows, other, other)
    reg = (RegressionConfig(kind="fixed", h_nodes=mats) if kind == "fixed" else
           RegressionConfig(kind="entrywise-uniform", base=mats, coef=mats, low=-0.5, high=0.5))
    cfg = dataclasses.replace(cfg, dim=3, node_dims=(3, 1, 1), x0=(2.0, -1.0, 0.5),
                              init=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 2.0, 1.0)),
                              regression=reg, horizon=30)
    _assert_support_build_is_the_dense_one(cfg, 2)
