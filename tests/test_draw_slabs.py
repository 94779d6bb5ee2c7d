"""Draws into reused runs-first slabs: a slab that held other values, or
NaN, leaks nothing into the next block, and a block drawn into a kept
slab equals one drawn into a fresh array, bit for bit."""

import dataclasses

import numpy as np
import pytest

from netlms.graphs import graph_block, graph_slab
from netlms.noise import ChannelNoise, MeasurementNoise
from netlms.regression import regression_block, regression_slab

from test_estimator import _kernel_outputs, _kind_config, _pin_chunk

GRAPHS = ("alternating-uniform", "markov-switching")
REGRESSIONS = ("entrywise-uniform", "bernoulli-failure")
# eleven rows in blocks of four: the last block is short
ROWS, BLOCK = 11, 4


def _same_bits(a, b):
    """Equal shapes and equal bytes: NaN equals NaN, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _twin_rngs(runs, seed=3):
    """Two lists of ``runs`` generators that draw the same streams."""
    return [[np.random.default_rng([seed, r]) for r in range(runs)] for _ in range(2)]


def _nan_like(slab):
    return None if slab is None else np.full_like(slab, np.nan)


def _blocks():
    for start in range(0, ROWS, BLOCK):
        yield start, min(BLOCK, ROWS - start)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("graph_kind", GRAPHS)
def test_graph_block_into_a_reused_slab(graph_kind, runs):
    gp = _kind_config(graph_kind, "fixed").model.graph
    fresh, kept = _twin_rngs(runs)
    slab = _nan_like(graph_slab(gp, runs, BLOCK))
    fresh_state = kept_state = None
    for start, count in _blocks():
        a, fresh_state = graph_block(gp, start, count, fresh, fresh_state)
        b, kept_state = graph_block(gp, start, count, kept, kept_state, slab)
        assert _same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b)), (start, count)
        assert not np.isnan(b).any()
        assert (fresh_state is None and kept_state is None) or _same_bits(fresh_state, kept_state)


@pytest.mark.parametrize("runs", [1, 3])
def test_graph_block_does_not_alias_its_slab(runs):
    """An alternating block drawn into a kept slab stays as it was when the
    next block is drawn into the same slab."""
    gp = _kind_config("alternating-uniform", "fixed").model.graph
    rngs = _twin_rngs(runs)[0]
    slab = graph_slab(gp, runs, BLOCK)
    first, _ = graph_block(gp, 0, BLOCK, rngs, None, slab)
    kept = first.copy()
    graph_block(gp, BLOCK, BLOCK, rngs, None, slab)
    assert _same_bits(first, kept)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("regression_kind", REGRESSIONS)
def test_regression_block_into_a_reused_slab(regression_kind, runs):
    cfg = _kind_config("fixed", regression_kind)
    rp = cfg.model.regression
    x0 = np.asarray(cfg.x0, dtype=float)
    fresh, kept = _twin_rngs(runs)
    slab = _nan_like(regression_slab(rp, runs, BLOCK))
    noise = np.random.default_rng(9).standard_normal((ROWS, rp.total_rows, runs))
    for start, count in _blocks():
        block = noise[start : start + count].transpose(1, 0, 2)
        drawn = regression_block(rp, x0, count, fresh, block)
        into_slab = regression_block(rp, x0, count, kept, block, None, slab)
        for a, b in zip(drawn[:3], into_slab[:3]):
            assert _same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b)), (start, count)
            assert not np.isnan(b).any()


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("law", [MeasurementNoise("gaussian", 0.7), MeasurementNoise("zero", 0.7),
                                 ChannelNoise("gaussian", 1.3), ChannelNoise("zero")],
                         ids=["gaussian", "zero", "channel-gaussian", "channel-zero"])
def test_noise_fill_into_a_reused_slab_equals_sample(law, runs):
    """``sample`` on a fresh array and ``fill`` into the rows of a kept
    NaN slab draw the same values from the same seed, block after block."""
    fresh, kept = _twin_rngs(runs)
    shape = (3, 2)
    slab = np.full((runs, BLOCK, *shape), np.nan)
    for start, count in _blocks():
        for r in range(runs):
            drawn = law.sample(fresh[r], (count, *shape))
            into_slab = law.fill(kept[r], slab[r, :count])
            assert np.shares_memory(into_slab, slab)
            assert _same_bits(drawn, np.ascontiguousarray(into_slab)), (start, r)
    one = np.random.default_rng(5)
    assert _same_bits(law.sample(one, 7), law.fill(np.random.default_rng(5), np.empty(7)))
    if law.kind == "zero":  # nothing drawn: the generator is untouched
        assert one.random() == np.random.default_rng(5).random()


_EMPTY = np.empty


def _poisoned_empty(shape, dtype=float, *args, **kwargs):
    """``np.empty`` that returns NaN for floats and the largest value for
    integers, so that a read before a write shows."""
    out = _EMPTY(shape, dtype, *args, **kwargs)
    out.fill(np.nan if out.dtype.kind in "fc" else np.iinfo(out.dtype).max)
    return out


@pytest.mark.parametrize("runs", [[4], [4, 0, 7]], ids=["R=1", "R=3"])
@pytest.mark.parametrize("noise", ["gaussian", "zero"])
@pytest.mark.parametrize("regression_kind", REGRESSIONS)
@pytest.mark.parametrize("graph_kind", GRAPHS)
def test_simulate_with_reused_nan_slabs_equals_one_fresh_chunk(monkeypatch, graph_kind,
                                                               regression_kind, noise, runs):
    """The kernel with every ``np.empty`` array (the draw slabs among them)
    filled with NaN, in chunks of four whose last one is short, equals
    one chunk over the whole horizon, whose slabs are drawn once."""
    cfg = dataclasses.replace(_kind_config(graph_kind, regression_kind), horizon=ROWS - 1)
    if noise == "zero":
        cfg = dataclasses.replace(cfg, noise=dataclasses.replace(
            cfg.noise, measurement_kind="zero", channel_kind="zero"))
    _pin_chunk(monkeypatch, 1000)
    stats, final, reports = _kernel_outputs(cfg, runs)
    _pin_chunk(monkeypatch, BLOCK)
    monkeypatch.setattr(np, "empty", _poisoned_empty)
    other, other_final, other_reports = _kernel_outputs(cfg, runs)
    monkeypatch.undo()
    for name, value in stats.items():
        assert _same_bits(other[name], value), name
        assert not np.isnan(value).any(), name
    assert _same_bits(other_final, final)
    assert other_reports == reports
