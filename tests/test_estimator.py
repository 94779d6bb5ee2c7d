"""Estimator recursion: gains, single steps, trajectories, the
node-form/stacked-form equivalence and the batched kernel."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netlms.config import (
    ExperimentConfig,
    GainConfig,
    GraphConfig,
    NoiseConfig,
    RegressionConfig,
    get_preset,
    with_overrides,
)
from netlms import estimator
from netlms.errors import InvalidInputError
from netlms.estimator import (
    GainSchedule,
    compact_step,
    node_step,
    run_trajectories,
    run_trajectory,
    simulate,
    source_streams,
    substream,
    validate_gains,
)
from netlms.linalg import ordered_sum, sym_eigmax
from netlms.graphs import graph_block, iid_uniform_graph
from netlms.noise import (
    BoundTally,
    MeasurementNoise,
    NoiseIntensity,
    norm_bound_sides,
    received_messages,
)
from netlms.regression import entrywise_uniform_regression, regression_block


def _draw_step(graph, regression, x0, noise, step, rngs, graph_state=None, ar_history=None):
    """One run's draws at ``step`` as blocks of one step, from the
    generators ``(graph, regression, measurement)`` in ``rngs``: the
    adjacency, each node's H_i and y_i, and the graph state and ar history
    to thread into the next step."""
    graph_rng, regression_rng, noise_rng = rngs
    adj, graph_state = graph_block(graph, step, 1, [graph_rng], graph_state)
    draws = noise.sample(noise_rng, (1, regression.total_rows)).T[..., None]
    hist = None if ar_history is None else ar_history[..., None]
    h, _, y, hist = regression_block(regression, x0, 1, [regression_rng], draws, hist)
    split = regression.offsets[1:-1]
    return (adj[:, :, 0, 0], np.split(h[:, :, 0, 0], split), np.split(y[:, 0, 0], split),
            graph_state, None if hist is None else hist[..., 0])


def _schedule(a_exp=0.6, b_exp=0.6, lam_coef=1.0, lam_exp=2.0, a_coef=1.0, b_coef=1.0):
    return GainSchedule(a_coef=a_coef, a_exp=a_exp, b_coef=b_coef, b_exp=b_exp,
                        lam_coef=lam_coef, lam_exp=lam_exp)


def test_gain_schedule_values():
    s = _schedule()
    a, b, lam = s.at(0)
    assert (a, b, lam) == (1.0, 1.0, 1.0)
    a, b, lam = s.at(3)
    assert a == pytest.approx(4.0 ** -0.6)
    assert lam == pytest.approx(1.0 / 16.0)


def test_validate_gains_c1():
    assert validate_gains(_schedule(), "C1").passed
    # slow square-summability fails at exponent 0.5
    rep = validate_gains(_schedule(a_exp=0.5, b_exp=0.5), "C1")
    assert not rep.passed and "square-summable-gains" in rep.failing()
    # shrinkage must be summable
    rep = validate_gains(_schedule(lam_exp=1.0), "C1")
    assert not rep.passed and "summable-shrinkage" in rep.failing()
    # divergence requires exponents at most 1
    rep = validate_gains(_schedule(a_exp=1.1, b_exp=1.1, lam_exp=3.0), "C1")
    assert "persistent-stepsizes" in rep.failing()
    # zero lambda is fine under C1
    assert validate_gains(_schedule(lam_coef=0.0, lam_exp=0.0), "C1").passed


def test_validate_gains_c2():
    assert validate_gains(_schedule(), "C2").passed
    # a^2 decays at exponent 0.4 but min(a, b) at 0.9: not dominated
    rep = validate_gains(_schedule(a_exp=0.2, b_exp=0.9, lam_exp=1.0), "C2")
    assert not rep.passed and "squared-gains-dominated" in rep.failing()
    rep = validate_gains(_schedule(a_exp=0.0, b_exp=0.6), "C2")
    assert "vanishing-gains" in rep.failing()
    with pytest.raises(InvalidInputError):
        validate_gains(_schedule(), "C3")


def _tiny_setup(seed=99):
    rng = np.random.default_rng(seed)
    gp = iid_uniform_graph(3, (0.0, 1.0))
    base = [np.array([[0.5, 0.0]]), np.array([[0.0, 0.5]]), np.array([[0.5, 0.5]])]
    coef = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])]
    rp = entrywise_uniform_regression(base, coef)
    x0 = np.array([2.0, -1.0])
    x = rng.normal(size=(3, 2))
    return rng, gp, rp, x0, x


def test_node_and_compact_steps_agree():
    rng, gp, rp, x0, x = _tiny_setup()
    intensity = NoiseIntensity(0.1, 0.1)
    meas = MeasurementNoise(kind="gaussian", std=1.0)
    x_node, x_compact = x.copy(), x.copy()
    for k in range(5):
        adj, h, y, _, _ = _draw_step(gp, rp, x0, meas, k, (rng, rng, rng))
        xi = rng.standard_normal((3, 3, 2))
        gains = _schedule().at(k)
        msgs = received_messages(x_node, intensity, xi)
        x_node = node_step(x_node, adj, h, y, msgs, gains)
        x_compact = compact_step(x_compact, adj, h, y, xi, gains, intensity)
        assert np.abs(x_node - x_compact).max() < 1e-12


UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_node_and_compact_step_agree_on_random_inputs(data):
    """Any N, n and row counts, links that are zero or negative,
    intensities and gains: the two forms agree to 1e-12."""
    n_nodes, dim = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    node_dims = data.draw(st.lists(st.integers(1, 3), min_size=n_nodes, max_size=n_nodes))
    adj = data.draw(hnp.arrays(float, (n_nodes, n_nodes), elements=st.one_of(st.just(0.0), UNIT)))
    np.fill_diagonal(adj, 0.0)
    h = [data.draw(hnp.arrays(float, (rows, dim), elements=UNIT)) for rows in node_dims]
    y = [data.draw(hnp.arrays(float, rows, elements=UNIT)) for rows in node_dims]
    x = data.draw(hnp.arrays(float, (n_nodes, dim), elements=UNIT))
    xi = data.draw(hnp.arrays(float, (n_nodes, n_nodes, dim), elements=UNIT))
    intensity = NoiseIntensity(data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)))
    gains = tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(3))
    msgs = received_messages(x, intensity, xi)
    node = node_step(x, adj, h, y, msgs, gains)
    compact = compact_step(x, adj, h, y, xi, gains, intensity)
    assert np.abs(node - compact).max() <= 1e-12


def test_regularization_pulls_toward_origin():
    """With zero gains, one step is exactly the shrinkage map (1 - lam) x."""
    rng, gp, rp, x0, x = _tiny_setup()
    zero = MeasurementNoise(kind="zero", std=0.0)
    adj, h, y, _, _ = _draw_step(gp, rp, x0, zero, 0, (rng, rng, rng))
    msgs = received_messages(x, NoiseIntensity(0.0, 0.0), np.zeros((3, 3, 2)))
    out = node_step(x, adj, h, y, msgs, (0.0, 0.0, 0.25))
    assert np.allclose(out, 0.75 * x)


def test_single_node_stochastic_gradient_converges():
    """One isolated node with persistent excitation tracks the truth."""
    cfg = ExperimentConfig(
        name="single", seed=3, horizon=4000, runs=1, nodes=1, dim=1, node_dims=(1,),
        x0=(2.0,), init=((0.0,),),
        graph=GraphConfig(kind="fixed", adjacency=((0.0,),)),
        regression=RegressionConfig(kind="entrywise-uniform", base=(((0.5,),),),
                                    coef=(((1.0,),),)),
        gains=GainConfig(a_coef=1.0, a_exp=0.6, b_coef=0.0, b_exp=0.6,
                         lambda_coef=0.0, lambda_exp=0.0),
    )
    rec = run_trajectory(cfg, substream(cfg.seed, 0), check_bounds=False)
    assert rec.v[0] == 4.0
    assert rec.v[-1] < 0.05 * rec.v[0]


def test_benchmark_initial_error():
    cfg = with_overrides(get_preset("setting-i"), horizon=5, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 0))
    assert rec.v[0] == 626.0


def test_trajectory_deterministic_per_seed():
    cfg = with_overrides(get_preset("setting-ii"), horizon=300, runs=1)
    a = run_trajectory(cfg, substream(cfg.seed, 4))
    b = run_trajectory(cfg, substream(cfg.seed, 4))
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.x_final, b.x_final)
    c = run_trajectory(cfg, substream(cfg.seed, 5))
    assert not np.array_equal(a.v, c.v)


def test_check_bounds_does_not_change_the_run():
    cfg = with_overrides(get_preset("setting-i"), horizon=200, runs=1)
    with_checks = run_trajectory(cfg, substream(cfg.seed, 0), check_bounds=True)
    without = run_trajectory(cfg, substream(cfg.seed, 0), check_bounds=False)
    assert np.array_equal(with_checks.v, without.v)
    assert with_checks.bound_report is not None and without.bound_report is None
    assert with_checks.bound_report.holds


def test_first_transition_matches_manual_step():
    cfg = with_overrides(get_preset("setting-i"), horizon=1, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 2))
    # replay the first update from the run's per-source substreams
    *rngs, channel_rng = source_streams(substream(cfg.seed, 2))
    model = cfg.model
    adj, h, y, _, _ = _draw_step(model.graph, model.regression, model.x0, model.measurement, 0, rngs)
    xi = model.channel.sample(channel_rng, (3, 3, 3))
    msgs = received_messages(model.init, model.intensity, xi)
    nxt = node_step(model.init, adj, h, y, msgs, model.gains.at(0))
    manual_v = float(((nxt - model.x0) ** 2).sum())
    assert rec.v[1] == pytest.approx(manual_v, rel=1e-12)


def test_excess_losses_definition():
    cfg = with_overrides(get_preset("setting-i"), horizon=60, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 1))
    assert np.all(rec.excess_losses >= 0.0)
    # at step 0 every node's excess is 0.5 ||H (x_i - x0)||^2 over the
    # stacked rows; verify node 0 by replaying the run's substreams
    *rngs, _ = source_streams(substream(cfg.seed, 1))
    model = cfg.model
    _, h, _, _, _ = _draw_step(model.graph, model.regression, model.x0, model.measurement, 0, rngs)
    diff = model.init[0] - model.x0
    manual = 0.5 * float(np.sum((np.concatenate(h) @ diff) ** 2))
    assert rec.excess_losses[0, 0] == pytest.approx(manual, rel=1e-12)


def test_sym_eigmax_matches_lapack():
    rng = np.random.default_rng(6)
    for m in (1, 2, 3, 4):
        mats = rng.normal(size=(40, m, m))
        grams = mats @ mats.transpose(0, 2, 1)
        fast = sym_eigmax(grams.transpose(1, 2, 0))
        ref = np.linalg.eigvalsh(grams)[..., -1]
        assert np.abs(fast - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())


def test_substream_independence():
    a = substream(42, 0).standard_normal(8)
    b = substream(42, 0).standard_normal(8)
    c = substream(42, 1).standard_normal(8)
    d = substream(43, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_horizon_zero_records_initial_state_only():
    cfg = with_overrides(get_preset("setting-i"), horizon=0, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 0))
    assert rec.v.shape == (1,)
    assert np.array_equal(rec.x_final, np.asarray(cfg.init, dtype=float))
    with pytest.raises(InvalidInputError):
        simulate(cfg.model, [0], -1, lambda stats: None)


# ---------------------------------------------------------------------------
# the batched kernel: determinism and the per-step oracles

RECORD_FIELDS = ("v", "err_norms", "est_norms", "excess_losses", "x_final")


def _assert_same_reports(a, b):
    """Bound reports equal field by field, where a NaN margin (a diverging
    run's) equals a NaN: dataclass ``==`` is False for those."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for field in dataclasses.fields(x):
            u, w = getattr(x, field.name), getattr(y, field.name)
            assert u == w or (u != u and w != w), field.name


def _assert_same_record(a, b):
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    _assert_same_reports([a.bound_report], [b.bound_report])


def _pin_chunk(monkeypatch, chunk, sub=None):
    """Make the kernel draw and fold in blocks of ``chunk`` steps and, given
    ``sub``, copy the operator into its scratch ``sub`` steps at a time."""
    monkeypatch.setattr(estimator, "_default_chunk", lambda *shape: chunk)
    if sub is not None:
        monkeypatch.setattr(estimator, "_scratch_steps", lambda *shape: sub)


@pytest.fixture
def two_step_chunks(monkeypatch):
    """Chunks of two steps, so short horizons cross chunk boundaries."""
    _pin_chunk(monkeypatch, 2)


def _kernel_outputs(cfg, runs):
    """Every chunk statistic, the final states and the bound reports of a
    kernel batch, with rows concatenated over chunks."""
    parts = []
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in runs]
    final, reports = simulate(cfg.model, seeds, cfg.horizon,
                              parts.append)
    fields = [f.name for f in dataclasses.fields(parts[0]) if f.name != "start"]
    stats = {name: np.concatenate([getattr(p, name) for p in parts], axis=-2) for name in fields}
    return stats, final, reports


@pytest.mark.parametrize("preset, runs, horizon", [("regret", 20, 300), ("setting-i", 1, 3000)],
                         ids=["regret-20-runs", "setting-i-1-run"])
def test_simulate_holds_one_chunk_at_a_time(preset, runs, horizon):
    """No array outlives its chunk: the traced peak of a 20-run regret
    batch and of one long setting-i run, with bound checks, stays within
    1.3 times the chunk budget that ``_default_chunk`` sizes chunks by,
    plus a fixed 128 KB for the generators and the per-run tallies.  The
    budget holds the chunk's arrays and the step loop's operator
    scratch."""
    cfg = with_overrides(get_preset(preset), horizon=horizon, runs=runs)
    rows = sum(cfg.node_dims)
    chunk = estimator._default_chunk(cfg.runs, cfg.nodes, cfg.dim, rows)
    scratch = estimator._scratch_steps(cfg.runs, cfg.nodes, cfg.dim) * estimator._op_floats(cfg.nodes, cfg.dim)
    budget = cfg.runs * (chunk * estimator._step_floats(cfg.nodes, cfg.dim, rows) + scratch) * 8
    model = cfg.model
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(cfg.runs)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulate(model, seeds, cfg.horizon, lambda stats: None)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert cfg.horizon > 3 * chunk
    assert peak <= 1.3 * budget + (128 << 10), (peak, budget)


def _diverging(horizon):
    """setting-i with gains of 50: its runs turn non-finite within a few
    hundred steps."""
    cfg = with_overrides(get_preset("setting-i"), horizon=horizon, runs=1)
    return dataclasses.replace(cfg, gains=dataclasses.replace(cfg.gains, a_coef=50.0, b_coef=50.0))


def test_chunk_size_does_not_change_a_run(monkeypatch):
    """Pinned chunk and operator sub-block lengths, including sub-blocks
    that do not divide the chunk, for one to three runs with and without
    link noise, and for two runs that diverge: every output equals the
    unpinned batch bit for bit, NaN for NaN."""
    base = with_overrides(get_preset("setting-i"), horizon=150, runs=1)
    quiet = dataclasses.replace(base, noise=dataclasses.replace(base.noise, sigma_f=0.0))
    wild = _diverging(400)
    for cfg, runs in ((base, [3, 0]), (base, [3]), (base, [3, 0, 5]), (quiet, [3]), (quiet, [3, 0, 5]),
                      (wild, [3, 0])):
        stats, final, reports = _kernel_outputs(cfg, runs)
        if cfg is wild:  # both runs diverge inside the horizon
            assert all(r.first_nonfinite_step is not None for r in reports), reports
        for chunk, sub in ((1, None), (7, None), (1000, None), (7, 3), (50, 4), (1000, 7)):
            _pin_chunk(monkeypatch, chunk, sub)
            other, other_final, other_reports = _kernel_outputs(cfg, runs)
            for name, value in stats.items():
                assert np.array_equal(other[name], value, equal_nan=True), (runs, chunk, sub, name)
            assert np.array_equal(other_final, final, equal_nan=True)
            _assert_same_reports(other_reports, reports)
            monkeypatch.undo()
        alone = run_trajectory(cfg, substream(cfg.seed, 3))
        _assert_same_record(alone, run_trajectories(cfg, runs)[0])


def test_batch_membership_does_not_change_a_run():
    cfg = with_overrides(get_preset("regret"), horizon=120, runs=20)
    batch20 = run_trajectories(cfg, range(20))
    batch7 = run_trajectories(cfg, range(7))
    for r in (0, 4, 6):
        alone = run_trajectory(cfg, substream(cfg.seed, r))
        _assert_same_record(batch20[r], alone)
        _assert_same_record(batch7[r], alone)
    # a batch may start anywhere and hold any runs
    _assert_same_record(run_trajectories(cfg, [19, 5])[0], batch20[19])


def test_seed_forms_agree():
    cfg = with_overrides(get_preset("setting-ii"), horizon=40, runs=1)
    by_generator = run_trajectory(cfg, substream(cfg.seed, 1))
    by_sequence = run_trajectory(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    for name in ("v", "excess_losses", "x_final"):
        assert np.array_equal(getattr(by_generator, name), getattr(by_sequence, name))
    by_bit_generator = run_trajectory(
        cfg, np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(1,))))
    for name in ("v", "excess_losses", "x_final"):
        assert np.array_equal(getattr(by_bit_generator, name), getattr(by_sequence, name))
    assert np.array_equal(run_trajectory(cfg, 5).v, run_trajectory(cfg, np.random.SeedSequence(5)).v)


def _kind_config(graph_kind, regression_kind):
    """Three nodes, two dimensions, one config per process kind pair."""
    ar = regression_kind == "ar-driven"
    node_dims = (1, 1, 1) if ar else (2, 1, 2)
    pick = {
        2: ((1.0, 0.0), (0.0, 1.0)),
        1: ((1.0, 1.0),),
    }
    graph = {
        "fixed": GraphConfig(kind="fixed",
                             adjacency=((0.0, 0.5, 0.2), (0.3, 0.0, 0.4), (0.6, 0.1, 0.0))),
        "alternating-uniform": GraphConfig(kind="alternating-uniform", even_low=0.0, even_high=1.0,
                                           odd_low=-0.5, odd_high=0.5),
        "iid-uniform": GraphConfig(kind="iid-uniform", low=0.0, high=1.0),
        "markov-switching": GraphConfig(
            kind="markov-switching",
            states=(((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                    ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))),
            transition=((0.6, 0.4), (0.3, 0.7)), initial_state=1),
        # a chain that also visits a state without links: silent steps
        "markov-silent": GraphConfig(
            kind="markov-switching",
            states=(((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)), ((0.0,) * 3,) * 3),
            transition=((0.5, 0.5), (0.5, 0.5)), initial_state=1),
    }[graph_kind]
    regression = {
        "fixed": RegressionConfig(kind="fixed", h_nodes=tuple(pick[d] for d in node_dims)),
        "entrywise-uniform": RegressionConfig(
            kind="entrywise-uniform", base=tuple(pick[d] for d in node_dims),
            coef=tuple(pick[d] for d in node_dims), low=-0.5, high=0.5),
        "bernoulli-failure": RegressionConfig(
            kind="bernoulli-failure", coef=tuple(pick[d] for d in node_dims), active_prob=0.6),
        "ar-driven": RegressionConfig(kind="ar-driven",
                                      ar_init=((0.5, -0.2), (0.1, 0.3), (-0.4, 0.2))),
    }[regression_kind]
    return ExperimentConfig(
        name="kinds", seed=11, horizon=5, runs=2, nodes=3, dim=2, node_dims=node_dims,
        x0=(0.5, -0.3) if ar else (2.0, -1.0), init=((1.0, 0.0), (0.0, 1.0), (-1.0, 2.0)),
        graph=graph, regression=regression,
        noise=NoiseConfig(measurement_std=0.5, channel_std=0.7, sigma_f=0.2, b_f=0.1),
        gains=GainConfig(a_coef=0.5, a_exp=0.6, b_coef=0.4, b_exp=0.6,
                         lambda_coef=0.3, lambda_exp=2.0),
    )


def _replay(model, seed, horizon):
    """Per-step replay of one run from its source substreams through
    ``node_step`` and ``compact_step``; returns both state sequences and
    the adjacency of every row ``0..horizon``.  Row ``horizon`` has no
    update, but its graph is drawn, as the kernel draws it for the bound
    checks."""
    graph_rng, regression_rng, noise_rng, channel_rng = source_streams(seed)
    n_nodes, dim = model.init.shape
    node_x = [model.init.copy()]
    compact_x = [model.init.copy()]
    adjs = []
    graph_state, hist = None, model.ar_init
    for k in range(horizon + 1):
        adj, h, y, graph_state, hist = _draw_step(
            model.graph, model.regression, model.x0, model.measurement, k,
            (graph_rng, regression_rng, noise_rng), graph_state, hist)
        adjs.append(adj)
        if k == horizon:
            break
        xi = model.channel.sample(channel_rng, (n_nodes, n_nodes, dim))
        gains = model.gains.at(k)
        msgs = received_messages(node_x[-1], model.intensity, xi)
        node_x.append(node_step(node_x[-1], adj, h, y, msgs, gains))
        compact_x.append(compact_step(compact_x[-1], adj, h, y, xi, gains, model.intensity))
    return node_x, compact_x, adjs


def _kernel_states(model, seeds, horizon):
    """V per row, shape (rows, R), and the final states of a kernel batch."""
    v = []
    final, _ = simulate(model, seeds, horizon, lambda stats: v.append(stats.v))
    return np.concatenate(v), final


@pytest.mark.parametrize("regression_kind",
                         ["fixed", "entrywise-uniform", "bernoulli-failure", "ar-driven"])
@pytest.mark.parametrize("graph_kind", ["fixed", "alternating-uniform", "iid-uniform",
                                        "markov-switching", "markov-silent"])
def test_kernel_step_matches_node_and_compact_steps(graph_kind, regression_kind, two_step_chunks):
    _assert_kernel_matches_oracles(_kind_config(graph_kind, regression_kind))


def _assert_kernel_matches_oracles(cfg):
    """Two runs of the kernel against their per-step replays through
    ``node_step`` and ``compact_step``, to 1e-12."""
    model = cfg.model
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(2)]
    v, final = _kernel_states(model, seeds, cfg.horizon)
    for r, seed in enumerate(seeds):
        node_x, compact_x, _ = _replay(model, seed, cfg.horizon)
        for k, (xa, xb) in enumerate(zip(node_x, compact_x)):
            assert np.abs(xa - xb).max() <= 1e-12
            assert abs(v[k, r] - float(((xa - model.x0) ** 2).sum())) <= 1e-12 * max(1.0, v[k, r])
        assert np.abs(final[r] - node_x[-1]).max() <= 1e-12


@pytest.mark.parametrize("noise", [{"sigma_f": 0.0}, {"channel_kind": "zero"}],
                         ids=["sigma_f=0", "zero-channel"])
@pytest.mark.parametrize("graph_kind, regression_kind",
                         [("iid-uniform", "entrywise-uniform"), ("markov-switching", "ar-driven")])
def test_kernel_without_link_noise_matches_node_and_compact_steps(
        graph_kind, regression_kind, noise, two_step_chunks):
    """Without state-dependent link noise the fused operator has no
    distance slots; the bias part of the channel noise stays."""
    cfg = _kind_config(graph_kind, regression_kind)
    _assert_kernel_matches_oracles(
        dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, **noise)))


def _replayed_reports(model, seeds, horizon):
    """Bound reports of runs replayed step by step: ``norm_bound_sides`` on
    the link distances of the ``compact_step`` states and the drawn
    adjacency of every row ``0..horizon``, folded by one ``BoundTally``."""
    sides = []
    for seed in seeds:
        _, compact_x, adjs = _replay(model, seed, horizon)
        x = np.stack(compact_x)
        err = x - model.x0
        v = ordered_sum(ordered_sum(err * err, -1), -1)
        dist = np.linalg.norm(x[:, None, :, :] - x[:, :, None, :], axis=-1).transpose(1, 2, 0)
        w_lhs, w_rhs, m_lhs, m_rhs = norm_bound_sides(np.stack(adjs, axis=-1), dist, model.intensity, v)
        sides.append((w_rhs - w_lhs, m_rhs - m_lhs, v))
    tally = BoundTally(len(seeds))
    tally.add(*(np.stack(column, axis=-1) for column in zip(*sides)))
    return tally.reports()


@pytest.mark.parametrize("chunk", [5, 7, 1000], ids=["last-chunk-1-row", "last-chunk-7-rows", "one-chunk"])
@pytest.mark.parametrize("sigma_f", [0.1, 0.0], ids=["link-noise", "sigma_f=0"])
@pytest.mark.parametrize("runs", [1, 3])
def test_bound_reports_match_a_replay(runs, sigma_f, chunk, monkeypatch):
    """The kernel's bound reports against the closed forms on a per-step
    replay (21 rows, so a chunk of 5 leaves the last row, which has no
    update, alone in its chunk): equal counts and first non-finite step,
    margins to 1e-12 relative, since the replay matches the kernel to
    1e-12, not bit for bit."""
    cfg = with_overrides(get_preset("setting-i"), horizon=20, runs=runs)
    cfg = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, sigma_f=sigma_f))
    model = cfg.model
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(runs)]
    _pin_chunk(monkeypatch, chunk)
    _, got = simulate(model, seeds, cfg.horizon, lambda stats: None)
    for report, want in zip(got, _replayed_reports(model, seeds, cfg.horizon), strict=True):
        assert report.steps_checked == want.steps_checked == cfg.horizon + 1
        assert report.w_violations == want.w_violations
        assert report.m_violations == want.m_violations
        assert report.first_nonfinite_step == want.first_nonfinite_step
        assert report.min_w_margin == pytest.approx(want.min_w_margin, rel=1e-12, abs=0.0)
        assert report.min_m_margin == pytest.approx(want.min_m_margin, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_invariants_on_random_shapes(data):
    """Any N, n, row counts, batch and chunk size, with and without link
    noise: a run is bit-identical alone, in any batch and at any chunk
    size, and within 1e-12 of its ``compact_step`` replay."""
    n_nodes, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    node_dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n_nodes, max_size=n_nodes)))
    runs = data.draw(st.integers(1, 3))
    chunks = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    sigma_f, channel_kind = data.draw(
        st.sampled_from([(0.3, "gaussian"), (0.0, "gaussian"), (0.3, "zero")]))

    def matrices():
        return tuple(tuple(tuple(data.draw(UNIT) for _ in range(dim)) for _ in range(rows))
                     for rows in node_dims)

    cfg = ExperimentConfig(
        name="shapes", seed=data.draw(st.integers(0, 2**32)), horizon=data.draw(st.integers(0, 7)),
        runs=runs, nodes=n_nodes, dim=dim, node_dims=node_dims,
        x0=tuple(data.draw(UNIT) for _ in range(dim)),
        init=tuple(tuple(data.draw(UNIT) for _ in range(dim)) for _ in range(n_nodes)),
        graph=GraphConfig(kind="iid-uniform", low=-0.5, high=1.0),
        regression=RegressionConfig(kind="entrywise-uniform", base=matrices(), coef=matrices(),
                                    low=-0.5, high=0.5),
        noise=NoiseConfig(measurement_std=0.5, channel_kind=channel_kind, channel_std=0.7,
                          sigma_f=sigma_f, b_f=0.2),
        gains=GainConfig(a_coef=0.5, a_exp=0.6, b_coef=0.4, b_exp=0.6,
                         lambda_coef=0.3, lambda_exp=2.0),
    )
    model = cfg.model
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(runs)]
    with pytest.MonkeyPatch.context() as mp:
        _pin_chunk(mp, chunks[0])
        stats, final, reports = _kernel_outputs(cfg, range(runs))
        _pin_chunk(mp, chunks[1])
        backwards = _kernel_outputs(cfg, range(runs)[::-1])
        for r in range(runs):
            alone = _kernel_outputs(cfg, [r])
            for other, col in ((alone, 0), (backwards, runs - 1 - r)):
                for name, value in stats.items():
                    assert np.array_equal(other[0][name][..., col], value[..., r]), name
                assert np.array_equal(other[1][col], final[r])
                assert other[2][col] == reports[r]
    for r, seed in enumerate(seeds):
        _, compact_x, _ = _replay(model, seed, cfg.horizon)
        scale = max(1.0, np.abs(compact_x[-1]).max())
        assert np.abs(final[r] - compact_x[-1]).max() <= 1e-12 * scale
        v = [float(((x - model.x0) ** 2).sum()) for x in compact_x]
        assert np.allclose(stats["v"][:, r], v, rtol=1e-12, atol=1e-12)


def test_nonfinite_state_fails_the_bound_checks():
    """Gains of 50 blow setting-i up within a few hundred steps: every
    non-finite margin is a violation and the first non-finite step is
    reported, never a clean record."""
    cfg = _diverging(1000)
    rec = run_trajectory(cfg, substream(cfg.seed, 0))
    rep = rec.bound_report
    first = rep.first_nonfinite_step
    assert first is not None and 0 < first <= cfg.horizon
    assert np.isfinite(rec.v[:first]).all() and not np.isfinite(rec.v[first])
    assert rep.m_violations >= cfg.horizon + 1 - first
    assert not rep.holds and not np.isfinite(rep.min_m_margin)
