"""Estimator recursion: gains, single steps, trajectories, the
node-form/stacked-form equivalence and the batched kernel."""

import dataclasses

import numpy as np
import pytest

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
    EstimatorState,
    GainSchedule,
    SimulationModel,
    compact_step,
    node_step,
    run_trajectories,
    run_trajectory,
    simulate,
    source_streams,
    substream,
    validate_gains,
)
from netlms.linalg import sym_eigmax
from netlms.graphs import custom_graph, iid_uniform_graph, sample_graph
from netlms.noise import ChannelNoise, MeasurementNoise, NoiseIntensity, received_messages
from netlms.regression import entrywise_uniform_regression, sample_regression


ZERO_NOISE = MeasurementNoise(kind="zero", std=0.0)


def _replay_regression(process, x0, step, noise, regression_rng, noise_rng, ar_history=None):
    """One step's observation model drawn the way the simulation kernel
    draws it: matrices from the regressor substream, measurement noise
    from its own substream."""
    reg = sample_regression(process, x0, step, ZERO_NOISE, regression_rng, ar_history)
    reg.y = reg.y_clean + noise.sample(noise_rng, reg.y.size)
    return reg


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
    state_a = EstimatorState(step=0, estimates=x.copy(), x0=x0)
    state_b = EstimatorState(step=0, estimates=x.copy(), x0=x0)
    for k in range(5):
        gs = sample_graph(gp, k, rng)
        reg = sample_regression(rp, x0, k, meas, rng)
        xi = rng.standard_normal((3, 3, 2))
        gains = _schedule().at(k)
        msgs = received_messages(state_a.estimates, intensity, xi)
        state_a = node_step(state_a, gs, reg, msgs, gains)
        state_b = compact_step(state_b, gs, reg, xi, gains, intensity)
        assert np.abs(state_a.estimates - state_b.estimates).max() < 1e-12
    assert state_a.step == 5


def test_regularization_pulls_toward_origin():
    """With zero gains, one step is exactly the shrinkage map (1 - lam) x."""
    rng, gp, rp, x0, x = _tiny_setup()
    gs = sample_graph(gp, 0, rng)
    reg = sample_regression(rp, x0, 0, MeasurementNoise(kind="zero", std=0.0), rng)
    msgs = received_messages(x, NoiseIntensity(0.0, 0.0), np.zeros((3, 3, 2)))
    out = node_step(EstimatorState(0, x.copy(), x0), gs, reg, msgs, (0.0, 0.0, 0.25))
    assert np.allclose(out.estimates, 0.75 * x)


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
    ).validate()
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


def test_gains_used_match_schedule():
    cfg = with_overrides(get_preset("setting-iv"), horizon=50, runs=1)
    rec = run_trajectory(cfg, substream(0, 0))
    sched = GainSchedule.from_config(cfg)
    for k in (0, 1, 7, 50):
        a, b, lam = sched.at(k)
        # batched power evaluation may differ from scalar pow by an ulp
        assert rec.gains_used[k] == pytest.approx((a, b, lam), rel=1e-14)


def test_first_transition_matches_manual_step():
    cfg = with_overrides(get_preset("setting-i"), horizon=1, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 2))
    # replay the first update from the run's per-source substreams
    graph_rng, regression_rng, noise_rng, channel_rng = source_streams(substream(cfg.seed, 2))
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    meas = cfg.noise.measurement()
    chan = cfg.noise.channel()
    intensity = cfg.noise.intensity()
    x0 = np.asarray(cfg.x0)
    gs = sample_graph(gp, 0, graph_rng)
    reg = _replay_regression(rp, x0, 0, meas, regression_rng, noise_rng)
    xi = chan.sample(channel_rng, (3, 3, 3))
    x = np.asarray(cfg.init, dtype=float)
    msgs = received_messages(x, intensity, xi)
    nxt = node_step(EstimatorState(0, x, x0), gs, reg, msgs,
                    GainSchedule.from_config(cfg).at(0))
    manual_v = float(((nxt.estimates - x0) ** 2).sum())
    assert rec.v[1] == pytest.approx(manual_v, rel=1e-12)


def test_excess_losses_definition():
    cfg = with_overrides(get_preset("setting-i"), horizon=60, runs=1)
    rec = run_trajectory(cfg, substream(cfg.seed, 1))
    assert np.all(rec.excess_losses >= 0.0)
    assert np.all(np.diff(rec.cum_losses, axis=0) >= 0.0)
    # at step 0 every node's excess is 0.5 ||H (x_i - x0)||^2 over the
    # stacked rows; verify node 0 by replaying the regressor substream
    _, regression_rng, noise_rng, _ = source_streams(substream(cfg.seed, 1))
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    reg = _replay_regression(rp, np.asarray(cfg.x0), 0, cfg.noise.measurement(),
                             regression_rng, noise_rng)
    diff = np.asarray(cfg.init[0], dtype=float) - np.asarray(cfg.x0)
    manual = 0.5 * float(np.sum((reg.h_stacked @ diff) ** 2))
    assert rec.excess_losses[0, 0] == pytest.approx(manual, rel=1e-12)


def test_sym_eigmax_matches_lapack():
    rng = np.random.default_rng(6)
    for m in (1, 2, 3, 4):
        mats = rng.normal(size=(40, m, m))
        grams = mats @ mats.transpose(0, 2, 1)
        fast = sym_eigmax(grams)
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
        run_trajectory(cfg, substream(cfg.seed, 0), horizon=-1)


# ---------------------------------------------------------------------------
# the batched kernel: determinism and the per-step oracles

RECORD_FIELDS = ("steps", "v", "err_norms", "est_norms", "gains_used",
                 "cum_losses", "excess_losses", "x_final", "x0")


def _assert_same_record(a, b):
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.bound_report == b.bound_report


def _pin_chunk(monkeypatch, chunk):
    """Make the kernel draw and fold in blocks of ``chunk`` steps."""
    monkeypatch.setattr(estimator, "_default_chunk", lambda *shape: chunk)


@pytest.fixture
def two_step_chunks(monkeypatch):
    """Chunks of two steps, so short horizons cross chunk boundaries."""
    _pin_chunk(monkeypatch, 2)


def _kernel_outputs(cfg, runs):
    """Every chunk statistic, the final states and the bound reports of a
    kernel batch, with rows concatenated over chunks."""
    parts = []
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in runs]
    final, reports = simulate(SimulationModel.from_config(cfg), seeds, cfg.horizon,
                              parts.append)
    fields = [f.name for f in dataclasses.fields(parts[0]) if f.name != "start"]
    stats = {name: np.concatenate([getattr(p, name) for p in parts]) for name in fields}
    return stats, final, reports


def test_chunk_size_does_not_change_a_run(monkeypatch):
    cfg = with_overrides(get_preset("setting-i"), horizon=150, runs=1)
    stats, final, reports = _kernel_outputs(cfg, [3, 0])
    for chunk in (1, 7, 1000):
        _pin_chunk(monkeypatch, chunk)
        other, other_final, other_reports = _kernel_outputs(cfg, [3, 0])
        for name, value in stats.items():
            assert np.array_equal(other[name], value), (chunk, name)
        assert np.array_equal(other_final, final) and other_reports == reports
    monkeypatch.undo()
    alone = run_trajectory(cfg, substream(cfg.seed, 3))
    _assert_same_record(alone, run_trajectories(cfg, [3, 0])[0])


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
    assert run_trajectory(cfg, 5).seed == 5 and by_generator.seed == -1


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
    ).validate()


def _replay(model, seed, horizon):
    """Per-step replay of one run from its source substreams through
    ``node_step`` and ``compact_step``; returns both state sequences."""
    graph_rng, regression_rng, noise_rng, channel_rng = source_streams(seed)
    n_nodes, dim = model.init.shape
    node_x = [model.init.copy()]
    compact_x = [model.init.copy()]
    prev, hist = None, model.ar_init
    for k in range(horizon):
        gs = sample_graph(model.graph, k, graph_rng, prev)
        prev = gs.state
        reg = _replay_regression(model.regression, model.x0, k, model.measurement,
                                 regression_rng, noise_rng, hist)
        if hist is not None:
            hist = np.concatenate([reg.y[:, None], hist[:, :-1]], axis=1)
        xi = model.channel.sample(channel_rng, (n_nodes, n_nodes, dim))
        gains = model.gains.at(k)
        msgs = received_messages(node_x[-1], model.intensity, xi)
        node_x.append(node_step(EstimatorState(k, node_x[-1], model.x0), gs, reg, msgs,
                                gains).estimates)
        compact_x.append(compact_step(EstimatorState(k, compact_x[-1], model.x0), gs, reg, xi,
                                      gains, model.intensity).estimates)
    return node_x, compact_x


def _kernel_states(model, seeds, horizon):
    """V per row, shape (rows, R), and the final states of a kernel batch."""
    v = []
    final, _ = simulate(model, seeds, horizon, lambda stats: v.append(stats.v))
    return np.concatenate(v), final


@pytest.mark.parametrize("regression_kind",
                         ["fixed", "entrywise-uniform", "bernoulli-failure", "ar-driven"])
@pytest.mark.parametrize("graph_kind",
                         ["fixed", "alternating-uniform", "iid-uniform", "markov-switching"])
def test_kernel_step_matches_node_and_compact_steps(graph_kind, regression_kind, two_step_chunks):
    cfg = _kind_config(graph_kind, regression_kind)
    model = SimulationModel.from_config(cfg)
    seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(2)]
    v, final = _kernel_states(model, seeds, cfg.horizon)
    for r, seed in enumerate(seeds):
        node_x, compact_x = _replay(model, seed, cfg.horizon)
        for k, (xa, xb) in enumerate(zip(node_x, compact_x)):
            assert np.abs(xa - xb).max() <= 1e-12
            assert abs(v[k, r] - float(((xa - model.x0) ** 2).sum())) <= 1e-12 * max(1.0, v[k, r])
        assert np.abs(final[r] - node_x[-1]).max() <= 1e-12


def test_kernel_custom_graph_calls_its_sampler_per_step(two_step_chunks):
    calls = []

    def sampler(step, rng):
        calls.append(step)
        a = rng.uniform(0.0, 1.0, (3, 3)) * (step % 3 != 1)
        np.fill_diagonal(a, 0.0)
        return a

    cfg = _kind_config("fixed", "entrywise-uniform")
    model = dataclasses.replace(SimulationModel.from_config(cfg), graph=custom_graph(3, sampler))
    seed = np.random.SeedSequence(cfg.seed, spawn_key=(0,))
    v, final = _kernel_states(model, [seed], cfg.horizon)
    assert calls == list(range(cfg.horizon + 1))
    node_x, _ = _replay(model, seed, cfg.horizon)
    assert np.abs(final[0] - node_x[-1]).max() <= 1e-12


def test_nonfinite_state_fails_the_bound_checks():
    """Gains of 50 blow setting-i up within a few hundred steps: every
    non-finite margin is a violation and the first non-finite step is
    reported, never a clean record."""
    cfg = get_preset("setting-i")
    cfg = dataclasses.replace(
        cfg, horizon=1000, gains=dataclasses.replace(cfg.gains, a_coef=50.0, b_coef=50.0))
    rec = run_trajectory(cfg, substream(cfg.seed, 0))
    rep = rec.bound_report
    first = rep.first_nonfinite_step
    assert first is not None and 0 < first <= cfg.horizon
    assert np.isfinite(rec.v[:first]).all() and not np.isfinite(rec.v[first])
    assert rep.m_violations >= cfg.horizon + 1 - first
    assert not rep.holds and not np.isfinite(rep.min_m_margin)
