"""Regret estimators, the hindsight oracle, and the accumulated-error bound."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import netlms.regret
from netlms.config import (
    ExperimentConfig,
    GainConfig,
    GraphConfig,
    NoiseConfig,
    RegressionConfig,
    get_preset,
    with_overrides,
)
from netlms.errors import (
    InvalidInputError,
    UnobservableHorizonError,
    UnsupportedAnalyticError,
)
from netlms.estimator import run_trajectories, run_trajectory, substream
from netlms.excitation import lemma_lower_bound_check
from netlms.regression import ar_driven_regression, fixed_regression
from netlms.regret import (
    RegretBoundReport,
    RegretSeries,
    lemma_regret_bound_check,
    oracle_parameter,
    regret_series,
    simulate_regret,
)


@pytest.fixture(scope="module")
def bench_runs():
    cfg = with_overrides(get_preset("setting-i"), horizon=800, runs=5)
    return cfg, [run_trajectory(cfg, substream(cfg.seed, i), check_bounds=False)
                 for i in range(cfg.runs)]


def test_oracle_is_the_truth_under_zero_mean_noise():
    cfg = get_preset("setting-i")
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    x0 = np.asarray(cfg.x0, dtype=float)
    assert np.abs(oracle_parameter(rp, x0, horizon=12) - x0).max() < 1e-12


def test_oracle_identity_sensors():
    rp = fixed_regression([np.eye(2)] * 3)
    x0 = np.array([3.0, -1.0])
    assert np.array_equal(oracle_parameter(rp, x0, 0), x0)


def test_oracle_unobservable_direction():
    # every node sees only the first coordinate, at every step
    rp = fixed_regression([np.array([[1.0, 0.0]])] * 3)
    with pytest.raises(UnobservableHorizonError):
        oracle_parameter(rp, np.array([1.0, 2.0]), horizon=30)


def test_oracle_rejects_ar_processes():
    with pytest.raises(UnsupportedAnalyticError):
        oracle_parameter(ar_driven_regression(2, 2), np.zeros(2), 3)


def test_oracle_input_validation():
    rp = fixed_regression([np.eye(2)])
    with pytest.raises(InvalidInputError):
        oracle_parameter(rp, np.zeros(3), 1)
    with pytest.raises(InvalidInputError):
        oracle_parameter(rp, np.zeros(2), -1)


def test_regret_is_mean_cumulative_excess(bench_runs):
    cfg, runs = bench_runs
    manual = np.mean([r.excess_losses[:501, 1].sum() for r in runs])
    series = regret_series(runs, tau=cfg.gains.a_exp)
    assert series.regret[500, 1] == pytest.approx(manual, rel=1e-12)


def test_regret_series_consistency(bench_runs):
    cfg, runs = bench_runs
    series = regret_series(runs, tau=cfg.gains.a_exp)
    assert series.runs == len(runs)
    assert series.regret.shape == (801, cfg.nodes)
    # nondecreasing in the horizon (cumulative sums of nonnegative terms)
    assert np.all(np.diff(series.regret, axis=0) >= -1e-12)
    for node in range(cfg.nodes):
        manual = np.mean([r.excess_losses[:641, node].sum() for r in runs])
        assert series.regret[640, node] == pytest.approx(manual, rel=1e-12)
    # normalized maximum regret: the worst node's manual sum over t^(1-tau) ln t
    worst = max(np.mean([r.excess_losses[:801, i].sum() for r in runs])
                for i in range(cfg.nodes))
    norm = 800 ** (1.0 - cfg.gains.a_exp) * np.log(800)
    assert series.mar[800] == pytest.approx(worst / norm, rel=1e-12)
    assert np.isnan(series.mar[:2]).all() and np.isfinite(series.mar[2:]).all()
    assert np.all(series.regret_se >= 0.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_regret_summaries_reject_a_tau_that_is_not_finite(bench_runs, tau):
    """A non-finite tau would make every MAR entry NaN or infinite."""
    _, runs = bench_runs
    with pytest.raises(InvalidInputError, match="tau must be finite"):
        regret_series(runs, tau)


def test_record_validation(bench_runs):
    _, runs = bench_runs
    with pytest.raises(InvalidInputError, match="at least one run record"):
        regret_series([], tau=0.6)
    short = run_trajectory(with_overrides(get_preset("setting-i"), horizon=10),
                           substream(0, 0), check_bounds=False)
    with pytest.raises(InvalidInputError, match="disagree on horizon"):
        regret_series([runs[0], short], tau=0.6)


def test_accumulated_error_bound_on_benchmark(bench_runs):
    cfg, runs = bench_runs
    rep = lemma_regret_bound_check(runs, rho0=cfg.excitation.rho0)
    assert rep.passed
    assert rep.steps_checked == 801 and rep.runs == len(runs)
    # on this model the Gram norm never exceeds rho0, so the bound holds
    # pathwise: the raw margin is already nonnegative before the 2-SE slack
    assert rep.min_margin >= 0.0
    assert rep.bound_at_worst >= rep.regret_at_worst


def test_bound_is_tight_for_single_identity_node():
    """One node observing through H = I with rho0 = 1 achieves the bound
    with equality at every horizon."""
    cfg = ExperimentConfig(
        name="tight", seed=11, horizon=200, runs=3, nodes=1, dim=2, node_dims=(2,),
        x0=(1.0, 2.0), init=((0.0, 0.0),),
        graph=GraphConfig(kind="fixed", adjacency=((0.0,),)),
        regression=RegressionConfig(kind="fixed", h_nodes=(((1.0, 0.0), (0.0, 1.0)),)),
        gains=GainConfig(a_coef=0.5, a_exp=0.6, b_coef=0.0, b_exp=1.0,
                         lambda_coef=0.0, lambda_exp=0.0),
    )
    runs = [run_trajectory(cfg, substream(cfg.seed, i), check_bounds=False)
            for i in range(cfg.runs)]
    rep = lemma_regret_bound_check(runs, rho0=1.0)
    assert rep.passed
    assert abs(rep.min_margin) < 1e-9
    series = regret_series(runs, tau=0.6)
    bound = 0.5 * 1.0 * np.cumsum(series.mean_v)
    assert np.abs(series.regret[:, 0] - bound).max() < 1e-9


def test_zero_sensors_zero_regret():
    cfg = ExperimentConfig(
        name="zero", seed=7, horizon=50, runs=2, nodes=2, dim=2, node_dims=(1, 1),
        x0=(1.0, -1.0), init=((0.0, 0.0), (0.5, 0.5)),
        graph=GraphConfig(kind="iid-uniform", low=0.0, high=1.0),
        regression=RegressionConfig(kind="fixed",
                                    h_nodes=(((0.0, 0.0),), ((0.0, 0.0),))),
    )
    runs = [run_trajectory(cfg, substream(cfg.seed, i), check_bounds=False)
            for i in range(2)]
    assert np.array_equal(regret_series(runs, tau=0.6).regret, np.zeros((51, 2)))
    rep = lemma_regret_bound_check(runs, rho0=1.0)
    assert rep.passed  # 0 <= bound trivially


def _one_step_over(excess):
    """A 4-step, 2-node series whose bound is 1 at every step (rho0 = 1,
    mean V 1 at step 0 only), with regret 0.5 everywhere but node 1 at
    step 2, which exceeds the bound by ``excess``; every standard error is
    0.01."""
    regret = np.full((4, 2), 0.5)
    regret[2, 1] = 1.0 + excess
    return RegretSeries(steps=np.arange(4), regret=regret, regret_se=np.full((4, 2), 0.01),
                        mar=np.full(4, np.nan), mean_v=np.array([1.0, 0.0, 0.0, 0.0]), runs=20)


def test_regret_lemma_allows_two_standard_errors_and_no_more():
    """A margin of -0.0205 with a standard error of 0.01 fails: it lies
    beyond the two-standard-error allowance (-0.02), though within three
    and within 1e-3 of it.  A margin of -0.0195 lies within it."""
    over = lemma_regret_bound_check(_one_step_over(0.0205), rho0=1.0)
    assert not over.passed
    assert over.min_margin == pytest.approx(-0.0205, abs=1e-12)
    assert (over.worst_step, over.worst_node) == (2, 1)
    assert lemma_regret_bound_check(_one_step_over(0.0195), rho0=1.0).passed


@pytest.mark.parametrize("rho0", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("check", ["regret", "lower-bound"])
def test_lemma_checks_reject_a_rho0_that_is_not_finite_and_positive(bench_runs, check, rho0):
    """A NaN or infinite rho0 would pass a bound or a premise silently."""
    cfg, runs = bench_runs
    with pytest.raises(InvalidInputError, match="rho0 must be finite and positive"):
        if check == "regret":
            lemma_regret_bound_check(runs, rho0=rho0)
        else:
            lemma_lower_bound_check(cfg.graph.to_process(cfg.nodes),
                                    cfg.regression.to_process(cfg.nodes, cfg.dim),
                                    window=2, rho0=rho0, window_index=0)


# ---------------------------------------------------------------------------
# the block fold: records, the simulation and the bound check read one fold

MARKOV_BERNOULLI = ExperimentConfig(
    name="markov-bernoulli", seed=23, horizon=3000, runs=4, nodes=3, dim=2, node_dims=(2, 1, 2),
    x0=(2.0, -1.0), init=((1.0, 0.0), (0.0, 1.0), (-1.0, 2.0)),
    graph=GraphConfig(kind="markov-switching",
                      states=(((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                              ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))),
                      transition=((0.6, 0.4), (0.3, 0.7)), initial_state=1),
    regression=RegressionConfig(kind="bernoulli-failure",
                                coef=(((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),),
                                      ((1.0, 0.0), (0.0, 1.0))),
                                active_prob=0.6),
    noise=NoiseConfig(measurement_std=0.5, channel_std=0.7, sigma_f=0.2, b_f=0.1),
)
SERIES_FIELDS = ("steps", "regret", "regret_se", "mar", "mean_v")


def _assert_same_series(got, want):
    """Field by field, bit for bit (NaN payloads and zero signs included)."""
    assert got.runs == want.runs
    for name in SERIES_FIELDS:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _assert_same_report(got, want):
    for f in dataclasses.fields(RegretBoundReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and repr(a) == repr(b), (f.name, a, b)


@pytest.mark.parametrize("cfg", [
    with_overrides(get_preset("regret"), runs=7, horizon=3000),
    MARKOV_BERNOULLI,
    *(with_overrides(get_preset("setting-i"), runs=2, horizon=h)
      for h in (0, 1, 2, 1022, 1023, 1024, 1025, 1026, 2047, 2048, 2049)),
], ids=lambda cfg: f"{cfg.name}-{cfg.runs}x{cfg.horizon}")
def test_simulate_regret_is_the_series_of_the_records(cfg):
    """The simulation's own fold equals regret_series of the records of the
    same runs bit for bit, across the fold's block edges too; the bound
    reports are the records' reports."""
    records = run_trajectories(cfg, range(cfg.runs))
    series, reports = simulate_regret(cfg, range(cfg.runs))
    _assert_same_series(series, regret_series(records, cfg.gains.a_exp))
    assert reports == [rec.bound_report for rec in records]


@pytest.mark.parametrize("block", [netlms.regret.BLOCK, 64, 7])
def test_regret_series_does_not_depend_on_the_block(bench_runs, monkeypatch, block):
    cfg, runs = bench_runs
    want = regret_series(runs, cfg.gains.a_exp)
    monkeypatch.setattr(netlms.regret, "BLOCK", block)
    _assert_same_series(regret_series(runs, cfg.gains.a_exp), want)
    _assert_same_series(simulate_regret(cfg, range(cfg.runs))[0], want)


# lemma_regret_bound_check with rho0 = 0.1 on MARKOV_BERNOULLI's records,
# whole (None) and cut to rows 0..1500, as the fold over whole records gave
# it: the worst margins lie past the first block
MARKOV_BERNOULLI_REPORTS = {
    None: RegretBoundReport(
        passed=False, runs=4, steps_checked=3001, rho0=0.1,
        min_margin=float.fromhex("-0x1.d143ea0878c42p+3"), worst_node=1, worst_step=3000,
        regret_at_worst=float.fromhex("0x1.f0d6a864bda7bp+4"),
        bound_at_worst=float.fromhex("0x1.0834b3608145ap+4")),
    1500: RegretBoundReport(
        passed=False, runs=4, steps_checked=1501, rho0=0.1,
        min_margin=float.fromhex("-0x1.ac8f87a0f0e22p+3"), worst_node=2, worst_step=1500,
        regret_at_worst=float.fromhex("0x1.ccbe36da25ae7p+4"),
        bound_at_worst=float.fromhex("0x1.ecece6135a7acp+3")),
}


@pytest.fixture(scope="module")
def markov_bernoulli_runs():
    records = run_trajectories(MARKOV_BERNOULLI, range(MARKOV_BERNOULLI.runs), check_bounds=False)
    return records, regret_series(records, MARKOV_BERNOULLI.gains.a_exp)


@pytest.mark.parametrize("horizon", [None, 1500])
def test_bound_check_reads_records_and_series_alike(markov_bernoulli_runs, horizon):
    """The check covers every step of its input, so records and a series
    cut to rows 0..horizon give the report of those steps."""
    records, series = markov_bernoulli_runs
    if horizon is not None:
        stop = horizon + 1
        records = [dataclasses.replace(r, v=r.v[:stop], excess_losses=r.excess_losses[:stop])
                   for r in records]
        series = RegretSeries(**{f: getattr(series, f)[:stop] for f in SERIES_FIELDS},
                              runs=series.runs)
    want = MARKOV_BERNOULLI_REPORTS[horizon]
    _assert_same_report(lemma_regret_bound_check(records, 0.1), want)
    _assert_same_report(lemma_regret_bound_check(series, 0.1), want)


@pytest.mark.parametrize("block", [netlms.regret.BLOCK, 64, 7])
def test_bound_check_keeps_the_first_nan_margin_across_blocks(monkeypatch, block):
    """A diverging run: its regret and bound overflow to inf, their margin is
    NaN, and the report names the first NaN margin as np.argmin over the
    whole horizon would, whichever block it falls in."""
    cfg = with_overrides(get_preset("setting-i"), horizon=1000)
    cfg = dataclasses.replace(cfg, gains=dataclasses.replace(cfg.gains, a_coef=50.0, b_coef=50.0))
    rec = run_trajectory(cfg, substream(42, 0))
    monkeypatch.setattr(netlms.regret, "BLOCK", block)
    want = RegretBoundReport(passed=False, runs=1, steps_checked=1001, rho0=5.0,
                             min_margin=float("nan"), worst_node=0, worst_step=283,
                             regret_at_worst=float("inf"), bound_at_worst=float("inf"))
    _assert_same_report(lemma_regret_bound_check([rec], rho0=5.0), want)
    _assert_same_report(lemma_regret_bound_check(regret_series([rec], 0.6), rho0=5.0), want)


def test_bound_check_needs_a_series_at_every_step(bench_runs):
    """The bound sums mean V over every step, so a thinned series (a
    record_every > 1 grid) cannot be checked."""
    _, runs = bench_runs
    series = regret_series(runs, 0.6)
    grid = np.append(np.arange(0, 800, 70), 800)
    thinned = RegretSeries(steps=grid, regret=series.regret[grid], regret_se=series.regret_se[grid],
                           mar=series.mar[grid], mean_v=series.mean_v[grid], runs=series.runs)
    with pytest.raises(InvalidInputError, match="every step"):
        lemma_regret_bound_check(thinned, rho0=5.0)
    empty = RegretSeries(steps=grid[:0], regret=series.regret[:0], regret_se=series.regret_se[:0],
                         mar=series.mar[:0], mean_v=series.mean_v[:0], runs=series.runs)
    with pytest.raises(InvalidInputError, match="every step"):
        lemma_regret_bound_check(empty, rho0=5.0)


def test_bound_check_on_records_holds_one_block_at_a_time():
    """On one 30001-step record the check allocates a few blocks of steps,
    not a full-length series (about 1.9 MB for three nodes)."""
    cfg = with_overrides(get_preset("setting-i"), horizon=30_000)
    rec = run_trajectory(cfg, substream(cfg.seed, 0), check_bounds=False)
    tracemalloc.start()
    try:
        report = lemma_regret_bound_check([rec], rho0=cfg.excitation.rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps_checked == 30_001
    assert peak < 512 * 1024, f"traced peak {peak / 1024:.0f} KiB"
