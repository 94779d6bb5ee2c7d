"""Regret estimators, the hindsight oracle, and the accumulated-error bound."""

import numpy as np
import pytest

from netlms.config import (
    ExperimentConfig,
    GainConfig,
    GraphConfig,
    RegressionConfig,
    get_preset,
    with_overrides,
)
from netlms.errors import (
    InvalidInputError,
    UnobservableHorizonError,
    UnsupportedAnalyticError,
)
from netlms.estimator import run_trajectory, substream
from netlms.excitation import lemma_lower_bound_check
from netlms.regression import ar_driven_regression, fixed_regression
from netlms.regret import (
    lemma_regret_bound_check,
    mar,
    oracle_parameter,
    regret_series,
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


def test_mar_is_an_entry_of_the_series(bench_runs):
    cfg, runs = bench_runs
    tau = cfg.gains.a_exp
    series = regret_series(runs, tau)
    got = np.array([mar(runs, t, tau) for t in range(2, 801)])
    assert np.array_equal(got, series.mar[2:])


def test_mar_needs_a_recorded_horizon_of_two_steps_or_more(bench_runs):
    _, runs = bench_runs
    for horizon in (-1, 0, 1, 801, 10_000, 2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(InvalidInputError):
            mar(runs, horizon, 0.6)
    with pytest.raises(InvalidInputError):
        mar([], 10, 0.6)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_regret_summaries_reject_a_tau_that_is_not_finite(bench_runs, tau):
    """A non-finite tau would make every MAR entry NaN or infinite."""
    _, runs = bench_runs
    with pytest.raises(InvalidInputError, match="tau must be finite"):
        regret_series(runs, tau)
    with pytest.raises(InvalidInputError, match="tau must be finite"):
        mar(runs, 5, tau)


def test_record_validation(bench_runs):
    _, runs = bench_runs
    with pytest.raises(InvalidInputError):
        regret_series([], tau=0.6)
    short = run_trajectory(with_overrides(get_preset("setting-i"), horizon=10),
                           substream(0, 0), check_bounds=False)
    with pytest.raises(InvalidInputError):
        regret_series([runs[0], short], tau=0.6)
    with pytest.raises(InvalidInputError):
        mar([runs[0], short], 5, 0.6)


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


def test_bound_check_horizon_argument(bench_runs):
    _, runs = bench_runs
    rep = lemma_regret_bound_check(runs, rho0=5.0, horizon=100)
    assert rep.steps_checked == 101
    with pytest.raises(InvalidInputError):
        lemma_regret_bound_check(runs, rho0=0.0)
    with pytest.raises(InvalidInputError):
        lemma_regret_bound_check(runs, rho0=5.0, horizon=10_000)
    assert lemma_regret_bound_check(runs, rho0=5.0, horizon=np.int64(3)).steps_checked == 4
    for horizon in (2.7, 3.0, "3"):
        with pytest.raises(InvalidInputError, match="horizon must be an integer"):
            lemma_regret_bound_check(runs, rho0=5.0, horizon=horizon)


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
