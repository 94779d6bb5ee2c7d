"""End-to-end acceptance checklist, one test per shipped guarantee.

Covers: agreement of the per-node and stacked update forms, closed-form
window eigenvalues for the one-way pair, the benchmark excitation
constants, long-horizon convergence across gain settings, the
regularization norm ordering, the regret energy bound and its normalized
rate, the per-step stacked-factor norm inequalities, the window lower
bound, the stationary-mixture audit, and byte-level artifact determinism.

The Monte Carlo batches are module-scoped fixtures shared across tests;
the whole module takes several minutes of wall time.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from netlms.config import get_preset, with_overrides
from netlms.estimator import (
    GainSchedule,
    compact_step,
    node_step,
    run_trajectories,
)
from netlms.excitation import (
    check_definition1,
    check_definition2,
    corollary1_stationary_check,
    info_matrix,
    lambda_min_window,
    lemma_lower_bound_check,
)
from netlms.experiment import run_experiment
from netlms.graphs import (
    alternating_uniform_graph,
    fixed_graph,
    graph_block,
    iid_uniform_graph,
)
from netlms.noise import MeasurementNoise, NoiseIntensity, received_messages
from netlms.regression import (
    entrywise_uniform_regression,
    fixed_regression,
    regression_block,
    support_gram_norm_bound,
)
from netlms.regret import lemma_regret_bound_check, simulate_regret

FULL_SETTINGS = ("setting-i", "setting-ii", "setting-iii", "setting-iv")
NORM_PAIRS = (("setting-i", "setting-v"), ("setting-iii", "setting-vi"))
PAIR_SEEDS = 50
PAIR_HORIZON = 10_000

# One-way pair used by the closed-form eigenvalue checks: node 1 hears
# node 2 and sees nothing itself, so cooperation is necessary.
ONE_WAY = fixed_graph([[0.0, 1.0], [0.0, 0.0]])
HARMONIC = GainSchedule(a_coef=1.0, a_exp=1.0, b_coef=1.0, b_exp=1.0,
                        lam_coef=0.0, lam_exp=0.0)


def _fold_bounds(tally, report):
    tally["steps"] += report.steps_checked
    tally["w"] += report.w_violations
    tally["m"] += report.m_violations


@pytest.fixture(scope="module")
def bound_tally():
    """Per-step norm-bound outcomes pooled over every simulated batch."""
    return {"steps": 0, "w": 0, "m": 0}


@pytest.fixture(scope="module")
def settings_batch(bound_tally):
    """Ten full-horizon runs of each of settings i-iv, simulated together.

    Records are reduced immediately to initial/final per-node error norms
    and the final total squared error.
    """
    out = {}
    for name in FULL_SETTINGS:
        cfg = get_preset(name)
        records = run_trajectories(cfg, range(cfg.runs))
        first = np.array([rec.err_norms[0] for rec in records])
        last = np.array([rec.err_norms[-1] for rec in records])
        final_v = np.array([rec.v[-1] for rec in records])
        for rec in records:
            _fold_bounds(bound_tally, rec.bound_report)
        out[name] = (first, last, final_v)
    return out


@pytest.fixture(scope="module")
def pairs_batch(bound_tally):
    """Node-averaged estimate norms at the comparison horizon, 50 seeds.

    Each regularized/non-regularized pair shares seed substreams, so the
    two runs of a seed see identical noise and the difference is paired.
    """
    out = {}
    for reg_name, plain_name in NORM_PAIRS:
        norms = []
        for name in (reg_name, plain_name):
            cfg = with_overrides(get_preset(name), horizon=PAIR_HORIZON)
            records = run_trajectories(cfg, range(PAIR_SEEDS))
            norms.append(np.array([rec.est_norms[-1].mean() for rec in records]))
            for rec in records:
                _fold_bounds(bound_tally, rec.bound_report)
        out[(reg_name, plain_name)] = tuple(norms)
    return out


@pytest.fixture(scope="module")
def regret_batch(bound_tally):
    """All fifty full-horizon runs of the regret preset, folded into their
    per-step regret series as they are simulated, without records."""
    cfg = get_preset("regret")
    series, reports = simulate_regret(cfg, range(cfg.runs))
    for report in reports:
        _fold_bounds(bound_tally, report)
    return cfg, series


def test_01_node_form_matches_stacked_form():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for trial in range(1000):
        n_nodes = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        lo = float(rng.uniform(-0.5, 0.0)) if trial % 2 else 0.0
        gp = iid_uniform_graph(n_nodes, (lo, float(rng.uniform(0.5, 1.5))))
        base = [rng.normal(size=(int(rng.integers(1, 4)), dim)) for _ in range(n_nodes)]
        coef = [rng.normal(size=b.shape) for b in base]
        rp = entrywise_uniform_regression(base, coef, 0.0, 1.0)
        x0 = rng.normal(size=dim)
        x = rng.normal(size=(n_nodes, dim))
        adj = graph_block(gp, trial, 1, [rng])[0][0, :, :, 0]
        noise = MeasurementNoise(kind="gaussian", std=1.0).sample(rng, (1, rp.total_rows, 1))
        h, _, y, _ = regression_block(rp, x0, 1, [rng], noise)
        split = rp.offsets[1:-1]
        h_nodes, y_nodes = np.split(h[0, :, :, 0], split), np.split(y[0, :, 0], split)
        xi = rng.standard_normal((n_nodes, n_nodes, dim))
        gains = (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)),
                 float(rng.uniform(0.0, 0.5)))
        inten = NoiseIntensity(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5)))
        msgs = received_messages(x, inten, xi)
        out_a = node_step(x, adj, h_nodes, y_nodes, msgs, gains)
        out_b = compact_step(x, adj, h_nodes, y_nodes, xi, gains, inten)
        worst = max(worst, float(np.abs(out_a - out_b).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst coordinate gap {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_one_way_pair_window_eigenvalue_harmonic_form():
    rp = fixed_regression([np.zeros((1, 1)), np.ones((1, 1))])
    for k in range(1001):
        lam = lambda_min_window(info_matrix(ONE_WAY, rp, HARMONIC, k, window=1))
        assert abs(lam - 1.0 / (2.0 * k + 2.0)) <= 1e-12, f"window {k}"


def test_03_one_way_pair_frozen_sensor_surd_form():
    rng = np.random.default_rng(31415)
    for _ in range(20):
        x = float(rng.uniform(0.25, 1.25))
        rp = fixed_regression([np.zeros((1, 1)), np.array([[np.sqrt(x)]])])
        root = x + 1.0 - np.sqrt(x * x - 2.0 * x + 2.0)
        for k in range(101):
            lam = lambda_min_window(info_matrix(ONE_WAY, rp, HARMONIC, k, window=1))
            assert abs(lam - root / (2.0 * (k + 1.0))) <= 1e-10, f"x={x}, window {k}"


def test_04_benchmark_window_constants():
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    exc = cfg.excitation

    connectivity = check_definition1(gp, exc.window, exc.theta1, windows=25)
    assert connectivity.passed and connectivity.min_value >= 0.5
    assert abs(connectivity.min_value - 1.5) <= 1e-10

    observability = check_definition2(rp, exc.window, exc.theta2, windows=25)
    assert observability.passed and observability.min_value >= 0.2
    assert abs(observability.min_value - 13.0 / 6.0) <= 1e-10


@pytest.mark.slow
def test_05_convergence_across_gain_settings(settings_batch):
    for name, (first, last, _) in settings_batch.items():
        ratios = last / first
        assert ratios.max() < 0.05, (
            f"{name}: slowest path kept {ratios.max():.2%} of its initial error"
        )
    big_gain = np.concatenate([settings_batch[n][2] for n in ("setting-i", "setting-ii")])
    small_gain = np.concatenate([settings_batch[n][2] for n in ("setting-iii", "setting-iv")])
    assert big_gain.mean() <= small_gain.mean(), (
        f"mean final V: tau=0.6 settings {big_gain.mean():.3e} > "
        f"tau=0.8 settings {small_gain.mean():.3e}; the larger gains sit on a "
        "higher late-time noise floor at this horizon, their advantage is "
        "transient (ordering holds at horizons 1e2-1e4, reverses by 1e5)"
    )


@pytest.mark.slow
def test_06_regularization_shrinks_estimate_norms(pairs_batch):
    for (reg_name, plain_name), (reg_norms, plain_norms) in pairs_batch.items():
        diff = plain_norms - reg_norms
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() >= -2.0 * se, (
            f"{reg_name} vs {plain_name}: margin {diff.mean():.3e} below -2se ({se:.3e})"
        )


@pytest.mark.slow
def test_07_regret_dominated_by_error_energy_bound(regret_batch):
    cfg, series = regret_batch
    report = lemma_regret_bound_check(series, rho0=cfg.excitation.rho0)
    assert report.runs >= 50
    assert report.passed, (
        f"min margin {report.min_margin:.4g} at step {report.worst_step}, "
        f"node {report.worst_node}: regret {report.regret_at_worst:.4g} vs "
        f"bound {report.bound_at_worst:.4g}"
    )


@pytest.mark.slow
def test_08_normalized_regret_levels_off(regret_batch):
    # the preset's a_exp is 0.6, so series.mar[t] is mar(records, t, tau=0.6)
    # of the same runs
    _, series = regret_batch
    values = {t: float(series.mar[t]) for t in (1_000, 10_000, 100_000)}
    change = abs(values[100_000] - values[10_000]) / values[10_000]
    assert change < 0.30, (
        f"MAR at 1e3/1e4/1e5 = {values[1_000]:.3f}/{values[10_000]:.3f}/"
        f"{values[100_000]:.3f}; relative change over the last decade "
        f"{change:.2f} (cumulative regret is still transient-dominated at "
        "these horizons and the normalizer's log factor keeps the ratio drifting)"
    )


@pytest.mark.slow
def test_09_stacked_factor_norm_bounds_every_step(settings_batch, pairs_batch,
                                                  regret_batch, bound_tally):
    expected = 40 * 100_001 + 2 * len(NORM_PAIRS) * PAIR_SEEDS * (PAIR_HORIZON + 1) \
        + 50 * 100_001
    assert bound_tally["steps"] == expected
    # exact inequalities, no tolerance
    assert bound_tally["w"] == 0, f"{bound_tally['w']} violations of |W| <= sqrt(N)|A|"
    assert bound_tally["m"] == 0, f"{bound_tally['m']} violations of |M|^2 <= 4s^2 V + 2b^2"


def test_10_window_lower_bound_zero_violations():
    rng = np.random.default_rng(777)
    failures = []
    for trial in range(50):
        n_nodes = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 4))
        hi = float(rng.uniform(0.5, 1.5))
        if trial % 2:
            gp = iid_uniform_graph(n_nodes, (0.0, hi))
        else:
            gp = alternating_uniform_graph(n_nodes, (0.0, hi), (-0.5, 0.5))
        base = [rng.normal(size=(int(rng.integers(1, 4)), dim)) for _ in range(n_nodes)]
        coef = [rng.normal(size=b.shape) for b in base]
        rp = entrywise_uniform_regression(base, coef, 0.0, 1.0)
        window = int(rng.integers(1, 4))
        rho0 = 2.0 * (n_nodes - 1) * max(hi, 0.5) + support_gram_norm_bound(rp) + 0.5
        for widx in range(3):
            rep = lemma_lower_bound_check(gp, rp, window, rho0, widx)
            if not rep.passed:
                failures.append((trial, widx, rep.margin, rep.note))
    cfg = get_preset("setting-i")
    gp = cfg.graph.to_process(cfg.nodes)
    rp = cfg.regression.to_process(cfg.nodes, cfg.dim)
    for widx in range(10):
        rep = lemma_lower_bound_check(gp, rp, cfg.excitation.window,
                                      cfg.excitation.rho0, widx)
        if not rep.passed:
            failures.append(("benchmark", widx, rep.margin, rep.note))
    assert not failures, f"lower-bound violations: {failures}"


def test_11_stationary_mixture_audit():
    # two chain states, each blind in one coordinate and connected one way
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    h0 = [np.array([[1.0, 0.0]]), np.zeros((1, 2))]
    h1 = [np.zeros((1, 2)), np.array([[0.0, 1.0]])]
    for h_state in (h0, h1):
        gram = sum(h.T @ h for h in h_state)
        assert np.linalg.eigvalsh(gram)[0] <= 1e-12  # singular alone
    rep = corollary1_stationary_check([a0, a1], [[0.5, 0.5], [0.5, 0.5]], [h0, h1])
    assert rep.passed
    assert rep.balanced and rep.has_spanning_tree and rep.obs_positive
    assert rep.obs_lambda_min == pytest.approx(0.5)

    # third node never linked in either state: only the tree check may fail
    b0 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b1 = 0.5 * b0
    eye = [np.eye(3)] * 3
    rep = corollary1_stationary_check([b0, b1], [[0.5, 0.5], [0.5, 0.5]], [eye, eye])
    assert not rep.has_spanning_tree
    assert rep.obs_positive
    assert not rep.passed


def test_12_same_seed_byte_identical_output(tmp_path):
    cfg = with_overrides(get_preset("setting-i"), runs=3, horizon=400)
    first = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    second = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    names_a = [Path(p).name for p in first.run_files]
    names_b = [Path(p).name for p in second.run_files]
    assert names_a == names_b
    for fa, fb in zip(first.run_files, second.run_files):
        assert Path(fa).read_bytes() == Path(fb).read_bytes(), Path(fa).name
    assert (Path(first.aggregate_file).read_bytes()
            == Path(second.aggregate_file).read_bytes())
