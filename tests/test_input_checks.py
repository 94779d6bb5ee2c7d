"""Every library input check raises its own error class with its own
message: one table, one row per check that no other test reaches."""

import dataclasses
import os
import re

import numpy as np
import pytest

from netlms.config import RegressionConfig, get_preset, with_overrides
from netlms.errors import ConfigError, InvalidInputError, UnsupportedAnalyticError
from netlms.estimator import (
    GainSchedule,
    compact_step,
    run_trajectories,
    run_trajectory,
    simulate,
    substream,
)
from netlms.excitation import (
    check_definition1,
    check_definition2,
    corollary1_stationary_check,
    info_matrix,
    lemma_lower_bound_check,
    pe_diagnostic,
)
from netlms.experiment import run_experiment
from netlms.graphs import (
    GraphProcess,
    _pattern_index,
    alternating_uniform_graph,
    conditional_expected_adjacency,
    fixed_graph,
    graph_block,
    markov_switching_graph,
    window_sym_laplacians,
)
from netlms.noise import MeasurementNoise, NoiseIntensity, build_WM, received_messages
from netlms.regret import lemma_regret_bound_check, oracle_parameter, regret_series, simulate_regret
from netlms.regression import (
    RegressionProcess,
    ar_driven_regression,
    conditional_expected_node_gram,
    entrywise_uniform_regression,
    fixed_regression,
    monte_carlo_expected_gram,
    regression_block,
    spatio_temporal_gram,
    support_gram_norm_bound,
)

PAIR = [[0.0, 1.0], [1.0, 0.0]]
SILENT = [[0.0, 0.0], [0.0, 0.0]]
HALF = [[0.5, 0.5], [0.5, 0.5]]
MARKOV = markov_switching_graph([PAIR, SILENT], HALF)
ALTERNATING = alternating_uniform_graph(2, (0.0, 1.0), (0.0, 2.0))
SENSORS = fixed_regression([np.eye(2), np.eye(2)])
ONE_SENSOR = fixed_regression([np.eye(2)])
GAINS = (0.1, 0.2, 0.0)
ZERO = NoiseIntensity(0.0, 0.0)


def _rng():
    return np.random.default_rng(0)


def _records():
    """One setting-i run of three steps."""
    return [run_trajectory(with_overrides(get_preset("setting-i"), horizon=3), 0)]


def _huge_setting_i():
    """setting-i with coef scaled by 1e308 and high = 10: its cells reach
    1e309, so every run would be NaN from the first step."""
    cfg = get_preset("setting-i")
    reg = cfg.regression
    coef = tuple(tuple(tuple(1e308 * v for v in row) for row in m) for m in reg.coef)
    return dataclasses.replace(cfg, regression=dataclasses.replace(reg, coef=coef, high=10.0))


def _scaled_setting_i(kind, scale):
    """setting-i with every nonzero regressor cell set to +-``scale``, as a
    fixed, a bernoulli-failure (active_prob 0.5) or an entrywise-uniform
    law."""
    cfg = get_preset("setting-i")
    reg = cfg.regression

    def cells(mats):
        return tuple(tuple(tuple(float(np.copysign(scale, v)) if v else v for v in row) for row in m)
                     for m in mats)

    law = {
        "fixed": RegressionConfig(kind, h_nodes=cells(reg.coef)),
        "bernoulli-failure": RegressionConfig(kind, coef=cells(reg.coef), active_prob=0.5),
        "entrywise-uniform": RegressionConfig(kind, base=cells(reg.base), coef=cells(reg.coef),
                                              low=reg.low, high=reg.high),
    }[kind]
    return dataclasses.replace(cfg, regression=law)


GRAM_OVERFLOW = ("[regression] Grams can overflow: need a finite sum of m m^T over each node's rows, "
                 "m the largest cell magnitudes")


INPUT_ERRORS = [
    # graphs: the process, its builders and its block sampler
    pytest.param(lambda: GraphProcess(kind="ring", nodes=2), InvalidInputError,
                 "unknown graph kind 'ring'", id="graph-kind"),
    pytest.param(lambda: GraphProcess(kind="fixed", nodes=0), InvalidInputError,
                 "graph needs at least one node", id="graph-nodes"),
    pytest.param(lambda: alternating_uniform_graph(2.7, (0.0, 1.0), (0.0, 1.0)), InvalidInputError,
                 "nodes must be an integer, got 2.7", id="graph-nodes-integer"),
    pytest.param(lambda: alternating_uniform_graph(2, (1.0, 0.0), (0.0, 1.0)), InvalidInputError,
                 "even_range must be a finite (low, high) pair with low <= high", id="graph-range"),
    pytest.param(lambda: markov_switching_graph([], []), InvalidInputError,
                 "markov-switching needs at least one state", id="markov-no-states"),
    pytest.param(lambda: markov_switching_graph([PAIR, np.zeros((3, 3))], HALF), InvalidInputError,
                 "all adjacency states must share one node count", id="markov-state-shapes"),
    pytest.param(lambda: markov_switching_graph([PAIR, SILENT], HALF, 2), InvalidInputError,
                 "initial_state out of range", id="markov-initial-state"),
    pytest.param(lambda: markov_switching_graph([PAIR, SILENT], [[1.0]]), InvalidInputError,
                 "transition must be 2x2, got (1, 1)", id="transition-shape"),
    pytest.param(lambda: markov_switching_graph([PAIR, SILENT], [[1.5, -0.5], [0.5, 0.5]]),
                 InvalidInputError, "transition has negative entries", id="transition-sign"),
    pytest.param(lambda: markov_switching_graph([PAIR, SILENT], [[0.5, 0.4], [0.5, 0.5]]),
                 InvalidInputError, "transition rows must sum to 1", id="transition-rows"),
    pytest.param(lambda: graph_block(MARKOV, -1, 1, [_rng()]), InvalidInputError,
                 "need start >= 0 and count >= 1", id="block-start"),
    pytest.param(lambda: graph_block(MARKOV, 0, 0, [_rng()]), InvalidInputError,
                 "need start >= 0 and count >= 1", id="block-count"),
    pytest.param(lambda: graph_block(ALTERNATING, 1.5, 1, [_rng()]), InvalidInputError,
                 "start must be an integer, got 1.5", id="block-start-integer"),
    pytest.param(lambda: graph_block(ALTERNATING, 0, 1.5, [_rng()]), InvalidInputError,
                 "count must be an integer, got 1.5", id="block-count-integer"),
    pytest.param(lambda: graph_block(MARKOV, 3, 1, [_rng()]), InvalidInputError,
                 "markov-switching sampling needs prev_state for step > 0", id="block-prev-states"),
    pytest.param(lambda: conditional_expected_adjacency(MARKOV, -1), InvalidInputError,
                 "step must be nonnegative", id="mean-step"),
    pytest.param(lambda: conditional_expected_adjacency(ALTERNATING, 2.5), InvalidInputError,
                 "step must be an integer, got 2.5", id="mean-step-integer"),
    pytest.param(lambda: conditional_expected_adjacency(ALTERNATING, 3, 1.5), InvalidInputError,
                 "history_cut must be an integer, got 1.5", id="mean-cut-integer"),
    pytest.param(lambda: conditional_expected_adjacency(MARKOV, 2, 3), InvalidInputError,
                 "history_cut must not exceed step", id="mean-cut"),
    pytest.param(lambda: conditional_expected_adjacency(MARKOV, 3, 1), InvalidInputError,
                 "markov-switching conditioning needs state_at_cut", id="mean-no-state"),
    pytest.param(lambda: conditional_expected_adjacency(MARKOV, 3, 1, 2), InvalidInputError,
                 "state_at_cut out of range", id="mean-state-range"),
    pytest.param(lambda: conditional_expected_adjacency(MARKOV, 3, 1, 0.5), InvalidInputError,
                 "state_at_cut must be an integer, got 0.5", id="mean-state-integer"),
    pytest.param(lambda: _pattern_index(MARKOV, 2, [1], 0.5), InvalidInputError,
                 "state_at_cut must be an integer, got 0.5", id="pattern-state-integer"),
    pytest.param(lambda: conditional_expected_adjacency(fixed_graph(PAIR), 3, 1, 0), InvalidInputError,
                 "fixed graphs have no state at the cut; state_at_cut must be None",
                 id="mean-fixed-state"),
    pytest.param(lambda: conditional_expected_adjacency(ALTERNATING, 3, 1, "x"), InvalidInputError,
                 "alternating-uniform graphs have no state at the cut; state_at_cut must be None",
                 id="mean-alternating-state"),
    pytest.param(lambda: _pattern_index(ALTERNATING, 2, [0, 1], -7), InvalidInputError,
                 "alternating-uniform graphs have no state at the cut; state_at_cut must be None",
                 id="pattern-alternating-state"),
    pytest.param(lambda: window_sym_laplacians(ALTERNATING, 2.5), InvalidInputError,
                 "window must be an integer, got 2.5", id="window-laplacians-integer"),
    pytest.param(lambda: conditional_expected_adjacency(ALTERNATING, 3, 3), InvalidInputError,
                 "conditioning an independent draw on its own step needs the realization; "
                 "use an earlier history cut", id="mean-own-step"),
    # regression: the process, its builders and its closed forms
    pytest.param(lambda: RegressionProcess(kind="ring", nodes=1, dim=1, node_dims=(1,)),
                 InvalidInputError, "unknown regression kind 'ring'", id="regression-kind"),
    pytest.param(lambda: fixed_regression([]), InvalidInputError, "need at least one node",
                 id="regression-nodes"),
    pytest.param(lambda: fixed_regression([np.eye(2), np.ones((1, 3))]), InvalidInputError,
                 "all per-node matrices must share the column count", id="regression-columns"),
    pytest.param(lambda: entrywise_uniform_regression([np.eye(2)], [np.eye(2)] * 2),
                 InvalidInputError, "base and coef must be equally shaped lists", id="uniform-lists"),
    pytest.param(lambda: entrywise_uniform_regression([np.eye(2)], [np.ones((1, 2))]),
                 InvalidInputError, "base and coef must be equally shaped lists", id="uniform-shapes"),
    pytest.param(lambda: entrywise_uniform_regression([np.eye(2)], [np.eye(2)], 1.0, 0.0),
                 InvalidInputError, "need finite low <= high", id="uniform-range"),
    pytest.param(lambda: entrywise_uniform_regression([np.eye(2)], [np.eye(2)], -1e308, 1e308),
                 InvalidInputError, "need a finite high - low", id="uniform-range-overflow"),
    pytest.param(lambda: entrywise_uniform_regression([np.eye(2)], [1e308 * np.eye(2)], 0.0, 10.0),
                 InvalidInputError,
                 "cells can overflow: need a finite |base| + |coef| max(|low|, |high|)",
                 id="uniform-cell-overflow"),
    pytest.param(lambda: entrywise_uniform_regression([[[1e308, 0.0]]], [[[1e308, 0.0]]]),
                 InvalidInputError,
                 "cells can overflow: need a finite |base| + |coef| max(|low|, |high|)",
                 id="uniform-base-overflow"),
    pytest.param(lambda: _huge_setting_i(), ConfigError,
                 "[regression] cells can overflow: need a finite |base| + |coef| max(|low|, |high|)",
                 id="setting-i-cell-overflow"),
    pytest.param(lambda: _scaled_setting_i("fixed", 1e160), ConfigError, GRAM_OVERFLOW,
                 id="setting-i-fixed-gram-overflow"),
    pytest.param(lambda: _scaled_setting_i("bernoulli-failure", 1e160), ConfigError, GRAM_OVERFLOW,
                 id="setting-i-bernoulli-gram-overflow"),
    pytest.param(lambda: _scaled_setting_i("entrywise-uniform", 1e160), ConfigError, GRAM_OVERFLOW,
                 id="setting-i-uniform-gram-overflow"),
    pytest.param(lambda: ar_driven_regression(1, 0), InvalidInputError,
                 "nodes and order must be positive", id="ar-order"),
    pytest.param(lambda: ar_driven_regression(2.5, 1.9), InvalidInputError,
                 "nodes must be an integer, got 2.5", id="ar-nodes-integer"),
    pytest.param(lambda: ar_driven_regression(2, 1.9), InvalidInputError,
                 "order must be an integer, got 1.9", id="ar-order-integer"),
    pytest.param(lambda: conditional_expected_node_gram(SENSORS, 2), InvalidInputError,
                 "node index out of range", id="gram-node"),
    pytest.param(lambda: conditional_expected_node_gram(SENSORS, 1.0), InvalidInputError,
                 "node index must be an integer, got 1.0", id="gram-node-integer"),
    pytest.param(lambda: regression_block(SENSORS, np.zeros(2), 1.5, [_rng()], np.zeros((2, 1, 1))),
                 InvalidInputError, "count must be an integer, got 1.5", id="regression-count-integer"),
    pytest.param(lambda: spatio_temporal_gram(SENSORS, 0), InvalidInputError,
                 "window must be positive", id="gram-window"),
    pytest.param(lambda: spatio_temporal_gram(SENSORS, 2.5), InvalidInputError,
                 "window must be an integer, got 2.5", id="gram-window-integer"),
    pytest.param(lambda: monte_carlo_expected_gram(SENSORS, np.zeros(2), 0, MeasurementNoise(),
                                                   _rng(), samples=0),
                 InvalidInputError, "samples must be positive and step nonnegative",
                 id="monte-carlo-samples"),
    pytest.param(lambda: monte_carlo_expected_gram(SENSORS, np.zeros(2), 1.5, MeasurementNoise(), _rng()),
                 InvalidInputError, "step must be an integer, got 1.5", id="monte-carlo-step-integer"),
    pytest.param(lambda: monte_carlo_expected_gram(SENSORS, np.zeros(2), True, MeasurementNoise(), _rng()),
                 InvalidInputError, "step must be an integer, got True", id="monte-carlo-step-bool"),
    pytest.param(lambda: monte_carlo_expected_gram(SENSORS, np.zeros(2), 0, MeasurementNoise(), _rng(),
                                                   samples=2.5),
                 InvalidInputError, "samples must be an integer, got 2.5",
                 id="monte-carlo-samples-integer"),
    pytest.param(lambda: monte_carlo_expected_gram(ar_driven_regression(2, 2), np.zeros(2), 1.5,
                                                   MeasurementNoise(), _rng()),
                 InvalidInputError, "step must be an integer, got 1.5", id="monte-carlo-ar-step-integer"),
    pytest.param(lambda: support_gram_norm_bound(ar_driven_regression(2, 2)),
                 UnsupportedAnalyticError, "ar-driven regressors have unbounded support",
                 id="ar-support"),
    # excitation: the window checks, the one-window functions and the
    # stationary audit
    pytest.param(lambda: check_definition1(fixed_graph(PAIR), 2.5, 0.1, 2), InvalidInputError,
                 "window must be an integer, got 2.5", id="definition1-window-integer"),
    pytest.param(lambda: check_definition1(fixed_graph(PAIR), 2, 0.1, 2.5), InvalidInputError,
                 "windows must be an integer, got 2.5", id="definition1-windows-integer"),
    pytest.param(lambda: check_definition2(SENSORS, 2, 0.1, 2.5), InvalidInputError,
                 "windows must be an integer, got 2.5", id="definition2-windows-integer"),
    pytest.param(lambda: check_definition1(fixed_graph(PAIR), 2, "x", 3), InvalidInputError,
                 "theta1 must be a real number, got 'x'", id="definition1-theta-str"),
    pytest.param(lambda: check_definition1(fixed_graph(PAIR), 2, -0.1, 3), InvalidInputError,
                 "theta1 must be finite and nonnegative", id="definition1-theta-negative"),
    pytest.param(lambda: check_definition2(SENSORS, 2, "x", 3), InvalidInputError,
                 "theta2 must be a real number, got 'x'", id="definition2-theta-str"),
    pytest.param(lambda: check_definition2(SENSORS, 2, float("nan"), 3), InvalidInputError,
                 "theta2 must be finite and nonnegative", id="definition2-theta-nan"),
    pytest.param(lambda: pe_diagnostic(get_preset("setting-i"), windows=3.5), InvalidInputError,
                 "windows must be an integer, got 3.5", id="pe-windows-integer"),
    pytest.param(lambda: info_matrix(fixed_graph(PAIR), SENSORS, None, -1, 2), InvalidInputError,
                 "window_index must be nonnegative", id="window-index"),
    pytest.param(lambda: info_matrix(fixed_graph(PAIR), SENSORS, None, 1.5, 2), InvalidInputError,
                 "window_index must be an integer, got 1.5", id="window-index-integer"),
    pytest.param(lambda: info_matrix(fixed_graph(PAIR), ONE_SENSOR, None, 0, 2), InvalidInputError,
                 "graph and regression disagree on the node count", id="window-nodes"),
    pytest.param(lambda: info_matrix(fixed_graph(PAIR), SENSORS, None, 1, 2, "x"), InvalidInputError,
                 "fixed graphs have no state at the cut; state_at_cut must be None",
                 id="window-fixed-state"),
    pytest.param(lambda: info_matrix(ALTERNATING, SENSORS, None, 1, 2, 2.5), InvalidInputError,
                 "alternating-uniform graphs have no state at the cut; state_at_cut must be None",
                 id="window-alternating-state"),
    pytest.param(lambda: lemma_lower_bound_check(fixed_graph(PAIR), SENSORS, 2, 5.0, 1, True),
                 InvalidInputError, "fixed graphs have no state at the cut; state_at_cut must be None",
                 id="lower-bound-fixed-state"),
    pytest.param(lambda: lemma_lower_bound_check(ALTERNATING, SENSORS, 2, 5.0, 0, -7), InvalidInputError,
                 "alternating-uniform graphs have no state at the cut; state_at_cut must be None",
                 id="lower-bound-alternating-state"),
    pytest.param(lambda: lemma_lower_bound_check(fixed_graph(PAIR), SENSORS, 2, "5", 0), InvalidInputError,
                 "rho0 must be a real number, got '5'", id="lower-bound-rho0-str"),
    pytest.param(lambda: lemma_lower_bound_check(fixed_graph(PAIR), SENSORS, 2, None, 0), InvalidInputError,
                 "rho0 must be a real number, got None", id="lower-bound-rho0-none"),
    pytest.param(lambda: lemma_lower_bound_check(fixed_graph(PAIR), SENSORS, 2, True, 0), InvalidInputError,
                 "rho0 must be a real number, got True", id="lower-bound-rho0-bool"),
    pytest.param(lambda: corollary1_stationary_check([], HALF, []), InvalidInputError,
                 "need at least one graph state", id="stationary-no-states"),
    pytest.param(lambda: corollary1_stationary_check([PAIR, np.zeros((3, 3))], HALF, [[], []]),
                 InvalidInputError, "all graph states must share the node count",
                 id="stationary-state-shapes"),
    pytest.param(lambda: corollary1_stationary_check([PAIR], HALF, [[]]), InvalidInputError,
                 "transition size must match the number of states", id="stationary-transition"),
    pytest.param(lambda: corollary1_stationary_check([PAIR, SILENT], HALF, [[np.eye(2)] * 2]),
                 InvalidInputError, "need one observation-matrix list per chain state",
                 id="stationary-h-lists"),
    pytest.param(lambda: corollary1_stationary_check([PAIR, SILENT], HALF,
                                                     [[np.eye(2)] * 2, [np.eye(2), np.eye(3)]]),
                 InvalidInputError, "observation matrices must share the column count",
                 id="stationary-h-columns"),
    # estimator: gains, the stacked step, seeds and the batch kernel
    pytest.param(lambda: GainSchedule(0.1, 0.6, -0.1, 0.6, 0.0, 0.0), InvalidInputError,
                 "gain coefficients and exponents must be finite and nonnegative", id="gains"),
    pytest.param(lambda: GainSchedule("1", 0.6, 0.1, 0.6, 0.0, 0.0), InvalidInputError,
                 "a_coef must be a real number, got '1'", id="gains-str"),
    pytest.param(lambda: compact_step(np.zeros((2, 2)), PAIR, [np.eye(2)] * 2, [np.zeros(2)] * 2,
                                      np.zeros(7), GAINS, ZERO),
                 InvalidInputError, "xi must have N^2 n entries", id="compact-step-xi"),
    pytest.param(lambda: run_trajectory(get_preset("setting-i"), np.random.RandomState(1)._bit_generator),
                 InvalidInputError, "the generator was not created from a SeedSequence",
                 id="seedless-generator"),
    pytest.param(lambda: substream(1, 1.5), InvalidInputError,
                 "run index must be an integer, got 1.5", id="substream-index-integer"),
    pytest.param(lambda: run_trajectories(get_preset("setting-i"), [0.5]), InvalidInputError,
                 "run index must be an integer, got 0.5", id="run-index-integer"),
    pytest.param(lambda: substream(-1, 0), InvalidInputError,
                 "seed must be nonnegative, got -1", id="substream-seed-negative"),
    pytest.param(lambda: substream(0, -1), InvalidInputError,
                 "run index must be nonnegative, got -1", id="substream-index-negative"),
    pytest.param(lambda: run_trajectory(get_preset("setting-i"), -1), InvalidInputError,
                 "seed must be nonnegative, got -1", id="trajectory-seed-negative"),
    # numpy would seed None from fresh OS entropy
    pytest.param(lambda: substream(None, 0), InvalidInputError,
                 "seed must be an integer, got None", id="substream-seed-none"),
    pytest.param(lambda: substream(2.5, 0), InvalidInputError,
                 "seed must be an integer, got 2.5", id="substream-seed-integer"),
    pytest.param(lambda: run_trajectory(get_preset("setting-i"), None), InvalidInputError,
                 "seed must be an integer, got None", id="trajectory-seed-none"),
    pytest.param(lambda: run_trajectory(get_preset("setting-i"), "3"), InvalidInputError,
                 "seed must be an integer, got '3'", id="trajectory-seed-string"),
    pytest.param(lambda: run_trajectories(get_preset("setting-i"), 3), InvalidInputError,
                 "runs must be an iterable of run indices, got 3", id="run-indices-iterable"),
    pytest.param(lambda: run_trajectories(get_preset("setting-i"), [-1]), InvalidInputError,
                 "run index must be nonnegative, got -1", id="run-index-negative"),
    pytest.param(lambda: simulate(get_preset("setting-i").model, [], 5,
                                  lambda stats: None),
                 InvalidInputError, "need at least one run", id="simulate-no-runs"),
    pytest.param(lambda: simulate(get_preset("setting-i").model, [0], 2.5,
                                  lambda stats: None),
                 InvalidInputError, "horizon must be an integer, got 2.5", id="simulate-horizon-integer"),
    # os.devnull: no directory can be made there, so a missed check writes nothing
    pytest.param(lambda: run_experiment(get_preset("setting-i"), out_dir=os.devnull, workers=1.5),
                 InvalidInputError, "workers must be an integer, got 1.5", id="experiment-workers-integer"),
    # regret: the batch and the oracle
    pytest.param(lambda: simulate_regret(get_preset("setting-i"), 3), InvalidInputError,
                 "runs must be an iterable of run indices, got 3", id="regret-run-indices-iterable"),
    pytest.param(lambda: simulate_regret(get_preset("setting-i"), [-1]), InvalidInputError,
                 "run index must be nonnegative, got -1", id="regret-run-index-negative"),
    pytest.param(lambda: oracle_parameter(SENSORS, np.zeros(2), 2.5), InvalidInputError,
                 "horizon must be an integer, got 2.5", id="oracle-horizon-integer"),
    pytest.param(lambda: regret_series(_records(), "x"), InvalidInputError,
                 "tau must be a real number, got 'x'", id="regret-tau-str"),
    pytest.param(lambda: regret_series(_records(), True), InvalidInputError,
                 "tau must be a real number, got True", id="regret-tau-bool"),
    pytest.param(lambda: lemma_regret_bound_check(_records(), "5"), InvalidInputError,
                 "rho0 must be a real number, got '5'", id="regret-bound-rho0-str"),
    # noise: the laws, the stacked factors and the messages
    pytest.param(lambda: MeasurementNoise("gaussian", "1"), InvalidInputError,
                 "std must be a real number, got '1'", id="measurement-std-str"),
    pytest.param(lambda: MeasurementNoise("gaussian", True), InvalidInputError,
                 "std must be a real number, got True", id="measurement-std-bool"),
    pytest.param(lambda: NoiseIntensity("0.5", 0), InvalidInputError,
                 "sigma must be a real number, got '0.5'", id="intensity-str"),
    pytest.param(lambda: received_messages(np.zeros((2, 2)), ZERO, np.zeros((2, 2))),
                 InvalidInputError, "xi must have shape (2, 2, 2), got (2, 2)", id="messages-xi"),
    pytest.param(lambda: build_WM(PAIR, np.zeros((3, 2)), ZERO), InvalidInputError,
                 "states must be (N, n) with N matching the adjacency", id="factors-states"),
]


@pytest.mark.parametrize("call, error, message", INPUT_ERRORS)
def test_each_input_check_raises_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is error
