"""Distributed online regularized least squares over noisy random networks.

A simulation library for networks of nodes that each observe a common
unknown parameter through their own time-varying regression model and
cooperate over a randomly switching directed graph whose links add
noise with state-dependent intensity.  Alongside the estimator itself
the package ships analyzers for the excitation conditions that drive
convergence (joint connectivity, joint observability, windowed
information lower bounds) and for online regret, plus a batch runner
and CLI that write reproducible on-disk artifacts.

The usual entry points:

>>> from netlms import get_preset, run_trajectory, substream, with_overrides
>>> cfg = get_preset("setting-i")
>>> rec = run_trajectory(with_overrides(cfg, horizon=1000), substream(cfg.seed, 0))
>>> float(rec.v[0])
626.0
"""

from .config import (
    ExcitationConfig,
    ExperimentConfig,
    GainConfig,
    GraphConfig,
    NoiseConfig,
    RegressionConfig,
    get_preset,
    load_config,
    parse_config,
    preset_names,
    render_config,
    with_overrides,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    NetlmsError,
    NoUniqueStationaryError,
    UnobservableHorizonError,
    UnsupportedAnalyticError,
)
from .estimator import (
    GainSchedule,
    TrajectoryRecord,
    compact_step,
    node_step,
    run_trajectories,
    run_trajectory,
    substream,
    validate_gains,
)
from .excitation import (
    ExcitationReport,
    check_definition1,
    check_definition2,
    corollary1_stationary_check,
    info_matrix,
    lambda_min_window,
    lemma_lower_bound_check,
    pe_diagnostic,
)
from .experiment import ExperimentArtifacts, default_out_dir, run_experiment
from .graphs import (
    alternating_uniform_graph,
    fixed_graph,
    gamma1_membership,
    iid_uniform_graph,
    markov_switching_graph,
    stationary_distribution,
)
from .noise import ChannelNoise, MeasurementNoise, NoiseIntensity
from .regression import (
    ar_driven_regression,
    bernoulli_failure_regression,
    entrywise_uniform_regression,
    fixed_regression,
)
from .regret import (
    RegretSeries,
    lemma_regret_bound_check,
    mar,
    oracle_parameter,
    regret_series,
    simulate_regret,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "ExperimentConfig", "GraphConfig", "RegressionConfig", "NoiseConfig",
    "GainConfig", "ExcitationConfig", "parse_config", "load_config",
    "render_config", "get_preset", "preset_names", "with_overrides",
    # errors
    "NetlmsError", "InvalidInputError", "ConfigError",
    "NoUniqueStationaryError", "UnobservableHorizonError",
    "UnsupportedAnalyticError",
    # processes
    "fixed_graph", "alternating_uniform_graph", "iid_uniform_graph",
    "markov_switching_graph",
    "stationary_distribution", "gamma1_membership",
    "fixed_regression", "entrywise_uniform_regression",
    "bernoulli_failure_regression", "ar_driven_regression",
    "MeasurementNoise", "ChannelNoise", "NoiseIntensity",
    # estimator
    "GainSchedule", "validate_gains", "node_step", "compact_step",
    "run_trajectory", "run_trajectories", "substream", "TrajectoryRecord",
    # analyzers
    "ExcitationReport", "info_matrix", "lambda_min_window",
    "check_definition1", "check_definition2", "lemma_lower_bound_check",
    "corollary1_stationary_check", "pe_diagnostic",
    "RegretSeries", "oracle_parameter", "mar",
    "regret_series", "simulate_regret", "lemma_regret_bound_check",
    # batch runner
    "ExperimentArtifacts", "run_experiment", "default_out_dir",
]
