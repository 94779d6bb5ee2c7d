"""A config builds its simulation model once, when it is checked, and
every simulation and audit of the config reads that model."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from netlms import regression
from netlms.config import RegressionConfig, get_preset, parse_config, render_config, with_overrides
from netlms.estimator import SimulationModel, run_trajectories, run_trajectory
from netlms.excitation import pe_diagnostic
from netlms.experiment import run_experiment
from netlms.regret import simulate_regret

from conftest import MARKOV_PAIR
from test_estimator import RECORD_FIELDS, _assert_same_reports, _kind_config


def _arrays(value):
    """Every numpy array that ``value`` holds, through tuples and
    dataclasses: for a model, its own arrays and its processes'."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def _unset_ar_init(cfg):
    return dataclasses.replace(cfg, regression=RegressionConfig(kind="ar-driven"))


CONFIGS = {
    "setting-i": lambda: get_preset("setting-i"),
    "markov-pair": lambda: parse_config(MARKOV_PAIR),
    "markov-bernoulli": lambda: _kind_config("markov-switching", "bernoulli-failure"),
    "fixed-fixed": lambda: _kind_config("fixed", "fixed"),
    "ar-driven": lambda: _kind_config("iid-uniform", "ar-driven"),
    "ar-driven-zero-history": lambda: _unset_ar_init(_kind_config("fixed", "ar-driven")),
}


@pytest.fixture
def builds(monkeypatch):
    """The regression builds made while the test runs, counted by the
    Gram-overflow check that every bounded law's builder runs once."""
    calls = []
    real = regression._check_gram_bound

    def counted(reach):
        calls.append(None)
        return real(reach)

    monkeypatch.setattr(regression, "_check_gram_bound", counted)
    return calls


def test_each_config_builds_its_processes_once(builds, tmp_path):
    cfg = with_overrides(get_preset("setting-i"), runs=2, horizon=40)
    built = len(builds)
    dataclasses.replace(cfg)
    assert len(builds) == built + 1  # building a config counts
    built = len(builds)
    pe_diagnostic(cfg, windows=5)
    run_trajectory(cfg, 0)
    simulate_regret(cfg, range(2))
    run_experiment(cfg, out_dir=str(tmp_path), workers=1)
    assert len(builds) == built


@pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS.keys())
def test_the_model_and_its_copies_are_read_only(make):
    cfg = make()
    for again in (cfg, pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert again == cfg
        assert isinstance(again.model, SimulationModel)
        arrays = list(_arrays(again.model))
        assert any(a is again.model.init for a in arrays)
        assert not [a for a in arrays if a.flags.writeable]
        if again.regression.kind == "ar-driven" and again.regression.ar_init is None:
            assert again.model.ar_init.tobytes() == np.zeros((cfg.nodes, cfg.dim)).tobytes()
        for name in ("x0", "init", "ar_init"):
            mine, theirs = getattr(again.model, name), getattr(cfg.model, name)
            assert (mine is None and theirs is None) or mine.tobytes() == theirs.tobytes()


def test_the_model_is_not_a_field():
    cfg = get_preset("regret")
    assert "model" not in {f.name for f in dataclasses.fields(cfg)}
    assert "model" not in repr(cfg) and "model =" not in render_config(cfg)
    # a replaced config is checked and builds its own model
    other = dataclasses.replace(cfg, horizon=7)
    assert other.model is not cfg.model and other.model.gains == cfg.model.gains


def test_ar_driven_without_ar_init_starts_from_a_zero_history():
    given = dataclasses.replace(_kind_config("fixed", "ar-driven"), horizon=300)
    unset = _unset_ar_init(given)
    zeros = dataclasses.replace(
        given, regression=RegressionConfig(kind="ar-driven", ar_init=((0.0, 0.0),) * given.nodes))
    a, b = run_trajectories(unset, range(3)), run_trajectories(zeros, range(3))
    for x, y in zip(a, b):
        for name in RECORD_FIELDS:
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name
    _assert_same_reports([x.bound_report for x in a], [y.bound_report for y in b])
