"""Batch runner artifacts: schemas, digests, determinism."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from netlms.config import (
    NoiseConfig,
    RegressionConfig,
    get_preset,
    parse_config,
    with_overrides,
)
from netlms.errors import ConfigError, InvalidInputError, UnsupportedAnalyticError
from netlms.estimator import run_trajectory, substream
from netlms.experiment import default_out_dir, run_experiment


@pytest.fixture(scope="module")
def small_cfg():
    return with_overrides(get_preset("setting-i"), horizon=300, runs=3)


@pytest.fixture(scope="module")
def artifacts(small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    return run_experiment(small_cfg, out_dir=str(out))


def test_expected_files_exist(artifacts, small_cfg):
    assert len(artifacts.run_files) == small_cfg.runs
    for p in (*artifacts.run_files, artifacts.aggregate_file,
              artifacts.excitation_file, artifacts.config_file,
              artifacts.manifest_file):
        assert os.path.isfile(p)
    assert [os.path.basename(p) for p in artifacts.run_files] == [
        "run_0000.csv", "run_0001.csv", "run_0002.csv"]


def test_run_csv_schema_and_precision(artifacts, small_cfg):
    text = open(artifacts.run_files[0]).read()
    assert "\r" not in text  # LF only
    lines = text.strip().split("\n")
    n = small_cfg.nodes
    assert lines[0] == ("step,V," + ",".join(f"err_norm_{i+1}" for i in range(n))
                        + "," + ",".join(f"est_norm_{i+1}" for i in range(n)))
    # thinning: steps 0, 100, 200, 300 at record_every=100
    rec = run_trajectory(small_cfg, substream(small_cfg.seed, 0))
    table = np.genfromtxt(artifacts.run_files[0], delimiter=",", names=True)
    assert np.array_equal(table["step"], [0.0, 100.0, 200.0, 300.0])
    # %.17g means the written floats round-trip exactly
    assert np.array_equal(table["V"], rec.v[[0, 100, 200, 300]])
    assert np.array_equal(table["err_norm_2"], rec.err_norms[[0, 100, 200, 300], 1])


def test_aggregate_schema(artifacts, small_cfg):
    lines = open(artifacts.aggregate_file).read().strip().split("\n")
    n = small_cfg.nodes
    assert lines[0] == ("step,mean_V," + ",".join(f"regret_{i+1}" for i in range(n))
                        + ",mar")
    table = np.genfromtxt(artifacts.aggregate_file, delimiter=",", names=True)
    # mar undefined before step 2: written as nan
    assert np.isnan(table["mar"][0]) and np.isfinite(table["mar"][1:]).all()
    # regret columns are means of cumulative excess losses across runs
    runs = [run_trajectory(small_cfg, substream(small_cfg.seed, i))
            for i in range(small_cfg.runs)]
    cum = np.mean([np.cumsum(r.excess_losses, axis=0) for r in runs], axis=0)
    assert np.allclose(table["regret_1"], cum[[0, 100, 200, 300], 0], rtol=1e-12)
    mean_v = np.mean([r.v for r in runs], axis=0)
    assert np.allclose(table["mean_V"], mean_v[[0, 100, 200, 300]], rtol=1e-12)


def test_manifest_digests_and_fields(artifacts, small_cfg):
    man = json.load(open(artifacts.manifest_file))
    assert man["schema"] == 2
    assert man["seed"] == small_cfg.seed and man["runs"] == small_cfg.runs
    assert man["bound_checks"]["w_violations"] == 0
    assert man["bound_checks"]["m_violations"] == 0
    assert man["bound_checks"]["steps"] == small_cfg.runs * (small_cfg.horizon + 1)
    assert set(man["bound_checks"]) == {"steps", "w_violations", "m_violations"}
    assert man["first_nonfinite_step"] == [None] * small_cfg.runs
    config_text = open(artifacts.config_file).read()
    assert man["config_sha256"] == hashlib.sha256(config_text.encode()).hexdigest()
    for name, digest in man["files"].items():
        path = os.path.join(artifacts.out_dir, name)
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    assert "timestamp" not in json.dumps(man).lower()


def test_config_artifact_round_trips(artifacts, small_cfg):
    assert parse_config(open(artifacts.config_file).read()) == small_cfg


def test_excitation_artifact(artifacts):
    doc = json.load(open(artifacts.excitation_file))
    rep = doc["report"]
    assert rep["excited"] is True
    assert rep["bound_check"]["violations"] == 0
    assert len(rep["lambda_series"]) == rep["windows_checked"]
    assert all(isinstance(v, float) and v > 0 for v in rep["lambda_series"][:5])


def test_rerun_is_byte_identical(small_cfg, artifacts, tmp_path):
    again = run_experiment(small_cfg, out_dir=str(tmp_path))
    firsts = (*artifacts.run_files, artifacts.aggregate_file,
              artifacts.excitation_file, artifacts.config_file,
              artifacts.manifest_file)
    seconds = (*again.run_files, again.aggregate_file, again.excitation_file,
               again.config_file, again.manifest_file)
    for p1, p2 in zip(firsts, seconds):
        assert open(p1, "rb").read() == open(p2, "rb").read(), os.path.basename(p1)


def test_json_format(small_cfg, tmp_path):
    cfg = with_overrides(small_cfg, runs=1, horizon=120)
    art = run_experiment(cfg, out_dir=str(tmp_path), fmt="json")
    assert art.run_files[0].endswith(".json")
    doc = json.load(open(art.run_files[0]))
    assert doc["columns"][:2] == ["step", "V"]
    assert len(doc["rows"]) == 3  # steps 0, 100, 120
    assert doc["rows"][-1][0] == 120.0
    agg = json.load(open(art.aggregate_file))
    assert agg["rows"][0][-1] is None  # mar at step 0 in strict JSON


def test_horizon_zero(tmp_path):
    cfg = with_overrides(get_preset("setting-ii"), horizon=0, runs=1)
    art = run_experiment(cfg, out_dir=str(tmp_path))
    lines = open(art.run_files[0]).read().strip().split("\n")
    assert len(lines) == 2  # header plus the initial step
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 626.0


def test_final_row_always_recorded(tmp_path):
    cfg = with_overrides(get_preset("setting-i"), horizon=250, runs=1)
    art = run_experiment(cfg, out_dir=str(tmp_path))
    table = np.genfromtxt(art.run_files[0], delimiter=",", names=True)
    assert table["step"][-1] == 250.0  # not a multiple of record_every


def test_worker_pool_produces_identical_files(small_cfg, tmp_path):
    cfg = with_overrides(small_cfg, horizon=80, runs=2)
    seq = run_experiment(cfg, out_dir=str(tmp_path / "seq"), workers=1)
    par = run_experiment(cfg, out_dir=str(tmp_path / "par"), workers=2)
    for p1, p2 in zip(seq.run_files + (seq.aggregate_file,),
                      par.run_files + (par.aggregate_file,)):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_argument_validation(small_cfg, tmp_path):
    with pytest.raises(InvalidInputError):
        run_experiment(small_cfg, out_dir=str(tmp_path), fmt="xml")
    with pytest.raises(InvalidInputError):
        run_experiment(small_cfg, out_dir=str(tmp_path), workers=0)


def test_default_out_dir_resolution(monkeypatch):
    cfg = get_preset("setting-i")
    monkeypatch.delenv("NETLMS_OUT", raising=False)
    assert default_out_dir(cfg) == os.path.join(".", "netlms-out", "setting-i")
    monkeypatch.setenv("NETLMS_OUT", "/data/results")
    assert default_out_dir(cfg) == os.path.join("/data/results", "setting-i")
    via_config = with_overrides(cfg, out="/explicit/dir")
    assert default_out_dir(via_config) == "/explicit/dir"


def _file_bytes(art):
    paths = (*art.run_files, art.aggregate_file, art.excitation_file, art.config_file,
             art.manifest_file)
    return {os.path.basename(p): open(p, "rb").read() for p in paths}


def test_adding_runs_leaves_earlier_runs_byte_identical(small_cfg, tmp_path):
    cfg = with_overrides(small_cfg, horizon=150)
    three = _file_bytes(run_experiment(with_overrides(cfg, runs=3), out_dir=str(tmp_path / "3")))
    five = _file_bytes(run_experiment(with_overrides(cfg, runs=5), out_dir=str(tmp_path / "5")))
    for name in ("run_0000.csv", "run_0001.csv", "run_0002.csv"):
        assert three[name] == five[name], name


def test_uneven_worker_split_is_byte_identical(small_cfg, tmp_path):
    cfg = with_overrides(small_cfg, horizon=120, runs=5)
    seq = _file_bytes(run_experiment(cfg, out_dir=str(tmp_path / "seq"), workers=1))
    par = _file_bytes(run_experiment(cfg, out_dir=str(tmp_path / "par"), workers=2))
    assert seq.keys() == par.keys()
    for name in seq:
        assert seq[name] == par[name], name


def test_diverging_run_is_flagged_in_the_manifest(tmp_path):
    cfg = get_preset("setting-i")
    cfg = dataclasses.replace(
        cfg, horizon=1000, runs=2, record_every=250,
        gains=dataclasses.replace(cfg.gains, a_coef=50.0, b_coef=50.0))
    art = run_experiment(cfg, out_dir=str(tmp_path))
    recs = [run_trajectory(cfg, substream(cfg.seed, r)) for r in range(cfg.runs)]
    man = json.load(open(art.manifest_file))
    firsts = [rec.bound_report.first_nonfinite_step for rec in recs]
    assert None not in firsts
    assert man["first_nonfinite_step"] == firsts
    assert man["bound_checks"]["m_violations"] == sum(r.bound_report.m_violations for r in recs) > 0


def test_markov_switching_experiment_end_to_end(markov_pair, tmp_path):
    cfg = markov_pair
    art = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(art.manifest_file))
    assert man["bound_checks"] == {"steps": 3 * 61, "w_violations": 0, "m_violations": 0}
    rep = art.excitation
    assert rep.windows_checked == 30
    assert np.isfinite(rep.lambda_series).all() and np.isfinite(rep.gainless_series).all()
    # the run files hold the batch kernel's runs, which equal single runs
    table = np.genfromtxt(art.run_files[2], delimiter=",", names=True)
    rec = run_trajectory(cfg, substream(cfg.seed, 2))
    assert np.array_equal(table["V"], rec.v[[0, 20, 40, 60]])


ONE_NODE = """
[experiment]
name = one-node
horizon = 50
runs = 2

[model]
nodes = 1
dim = 1
x0 = 1
init_1 = 0

[graph]
kind = fixed
adjacency = 0

[regression]
kind = fixed
h_1 = 1

[gains]
a_coef = 0.5
a_exp = 0.6
b_coef = 0.5
b_exp = 0.6
"""


def test_audit_rejection_writes_no_files(tmp_path):
    """The excitation audit runs before the simulation, so a config it
    rejects leaves the output directory empty."""
    base = with_overrides(get_preset("setting-i"), runs=2, horizon=50)
    ar_driven = dataclasses.replace(
        base, node_dims=(1, 1, 1), regression=RegressionConfig(kind="ar-driven")).validate()
    cases = [(ar_driven, UnsupportedAnalyticError), (parse_config(ONE_NODE), InvalidInputError)]
    for i, (cfg, error) in enumerate(cases):
        out = tmp_path / f"out{i}"
        out.mkdir()
        with pytest.raises(error):
            run_experiment(cfg, out_dir=str(out))
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("noise", [
    NoiseConfig(channel_kind="gausian"),
    NoiseConfig(measurement_std=-2.0),
    NoiseConfig(sigma_f=-0.1),
    NoiseConfig(sigma_f=float("nan")),
])
def test_noise_outside_the_premises_writes_nothing(tmp_path, noise):
    """run_experiment validates the config before it makes the output
    directory, so bad noise settings leave no directory behind."""
    cfg = dataclasses.replace(with_overrides(get_preset("setting-i"), runs=2, horizon=50), noise=noise)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"\[noise\]"):
        run_experiment(cfg, out_dir=str(out))
    assert not out.exists()
