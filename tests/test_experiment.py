"""Batch runner artifacts: schemas, digests, determinism."""

import dataclasses
import hashlib
import importlib.metadata
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netlms import experiment
from netlms.artifacts import SCHEMA, _json_text, jsonable, write_json
from netlms.config import (
    GraphConfig,
    NoiseConfig,
    RegressionConfig,
    get_preset,
    parse_config,
    preset_names,
    with_overrides,
)
from netlms.errors import ConfigError, InvalidInputError, UnsupportedAnalyticError
from netlms.estimator import run_trajectories, run_trajectory, substream
from netlms.experiment import default_out_dir, run_experiment
from netlms.regret import regret_series


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


def _read_table(path):
    """Columns and rows of a CSV or JSON table, every cell parsed exactly
    (JSON nulls as nan)."""
    if path.endswith(".json"):
        doc = json.load(open(path))
        return doc["columns"], np.array(doc["rows"], dtype=float)
    header, *lines = open(path).read().splitlines()
    return header.split(","), np.array([[float(c) for c in line.split(",")] for line in lines])


def _record_grid(cfg):
    grid = list(range(0, cfg.horizon + 1, cfg.record_every))
    return grid if grid[-1] == cfg.horizon else grid + [cfg.horizon]


def _assert_aggregate_is_the_series(art, cfg):
    """The aggregate table is regret_series of the same runs at the record
    grid, bit for bit."""
    grid = _record_grid(cfg)
    series = regret_series(run_trajectories(cfg, range(cfg.runs)), cfg.gains.a_exp)
    _, table = _read_table(art.aggregate_file)
    want = np.column_stack(
        [grid, series.mean_v[grid], series.regret[grid], series.mar[grid]])
    assert np.array_equal(table, want, equal_nan=True)
    for j, name in enumerate(art.aggregate):
        assert np.array_equal(art.aggregate[name], want[:, j], equal_nan=True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_aggregate_is_the_regret_series_at_the_record_grid(small_cfg, tmp_path, fmt):
    # 70 does not divide the horizon of 300: the last row is step 300
    cfg = dataclasses.replace(small_cfg, record_every=70)
    _assert_aggregate_is_the_series(run_experiment(cfg, str(tmp_path), fmt), cfg)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_files_are_run_trajectory_rows(data):
    """Random small configs: every run file holds run_trajectory's rows at
    the record grid, and the aggregate is the regret series there, bit for
    bit."""
    cfg = with_overrides(
        get_preset(data.draw(st.sampled_from(preset_names()))),
        seed=data.draw(st.integers(0, 2**32)),
        runs=data.draw(st.integers(1, 4)),
        horizon=data.draw(st.integers(1, 150)),
    )
    cfg = dataclasses.replace(cfg, record_every=data.draw(st.integers(1, 40)))
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    grid = _record_grid(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        art = run_experiment(cfg, tmp, fmt)
        for r, path in enumerate(art.run_files):
            rec = run_trajectory(cfg, substream(cfg.seed, r))
            want = np.column_stack(
                [grid, rec.v[grid], rec.err_norms[grid], rec.est_norms[grid]])
            assert np.array_equal(_read_table(path)[1], want)
        _assert_aggregate_is_the_series(art, cfg)


def test_manifest_digests_and_fields(artifacts, small_cfg):
    man = json.load(open(artifacts.manifest_file))
    assert man["schema"] == 5
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


# SHA-256 of the schema-5 files of the regret preset, 3 runs x 300 steps, CSV
SCHEMA_5_DIGESTS = {
    "run_0000.csv": "f3ef886b758833230aaf02d477edc154b41462435e25a2c97ea8d5ab6ff1fdb5",
    "run_0001.csv": "be68306e97446f8dda6ef65900d6831ff50a4c4c53e10992927edd491cd7f17a",
    "run_0002.csv": "c3f4f8fb2abb16685d915229532ca8e8c456673f634a7b94b9d0091fa58848fa",
    "aggregate.csv": "acd02547715fcbd072fc63f3d01ac5865d346a34f0622269a196d2e45ff3d7cf",
    "excitation.json": "7c6daeb9367a60b719307c0b368f12cf056ec0dc5dac10a71e52891f3b19f150",
}


def test_schema_pins_the_stream(tmp_path):
    """The artifact bytes of one seed change only with ``SCHEMA``: a kernel
    change that rounds any sum differently must bump it and these digests."""
    assert SCHEMA == 5
    cfg = with_overrides(get_preset("regret"), runs=3, horizon=300)
    run_experiment(cfg, out_dir=str(tmp_path))
    for name, digest in SCHEMA_5_DIGESTS.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, (
            f"{name} changed without a SCHEMA bump (a numpy upgrade can also "
            f"move these digests, numpy {np.__version__} here)")


def test_package_version_hides_only_a_missing_package(monkeypatch):
    def lookup(error):
        def version(name):
            raise error
        return version

    monkeypatch.setattr(importlib.metadata, "version", lookup(ValueError("broken metadata")))
    with pytest.raises(ValueError, match="broken metadata"):
        experiment._package_version()
    monkeypatch.setattr(importlib.metadata, "version",
                        lookup(importlib.metadata.PackageNotFoundError("netlms")))
    assert experiment._package_version() == "unknown"


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


def test_non_finite_numpy_scalars_become_strings(tmp_path):
    values = [np.float64("nan"), np.float64("inf"), np.float32("-inf"), np.float64(1.5)]
    assert jsonable(values) == ["nan", "inf", "-inf", 1.5]
    write_json(str(tmp_path / "doc.json"), {"report": jsonable(values)})
    assert json.load(open(tmp_path / "doc.json")) == {"report": ["nan", "inf", "-inf", 1.5]}


def test_nested_dict_values_become_strings(tmp_path):
    """``write_json`` converts a payload dict all the way down."""
    payload = {"s": [np.float64("nan")], "inner": {"hi": np.float64("inf"), "lo": (np.float32("-inf"), 2)}}
    expected = {"s": ["nan"], "inner": {"hi": "inf", "lo": ["-inf", 2]}}
    assert jsonable(payload) == expected
    write_json(str(tmp_path / "doc.json"), payload)
    assert json.load(open(tmp_path / "doc.json")) == expected


@dataclasses.dataclass(frozen=True)
class _Margin:
    value: float
    steps: tuple


def test_json_text_is_pinned():
    """The text of a JSON artifact, byte for byte: arrays that are all
    finite and those with non-finite entries, numpy scalars, tuples,
    nested dicts and a dataclass."""
    payload = {
        "nested": {"x": np.float64(0.1), "pair": (1, np.float64("inf"), "s"), "flag": True,
                   "none": None},
        "arrays": [np.array([0.5, np.nan]), np.array([[np.inf], [-np.inf]]), np.arange(2),
                   np.array([0.1], dtype=np.float32)],
        "tuple": (np.float32(-np.inf), float("nan"), 2.5),
        "margin": _Margin(np.float64(-0.0), (np.float64(1e-300), np.nan)),
    }
    assert _json_text(payload) == (
        "{\n"
        '  "arrays": [\n'
        "    [\n"
        "      0.5,\n"
        '      "nan"\n'
        "    ],\n"
        "    [\n"
        "      [\n"
        '        "inf"\n'
        "      ],\n"
        "      [\n"
        '        "-inf"\n'
        "      ]\n"
        "    ],\n"
        "    [\n"
        "      0,\n"
        "      1\n"
        "    ],\n"
        "    [\n"
        "      0.10000000149011612\n"
        "    ]\n"
        "  ],\n"
        '  "margin": {\n'
        '    "steps": [\n'
        "      1e-300,\n"
        '      "nan"\n'
        "    ],\n"
        '    "value": -0.0\n'
        "  },\n"
        '  "nested": {\n'
        '    "flag": true,\n'
        '    "none": null,\n'
        '    "pair": [\n'
        "      1,\n"
        '      "inf",\n'
        '      "s"\n'
        "    ],\n"
        '    "x": 0.1\n'
        "  },\n"
        '  "tuple": [\n'
        '    "-inf",\n'
        '    "nan",\n'
        "    2.5\n"
        "  ]\n"
        "}\n"
    )


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


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_worker_count_does_not_change_the_files(data):
    """Random small configs: every artifact is byte-identical for one and
    two workers."""
    cfg = with_overrides(
        get_preset(data.draw(st.sampled_from(preset_names()))),
        seed=data.draw(st.integers(0, 2**32)),
        runs=data.draw(st.integers(2, 5)),
        horizon=data.draw(st.integers(10, 120)),
    )
    noise = data.draw(st.sampled_from([{}, {"sigma_f": 0.0}, {"channel_kind": "zero"}]))
    low = data.draw(st.floats(-0.5, 0.5))
    graph = data.draw(st.sampled_from(
        [cfg.graph, GraphConfig(kind="iid-uniform", low=low, high=low + 1.0)]))
    cfg = dataclasses.replace(
        cfg, record_every=data.draw(st.integers(1, 40)), graph=graph,
        noise=dataclasses.replace(cfg.noise, **noise))
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    with tempfile.TemporaryDirectory() as tmp:
        seq = _file_bytes(run_experiment(cfg, os.path.join(tmp, "seq"), fmt, workers=1))
        par = _file_bytes(run_experiment(cfg, os.path.join(tmp, "par"), fmt, workers=2))
    assert seq == par


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
