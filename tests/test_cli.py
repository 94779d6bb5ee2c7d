"""Command-line interface: subcommands, exit codes, artifact wiring."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import netlms
from netlms.cli import main
from netlms.config import get_preset, parse_config, preset_names, render_config, with_overrides
from netlms.experiment import run_experiment


def test_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_presets_show_round_trips(capsys):
    assert main(["presets", "--show", "setting-iv"]) == 0
    text = capsys.readouterr().out
    assert parse_config(text) == get_preset("setting-iv")


def test_run_writes_artifacts(tmp_path, capsys):
    rc = main(["run", "--config", "setting-i", "--horizon", "150",
               "--runs", "2", "--seed", "9", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 run files" in out and str(tmp_path) in out
    names = sorted(os.listdir(tmp_path))
    assert names == ["aggregate.csv", "config.txt", "excitation.json",
                     "manifest.json", "run_0000.csv", "run_0001.csv"]
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["seed"] == 9 and man["horizon"] == 150


def test_run_accepts_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(render_config(get_preset("setting-vi")))
    rc = main(["run", "--config", str(cfg_path), "--horizon", "80",
               "--runs", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "run_0000.csv").exists()


def test_run_writes_utf8_under_a_non_utf8_locale(tmp_path):
    """A non-ASCII config runs to the end under the C locale: every file is
    UTF-8, and the manifest's digest is that of the bytes on disk."""
    text = re.sub(r"^name = .*$", "name = régime", render_config(get_preset("setting-i")),
                  flags=re.M)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text, encoding="utf-8")
    # the child finds the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(netlms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUTF8": "0", "LC_ALL": "C"}
    proc = subprocess.run(
        [sys.executable, "-m", "netlms", "run", "--config", str(cfg_path), "--runs", "2",
         "--horizon", "40", "--out", str(tmp_path / "D")],
        capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    written = (tmp_path / "D" / "config.txt").read_bytes()
    assert parse_config(written.decode("utf-8")) == with_overrides(
        parse_config(text), runs=2, horizon=40)
    man = json.loads((tmp_path / "D" / "manifest.json").read_bytes())
    assert man["config_sha256"] == man["files"]["config.txt"]
    assert man["config_sha256"] == hashlib.sha256(written).hexdigest()


def test_run_rejects_an_unencodable_default_out_dir(tmp_path):
    """Without ``--out`` the directory is named after the config; a name
    that the C locale cannot encode is one error line, and no directory
    is made."""
    text = re.sub(r"^name = .*$", "name = régime", render_config(get_preset("setting-i")),
                  flags=re.M)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(netlms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "NETLMS_OUT"}
    env.update(PYTHONPATH=path, PYTHONUTF8="0", LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-m", "netlms", "run", "--config", str(cfg_path), "--runs", "1",
         "--horizon", "20"],
        capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.decode("ascii").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output directory"), lines
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt"]


def test_run_rerun_byte_identical(tmp_path, capsys):
    """A rerun, and a run spread over two worker processes, write the same
    bytes; ``--workers 0`` exits 1 with the library's message."""
    args = ["run", "--config", "setting-ii", "--horizon", "120", "--runs", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert main(args + ["--out", str(tmp_path / "c"), "--workers", "2"]) == 0
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        for other in ("b", "c"):
            assert (tmp_path / other / name).read_bytes() == a, (other, name)
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "d"), "--workers", "0"]) == 1
    assert capsys.readouterr().err == "error: workers must be positive\n"
    assert not (tmp_path / "d").exists()


def test_run_json_format(tmp_path):
    rc = main(["run", "--config", "setting-i", "--horizon", "60", "--runs", "1",
               "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.load(open(tmp_path / "run_0000.json"))
    assert doc["columns"][0] == "step"


def test_audit_prints_json(capsys):
    rc = main(["audit", "--config", "setting-i", "--horizon", "100"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["windows_checked"] == 50
    assert doc["report"]["excited"] is True


def test_audit_writes_file(tmp_path, capsys):
    rc = main(["audit", "--config", "setting-iii", "--horizon", "40",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "excitation.json").exists()


def test_audit_stdout_is_the_artifact_text(tmp_path, capsys):
    assert main(["audit", "--config", "setting-i"]) == 0
    printed = capsys.readouterr().out
    assert main(["audit", "--config", "setting-i", "--out", str(tmp_path)]) == 0
    assert printed.encode() == (tmp_path / "excitation.json").read_bytes()


def test_audit_file_is_the_run_artifact(tmp_path):
    """``audit --out`` and ``run`` write the same ``excitation.json``."""
    assert main(["audit", "--config", "regret", "--horizon", "300",
                 "--out", str(tmp_path / "audit")]) == 0
    run_experiment(with_overrides(get_preset("regret"), runs=3, horizon=300),
                   out_dir=str(tmp_path / "run"))
    audited = (tmp_path / "audit" / "excitation.json").read_bytes()
    assert audited == (tmp_path / "run" / "excitation.json").read_bytes()


def test_validate_gains_pass_and_fail(tmp_path, capsys):
    assert main(["validate-gains", "--config", "setting-i"]) == 0
    assert "PASS" in capsys.readouterr().out
    # break the schedule: non-square-summable innovation gain under C1
    text = render_config(get_preset("setting-i")).replace("a_exp = 0.6", "a_exp = 0.4")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["validate-gains", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "[!!]" in out
    assert main(["validate-gains", "--config", str(bad), "--mode", "C2"]) == 0


def test_unknown_config_exits_nonzero(capsys):
    assert main(["run", "--config", "no-such-thing"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "preset" in err


def test_config_error_reports_line(tmp_path, capsys):
    broken = tmp_path / "broken.cfg"
    broken.write_text(render_config(get_preset("setting-i")).replace(
        "horizon = 100000", "horizon = many"))
    assert main(["run", "--config", str(broken)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["channel_kind = gausian", "measurement_std = -2.0",
                                 "sigma_f = -0.1", "sigma_f = nan"])
def test_audit_rejects_noise_outside_the_premises(tmp_path, capsys, bad):
    text = render_config(get_preset("setting-i"))
    key = bad.split(" = ")[0]
    broken = tmp_path / "broken.cfg"
    broken.write_text(re.sub(rf"^{key} = .*$", bad, text, flags=re.M))
    assert main(["audit", "--config", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"[noise] {key}" in err


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    # the child finds the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(netlms.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "netlms", "presets"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "setting-i" in proc.stdout
