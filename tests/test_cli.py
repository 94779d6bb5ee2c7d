"""Command-line interface: subcommands, exit codes, artifact wiring."""

import json
import os
import re
import subprocess
import sys

import pytest

from netlms.cli import main
from netlms.config import get_preset, parse_config, preset_names, render_config


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


def test_run_rerun_byte_identical(tmp_path):
    args = ["run", "--config", "setting-ii", "--horizon", "120", "--runs", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


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
    proc = subprocess.run([sys.executable, "-m", "netlms", "presets"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "setting-i" in proc.stdout
