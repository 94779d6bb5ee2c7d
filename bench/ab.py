"""A/B timing of two ``netlms`` trees, interleaved in one process.

    python3 bench/ab.py A B [--rounds 30] [--shapes NAME ...] [--json]

``A`` and ``B`` are each a ``src`` directory, a checkout holding one, or a
git revision of the checkout this script sits in (read with ``git
archive``).  Each tree's ``netlms`` is copied into a temp directory under
its own package name (``netlms_a``, ``netlms_b``), compiled, and imported
into this process, so both trees share one interpreter, one heap and the
machine's load of the moment.  A/A (the same tree twice) shows the
harness's own spread.

Shapes, each one call per tree and round:

- ``setting-i-1x6000``: ``run_trajectory`` of one setting-i run of 6000
  steps with bound checks;
- ``setting-i-sigma0-1x6000``: the same with ``sigma_f = 0``, the one-run
  path of the build without link noise;
- ``regret-batch-20x300``: the kernel of ``netlms run`` on the regret
  preset, 20 runs of 300 steps kept at their record grid;
- ``regret-sigma0-20x300``: the same with ``sigma_f = 0``, so the step
  loop computes no link distances, the build writes the link products
  to a fresh array and the bound checks take the distances from the
  states;
- ``markov-bernoulli-20x300``: ``simulate`` of 20 runs of 300 steps of
  the regret preset's gains and noise over a two-state markov-switching
  graph and bernoulli-failure regressors (the regret preset's coef
  pattern, active with probability 0.6), with bound checks;
- ``ar-driven-order-5``: ``simulate`` of 3 runs of 1000 steps of an
  order-5 ar-driven model (every regressor cell supported) with link
  noise and bound checks;
- ``build-1x942`` and ``build-20x47``: ``estimator._fused_operator`` alone,
  20 calls on one captured first chunk of setting-i (one run) and of the
  regret preset (20 runs);
- ``pe-diagnostic-1000``: ``pe_diagnostic`` of setting-i over 1000
  windows, the body of the benchmark's ``excitation-audit``;
- ``pe-markov-bernoulli-130``: ``pe_diagnostic`` of the markov-bernoulli
  config over 130 windows, whose blocks end at windows 1, 65 and 129,
  each solved from both states at the cut.

Rounds alternate which tree goes first.  For each shape and tree it
prints the median and quartiles of CPU time (``time.process_time``) in
microseconds per run-step (per window for the ``pe-`` shapes), the
rounds that ``B`` won out of all rounds, minor page faults
(``ru_minflt``) per call, and whether both trees gave the same bytes.  ``--json`` prints one JSON object instead of the table.
Pin BLAS to one thread (the script sets ``OPENBLAS_NUM_THREADS=1`` and
its kin unless they are set) to compare with the benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_CALLS = 20


def _source(spec: str, tmp: Path, label: str) -> Path:
    """The ``src`` directory of a tree given as a path or a git revision."""
    path = Path(spec)
    for src in (path, path / "src"):
        if (src / "netlms" / "__init__.py").is_file():
            return src
    out = tmp / f"rev_{label}"
    out.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec, "src/netlms"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out / "src"


def _install(spec: str, tmp: Path, label: str):
    """Copy a tree's ``netlms`` to ``tmp/pkgs/netlms_<label>``, compile and
    import it.  The package imports itself relatively, so the copy runs
    under its new name."""
    name = f"netlms_{label}"
    dest = tmp / "pkgs" / name
    shutil.copytree(_source(spec, tmp, label) / "netlms", dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    compileall.compile_dir(str(dest), quiet=1)
    if str(dest.parent) not in sys.path:
        sys.path.insert(0, str(dest.parent))
    return importlib.import_module(name)


def _ar_config(nl):
    order = 5
    return nl.ExperimentConfig(
        name="ar-5", seed=5, horizon=1000, runs=3, nodes=3, dim=order, node_dims=(1, 1, 1),
        x0=(0.3, -0.2, 0.1, 0.05, -0.05),
        init=tuple(tuple(0.1 * (i - q) for q in range(order)) for i in range(3)),
        graph=nl.GraphConfig(kind="fixed", adjacency=((0.0, 0.5, 0.2), (0.3, 0.0, 0.4), (0.6, 0.1, 0.0))),
        regression=nl.RegressionConfig(kind="ar-driven"),
        noise=nl.NoiseConfig(measurement_std=0.5, channel_std=0.7, sigma_f=0.2, b_f=0.1),
        gains=nl.GainConfig(a_coef=0.5, a_exp=0.6, b_coef=0.4, b_exp=0.6,
                            lambda_coef=0.3, lambda_exp=2.0),
    )


def _markov_bernoulli_config(nl):
    cfg = nl.with_overrides(nl.get_preset("regret"), runs=20, horizon=300)
    graph = nl.GraphConfig(
        kind="markov-switching",
        states=(((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))),
        transition=((0.6, 0.4), (0.3, 0.7)), initial_state=1)
    regression = nl.RegressionConfig(kind="bernoulli-failure", coef=cfg.regression.coef, active_prob=0.6)
    return dataclasses.replace(cfg, graph=graph, regression=regression)


def _seeds(cfg):
    return [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(cfg.runs)]


def _captured_build(nl, preset, runs):
    """``(call, run-steps)``: the operator build of a preset's first chunk,
    its arguments captured from a one-chunk ``simulate``."""
    est = nl.estimator
    cfg = nl.get_preset(preset)
    rows = sum(cfg.node_dims)
    chunk = est._default_chunk(runs, cfg.nodes, cfg.dim, rows)
    model = est.SimulationModel.from_config(cfg)
    real, captured = est._fused_operator, []

    def capture(*args):
        captured.append(args)
        return real(*args)

    est._fused_operator = capture
    try:
        seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(r,)) for r in range(runs)]
        est.simulate(model, seeds, chunk - 1, lambda stats: None)
    finally:
        est._fused_operator = real
    (args,) = captured

    def call():
        for _ in range(BUILD_CALLS - 1):
            real(*args)
        return real(*args)

    return call, BUILD_CALLS * chunk * runs


def _shapes(nl):
    """``{name: (call, run-steps or windows per call)}`` for one tree."""
    est = nl.estimator
    one = nl.with_overrides(nl.get_preset("setting-i"), runs=1, horizon=6000)
    batch = nl.with_overrides(nl.get_preset("regret"), runs=20, horizon=300)
    quiet = dataclasses.replace(batch, noise=dataclasses.replace(batch.noise, sigma_f=0.0))
    quiet_one = dataclasses.replace(one, noise=dataclasses.replace(one.noise, sigma_f=0.0))
    grid = np.arange(0, batch.horizon + 1, batch.record_every)
    switching = _markov_bernoulli_config(nl)
    switching_model = est.SimulationModel.from_config(switching)
    ar = _ar_config(nl)
    ar_model = est.SimulationModel.from_config(ar)
    return {
        "setting-i-1x6000": (lambda: nl.run_trajectory(one, nl.substream(one.seed, 0)), one.horizon + 1),
        "setting-i-sigma0-1x6000": (
            lambda: nl.run_trajectory(quiet_one, nl.substream(quiet_one.seed, 0)), quiet_one.horizon + 1),
        "regret-batch-20x300": (
            lambda: est._sample_runs(batch, _seeds(batch), grid, nl.experiment._FIELDS),
            batch.runs * (batch.horizon + 1)),
        "regret-sigma0-20x300": (
            lambda: est._sample_runs(quiet, _seeds(quiet), grid, nl.experiment._FIELDS),
            quiet.runs * (quiet.horizon + 1)),
        "markov-bernoulli-20x300": (
            lambda: est.simulate(switching_model, _seeds(switching), switching.horizon, lambda stats: None),
            switching.runs * (switching.horizon + 1)),
        "ar-driven-order-5": (
            lambda: est.simulate(ar_model, _seeds(ar), ar.horizon, lambda stats: None),
            ar.runs * (ar.horizon + 1)),
        "build-1x942": _captured_build(nl, "setting-i", 1),
        "build-20x47": _captured_build(nl, "regret", 20),
        "pe-diagnostic-1000": (lambda: nl.pe_diagnostic(one, windows=1000), 1000),
        "pe-markov-bernoulli-130": (lambda: nl.pe_diagnostic(switching, windows=130), 130),
    }


def _digest(value, h=None):
    """SHA-256 over the raw bytes of every array in ``value``."""
    h = h or hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            _digest(value[key], h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest(item, h)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _digest(getattr(value, f.name), h)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def _timed(call):
    """CPU seconds and minor faults of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.process_time()
    call()
    t1 = time.process_time()
    return t1 - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(spec_a, spec_b, rounds, names=None):
    with tempfile.TemporaryDirectory(prefix="netlms-ab-") as tmp:
        trees = {"a": _install(spec_a, Path(tmp), "a"), "b": _install(spec_b, Path(tmp), "b")}
        shapes = {label: _shapes(nl) for label, nl in trees.items()}
        names = names or list(shapes["a"])
        same = {n: _digest(shapes["a"][n][0]()) == _digest(shapes["b"][n][0]()) for n in names}
        times = {n: {"a": [], "b": []} for n in names}
        faults = {n: {"a": [], "b": []} for n in names}
        for r in range(rounds):
            order = ("a", "b") if r % 2 == 0 else ("b", "a")
            for n in names:
                for label in order:
                    call, steps = shapes[label][n]
                    cpu, minflt = _timed(call)
                    times[n][label].append(1e6 * cpu / steps)
                    faults[n][label].append(minflt)
    result = {"a": spec_a, "b": spec_b, "rounds": rounds,
              "unit": "cpu us per run-step (per window for the pe- shapes)", "shapes": {}}
    for n in names:
        entry = {}
        for label in ("a", "b"):
            q1, med, q3 = _quartiles(times[n][label])
            entry[label] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                            "minflt_per_call": statistics.median(faults[n][label])}
        entry["b_over_a"] = round(entry["b"]["median"] / entry["a"]["median"], 4)
        entry["b_wins"] = sum(tb < ta for ta, tb in zip(times[n]["a"], times[n]["b"]))
        entry["same_bytes"] = same[n]
        result["shapes"][n] = entry
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="src path, checkout or git revision")
    parser.add_argument("b", help="src path, checkout or git revision")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--shapes", nargs="*", help="run only these shapes")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    result = run(args.a, args.b, args.rounds, args.shapes)
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"A = {args.a}, B = {args.b}, {args.rounds} rounds, {result['unit']} (median [q1, q3])")
    for n, e in result["shapes"].items():
        a, b = e["a"], e["b"]
        print(f"{n:24s} A {a['median']:.3f} [{a['q1']:.3f}, {a['q3']:.3f}]  "
              f"B {b['median']:.3f} [{b['q1']:.3f}, {b['q3']:.3f}]  B/A {e['b_over_a']:.3f}  "
              f"B wins {e['b_wins']}/{args.rounds}  minflt {a['minflt_per_call']:g}/{b['minflt_per_call']:g}  "
              f"same bytes {e['same_bytes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
