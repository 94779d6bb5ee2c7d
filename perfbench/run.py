"""netlms benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload regret-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child
interpreter (``worker.py``) with BLAS held to one thread, so its set-up
and peak RSS are its own.

``--trace 0`` runs whole rounds in one child until ``--seconds`` have
passed (at least one), then set-up-only children.  It reports the median
set-up time and the rounds' throughput, both scaled to a reference
machine speed by a calibration kernel timed alongside them, and the
child's peak RSS after its first round's body.  ``--trace 1`` runs one plain round and one traced round, each in
its own child, and reports the per-layer metrics and the tracing
overhead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Raw rounds and results also go to ``perfbench/out/``.  The exit code is
nonzero, with no result printed, when ``netlms`` cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from worker import WORKLOADS  # imports only the standard library

# Set-up is short and noisy (file cache, numpy import), so every run takes
# the median over at least this many fresh interpreters.
SETUP_SAMPLES = 9
# Every run must end within 180 s; no child may run past this.
DEADLINE_S = 170.0
# Time of worker.calibrate() at the reference machine speed that the
# end-to-end times are scaled to; about its time on an idle 2-CPU machine.
REFERENCE_CALIBRATION_S = 0.1

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Per-layer metrics: name -> (layer, field, denominator, scale, unit).
# ``field`` is ``calls``, ``total`` (inclusive ns) or ``self`` (ns minus
# wrapped callees); ``denominator`` is simulated run-steps, audited
# windows or the round.  A workload without steps or windows reports 0
# for the metrics per step or per window.
PER_LAYER = {
    "graphs.sample_graph.calls_per_step": ("graphs.sample_graph", "calls", "steps", 1.0, "calls/step"),
    "graphs.sample_graph.us_per_step": ("graphs.sample_graph", "total", "steps", 1e-3, "us/step"),
    "regression.sample_regression.calls_per_step": (
        "regression.sample_regression", "calls", "steps", 1.0, "calls/step"),
    "regression.sample_regression.us_per_step": (
        "regression.sample_regression", "total", "steps", 1e-3, "us/step"),
    "noise.ChannelNoise.sample.us_per_step": ("noise.ChannelNoise.sample", "total", "steps", 1e-3, "us/step"),
    "noise.NoiseIntensity.matrix.us_per_step": (
        "noise.NoiseIntensity.matrix", "total", "steps", 1e-3, "us/step"),
    "estimator.node_step.calls_per_step": ("estimator.node_step", "calls", "steps", 1.0, "calls/step"),
    "estimator.node_step.us_per_step": ("estimator.node_step", "total", "steps", 1e-3, "us/step"),
    "estimator.run_trajectory.self_us_per_step": (
        "estimator.run_trajectory", "self", "steps", 1e-3, "us/step"),
    "excitation.pe_diagnostic.ms_per_window": (
        "excitation.pe_diagnostic", "total", "windows", 1e-6, "ms/window"),
    "excitation.info_matrix.calls_per_window": (
        "excitation.info_matrix", "calls", "windows", 1.0, "calls/window"),
    "excitation.info_matrix.us_per_window": ("excitation.info_matrix", "total", "windows", 1e-3, "us/window"),
    "excitation.check_definition1.us_per_window": (
        "excitation.check_definition1", "total", "windows", 1e-3, "us/window"),
    "excitation.check_definition2.us_per_window": (
        "excitation.check_definition2", "total", "windows", 1e-3, "us/window"),
    "graphs.conditional_expected_sym_laplacian.calls_per_window": (
        "graphs.conditional_expected_sym_laplacian", "calls", "windows", 1.0, "calls/window"),
    "regression.conditional_expected_gram.calls_per_window": (
        "regression.conditional_expected_gram", "calls", "windows", 1.0, "calls/window"),
    "regression.spatio_temporal_gram.calls_per_window": (
        "regression.spatio_temporal_gram", "calls", "windows", 1.0, "calls/window"),
    "linalg.sym_eigenvalues.calls_per_window": ("linalg.sym_eigenvalues", "calls", "windows", 1.0, "calls/window"),
    "linalg.kron.calls_per_window": ("linalg.kron", "calls", "windows", 1.0, "calls/window"),
    "linalg.as_matrix.calls_per_window": ("linalg.as_matrix", "calls", "windows", 1.0, "calls/window"),
    "experiment.run_experiment.self_ms": ("experiment.run_experiment", "self", "round", 1e-6, "ms"),
    "regret.regret_series.ms": ("regret.regret_series", "total", "round", 1e-6, "ms"),
    "regret.lemma_regret_bound_check.ms": ("regret.lemma_regret_bound_check", "total", "round", 1e-6, "ms"),
    "config.get_preset.ms": ("config.get_preset", "total", "round", 1e-6, "ms"),
}
FIELDS = {"calls": 0, "total": 1, "self": 2}


class RoundError(RuntimeError):
    """A child did not run to its end: set-up failed, or time ran out."""


def run_child(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundError(f"no time left for a {mode} child")
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds), str(OUT)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RoundError(f"{mode} child of {workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise RoundError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def work(r: dict, window_length: int) -> int:
    """Run-steps of one round; the audit's windows count as
    ``window_length`` steps each (see README)."""
    return r["run_steps"] or r["windows"] * window_length


def end_to_end(child: dict, setups: list[tuple[float, float]]) -> dict:
    """Times are scaled to the reference machine speed: each is divided
    by ``calibration_s / REFERENCE_CALIBRATION_S`` measured alongside it,
    the rounds' throughput by their mean calibration (see README)."""
    rounds = child["rounds"]
    steps = sum(work(r, child["window_length"]) for r in rounds)
    body_s = sum(r["body_s"] for r in rounds)
    slowdown = statistics.mean(r["calibration_s"] for r in rounds) / REFERENCE_CALIBRATION_S
    setup = statistics.median(s * REFERENCE_CALIBRATION_S / c for s, c in setups)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "run_steps_per_s": {"value": steps / body_s * slowdown, "unit": "run-steps/s"},
        # after the first body: later readings include earlier rounds' checks
        "peak_rss_mb": {"value": rounds[0]["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(traced: dict, plain: dict) -> dict:
    layers = traced["layers"]
    (round_,) = traced["rounds"]
    denominators = {"steps": round_["run_steps"], "windows": round_["windows"], "round": 1}
    metrics = {}
    for name, (layer, field, per, scale, unit) in PER_LAYER.items():
        amount = layers.get(layer, [0, 0, 0])[FIELDS[field]] * scale
        denominator = denominators[per]
        metrics[name] = {"value": amount / denominator if denominator else 0.0, "unit": unit}
    metrics["netlms.import_ms"] = {"value": traced["import_s"] * 1e3, "unit": "ms"}
    overhead = 100.0 * (round_["body_s"] / plain["rounds"][0]["body_s"] - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def machine() -> dict:
    import importlib.metadata as md

    try:
        numpy_version = md.version("numpy")
    except md.PackageNotFoundError:
        numpy_version = "unknown"
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "netlms" / "__init__.py").is_file():
        print(f"no netlms sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = run_child(args.workload, args.seed, "plain", 0, deadline)
            traced = run_child(args.workload, args.seed, "traced", 0, deadline)
            children = [plain, traced]
            metrics = per_layer(traced, plain)
        else:
            child = run_child(args.workload, args.seed, "plain", args.seconds, deadline)
            children = [child]
            setups = [(child["setup_s"], child["rounds"][0]["calibration_s"])]
            while len(setups) < SETUP_SAMPLES:
                probe = run_child(args.workload, args.seed, "setup", 0, deadline)
                setups.append((probe["setup_s"], probe["calibration_s"]))
            metrics = end_to_end(child, setups)
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = [r for c in children for r in c["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"[{args.workload}] {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**vars(args), "machine": machine(), "children": children, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
