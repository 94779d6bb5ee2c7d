"""Rounds of one workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode> <seconds> <out_dir>

``mode`` is ``setup`` (import and resolve the config, then stop),
``plain`` (set up, then run whole rounds until ``seconds`` have passed,
at least one) or ``traced`` (one round with every public ``netlms``
function wrapped by ``tracer.Tracer``).  A round times the calibration
kernel, runs the timed body and then checks its output.  The last line of standard output is one JSON
object with the set-up time, each round's timing, peak RSS so far and
operation counts and, when traced, per-layer totals.
Exit code 3 means the set-up failed: ``netlms`` could not be imported
from this checkout's ``src`` or the config did not resolve.

Only the standard library is imported before the set-up clock starts, so
``setup_s`` includes importing numpy through ``netlms``.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Round sizes: one to three seconds each on a 2-CPU machine, so that a
# run of 30 s holds ten rounds or more (see README).
REGRET_RUNS = 20
REGRET_HORIZON = 1_000
LONG_HORIZON = 30_000
AUDIT_WINDOWS = 1_000


def _regret_batch_config(nl, seed):
    return nl.with_overrides(nl.get_preset("regret"), seed=seed, runs=REGRET_RUNS, horizon=REGRET_HORIZON)


def _long_run_config(nl, seed):
    return nl.with_overrides(nl.get_preset("setting-i"), seed=seed, runs=1, horizon=LONG_HORIZON)


def _audit_config(nl, seed):
    return nl.with_overrides(nl.get_preset("setting-i"), seed=seed)


def _regret_batch(nl, cfg, out_dir):
    """Body: the ``netlms run`` path, artifacts written as CSV."""
    return nl.run_experiment(cfg, out_dir=str(out_dir), fmt="csv", workers=1)


def _long_run(nl, cfg, out_dir):
    """Body: one long run with bound checks, then both regret analyzers."""
    rec = nl.run_trajectory(cfg, nl.substream(cfg.seed, 0), check_bounds=True)
    series = nl.regret_series([rec], tau=cfg.gains.a_exp)
    lemma = nl.lemma_regret_bound_check([rec], rho0=cfg.excitation.rho0)
    return rec, series, lemma


def _audit(nl, cfg, out_dir):
    """Body: the excitation survey alone, no simulation."""
    return nl.pe_diagnostic(cfg, windows=AUDIT_WINDOWS)


# Iterations of the calibration kernel: about 0.1 s on a 2-CPU machine.
CALIBRATION_ITERATIONS = 5_000


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small numpy calls driven from
    Python, the same mix of work as the per-step and per-window code of
    ``netlms``.  The kernel uses numpy only, so changes to ``netlms``
    cannot move it; what moves it is the speed the machine gives this
    process at the moment."""
    import numpy as np

    base = np.arange(9.0).reshape(3, 3)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        m = base * (i % 5) + 1.0
        acc += float(np.linalg.eigvalsh(m + m.T)[0]) + float(m.sum())
    return time.perf_counter() - t0


# name -> (config, body, operations per round)
WORKLOADS = {
    "regret-batch": (_regret_batch_config, _regret_batch, REGRET_RUNS),
    "long-run": (_long_run_config, _long_run, 1),
    "excitation-audit": (_audit_config, _audit, AUDIT_WINDOWS),
}


def _check(workload, cfg, result) -> tuple[set[int], list[str]]:
    """Failed operations and the problems found."""
    import checks

    if workload == "regret-batch":
        return checks.check_regret_batch(cfg, result)
    if workload == "long-run":
        problems = checks.check_long_run(cfg, *result)
        return ({0} if problems else set()), problems
    return checks.check_excitation_audit(cfg, result, AUDIT_WINDOWS)


def _work(workload, cfg, result) -> tuple[int, int]:
    """Simulated run-steps and audited windows of one round."""
    if workload == "regret-batch":
        return cfg.runs * (cfg.horizon + 1), result.excitation.windows_checked
    if workload == "long-run":
        return cfg.horizon + 1, 0
    return 0, AUDIT_WINDOWS


def _round(nl, workload, cfg, work_dir) -> dict:
    """Run the body once, timed, then check its output, untimed."""
    _, body, operations = WORKLOADS[workload]
    shutil.rmtree(work_dir, ignore_errors=True)
    calibration_s = calibrate()
    t0 = time.perf_counter()
    try:
        result = body(nl, cfg, work_dir)
        error = None
    except Exception:  # a raising body fails every operation of the round
        error = traceback.format_exc(limit=3)
    body_s = time.perf_counter() - t0
    # read before the checks, so that their allocations do not count
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps = windows = 0
    if error is None:
        steps, windows = _work(workload, cfg, result)
        try:
            failed, problems = _check(workload, cfg, result)
        except Exception:  # output too malformed to check
            error = traceback.format_exc(limit=3)
    if error is not None:
        failed, problems = set(range(operations)), [error]
    shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "body_s": body_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": operations,
        "failed": len(failed),
        "problems": problems[:10],
        "run_steps": steps,
        "windows": windows,
    }


def main(argv) -> int:
    workload, seed, mode, seconds, out_dir = argv[1], int(argv[2]), argv[3], float(argv[4]), Path(argv[5])
    make_config = WORKLOADS[workload][0]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import netlms as nl
    except ImportError as exc:
        print(f"cannot import netlms from {SRC}: {exc}", file=sys.stderr)
        return 3
    if Path(nl.__file__).resolve().parent != SRC / "netlms":
        print(f"netlms resolved to {nl.__file__}, not this checkout's src", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - start
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        cfg = make_config(nl, seed)
    except nl.NetlmsError as exc:
        print(f"config did not resolve: {exc}", file=sys.stderr)
        return 3
    out = {"setup_s": time.perf_counter() - start, "import_s": import_s}
    if mode == "setup":
        out["calibration_s"] = calibrate()
        print(json.dumps(out))
        return 0

    work_dir = out_dir / f"artifacts-{workload}-{seed}-{mode}"
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        rounds.append(_round(nl, workload, cfg, work_dir))
    out.update(rounds=rounds, window_length=cfg.excitation.window)
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
