"""Batch runner producing on-disk artifacts for a configured experiment.

One call simulates ``runs`` independent trajectories under per-run
substreams of the master seed, advancing them together (one batch per
worker process), and writes, into a single output directory:

* ``run_NNNN.csv`` (or ``.json``) — per-run trajectory table with columns
  ``step, V, err_norm_1..N, est_norm_1..N``, thinned to every
  ``record_every``-th step (the final step is always included);
* ``aggregate.csv`` (or ``.json``) — across-run means at the same steps:
  ``step, mean_V, regret_1..N, mar``.  Regret columns are cumulative
  excess losses averaged over runs and computed at full resolution before
  thinning; ``mar`` is the max-over-nodes regret normalized by
  ``t^(1-tau) ln t`` with ``tau`` taken from the innovation-gain exponent
  (``nan`` below step 2);
* ``excitation.json`` — the windowed excitation diagnostic;
* ``config.txt`` — the canonical rendering of the resolved configuration;
* ``manifest.json`` — seed, config digest, library versions, bound-check
  totals, each run's first non-finite step, and a SHA-256 digest of
  every other artifact.  No timestamps: rerunning the same configuration
  on the same library versions reproduces every file byte for byte,
  whatever the worker count.

The file formats and the writer are those of :mod:`netlms.artifacts`; the
manifest lists the digests the writer returns, so no file is read back.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .artifacts import SCHEMA, _audit, _json_text, excitation_artifact, table_text, write
from .config import ExperimentConfig, render_config
from .errors import InvalidInputError
from .estimator import _run_seed, _sample_runs
from .excitation import ExcitationReport
from .linalg import as_index
from .regret import _SeriesFill

__all__ = ["ExperimentArtifacts", "run_experiment", "default_out_dir"]

OUT_DIR_ENV = "NETLMS_OUT"


@dataclass(frozen=True)
class ExperimentArtifacts:
    """Paths written by :func:`run_experiment`, plus the in-memory
    aggregate table (column name -> vector) and excitation report."""

    out_dir: str
    run_files: tuple[str, ...]
    aggregate_file: str
    excitation_file: str
    config_file: str
    manifest_file: str
    aggregate: dict[str, np.ndarray]
    excitation: ExcitationReport


def default_out_dir(config: ExperimentConfig) -> str:
    """Where :func:`run_experiment` writes when given no ``out_dir``:
    ``$NETLMS_OUT/<name>``, else ``./netlms-out/<name>``."""
    env = os.environ.get(OUT_DIR_ENV, "")
    base = env if env else os.path.join(".", "netlms-out")
    return os.path.join(base, config.name)


# the chunk statistics each worker keeps at the record grid
_FIELDS = ("v", "err_norms", "est_norms", "cum_excess")


def _simulate_runs(args):
    """Worker: simulate runs ``first .. first + count - 1`` together and
    keep, at the record grid ``idx``, V, both norms and the cumulative
    excess losses (summed at full resolution), plus one bound-check report
    per run."""
    config, first, count, idx = args
    seeds = [_run_seed(config.seed, r) for r in range(first, first + count)]
    got, _, reports = _sample_runs(config, seeds, idx, _FIELDS)
    return got, reports


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | None = None,
    fmt: str = "csv",
    workers: int = 1,
) -> ExperimentArtifacts:
    """Run the configured batch and write all artifacts.

    ``fmt`` selects ``csv`` or ``json`` for the tabular artifacts (the
    excitation report and manifest are always JSON).  ``workers > 1``
    distributes runs across processes; results and files are identical
    either way because every run consumes its own seed substream.
    """
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    workers = as_index(workers, "workers")
    if workers < 1:
        raise InvalidInputError("workers must be positive")
    out = default_out_dir(config) if out_dir is None else out_dir
    try:  # a name the file system cannot spell fails before any directory is made
        os.fsencode(out)
    except UnicodeEncodeError:
        raise InvalidInputError(
            f"output directory {out!r} cannot be encoded as {sys.getfilesystemencoding()}"
        ) from None
    # audit first: a config outside the analyzer's reach (ar-driven, one
    # node) fails before any run is simulated or any file is written; the
    # report's text is built after the runs, so it is not held under their peak
    report = _audit(config)
    os.makedirs(out, exist_ok=True)

    # the record grid: every record_every-th step, and the last step
    idx = np.append(np.arange(0, config.horizon, config.record_every), config.horizon)
    # one batch per worker, contiguous runs; the files do not depend on the split
    jobs = [(config, int(part[0]), part.size, idx)
            for part in np.array_split(np.arange(config.runs), workers) if part.size]
    if len(jobs) == 1:
        results = [_simulate_runs(jobs[0])]
    else:
        # imported here: it costs ``import netlms`` about 20 ms and 2 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(_simulate_runs, jobs))
    got = {f: np.concatenate([r[0][f] for r in results]) for f in _FIELDS}
    reports = [br for r in results for br in r[1]]

    n = config.nodes
    run_cols = ["step", "V"] + [f"err_norm_{i + 1}" for i in range(n)] + [
        f"est_norm_{i + 1}" for i in range(n)
    ]
    files = {}  # file name -> SHA-256 of the bytes written

    def put(name: str, text: str) -> str:
        path = os.path.join(out, name)
        files[name] = write(path, text)
        return path

    run_files = [
        put(f"run_{i:04d}.{fmt}", table_text(fmt, run_cols, np.column_stack(
            [idx, got["v"][i], got["err_norms"][i], got["est_norms"][i]])))
        for i in range(config.runs)
    ]
    # the record grid is one block of the across-run fold
    fill = _SeriesFill(idx, config.gains.a_exp, config.runs, n)
    fill.fold(zip(got["cum_excess"], got["v"]))
    series = fill.series
    agg_cols = ["step", "mean_V"] + [f"regret_{i + 1}" for i in range(n)] + ["mar"]
    agg_rows = np.column_stack([idx, series.mean_v, series.regret, series.mar])
    aggregate_file = put(f"aggregate.{fmt}", table_text(fmt, agg_cols, agg_rows))
    excitation_file = put("excitation.json", excitation_artifact(report))
    config_file = put("config.txt", render_config(config))

    manifest = {
        "schema": SCHEMA,
        "name": config.name,
        "seed": config.seed,
        "runs": config.runs,
        "horizon": config.horizon,
        "record_every": config.record_every,
        "format": fmt,
        "config_sha256": files["config.txt"],
        "versions": {
            "netlms": _package_version(),
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "bound_checks": {
            "steps": sum(br.steps_checked for br in reports),
            "w_violations": sum(br.w_violations for br in reports),
            "m_violations": sum(br.m_violations for br in reports),
        },
        # per run: the first step whose V is not finite, null if none
        "first_nonfinite_step": [br.first_nonfinite_step for br in reports],
        "files": files,
    }
    manifest_file = os.path.join(out, "manifest.json")
    write(manifest_file, _json_text(manifest))

    aggregate = {name: agg_rows[:, j].copy() for j, name in enumerate(agg_cols)}
    return ExperimentArtifacts(
        out_dir=out,
        run_files=tuple(run_files),
        aggregate_file=aggregate_file,
        excitation_file=excitation_file,
        config_file=config_file,
        manifest_file=manifest_file,
        aggregate=aggregate,
        excitation=report,
    )


def _package_version() -> str:
    """The installed netlms version, ``"unknown"`` when it is not installed
    (run from a source tree); any other lookup failure propagates.  The
    import stays here: it costs ``import netlms`` about 25 ms."""
    import importlib.metadata

    try:
        return importlib.metadata.version("netlms")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"
