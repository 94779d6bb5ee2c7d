"""Command-line harness.

Subcommands:

* ``run`` — simulate a batch of runs and write all artifacts;
* ``audit`` — windowed excitation diagnostic only (no simulation), as JSON;
* ``validate-gains`` — check a config's step-size schedule against one of
  the two admissibility conditions (exit code 1 on failure);
* ``presets`` — list the built-in benchmark configurations.

``--config`` accepts either a path to a config file or the name of a
built-in preset (a path wins when both exist).  ``--seed``, ``--runs``
and ``--horizon`` override the corresponding config fields; ``--out``
names the output directory.  ``run --workers N`` spreads the runs over
``N`` processes; the files are the same for every ``N``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .artifacts import _audit, excitation_artifact, write
from .config import (
    PRESET_SUMMARIES,
    get_preset,
    load_config,
    preset_names,
    render_config,
    with_overrides,
)
from .errors import NetlmsError
from .estimator import validate_gains
from .experiment import run_experiment

__all__ = ["main", "build_parser"]


def _resolve_config(spec: str):
    if os.path.exists(spec):
        return load_config(spec)
    try:
        return get_preset(spec)
    except NetlmsError:
        raise NetlmsError(
            f"--config {spec!r} is neither an existing file nor a preset "
            f"(presets: {', '.join(preset_names())})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netlms",
        description="distributed online regression simulator and analyzers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a batch of runs and write artifacts")
    run.add_argument("--config", required=True, help="config file path or preset name")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument("--runs", type=int, default=None, help="override run count")
    run.add_argument("--horizon", type=int, default=None, help="override step count")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="tabular artifact format (default csv)")
    run.add_argument("--workers", type=int, default=1,
                     help="processes to spread the runs over (default 1); the files do not depend on it")

    audit = sub.add_parser("audit", help="excitation diagnostic only, as JSON")
    audit.add_argument("--config", required=True, help="config file path or preset name")
    audit.add_argument("--horizon", type=int, default=None, help="override audited horizon")
    audit.add_argument("--out", default=None,
                       help="directory for excitation.json (default: print to stdout)")

    vg = sub.add_parser("validate-gains", help="check the step-size schedule")
    vg.add_argument("--config", required=True, help="config file path or preset name")
    vg.add_argument("--mode", choices=("C1", "C2"), default="C1",
                    help="which admissibility condition to check (default C1)")

    pr = sub.add_parser("presets", help="list built-in configurations")
    pr.add_argument("--show", default=None, metavar="NAME",
                    help="print the named preset as config-file text")
    return parser


def _cmd_run(args) -> int:
    cfg = _resolve_config(args.config)
    cfg = with_overrides(cfg, seed=args.seed, runs=args.runs, horizon=args.horizon)
    art = run_experiment(cfg, out_dir=args.out, fmt=args.format, workers=args.workers)
    rep, series = art.excitation, art.series
    print(f"wrote {len(art.run_files)} run files + aggregate + excitation + manifest "
          f"to {art.out_dir}")
    print(f"final step {int(series.steps[-1])}: mean V = {series.mean_v[-1]:.6g}, "
          f"mar = {series.mar[-1]:.6g}")
    print(f"excitation: excited={rep.excited}, sublinear_warning={rep.sublinear_warning}, "
          f"lower-bound violations={rep.bound_check.violations}")
    return 0


def _cmd_audit(args) -> int:
    cfg = _resolve_config(args.config)
    cfg = with_overrides(cfg, horizon=args.horizon)
    text = excitation_artifact(_audit(cfg))
    if args.out is None:
        print(text, end="")
    else:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "excitation.json")
        write(path, text)
        print(f"wrote {path}")
    return 0


def _cmd_validate_gains(args) -> int:
    cfg = _resolve_config(args.config)
    report = validate_gains(cfg.model.gains, mode=args.mode)
    print(f"schedule check, condition {report.mode}: {'PASS' if report.passed else 'FAIL'}")
    for name, ok, detail in report.checks:
        print(f"  [{'ok' if ok else '!!'}] {name}: {detail}")
    return 0 if report.passed else 1


def _cmd_presets(args) -> int:
    if args.show is not None:
        print(render_config(get_preset(args.show)), end="")
        return 0
    width = max(len(n) for n in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {PRESET_SUMMARIES[name]}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "validate-gains": _cmd_validate_gains,
    "presets": _cmd_presets,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NetlmsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
