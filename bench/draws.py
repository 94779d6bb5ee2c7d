"""Cost of each exogenous draw of the simulation kernel, against the
generator alone.

    python3 bench/draws.py [--repeats 7] [--chunks 20] [--json]

For the ``setting-i`` and ``regret`` presets at R = 1 and R = 20 runs, it
draws chunks of the kernel's own length (``estimator._default_chunk``)
into per-call runs-first slabs, the way ``estimator.simulate`` does, and
prints microseconds per run-step for each source:

- ``draw``: the block draw as the kernel makes it: ``graphs.graph_block``,
  ``regression.regression_block`` (the stacked regressors and
  measurements included), and ``MeasurementNoise.fill`` per run for the
  measurement and channel noise;
- ``floor``: the bare generator calls into the same slabs
  (``Generator.random(out=)`` or ``standard_normal(out=)``, one per run).

Each figure is the median over ``--repeats`` timings of ``--chunks``
consecutive chunks.  Run it from the root of a checkout; it imports
``netlms`` from that checkout's ``src/``.  Pin BLAS to one thread (for
example ``OPENBLAS_NUM_THREADS=1``) to compare with the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from netlms import estimator  # noqa: E402
from netlms.config import get_preset, with_overrides  # noqa: E402
from netlms.graphs import graph_block, graph_slab  # noqa: E402
from netlms.regression import regression_block, regression_slab  # noqa: E402

PRESETS = ("setting-i", "regret")
RUNS = (1, 20)


def _sources(model, runs, count):
    """``{source: (draw, floor)}``: two callables each, taking the chunk's
    first step and drawing one chunk of ``count`` steps for every run."""
    streams = [estimator.source_streams(np.random.SeedSequence(7, spawn_key=(r,))) for r in range(runs)]
    graph_rngs, regression_rngs, noise_rngs, channel_rngs = zip(*streams)
    gp, rp = model.graph, model.regression
    n_nodes, dim = model.init.shape
    graph_u = graph_slab(gp, runs, count)
    regression_u = regression_slab(rp, runs, count)
    noise_u = np.zeros((runs, count, rp.total_rows))
    channel_u = np.empty((runs, count, n_nodes, n_nodes, dim))
    noise = noise_u.transpose(1, 2, 0)
    state = {"graph": None}

    def fill(law, rngs, slab):
        for g, row in zip(rngs, slab):
            law.fill(g, row)

    def uniforms(rngs, slab):
        for g, row in zip(rngs, slab):
            g.random(out=row)

    def normals(rngs, slab):
        for g, row in zip(rngs, slab):
            g.standard_normal(out=row)

    def graph(start):
        state["graph"] = graph_block(gp, start, count, graph_rngs, state["graph"], graph_u)[1]

    def regression(start):
        regression_block(rp, model.x0, count, regression_rngs, noise, None, regression_u)

    # a source that draws nothing (a fixed graph, fixed regressors) has no
    # slab and no row; the ar-driven kind, which needs a history, is not
    # timed
    table = {}
    if graph_u is not None:
        table["graph"] = (graph, lambda start: uniforms(graph_rngs, graph_u))
    if regression_u is not None:
        table["regression"] = (regression, lambda start: uniforms(regression_rngs, regression_u))
    table["measurement"] = (lambda start: fill(model.measurement, noise_rngs, noise_u),
                            lambda start: normals(noise_rngs, noise_u))
    table["channel"] = (lambda start: fill(model.channel, channel_rngs, channel_u),
                        lambda start: normals(channel_rngs, channel_u))
    return table


def _us_per_run_step(draw, count, runs, chunks, repeats):
    times = []
    start = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(chunks):
            draw(start)
            start += count
        times.append((time.perf_counter() - t0) / (chunks * count * runs) * 1e6)
    return statistics.median(times)


def measure(repeats: int, chunks: int) -> list[dict]:
    rows = []
    for preset in PRESETS:
        for runs in RUNS:
            cfg = with_overrides(get_preset(preset), runs=runs)
            model = estimator.SimulationModel.from_config(cfg)
            count = estimator._default_chunk(runs, cfg.nodes, cfg.dim, sum(cfg.node_dims))
            for name, (draw, floor) in _sources(model, runs, count).items():
                rows.append({
                    "preset": preset,
                    "runs": runs,
                    "chunk": count,
                    "source": name,
                    "draw_us": round(_us_per_run_step(draw, count, runs, chunks, repeats), 4),
                    "floor_us": round(_us_per_run_step(floor, count, runs, chunks, repeats), 4),
                })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timings per figure (median taken)")
    parser.add_argument("--chunks", type=int, default=20, help="consecutive chunks per timing")
    parser.add_argument("--json", action="store_true", help="print the rows as one JSON list")
    args = parser.parse_args(argv)
    rows = measure(args.repeats, args.chunks)
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'preset':<10} {'R':>3} {'K':>4} {'source':<12} {'draw':>7} {'floor':>7}  us per run-step")
    for r in rows:
        print(f"{r['preset']:<10} {r['runs']:>3} {r['chunk']:>4} {r['source']:<12} "
              f"{r['draw_us']:>7.3f} {r['floor_us']:>7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
