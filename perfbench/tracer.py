"""Call tracing for the traced benchmark round, from outside the program.

``Tracer.install`` wraps every public function of every loaded ``netlms``
module (the names in each module's ``__all__``) plus the two per-step
noise methods, and rebinds each wrapped name in every ``netlms`` module
that holds it, so internal calls such as ``run_trajectory -> node_step``
go through the wrappers too.  The program's source is not touched.

Each call records one span: layer id, parent span, start and end in
nanoseconds.  Spans stay in memory in one flat ``array('q')`` and are
written once, by ``write``, when the round ends.  A layer's self time is
its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Methods called once per simulated step; the rest of the noise model is
# covered by the module-level functions.
TRACED_METHODS = (("ChannelNoise", "sample"), ("NoiseIntensity", "matrix"))


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans = array("q")  # flat records: layer, parent, start_ns, end_ns
        self._stack = [-1]

    def wrap(self, layer: str, fn):
        layer_id = len(self.layers)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((layer_id, stack[-1], 0, 0))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 2] = start
                spans[4 * index + 3] = end

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "netlms" or name.startswith("netlms.")]
        for module in modules:
            short = module.__name__.partition(".")[2]
            if not short:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        noise = sys.modules["netlms.noise"]
        for cls_name, method in TRACED_METHODS:
            cls = getattr(noise, cls_name)
            setattr(cls, method, self.wrap(f"noise.{cls_name}.{method}", getattr(cls, method)))

    def summary(self) -> dict[str, list[int]]:
        """Per layer: ``[calls, inclusive ns, self ns]`` over every span."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        count = len(self.layers)
        if rec.size == 0:
            return {}
        duration = rec[:, 3] - rec[:, 2]
        has_parent = rec[:, 1] >= 0
        # float64 holds nanosecond sums exactly up to 2**53 ns (104 days)
        child = np.bincount(rec[has_parent, 1], weights=duration[has_parent], minlength=len(rec))
        own = duration - child.astype(np.int64)
        calls = np.bincount(rec[:, 0], minlength=count)
        total = np.bincount(rec[:, 0], weights=duration, minlength=count).astype(np.int64)
        selfs = np.bincount(rec[:, 0], weights=own, minlength=count).astype(np.int64)
        return {
            layer: [int(calls[i]), int(total[i]), int(selfs[i])]
            for i, layer in enumerate(self.layers)
            if calls[i]
        }

    def write(self, path) -> None:
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez(path, layers=np.array(self.layers), spans=rec)
