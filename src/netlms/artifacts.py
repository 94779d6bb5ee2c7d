"""Artifact formats shared by the batch runner and the CLI.

CSV cells use ``%.17g`` (exact float round-trip) and LF newlines.  JSON
files are two-space indented with sorted keys; numbers use Python's
shortest round-trip representation, and non-finite floats are written
as the strings ``"nan"``, ``"inf"`` and ``"-inf"`` (or ``null`` in
tables) so that strict parsers accept every file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

__all__ = [
    "SCHEMA",
    "AUDIT_WINDOW_CAP",
    "audit_windows",
    "excitation_payload",
    "jsonable",
    "write_json",
    "write_table",
    "sha256",
]

# Version of every artifact layout and of the simulator's random stream.
# 2: one substream per (run, source), drawn in blocks.
# 3: the same draws; each step is one fused sum, which rounds differently.
# 4: the audit's gain-weighted series take the simulator's gain table.
# 5: a window's pooled Gram is the window length times the one-step sum,
#    and the Gamma1 report has no ``exactness`` key.
SCHEMA = 5
# Cap on excitation windows serialized into the artifact; keeps the JSON
# a few hundred KB even for very long horizons.
AUDIT_WINDOW_CAP = 2000


def audit_windows(config) -> int:
    """Windows the excitation artifact covers: as many as fit in the
    configured horizon, at most :data:`AUDIT_WINDOW_CAP`."""
    total = max(1, (config.horizon + 1) // max(1, config.excitation.window))
    return min(total, AUDIT_WINDOW_CAP)


def excitation_payload(report) -> dict:
    return {"schema": SCHEMA, "report": report}


_PLAIN = (str, int, bool, type(None))


def jsonable(obj):
    """``obj`` as plain JSON values: dataclasses and dicts become dicts,
    arrays, lists and tuples lists, numpy scalars Python numbers, and
    non-finite floats the strings of the module docstring."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(obj)
        # JSON has no Infinity/NaN literals that survive strict parsers.
        return "nan" if obj != obj else ("inf" if obj > 0 else "-inf")
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        # one tolist() gives plain Python numbers; only a non-finite
        # float needs an element's own conversion
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    return obj


def _json_text(payload) -> str:
    """The text of a JSON artifact, newline-terminated."""
    return json.dumps(jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str, payload) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_json_text(payload))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_table(path: str, fmt: str, columns: list[str], rows: np.ndarray) -> None:
    """Write a table as CSV or as JSON ``{"schema", "columns", "rows"}``."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        data = "\n".join(lines) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(data)
    else:
        payload = {
            "schema": SCHEMA,
            "columns": columns,
            # Strict JSON: non-finite cells (the sub-2-step mar entries)
            # become null rather than a NaN literal.
            "rows": [[float(v) if np.isfinite(v) else None for v in row] for row in rows],
        }
        write_json(path, payload)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
