"""Artifact formats, and :func:`write`, the one writer of artifact files:
it writes UTF-8 whatever the locale and returns the SHA-256 of the bytes
it wrote, the digest the batch runner's manifest lists.

CSV cells use ``%.17g`` (exact float round-trip) and LF newlines.  JSON
files are two-space indented with sorted keys; numbers use Python's
shortest round-trip representation, and non-finite floats are written
as the strings ``"nan"``, ``"inf"`` and ``"-inf"`` (or ``null`` in
tables) so that strict parsers accept every file.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .excitation import ExcitationReport, pe_diagnostic

__all__ = [
    "SCHEMA",
    "AUDIT_WINDOW_CAP",
    "excitation_artifact",
    "jsonable",
    "table_text",
    "write",
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


def write(path: str, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8 and return the SHA-256 hex
    digest of the bytes written."""
    # imported here: it maps OpenSSL, which costs ``import netlms`` about 3.5 MB and 5 ms
    import hashlib

    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _audit(config) -> ExcitationReport:
    """The excitation audit of ``config`` that ``excitation.json`` holds:
    as many windows as fit in the configured horizon, at most
    :data:`AUDIT_WINDOW_CAP`."""
    windows = max(1, (config.horizon + 1) // config.excitation.window)
    return pe_diagnostic(config, windows=min(windows, AUDIT_WINDOW_CAP))


def excitation_artifact(report: ExcitationReport) -> str:
    """The text of ``excitation.json`` for an audit ``report``."""
    return _json_text({"schema": SCHEMA, "report": report})


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
    # imported here: it costs ``import netlms`` about 2 ms
    import json

    return json.dumps(jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def table_text(fmt: str, columns: list[str], rows: np.ndarray) -> str:
    """A table as CSV text, or as JSON ``{"schema", "columns", "rows"}``."""
    if fmt == "csv":
        lines = (",".join(format(float(v), ".17g") for v in row) for row in rows)
        return "\n".join([",".join(columns), *lines]) + "\n"
    return _json_text({
        "schema": SCHEMA,
        "columns": columns,
        # Strict JSON: non-finite cells (the sub-2-step mar entries)
        # become null rather than a NaN literal.
        "rows": [[float(v) if np.isfinite(v) else None for v in row] for row in rows],
    })
