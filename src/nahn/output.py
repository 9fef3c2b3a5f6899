"""Deterministic CSV/JSON table writers with provenance headers.

Every float round-trips exactly: CSV writes 17 significant digits
(``{:.17g}``), JSON writes Python's shortest round-trip ``repr``. Repeated
runs with the same configuration are byte-identical, and headers never
contain wall-clock information. Tables arrive as numpy columns; each
distinct value of a column is formatted once, and the rows are streamed
to disk as they are assembled.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import config_hash


def build_header(effective_cfg: dict, **extra) -> dict:
    """Provenance header: ``effective_cfg``'s command and digest, then ``extra``."""
    from . import __version__

    header = {
        "artifact": "nahn",
        "version": __version__,
        "command": effective_cfg["command"],
        "config_sha256": config_hash(effective_cfg),
    }
    header.update(extra)
    return header


def _sanitize(obj):
    """Make header and report values strict-JSON serializable (NaN/inf -> null, numpy scalars -> Python)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "item"):
        return _sanitize(obj.item())
    return obj


def _open(path):
    """``path`` opened for writing with ``\n`` line ends, its directory created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="\n")


def _dump_json(doc, f) -> None:
    json.dump(doc, f, sort_keys=True, indent=1)
    f.write("\n")


def _cells(column: np.ndarray, fmt: str) -> list:
    """The strings ``fmt`` writes for ``column``, each distinct value formatted once.

    Floats are told apart by their bit pattern, so ``-0.0`` and ``0.0``
    keep their own strings. CSV writes ``{:.17g}`` of the Python int or
    float; JSON writes its ``repr``, and ``null`` for NaN and infinities.
    """
    is_float = column.dtype.kind == "f"
    distinct, inverse = np.unique(column.view(f"i{column.itemsize}") if is_float else column, return_inverse=True)
    if is_float:
        distinct = distinct.view(column.dtype)
    strings = np.array(list(map("{:.17g}".format if fmt == "csv" else repr, distinct.tolist())), dtype=object)
    if fmt == "json":
        strings[~np.isfinite(distinct)] = "null"
    return strings[inverse].tolist()


def write_table(path, fmt: str, header: dict, columns, table) -> Path:
    """Write a rectangular table with a provenance header.

    ``table`` is a numpy structured array of int and float fields; the file
    holds the fields named in ``columns``, in that order, one row per
    element. CSV files carry the header as one ``#``-prefixed JSON comment
    line followed by the column line, and write NaN and infinities as
    ``nan``/``inf``; JSON files hold ``{"header": ..., "columns": ...,
    "rows": ...}`` laid out as ``json.dump(..., sort_keys=True, indent=1)``
    would, with ``null`` in their place.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    cells = [_cells(table[name], fmt) for name in columns]
    with _open(path) as f:
        if fmt == "csv":
            f.write("# " + json.dumps(_sanitize(header), sort_keys=True) + "\n")
            f.write(",".join(columns) + "\n")
            line = ",".join(["{}"] * len(columns)) + "\n"
            f.writelines(map(line.format, *cells))
        else:
            doc = {"header": _sanitize(header), "columns": list(columns), "rows": []}
            text = json.dumps(doc, sort_keys=True, indent=1)
            if len(table):
                # "rows" sorts last, so ``text`` ends with its empty list: open it and splice the rows in.
                f.write(text[: -len("[]\n}")] + "[\n")
                row = "  [\n" + ",\n".join(["   {}"] * len(columns)) + "\n  ]"
                last = [c.pop() for c in cells]
                f.writelines(map((row + ",\n").format, *cells))
                text = row.format(*last) + "\n ]\n}"
            f.write(text + "\n")
    return Path(path)


def write_report(path, payload: dict) -> Path:
    """Write a standalone JSON report document."""
    with _open(path) as f:
        _dump_json(_sanitize(payload), f)
    return Path(path)
