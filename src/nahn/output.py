"""Deterministic CSV/JSON table writers with provenance headers.

Floats are written with 17 significant digits so files round-trip exactly
and repeated runs with the same configuration are byte-identical. Headers
never contain wall-clock information. Files are streamed to disk as they
are formatted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

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


def write_table(path, fmt: str, header: dict, columns, rows) -> Path:
    """Write a rectangular table with a provenance header.

    ``rows`` is a sequence of tuples of Python ints and floats. CSV files
    carry the header as one ``#``-prefixed JSON comment line followed by
    the column line, and write NaN and infinities as ``nan``/``inf``; JSON
    files hold ``{"header": ..., "columns": ..., "rows": ...}`` with
    ``null`` in their place.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    with _open(path) as f:
        if fmt == "csv":
            f.write("# " + json.dumps(_sanitize(header), sort_keys=True) + "\n")
            f.write(",".join(columns) + "\n")
            line = ",".join(["{:.17g}"] * len(columns)) + "\n"
            f.writelines(line.format(*row) for row in rows)
        else:
            rows = [
                row if all(map(math.isfinite, row)) else [v if math.isfinite(v) else None for v in row]
                for row in rows
            ]
            _dump_json({"header": _sanitize(header), "columns": list(columns), "rows": rows}, f)
    return Path(path)


def write_report(path, payload: dict) -> Path:
    """Write a standalone JSON report document."""
    with _open(path) as f:
        _dump_json(_sanitize(payload), f)
    return Path(path)
