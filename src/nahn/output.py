"""Deterministic CSV/JSON table writers with provenance headers.

Floats are written with 17 significant digits so files round-trip exactly
and repeated runs with the same configuration are byte-identical. Headers
never contain wall-clock information.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .config import config_hash


def build_header(command: str, effective_cfg: dict, **extra) -> dict:
    from . import __version__

    header = {
        "artifact": "nahn",
        "version": __version__,
        "command": command,
        "config_sha256": config_hash(effective_cfg),
    }
    header.update(extra)
    return header


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _sanitize(obj):
    """Make header/row values strict-JSON serializable (NaN/inf -> null)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if hasattr(obj, "item"):
        return _sanitize(obj.item())
    return obj


def write_table(path, fmt: str, header: dict, columns, rows) -> Path:
    """Write a rectangular table with a provenance header.

    CSV files carry the header as one ``#``-prefixed JSON comment line
    followed by the column line; JSON files hold
    ``{"header": ..., "columns": ..., "rows": ...}``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = ["# " + json.dumps(_sanitize(header), sort_keys=True)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(format_value(v) for v in row))
        path.write_text("\n".join(lines) + "\n", newline="\n")
    elif fmt == "json":
        doc = {
            "header": _sanitize(header),
            "columns": list(columns),
            "rows": [_sanitize(list(row)) for row in rows],
        }
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", newline="\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


def write_report(path, payload: dict) -> Path:
    """Write a standalone JSON report document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=1) + "\n", newline="\n")
    return path

