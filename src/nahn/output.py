"""Deterministic CSV/JSON table writers with provenance headers.

Every float round-trips exactly: CSV writes 17 significant digits
(``{:.17g}``), JSON writes Python's shortest round-trip ``repr``. Repeated
runs with the same configuration are byte-identical, and headers never
contain wall-clock information. Tables arrive as numpy columns; each
distinct value of a column is formatted once, together with the
separators its cells carry (a CSV row's line end; a JSON row's brackets
and indentation). A row is then its cells joined by one separator, and
rows are streamed to disk one at a time; the document is never built as
one string. The skin report's states take the same path, as JSON objects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import config_hash
from .errors import ValidationError


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
    """``path`` opened for writing with ``\n`` line ends, its directory created; a ``ValidationError`` if it cannot be."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path}: {exc}") from exc


def _cells(column: np.ndarray, fmt: str, before: str = "", after: str = "") -> list:
    """The strings ``fmt`` writes for ``column``, each between ``before`` and ``after``.

    Each distinct value is formatted and glued once, and the strings are
    gathered by the inverse index. Floats are told apart by their bit
    pattern, so ``-0.0`` and ``0.0`` keep their own strings. CSV writes
    ``{:.17g}`` of the Python int or float; JSON writes its ``repr``,
    ``null`` for NaN and infinities, and strings as ``json.dumps`` quotes
    them.
    """
    kind = column.dtype.kind
    distinct, inverse = np.unique(column.view(f"i{column.itemsize}") if kind == "f" else column, return_inverse=True)
    if kind == "f":
        distinct = distinct.view(column.dtype)
    to_text = "{:.17g}".format if fmt == "csv" else json.dumps if kind == "U" else repr
    strings = np.array(list(map(to_text, distinct.tolist())), dtype=object)
    if fmt == "json" and kind == "f":
        strings[~np.isfinite(distinct)] = "null"
    # in place, so that each unglued string is freed as its glued one replaces it
    if before:
        np.add(before, strings, out=strings)
    if after:
        np.add(strings, after, out=strings)
    return strings[inverse].tolist()


def _glued_cells(table: np.ndarray, names, fmt: str, opening: str, closing: str, labels=None) -> list:
    """Per field in ``names``, its cells: the first field's start with ``opening``, the last field's end with ``closing``.

    ``labels``, one per field, go before each of its values (JSON object keys).
    """
    labels = labels or [""] * len(names)
    last = len(names) - 1
    return [
        _cells(table[name], fmt, (opening if i == 0 else "") + label, closing if i == last else "")
        for i, (name, label) in enumerate(zip(names, labels))
    ]


def _write_spliced(f, doc: dict, key: str, cells: list) -> None:
    """Write ``doc`` as ``json.dump(doc, sort_keys=True, indent=1)`` would, with ``cells``' rows as ``doc[key]``.

    ``doc[key]`` is an empty list at the top level. A row is its cells
    joined by the text between two values at indent 3, and every row but
    the last keeps the ``",\n"`` its closing cell ends in. Rows are
    streamed one at a time.
    """
    # only a top-level key follows a newline and a single space: nested keys
    # sit deeper, and a newline inside a JSON string is escaped
    head, tail = json.dumps(doc, sort_keys=True, indent=1).split(f'\n "{key}": []')
    f.write(f'{head}\n "{key}": ')
    if cells and cells[0]:
        last = [c.pop() for c in cells]
        f.write("[\n")
        f.writelines(map(",\n   ".join, zip(*cells)))
        f.write(",\n   ".join(last)[: -len(",\n")] + "\n ]")
    else:
        f.write("[]")
    f.write(tail + "\n")


def write_table(path, fmt: str, header: dict, rows: np.ndarray) -> Path:
    """Write a rectangular table with a provenance header.

    ``rows`` is a numpy structured array of int and float fields; the file
    holds every field, in order and under its name, one row per element.
    CSV files carry the header as one ``#``-prefixed JSON comment
    line followed by the column line, and write NaN and infinities as
    ``nan``/``inf``; JSON files hold ``{"header": ..., "columns": ...,
    "rows": ...}`` laid out as ``json.dump(..., sort_keys=True, indent=1)``
    would, with ``null`` in their place.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    columns = rows.dtype.names
    if fmt == "csv":
        cells = _glued_cells(rows, columns, fmt, "", "\n")
    else:
        cells = _glued_cells(rows, columns, fmt, "  [\n   ", "\n  ],\n")
    with _open(path) as f:
        if fmt == "csv":
            f.write("# " + json.dumps(_sanitize(header), sort_keys=True) + "\n")
            f.write(",".join(columns) + "\n")
            f.writelines(map(",".join, zip(*cells)))
        else:
            _write_spliced(f, {"header": _sanitize(header), "columns": list(columns), "rows": []}, "rows", cells)
    return Path(path)


def write_report(path, payload: dict, states: np.ndarray) -> Path:
    """Write a standalone JSON report: ``payload`` plus ``"states"``, one object per element of ``states``.

    ``states`` is a numpy structured array of int, float and str fields,
    each object keyed by its field names. The document is laid out as
    ``json.dump(..., sort_keys=True, indent=1)`` would, with ``null`` for
    NaN and infinities.
    """
    names = sorted(states.dtype.names)
    cells = _glued_cells(states, names, "json", "  {\n   ", "\n  },\n", [json.dumps(name) + ": " for name in names])
    with _open(path) as f:
        _write_spliced(f, {**_sanitize(payload), "states": []}, "states", cells)
    return Path(path)
