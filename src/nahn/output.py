"""Deterministic CSV/JSON table writers with provenance headers.

Every float round-trips exactly: CSV writes 17 significant digits
(``{:.17g}``), JSON writes Python's shortest round-trip ``repr``. Repeated
runs with the same configuration are byte-identical, and headers never
contain wall-clock information. Tables arrive as numpy structured arrays
and are formatted and written ``BLOCK`` rows at a time; a block's text is
its rows, each its cells joined by one separator, with the row's line end
or brackets and indentation between rows. A column with few distinct
values (a state, site or eigenvalue) is formatted once per distinct value
and gathered per block; a column of mostly distinct values, or of more
than ``MAX_DISTINCT`` (the densities of a long chain), is formatted block
by block. Beyond the table
it is given, and the sorted copy of one column that counts its distinct
values, a writer thus holds the text and cells of one block and at most
``MAX_DISTINCT`` strings per column, however long the table is. The skin
report's states take the same path, as JSON objects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import config_hash
from .errors import ValidationError

#: Rows formatted and written at a time, chosen by the peak RSS of the
#: benchmark's big_chain workload (224-site density tables of 10^5 rows,
#: one 8 s run each): 52.7, 52.9, 53.3 and 58.5 MB at 1024, 2048, 4096 and
#: 8192 rows, where smaller blocks cost more per-block calls.
BLOCK = 2048

#: Most distinct values of a column that is formatted once per distinct
#: value. A skin table's density column holds about 1.1 N^2 distinct values
#: in its 2 N^2 rows (chiral partner states share most of their densities),
#: so up to N of about 120 it too is formatted once per distinct value,
#: which saves nearly half its formatting.
MAX_DISTINCT = 8 * BLOCK


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


def _texts(values: np.ndarray, fmt: str, label: str = "") -> list:
    """The text ``fmt`` writes for each of ``values``, after ``label``.

    CSV writes ``{:.17g}`` of the Python int or float; JSON writes its
    ``repr``, ``null`` for NaN and infinities, and strings as
    ``json.dumps`` quotes them.
    """
    kind = values.dtype.kind
    to_text = "{:.17g}".format if fmt == "csv" else json.dumps if kind == "U" else repr
    texts = list(map(to_text, values.tolist()))
    if fmt == "json" and kind == "f":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = "null"
    return [label + text for text in texts] if label else texts


def _distinct(keys: np.ndarray):
    """The distinct values of ``keys``, sorted, or None when they are more than ``MAX_DISTINCT`` or 3/4 of ``keys``.

    A sort and a comparison of neighbours, as ``np.unique`` does when
    asked for an inverse; without one, numpy 2.4 hashes, which is several
    times slower.
    """
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first] if np.count_nonzero(first) <= min(MAX_DISTINCT, 3 * len(keys) // 4) else None


def _column_cells(column: np.ndarray, fmt: str, label: str = ""):
    """A function from a slice of rows to ``column``'s cells in them, as :func:`_texts` writes them.

    A column whose distinct values number at most ``MAX_DISTINCT`` and
    at most 3/4 of its rows is formatted once per distinct value, and
    each block gathers its cells from those strings by binary search.
    Floats are told apart by their bit pattern, so ``-0.0`` and ``0.0``
    keep their own strings. Any other column (the densities of a long
    chain, or any column of all-distinct values, where a search would
    cost more than it saves) is formatted block by block.
    """
    keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    distinct = _distinct(keys)
    if distinct is not None:
        strings = np.array(_texts(distinct.view(column.dtype), fmt, label), dtype=object)
        return lambda rows: strings[np.searchsorted(distinct, keys[rows])].tolist()
    return lambda rows: _texts(column[rows], fmt, label)


def _columns(table: np.ndarray, names, fmt: str, labels=None) -> list:
    """Per field in ``names``, its :func:`_column_cells`; ``labels``, one per field, go before each of its values."""
    return [_column_cells(table[name], fmt, label) for name, label in zip(names, labels or [""] * len(names))]


def _write_rows(f, columns: list, n_rows: int, sep: str, opening: str, closing: str, last_closing: str) -> None:
    """Write ``n_rows`` rows, ``BLOCK`` at a time.

    A row is its cells in ``columns`` joined by ``sep``, between
    ``opening`` and ``closing`` (``last_closing`` after the last row).
    """
    for lo in range(0, n_rows, BLOCK):
        rows = slice(lo, lo + BLOCK)
        f.write(opening)
        f.write((closing + opening).join(map(sep.join, zip(*(cells(rows) for cells in columns)))))
        f.write(closing if lo + BLOCK < n_rows else last_closing)


def _write_spliced(f, doc: dict, key: str, columns: list, n_rows: int, opening: str, closing: str) -> None:
    """Write ``doc`` as ``json.dump(doc, sort_keys=True, indent=1)`` would, with ``n_rows`` rows of ``columns`` as ``doc[key]``.

    ``doc[key]`` is an empty list at the top level. A row is its cells
    joined by the text between two values at indent 3, between
    ``opening`` and ``closing``.
    """
    # only a top-level key follows a newline and a single space: nested keys
    # sit deeper, and a newline inside a JSON string is escaped
    head, tail = json.dumps(doc, sort_keys=True, indent=1).split(f'\n "{key}": []')
    f.write(f'{head}\n "{key}": ')
    if n_rows:
        f.write("[\n")
        _write_rows(f, columns, n_rows, ",\n   ", opening, closing + ",\n", closing)
        f.write("\n ]")
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
    names = rows.dtype.names
    columns = _columns(rows, names, fmt)
    with _open(path) as f:
        if fmt == "csv":
            f.write("# " + json.dumps(_sanitize(header), sort_keys=True) + "\n")
            f.write(",".join(names) + "\n")
            _write_rows(f, columns, len(rows), ",", "", "\n", "\n")
        else:
            doc = {"header": _sanitize(header), "columns": list(names), "rows": []}
            _write_spliced(f, doc, "rows", columns, len(rows), "  [\n   ", "\n  ]")
    return Path(path)


def write_report(path, payload: dict, states: np.ndarray) -> Path:
    """Write a standalone JSON report: ``payload`` plus ``"states"``, one object per element of ``states``.

    ``states`` is a numpy structured array of int, float and str fields,
    each object keyed by its field names. The document is laid out as
    ``json.dump(..., sort_keys=True, indent=1)`` would, with ``null`` for
    NaN and infinities.
    """
    names = sorted(states.dtype.names)
    columns = _columns(states, names, "json", [json.dumps(name) + ": " for name in names])
    with _open(path) as f:
        _write_spliced(f, {**_sanitize(payload), "states": []}, "states", columns, len(states), "  {\n   ", "\n  }")
    return Path(path)
