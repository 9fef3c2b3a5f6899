"""Golden-output manifest: SHA-256 of every file a fixed set of CLI runs writes.

Runs ``nahn.cli.main`` in-process over the invocations in ``RUNS``, each
in csv and json and each into its own directory under a temporary
directory, and prints JSON of the form::

    {"environment": {"numpy": ..., "openblas": ...},
     "files": {"<run>/<file>": {"exit": 0, "rows": <sha256>, "header": <sha256>}}}

``rows`` hashes everything after the provenance header: the CSV column
line and data lines, or the JSON document without its ``"header"``.
``header`` hashes the header without ``version``, since headers carry
results (``nu``, ``gamma``, ``exceptional_k``, ...) and ``config_sha256``.
A run that exits non-zero is one entry ``<run>/`` holding its exit code
and the first line it wrote to stderr.

The last digits of the eigensolves depend on the CPU kernel, so the
manifest records the numpy version and the OpenBLAS build (with its core)
it was made on. nahn runs every solve at one OpenBLAS thread; the manifest
is made and compared with ``OPENBLAS_NUM_THREADS=1`` as well. Regenerate
it with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py > tests/golden/manifest.json
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from nahn.cli import main

RECIPES = Path(__file__).resolve().parent.parent / "recipes"
FORMATS = ("csv", "json")

#: Config-getter of each OpenBLAS build numpy may link: 64-bit-integer
#: scipy-openblas, 32-bit-integer scipy-openblas, and a system OpenBLAS.
_OPENBLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config")

CIRCUITS = ("fig3b", "fig3c", "fig3d", "fig4abc", "fig4def")
GENERAL = {"t0": 0.7, "tL": 1.1, "tR": 0.8, "dL": [0.6, 0, 0.8], "dR": [0, 0.6, 0.8], "chain_N": 30}
SWEEP = {"resolution": 8, "chain_N": 20}

#: run name -> (command, recipe or None, config keys laid over it, extra CLI flags)
RUNS = {
    **{f"spectrum-{r}": ("spectrum", r, {}, []) for r in ("fig1c", "fig1d", "fig1f", "fig1g", *CIRCUITS)},
    **{f"spectrum-{r}-zero-r0": ("spectrum", r, {}, ["--zero-r0"]) for r in CIRCUITS},
    **{f"skin-{r}": ("skin", r, {}, []) for r in ("fig1g", "fig4abc", "fig4def")},
    **{f"measure-{r}": ("measure", r, {}, []) for r in CIRCUITS},
    **{f"measure-{r}-zero-r0": ("measure", r, {}, ["--zero-r0"]) for r in CIRCUITS},
    **{f"measure-{r}-noise": ("measure", r, {"noise_sigma": 0.01}, ["--seed", "7"]) for r in CIRCUITS},
    "phase-diagram-fig1b": ("phase-diagram", "fig1b", SWEEP, []),
    "phase-diagram-fig1e": ("phase-diagram", "fig1e", SWEEP, []),
    "phase-diagram-fig1e-general": ("phase-diagram", "fig1e", {**SWEEP, "dL": [0.6, 0, 0.8]}, []),
    "spectrum-general-pbc": ("spectrum", None, {**GENERAL, "boundary": "PBC"}, []),
    "spectrum-general-obc": ("spectrum", None, {**GENERAL, "boundary": "OBC"}, []),
    # tL = 0 gives P(z) = (z + 1)^2 and tR = 0 gives z^2 (z^2 + 1): roots on |z| = 1
    "spectrum-gap-closing-tL0": ("spectrum", "fig1c", {"tL": 0.0, "tR": 1.0}, []),
    "spectrum-gap-closing-tR0": ("spectrum", "fig1c", {"tL": 1.0, "tR": 0.0}, []),
    "phase-diagram-circuit": ("phase-diagram", "fig3b", {}, []),
}


def openblas_config():
    """The loaded OpenBLAS's build string, which names the core it runs on; None without OpenBLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in _OPENBLAS_CONFIG_SYMBOLS:
        get_config = getattr(lib, name, None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode().strip()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "openblas": openblas_config()}


def write_config(path: Path, recipe, keys: dict) -> Path:
    """A config file: the recipe's lines without the overridden keys, then ``keys``."""
    lines = []
    if recipe is not None:
        for line in (RECIPES / f"{recipe}.cfg").read_text().splitlines():
            key = line.split("#", 1)[0].partition("=")[0].strip()
            if key not in keys:
                lines.append(line)
    lines += [f"{key} = {json.dumps(value)}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def digest(path: Path) -> dict:
    """Hashes of a written file's header (without ``version``) and of the rest."""
    if path.suffix == ".csv":
        first, _, rest = path.read_bytes().partition(b"\n")
        header = json.loads(first[2:])
        rows = _sha(rest)
    else:
        doc = json.loads(path.read_text())
        header = doc.pop("header")
        rows = _sha(doc)
    header.pop("version", None)
    return {"exit": 0, "rows": rows, "header": _sha(header)}


def run_all(work: Path) -> dict:
    files = {}
    for name, (command, recipe, keys, flags) in RUNS.items():
        for fmt in FORMATS:
            run = f"{name}-{fmt}"
            out_dir = work / run
            out_dir.mkdir()
            config = write_config(work / f"{run}.cfg", recipe, keys)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(config), "--out", str(out_dir / f"out.{fmt}"),
                             "--format", fmt, *flags])
            if code != 0:
                files[f"{run}/"] = {"exit": code, "stderr": stderr.getvalue().partition("\n")[0]}
                continue
            for path in sorted(out_dir.iterdir()):
                files[f"{run}/{path.name}"] = digest(path)
    return files


def manifest() -> dict:
    with tempfile.TemporaryDirectory() as work:
        return {"environment": environment(), "files": run_all(Path(work))}


if __name__ == "__main__":
    json.dump(manifest(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
