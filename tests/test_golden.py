"""Every file of the golden runs matches the committed manifest (see tests/golden.py).

File names, exit codes and error lines are compared everywhere; the hashes
only where numpy and the OpenBLAS build and core match the manifest's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nahn

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden" / "manifest.json"


def test_golden_outputs_match_manifest():
    # one BLAS thread, as the manifest was made (nahn also holds every
    # solve at one thread, so this pins nothing that nahn leaves free)
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(Path(nahn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "golden.py")], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(MANIFEST.read_text())
    # which files each run writes, its exit code and its error line do not
    # depend on the CPU kernel, so they are compared before any skip
    def kernel_free(files):
        return {name: {k: v for k, v in entry.items() if k in ("exit", "stderr")} for name, entry in files.items()}

    assert kernel_free(got["files"]) == kernel_free(want["files"])
    for field, value in want["environment"].items():
        if got["environment"].get(field) != value:
            pytest.skip(f"manifest made with {field} {value!r}, this run has {got['environment'].get(field)!r}")
    names = sorted(set(want["files"]) | set(got["files"]))
    differing = [name for name in names if want["files"].get(name) != got["files"].get(name)]
    assert not differing, f"{len(differing)} of {len(names)} files differ from the manifest, first: {differing[:10]}"
