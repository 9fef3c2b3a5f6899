"""Every numeric entry of every recipe at extreme values, under every run the golden manifest makes of that recipe.

Each run goes through ``nahn.cli.main`` in process, with warnings as errors,
at ``chain_N = 12`` and ``resolution = 8``; one measure run of each circuit
draws component noise from seed 7. A circuit's entries are also swept at a
drive of 1e150 rad/s, where large capacitances overflow the admittances in
siemens, and the drive itself takes every value. A run must exit 0, 2, 3 or
4, with 4 only from ``measure`` and never for a condition number that is
nan. A failing run writes exactly one stderr line (besides the sweep's
progress rows) and no traceback. After exit 0, every number in every file it
wrote is finite, or one of the documented nulls: ``nu`` beside its
``nu_error``, the noise fields of a noiseless measurement, and a sweep cell's
NaN ``gamma``. A circuit's values are in range for every command or for
none: the noiseless ``spectrum``, ``skin`` and ``measure`` runs of one
circuit config with the same flags all reject it with one message, or none
rejects it.

``chain_N``, ``kpoints``, ``resolution`` and ``threads`` allocate arrays or
start threads, so they get no huge values: their bounds are tested through
the validators only.
"""

import contextlib
import io
import json
import math
import warnings

import golden
import pytest

from nahn.cli import main
from nahn.config import SETTINGS, parse_kv_text

VALUES = (0.0, -0.0, 1e-300, -1e-300, 1e-320, 1e-160, 1e150, 1e160, 1e300, -1.0, 0.5)
SIZES = {"chain_N": 12, "resolution": 8}
ALLOCATING = ("chain_N", "kpoints", "resolution", "threads")
PREFIXES = {2: "config error: ", 3: "numerical failure: ", 4: "singular network: "}

#: recipe -> its golden runs as (command, run settings, flags); runs that
#: change a model key (the general directions, the gap closings) are left out
RUNS = {}
for command, recipe, keys, flags in golden.RUNS.values():
    if recipe is not None and keys.keys() <= SETTINGS.keys():
        RUNS.setdefault(recipe, []).append((command, keys, flags))

#: (recipe, key) of every numeric entry of the recipes that allocates nothing
ENTRIES = [
    (recipe, key)
    for recipe in RUNS
    for key, value in parse_kv_text((golden.RECIPES / f"{recipe}.cfg").read_text()).items()
    if isinstance(value, (int, float)) and not isinstance(value, bool) and key not in ALLOCATING
]

#: (recipe, the config keys laid over it) of every case
CASES = [(recipe, {key: value}) for recipe, key in ENTRIES for value in VALUES]
CASES += [(recipe, {"omega_rad_s": 1e150, key: value}) for recipe, key in ENTRIES if recipe in golden.CIRCUITS
          for value in VALUES]
CASES += [(recipe, {"omega_rad_s": value}) for recipe in golden.CIRCUITS for value in VALUES]


def _leaves(obj, path=()):
    """``(path, value)`` of every number and null in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, (*path, i))
    elif obj is None or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield path, obj


def _check_header(header: dict, noiseless: bool, where: str) -> None:
    allowed = {("nu",)} if "nu_error" in header else set()
    if noiseless:
        allowed |= {("noise", "sigma"), ("noise", "seed")}
    for path, value in _leaves(header):
        assert (value is None and path in allowed) or (value is not None and math.isfinite(value)), (where, path, value)


def _check_outputs(out_dir, noiseless: bool) -> None:
    files = sorted(out_dir.iterdir())
    assert files
    for path in files:
        if path.suffix == ".csv":
            first, columns, *rows = path.read_text().splitlines()
            _check_header(json.loads(first[2:]), noiseless, path.name)
            columns = columns.split(",")
            for row in rows:
                for column, cell in zip(columns, row.split(",")):
                    # a sweep cell whose open-chain solve fails has gamma NaN
                    assert math.isfinite(float(cell)) or (column == "gamma" and cell == "nan"), (path.name, column, cell)
        else:
            doc = json.loads(path.read_text())
            _check_header(doc.pop("header"), noiseless, path.name)
            for where, value in _leaves(doc):
                assert value is not None and math.isfinite(value), (path.name, where, value)


@pytest.mark.parametrize("recipe, overlay", CASES,
                         ids=[f"{r}-" + "-".join(f"{k}={v!r}" for k, v in o.items()) for r, o in CASES])
def test_extreme_value(tmp_path, recipe, overlay):
    rejections = {}
    for i, (command, keys, flags) in enumerate(RUNS[recipe]):
        settings = {**keys, **SIZES, **overlay}
        config = golden.write_config(tmp_path / f"{i}.cfg", recipe, settings)
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), "--out", str(out_dir / "out.csv"), *flags])
        run = (command, *flags, overlay)
        messages = [line for line in stderr.getvalue().splitlines() if not line.startswith("phase-diagram: row ")]
        noiseless = "noise_sigma" not in settings
        if command != "phase-diagram" and noiseless:
            rejections.setdefault(tuple(flags), {})[command] = messages[0] if code == 2 else None
        if code == 0:
            assert messages == [], run
            _check_outputs(out_dir, noiseless)
            continue
        assert code in PREFIXES and len(messages) == 1 and messages[0].startswith(PREFIXES[code]), (run, code, messages)
        assert code != 4 or (command == "measure" and "condition number nan" not in messages[0]), (run, messages)
    if recipe in golden.CIRCUITS:
        for flags, by_command in rejections.items():
            assert len(set(by_command.values())) == 1, (flags, overlay, by_command)


@pytest.mark.parametrize("key, value, message", [
    ("chain_N", 1, "chain needs at least 2 sites"),
    ("chain_N", 0, "chain needs at least 2 sites"),
    ("chain_N", -1, "chain needs at least 2 sites"),
    ("chain_N", 0.5, "key 'chain_N': expected int"),
    ("kpoints", 0, "k grid needs at least 1 point"),
    ("kpoints", -1, "k grid needs at least 1 point"),
    ("kpoints", 1e-300, "key 'kpoints': expected int"),
    ("resolution", 7, "resolution must be >= 8"),
    ("resolution", -1, "resolution must be >= 8"),
    ("threads", -1, "threads must be >= 1"),
    ("threads", 0.5, "key 'threads': expected int"),
])
def test_allocating_key_bounds(tmp_path, key, value, message, capsys):
    command = "phase-diagram" if key in ("resolution", "threads") else "spectrum"
    recipe = {"phase-diagram": "fig1b", "spectrum": "fig4abc"}[command]
    config = golden.write_config(tmp_path / "run.cfg", recipe, {**SIZES, key: value})
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]
