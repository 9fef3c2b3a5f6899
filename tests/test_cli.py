"""Config parsing, output files, CLI commands and exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nahn
from nahn import KGrid, bloch_hamiltonian, braiding_degree_of_samples, cli
from nahn.circuit import NF, circuit_blocks
from nahn.cli import main
from nahn.config import config_hash, load_config, parse_kv_text
from nahn.errors import ValidationError
from nahn.eigensolve import _openblas_thread_controls, chain_eig
from nahn.output import BLOCK, _sanitize, write_report, write_table

RECIPES = Path(__file__).resolve().parent.parent / "recipes"

REPORT_COLUMNS = ["state_index", "re_E", "im_E", "class", "w_left", "w_right"]


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    data = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(columns)}
    return header, columns, data


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_in_subprocess(out, args, extra_env):
    """Bytes that ``python -m nahn ARGS --out OUT`` writes, with every ``*_NUM_THREADS`` but ``extra_env`` unset."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(nahn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nahn", *args, "--out", str(out)],
        env={**env, **extra_env},
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return out.read_bytes()


MODEL_CFG = """
t0 = 1.0
tL = 1.0
tR = 3.0
dL = [0, 0, 1]
dR = [1, 0, 0]
boundary = PBC
kpoints = 256
"""

HERMITIAN_CFG = """
t0 = 1.0
tL = 1.3
tR = 1.3
dL = [1, 0, 0]
dR = [1, 0, 0]
boundary = PBC
kpoints = 256
"""


class TestConfigParsing:
    def test_kv_values(self):
        raw = parse_kv_text("a = 1\nb = [1, 2.5, 3]\nc = true\nd = PBC  # comment\n")
        assert raw == {"a": 1, "b": [1, 2.5, 3], "c": True, "d": "PBC"}

    def test_unknown_key_named(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "tl = 2\n")
        with pytest.raises(ValidationError, match="tl"):
            load_config(cfg)

    def test_mixed_blocks_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "C0_nF = 10\n")
        with pytest.raises(ValidationError, match="C0_nF"):
            load_config(cfg)

    def test_incomplete_block_names_missing(self, tmp_path):
        cfg = write_cfg(tmp_path, "t0 = 1\ntL = 1\ntR = 3\ndL = [0,0,1]\n")
        with pytest.raises(ValidationError, match="dR"):
            load_config(cfg)

    def test_json_equivalent(self, tmp_path):
        kv = load_config(write_cfg(tmp_path, MODEL_CFG))
        as_json = tmp_path / "run.json"
        as_json.write_text(json.dumps(parse_kv_text(MODEL_CFG)))
        assert load_config(as_json).model == kv.model

    def test_duplicate_key_line_reported(self, tmp_path):
        with pytest.raises(ValidationError, match="line 3"):
            load_config(write_cfg(tmp_path, "t0 = 1\ntL = 2\ntL = 3\n"))

    def test_json_duplicate_key_rejected(self, tmp_path, capsys):
        # json.loads alone keeps the last tR (0.5, nu = 0) where the first (3) gives nu = -2
        text = '{"t0": 1, "tL": 1, "tR": 3, "dL": [0,0,1], "dR": [1,0,0], "tR": 0.5}'
        cfg = write_cfg(tmp_path, text, name="run.json")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "tR" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# caf\xe9\n" + MODEL_CFG.encode())
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    @pytest.mark.parametrize("line", [
        "kpoints = 64.9", "chain_N = 10.7", "resolution = 8.5", "kpoints = true", "chain_N = false", "threads = true",
        'kpoints = "64"',
    ])
    def test_integer_key_must_be_integral(self, tmp_path, line):
        # these used to truncate (64.9 -> 64) or read true as 1
        with pytest.raises(ValidationError, match=line.split()[0]):
            load_config(write_cfg(tmp_path, MODEL_CFG.replace("kpoints = 256", line)))

    @pytest.mark.parametrize("old, new", [
        ("tL = 1.0", 'tL = "abc"'), ("tL = 1.0", "tL = [1]"), ("tL = 1.0", "tL = null"), ("tL = 1.0", "tL = true"),
        ("dL = [0, 0, 1]", "dL = 5"), ("dL = [0, 0, 1]", 'dL = [0, 0, "a"]'), ("dL = [0, 0, 1]", "dL = [true, 0, 0]"),
        ("tL = 1.0", 'tL = "1.5"'), ("tL = 1.0", "tL = 1."), ("dL = [0, 0, 1]", 'dL = [0, 0, "1"]'),
    ])
    def test_malformed_model_value_is_config_error(self, tmp_path, old, new, capsys):
        # these used to exit 1 with a traceback, or read true as 1.0
        cfg = write_cfg(tmp_path, MODEL_CFG.replace(old, new))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: key {new.split()[0]!r}")

    @pytest.mark.parametrize("line", ['C0_nF = "x"', "C0_nF = true", 'C0_nF = "10"'])
    def test_malformed_circuit_value_is_config_error(self, tmp_path, line, capsys):
        cfg = write_cfg(tmp_path, (RECIPES / "fig3b.cfg").read_text().replace("C0_nF = 10", line))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: key 'C0_nF'")

    def test_null_omega_is_resonance(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, (RECIPES / "fig3b.cfg").read_text() + "omega_rad_s = null\n"))
        assert cfg.circuit.omega is None

    def test_integral_float_accepted(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MODEL_CFG.replace("kpoints = 256", "kpoints = 100.0")))
        assert cfg.kpoints == 100 and type(cfg.kpoints) is int

    def test_hash_key_order_independent(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 64


class TestWriteTable:
    HEADER = {"gamma": float("nan"), "n": np.int64(3)}
    TABLE = np.rec.fromarrays(
        [[0, 1, 2], [1.5, -0.0, 0.1], [float("nan"), float("inf"), float("-inf")]], names=["i", "x", "y"]
    )

    def test_csv_writes_nan_inf_and_signed_zero(self, tmp_path):
        path = write_table(tmp_path / "new" / "t.csv", "csv", self.HEADER, rows=self.TABLE)
        assert path.read_text() == (
            '# {"gamma": null, "n": 3}\ni,x,y\n0,1.5,nan\n1,-0,inf\n2,0.10000000000000001,-inf\n'
        )

    def test_json_writes_null_for_non_finite(self, tmp_path):
        path = write_table(tmp_path / "new" / "t.json", "json", self.HEADER, rows=self.TABLE)
        assert path.read_text().split("\n") == [
            "{", ' "columns": [', '  "i",', '  "x",', '  "y"', " ],",
            ' "header": {', '  "gamma": null,', '  "n": 3', " },",
            ' "rows": [',
            "  [", "   0,", "   1.5,", "   null", "  ],",
            "  [", "   1,", "   -0.0,", "   null", "  ],",
            "  [", "   2,", "   0.1,", "   null", "  ]",
            " ]", "}", "",
        ]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown output format"):
            write_table(tmp_path / "t.txt", "txt", {}, rows=self.TABLE)
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, text", [
        ("spectrum", MODEL_CFG),
        ("spectrum", MODEL_CFG.replace("boundary = PBC", "boundary = OBC\nchain_N = 10")),
        ("skin", MODEL_CFG.replace("boundary = PBC", "boundary = OBC\nchain_N = 10")),
        ("phase-diagram", MODEL_CFG + "t_min = 0.0\nt_max = 4.0\nresolution = 8\nchain_N = 10\n"),
    ], ids=["bands", "eigenvalues", "states", "phase"])
    def test_table_length_is_data_row_count(self, tmp_path, monkeypatch, command, text, fmt):
        # bench/tracing.py counts a table's rows as len(kwargs["rows"]) and counts 0
        # when no such keyword is given, so a positional table fails this spy
        lengths = {}

        def spy(path, fmt, header, **kwargs):
            lengths[Path(path)] = len(kwargs["rows"])
            return write_table(path, fmt, header, **kwargs)

        monkeypatch.setattr("nahn.cli.write_table", spy)
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / f"t.{fmt}"), "--format", fmt]) == 0
        assert lengths
        for path, n in lengths.items():
            if fmt == "csv":
                assert len(path.read_text().splitlines()) - 2 == n
            else:
                assert len(json.loads(path.read_text())["rows"]) == n


def _row_writer(path, fmt, header, columns, rows):
    """The writer tables had before they arrived as columns: one row tuple of Python numbers at a time."""
    with open(path, "w", newline="\n") as f:
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
            json.dump({"header": _sanitize(header), "columns": list(columns), "rows": rows}, f, sort_keys=True, indent=1)
            f.write("\n")


def _random_table(rng, n_rows):
    """Columns that exercise every formatting case: huge ints, signed zeros, non-finite, subnormal, repeats."""
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2e-310, 1e308, -1e308, 0.1, 1.0])
    pool = np.concatenate([special, rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)])
    return {
        "big": rng.integers(-(2**62), 2**62, n_rows),
        "index": np.repeat(np.arange(n_rows), 7)[:n_rows],
        "repeated": rng.choice(pool, n_rows),
        "fresh": rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 308, n_rows),
        "zeros": rng.choice([-0.0, 0.0], n_rows),
    }


class TestWriteTableMatchesRowWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # rows are written BLOCK at a time, and the JSON splice cuts the ",\n"
    # of the last row only, whichever block it falls in
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 7, 600, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_bytes_equal(self, tmp_path, fmt, n_rows):
        columns = _random_table(np.random.default_rng(n_rows), n_rows)
        names = list(columns)
        # a header key named "rows" must not be mistaken for the table's
        header = {"gamma": float("nan"), "n": np.int64(n_rows), "rows": []}
        table = np.rec.fromarrays(list(columns.values()), names=names)
        for chosen in (names, names[::-1][:3], names[2:3]):
            new = write_table(tmp_path / f"new.{fmt}", fmt, header, rows=table[chosen]).read_bytes()
            rows = list(zip(*(columns[name].tolist() for name in chosen)))
            _row_writer(tmp_path / f"old.{fmt}", fmt, header, chosen, rows)
            assert new == (tmp_path / f"old.{fmt}").read_bytes()

    @pytest.mark.parametrize("n_states", [0, 1, 7, 2 * BLOCK + 1])
    def test_report_bytes_equal(self, tmp_path, n_states):
        columns = _random_table(np.random.default_rng(n_states), n_states)
        values = {
            "state_index": np.arange(n_states),
            "re_E": columns["repeated"],
            "im_E": columns["fresh"],
            "class": np.array(["Left", "Right", "Extended"])[np.arange(n_states) % 3],
            "w_left": columns["zeros"],
            "w_right": np.resize([0.25, np.nan, np.inf, -np.inf, 1e-320], n_states),
        }
        states = np.rec.fromarrays([values[name] for name in REPORT_COLUMNS], names=REPORT_COLUMNS)
        # a header key named "states" must not be mistaken for the report's
        payload = {
            "header": {"gamma": float("nan"), "n": np.int64(n_states), "states": []},
            "gamma": float("inf"),
            "bipolar": np.bool_(True),
            "counts": {"Left": 3, "Right": 2, "Extended": 2},
        }
        new = write_report(tmp_path / "new.json", payload, states).read_bytes()
        # the report before its states arrived as a structured array: one dict per state
        old = {**payload, "states": [dict(zip(REPORT_COLUMNS, row)) for row in states.tolist()]}
        with open(tmp_path / "old.json", "w", newline="\n") as f:
            json.dump(_sanitize(old), f, sort_keys=True, indent=1)
            f.write("\n")
        assert new == (tmp_path / "old.json").read_bytes()


class TestWriterMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_traced_peak_is_bounded_by_the_block(self, tmp_path, fmt):
        # numpy reports its data buffers to tracemalloc, so the peak counts
        # every array and string the writer makes; the table itself is built
        # before tracing starts. The index and density columns are all
        # distinct and go block by block, the eigenvalue column is formatted
        # once per distinct value. A block of these
        # columns takes under 400 bytes a row of text and Python objects;
        # the only other temporary is the sorted copy of one column, and its
        # first-of-a-run mask, that count the column's distinct values (9
        # bytes a row). A writer that formatted whole columns would hold all
        # eight blocks' cells at once (about 3 MB here).
        rng = np.random.default_rng(3)
        n_rows = 8 * BLOCK
        rows = np.rec.fromarrays(
            [np.arange(n_rows), np.repeat(rng.standard_normal(n_rows // 64), 64), rng.standard_normal(n_rows)],
            names=["state_index", "re_E", "density"],
        )
        write_table(tmp_path / f"warm.{fmt}", fmt, {}, rows=rows[:BLOCK])  # one-time imports, outside the trace
        tracemalloc.start()
        try:
            write_table(tmp_path / f"t.{fmt}", fmt, {}, rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * BLOCK + 9 * n_rows


class TestParserReuse:
    def test_no_flag_leaks_between_calls(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, (RECIPES / "fig4abc.cfg").read_text() + "noise_sigma = 0.01\n")
        runs = {
            "flags": ["measure", "--config", str(cfg), "--zero-r0", "--seed", "3", "--format", "json"],
            "plain": ["measure", "--config", str(cfg)],
        }

        def outputs(tag):
            written = {}
            for name, argv in runs.items():
                out = tmp_path / tag / name / ("out.json" if "json" in argv else "out.csv")
                assert main([*argv, "--out", str(out)]) == 0
                written[name] = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
            return written

        shared = outputs("shared")
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
        assert shared == outputs("fresh")
        seeds = [json.loads(shared["flags"]["out.states.json"])["header"]["noise"]["seed"],
                 json.loads(shared["plain"]["out.states.csv"].splitlines()[0][2:])["noise"]["seed"]]
        assert seeds == [3, 0]


class TestSpectrumCommand:
    def test_linked_model_spectrum(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        header, columns, data = read_csv(out)
        assert columns == ["k", "band", "re_E", "im_E"]
        assert len(data["k"]) == 2 * 256
        assert header["nu"] == -2
        assert header["band_swap"] is False
        assert header["exceptional_k"] == []
        assert len(header["config_sha256"]) == 64

    def test_hermitian_spectrum_real(self, tmp_path):
        cfg = write_cfg(tmp_path, HERMITIAN_CFG)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert np.max(np.abs(data["im_E"])) < 1e-9

    def test_obc_needs_chain(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG.replace("boundary = PBC", "boundary = OBC"))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unlinked_circuit_recipe(self, tmp_path):
        out = tmp_path / "fig3c.csv"
        code = main(["spectrum", "--config", str(RECIPES / "fig3c.cfg"), "--out", str(out), "--kpoints", "256"])
        assert code == 0
        header, columns, data = read_csv(out)
        assert header["nu"] == 0
        assert columns == ["k", "band", "re_E", "im_E", "re_j_S", "im_j_S"]
        # normalized values are the raw admittances divided by i*omega, in nF
        ratio = (data["re_j_S"] + 1j * data["im_j_S"]) / (
            1j * header["omega_rad_s"] * 1e-9 * (data["re_E"] + 1j * data["im_E"])
        )
        assert np.max(np.abs(ratio - 1.0)) < 1e-12

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "1", "5"])
    def test_ep_tol_outside_unit_interval_rejected(self, tmp_path, tol, capsys):
        # tol <= 0 or NaN used to find no exceptional point and tol >= 1 all of them
        cfg = write_cfg(tmp_path, MODEL_CFG)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--ep-tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_kpoints_override_in_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--config", str(cfg), "--out", str(out1)])
        main(["spectrum", "--config", str(cfg), "--out", str(out2), "--kpoints", "128"])
        assert read_csv(out1)[0]["config_sha256"] != read_csv(out2)[0]["config_sha256"]


class TestPhaseDiagramCommand:
    def test_smoke_run_fast(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "t0 = 1.0\ntL = 1.0\ntR = 1.0\ndL = [0,0,1]\ndR = [1,0,0]\n"
            "t_min = 0.0\nt_max = 4.0\nresolution = 8\nchain_N = 20\nkpoints = 256\n",
        )
        out = tmp_path / "diagram.csv"
        start = time.monotonic()
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.monotonic() - start < 5.0
        header, columns, data = read_csv(out)
        assert columns == ["tL", "tR", "nu", "gamma", "boundary_residual"]
        assert len(data["tL"]) == 64
        assert set(np.unique(data["nu"])) <= {-2.0, 0.0, 2.0, 127.0}

    @pytest.mark.parametrize("dL", ["[0.6,0,0.8]", "[0,0,1]"], ids=["general", "standard"])
    def test_residual_finite_for_every_direction(self, tmp_path, dL):
        text = (
            f"t0 = 1.0\ntL = 1.0\ntR = 1.0\ndL = {dL}\ndR = [1,0,0]\n"
            "t_min = 0.0\nt_max = 4.0\nresolution = 8\nchain_N = 10\nkpoints = 128\n"
        )
        out = tmp_path / "diagram.csv"
        assert main(["phase-diagram", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        header, _, data = read_csv(out)
        assert "boundary_residual" not in header
        assert np.all(np.isfinite(data["boundary_residual"]))
        accepted = data["nu"] != 127
        assert np.array_equal((data["boundary_residual"] > 0)[accepted], (data["nu"] == 0)[accepted])

    @pytest.mark.skipif(not _openblas_thread_controls(), reason="no OpenBLAS with thread-count symbols is loaded")
    def test_output_independent_of_thread_settings(self, tmp_path):
        # chain_N = 100 makes 200x200 solves, large enough for OpenBLAS to
        # use its threads when it is allowed to
        cfg = write_cfg(
            tmp_path,
            "t0 = 1.0\ntL = 1.0\ntR = 1.0\ndL = [0,0,1]\ndR = [1,0,0]\n"
            "t_min = 0.0\nt_max = 4.0\nresolution = 8\nchain_N = 100\nkpoints = 1024\n",
        )
        settings = {
            "blas1": ({"OPENBLAS_NUM_THREADS": "1"}, []),
            "threads1": ({}, ["--threads", "1"]),
            "threads2": ({}, ["--threads", "2"]),
        }
        outputs = {
            name: run_in_subprocess(tmp_path / f"{name}.csv", ["phase-diagram", "--config", str(cfg), *extra_args], extra_env)
            for name, (extra_env, extra_args) in settings.items()
        }
        assert outputs["threads1"] == outputs["blas1"]
        assert outputs["threads2"] == outputs["blas1"]

    @pytest.mark.parametrize("t_max", ["NaN", "Infinity"])
    def test_non_finite_range_rejected(self, tmp_path, t_max, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG + f"t_max = {t_max}\n")
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "t range" in capsys.readouterr().err

    def test_circuit_config_rejected(self, tmp_path):
        code = main([
            "phase-diagram", "--config", str(RECIPES / "fig3b.cfg"), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestSkinCommand:
    def test_overlapping_windows_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "t0 = 1.0\ntL = 1.0\ntR = 3.0\ndL = [0,0,1]\ndR = [1,0,0]\nchain_N = 5\nwindow_fraction = 0.45\n",
        )
        assert main(["skin", "--config", str(cfg), "--out", str(tmp_path / "skin.csv")]) == 2
        assert "overlap" in capsys.readouterr().err
        assert not (tmp_path / "skin.csv").exists()

    @pytest.mark.parametrize("command, recipe", [("skin", "fig1g"), ("skin", "fig4def"), ("measure", "fig4def")])
    def test_short_chain_rejected(self, tmp_path, command, recipe, capsys):
        text = (RECIPES / f"{recipe}.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("chain_N = 100", "chain_N = 3").replace("chain_N = 47", "chain_N = 3"))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "N >= 4" in capsys.readouterr().err
        assert not out.exists()

    def test_monopolar_circuit_recipe(self, tmp_path):
        out = tmp_path / "fig4abc.csv"
        assert main(["skin", "--config", str(RECIPES / "fig4abc.cfg"), "--out", str(out)]) == 0
        header, columns, data = read_csv(out)
        assert columns == ["state_index", "re_E", "im_E", "site", "density"]
        assert len(data["site"]) == 94 * 47
        assert header["bipolar"] is False and header["gamma"] < -0.8
        report = json.loads((tmp_path / "fig4abc.report.json").read_text())
        assert report["counts"] == {"Left": 0, "Right": 94, "Extended": 0}

    @pytest.mark.parametrize("recipe", ["fig4abc", "fig4def"])
    def test_drive_restores_siemens(self, tmp_path, recipe):
        # the header's drive times 1j * NF turns the nF eigenvalues back into the solver's siemens
        out = tmp_path / "skin.csv"
        assert main(["skin", "--config", str(RECIPES / f"{recipe}.cfg"), "--out", str(out)]) == 0
        header, _, data = read_csv(out)
        assert header["eigenvalue_units"] == "nF"
        cfg = load_config(RECIPES / f"{recipe}.cfg")
        assert header["omega_rad_s"] == cfg.circuit.drive_frequency()
        drive, N = header["omega_rad_s"], header["chain_N"]
        shown = (data["re_E"] + 1j * data["im_E"])[::N]  # the first site's row of each state
        siemens = chain_eig(*circuit_blocks(cfg.circuit, drive, not cfg.zero_r0), N).eigenvalues
        in_nF = siemens / (1j * drive * NF)
        siemens = siemens[np.lexsort((in_nF.imag, in_nF.real))]  # the rows' canonical order
        scale = np.abs(siemens).max()
        np.testing.assert_allclose(shown * (1j * drive * NF), siemens, rtol=1e-14, atol=1e-14 * scale)

    def test_bipolar_circuit_recipe(self, tmp_path):
        out = tmp_path / "fig4def.csv"
        assert main(["skin", "--config", str(RECIPES / "fig4def.cfg"), "--out", str(out)]) == 0
        report = json.loads((tmp_path / "fig4def.report.json").read_text())
        assert report["bipolar"] is True
        assert report["counts"]["Left"] >= 10 and report["counts"]["Right"] >= 10

    def test_balanced_lattice_recipe(self, tmp_path):
        out = tmp_path / "fig1g.csv"
        assert main(["skin", "--config", str(RECIPES / "fig1g.cfg"), "--out", str(out)]) == 0
        header, _, data = read_csv(out)
        assert header["bipolar"] is True and abs(header["gamma"]) < 0.2
        # densities of each state sum to one over the 100 sites
        sums = data["density"].reshape(200, 100).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9


class TestSingleChainSolver:
    def test_solver_in_header(self, tmp_path):
        out = tmp_path / "fig1g.csv"
        assert main(["skin", "--config", str(RECIPES / "fig1g.cfg"), "--out", str(out)]) == 0
        assert read_csv(out)[0]["solver"] == "chiral"
        # off resonance the m1 (s0 - sz) hopping breaks the chiral symmetry
        text = (RECIPES / "fig4def.cfg").read_text() + "omega_rad_s = 5e6\n"
        cfg = write_cfg(tmp_path, text)
        for command in ("spectrum", "skin"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            assert read_csv(out)[0]["solver"] == "dense"

    @pytest.mark.skipif(not _openblas_thread_controls(), reason="no OpenBLAS with thread-count symbols is loaded")
    @pytest.mark.parametrize("command, recipe", [("skin", "fig1g"), ("spectrum", "fig1g"), ("measure", "fig4def")])
    def test_output_independent_of_blas_threads(self, tmp_path, command, recipe):
        # 200 sites: a 200x200 chiral solve (400x400 dense for measure), large
        # enough for OpenBLAS to use its threads when it is allowed to
        text = (RECIPES / f"{recipe}.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("chain_N = 100", "chain_N = 200").replace("chain_N = 47", "chain_N = 200"))
        outputs = [
            run_in_subprocess(tmp_path / f"{command}{i}.csv", [command, "--config", str(cfg)], extra_env)
            for i, extra_env in enumerate([{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {}])
        ]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestMeasureCommand:
    def test_noiseless_matches_spectrum(self, tmp_path):
        spec_out = tmp_path / "spec.csv"
        meas_out = tmp_path / "meas.csv"
        args = ["--config", str(RECIPES / "fig3b.cfg"), "--kpoints", "256"]
        assert main(["spectrum", *args, "--out", str(spec_out)]) == 0
        assert main(["measure", *args, "--out", str(meas_out)]) == 0
        _, _, spec = read_csv(spec_out)
        header, _, meas = read_csv(meas_out)
        scale = np.max(np.abs(spec["re_E"] + 1j * spec["im_E"]))
        assert np.max(np.abs(meas["re_E"] - spec["re_E"])) < 1e-9 * scale
        assert np.max(np.abs(meas["im_E"] - spec["im_E"])) < 1e-9 * scale
        assert header["noise"] == {"sigma": None, "seed": None}
        assert header["nu"] == -2
        assert (tmp_path / "meas.states.csv").exists()

    def test_noise_metadata_recorded(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            (RECIPES / "fig3b.cfg").read_text() + "noise_sigma = 0.01\n",
        )
        out = tmp_path / "noisy.csv"
        code = main(["measure", "--config", str(cfg), "--out", str(out), "--seed", "11",
                     "--kpoints", "256"])
        assert code == 0
        header, _, _ = read_csv(out)
        assert header["noise"] == {"sigma": 0.01, "seed": 11}
        assert header["nu"] == -2

    def test_open_chain_reports_verdict(self, tmp_path):
        cfg = write_cfg(tmp_path, (RECIPES / "fig4def.cfg").read_text() + "noise_sigma = 0.01\n")
        out = tmp_path / "meas_obc.csv"
        assert main(["measure", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        header, columns, _ = read_csv(out)
        assert header["bipolar"] is True
        assert header["protocol"] == "OBC_all_nodes"
        assert columns == ["index", "re_E", "im_E", "re_j_S", "im_j_S"]

    @pytest.mark.parametrize("boundary", ["OBC", "PBC"])
    def test_no_dense_matrix_alive_through_the_writers(self, tmp_path, monkeypatch, boundary):
        # the measured chain and the dense eigenvectors, 2N x 2N complex each, are freed
        # before the writers run: at each writer's entry the traced memory, less the rows
        # it writes, stays below one such matrix (the densities take a quarter of one)
        N = 96
        text = (RECIPES / "fig4def.cfg").read_text().replace("boundary = OBC", f"boundary = {boundary}")
        cfg = write_cfg(tmp_path, text.replace("chain_N = 47", f"chain_N = {N}"))
        args = ["measure", "--config", str(cfg), "--kpoints", "64"]
        assert main([*args, "--out", str(tmp_path / "warm.csv")]) == 0  # one-time imports, outside the trace
        at_entry = []

        def traced(path, fmt, header, rows):
            at_entry.append(tracemalloc.get_traced_memory()[0] - rows.nbytes)
            return write_table(path, fmt, header, rows=rows)

        monkeypatch.setattr(cli, "write_table", traced)
        tracemalloc.start()
        try:
            assert main([*args, "--out", str(tmp_path / "m.csv")]) == 0
        finally:
            tracemalloc.stop()
        assert len(at_entry) == 2
        assert max(at_entry) < 16 * (2 * N) ** 2

    def test_heavy_noise_reported_not_crashed(self, tmp_path):
        cfg = write_cfg(tmp_path, (RECIPES / "fig3b.cfg").read_text() + "noise_sigma = 0.10\n")
        for seed in range(6):
            out = tmp_path / f"stress{seed}.csv"
            code = main(["measure", "--config", str(cfg), "--out", str(out), "--seed", str(seed),
                         "--kpoints", "256"])
            assert code == 0
            header, _, _ = read_csv(out)
            assert header["nu"] in (-2, 0, 2, None)
            if header["nu"] is None:
                assert "nu_error" in header

    def test_negative_component_draw_is_config_error(self, tmp_path, capsys):
        # seed 3 draws C1 = 20 down to -5.56 nF at noise_sigma = 0.5
        cfg = write_cfg(tmp_path, (RECIPES / "fig3b.cfg").read_text() + "noise_sigma = 0.5\n")
        code = main(["measure", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise draw ")
        assert "component C1" in err and "noise_sigma = 0.5" in err and "seed = 3" in err
        assert "np.float64" not in err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (RECIPES / "fig3b.cfg").read_text() + "noise_sigma = 0.01\n")
        code = main(["measure", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_model_config_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "chain_N = 10\n")
        assert main(["measure", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


OPEN_CFG = MODEL_CFG.replace("boundary = PBC", "boundary = OBC\nchain_N = 10")
SWEEP_CFG = "t0 = 1.0\ntL = 1.0\ntR = 1.0\ndL = [0,0,1]\ndR = [1,0,0]\nt_min = 0.0\nresolution = 8\nchain_N = 10\n"


class TestOutOfRangeAmplitudes:
    # squares of the amplitudes overflow
    @pytest.mark.parametrize("command, text", [
        ("spectrum", MODEL_CFG.replace("tL = 1.0", "tL = 1e160")),
        ("phase-diagram", SWEEP_CFG + "t_max = 1e160\n"),
        ("spectrum", OPEN_CFG.replace("tL = 1.0", "tL = 1e160")),
        ("skin", OPEN_CFG.replace("tL = 1.0", "tL = 1e160")),
    ], ids=["tL-1e160", "sweep-t_max-1e160", "open-tL-1e160", "skin-tL-1e160"])
    def test_config_error(self, tmp_path, command, text, capsys):
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: amplitudes too ")
        assert not out.exists()

    # amplitudes whose squares turn subnormal, or lie far apart in scale: the
    # quartic's companion matrix overflows or loses roots, but q+ is exact
    @pytest.mark.parametrize("text", [
        MODEL_CFG.replace("tL = 1.0", "tL = 1e-160"),
        MODEL_CFG.replace("t0 = 1.0", "t0 = 1e10").replace("tL = 1.0", "tL = 1e-150"),
    ], ids=["tL-1e-160", "t0-1e10-tL-1e-150"])
    def test_small_amplitudes_counted(self, tmp_path, text):
        out, path = tmp_path / "x.csv", write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        header, _, data = read_csv(out)
        samples = bloch_hamiltonian(load_config(path).model, KGrid(65536).values)
        assert header["nu"] == braiding_degree_of_samples(samples)
        assert all(np.isfinite(column).all() for column in data.values())


class TestOutOfRangeCircuitValues:
    # each exited 1 with a traceback: L1 C1 or omega^2 L0 underflowed to a zero
    # divisor, omega^2 overflowed, the loci's determinants overflowed (C0), or
    # 1/(omega R0) did and the samples were blamed for it (R0)
    @pytest.mark.parametrize("key, value, named", [
        ("C1_nF", "1e-320", "L1 C1"),
        ("omega_rad_s", "1e-160", "omega^2 L0"),
        ("omega_rad_s", "1e300", "omega^2 L0"),
        ("C0_nF", "1e160", "overflow their determinants"),
        ("R0_ohm", "1e-320", "omega R0"),
    ])
    def test_config_error(self, tmp_path, key, value, named, capsys):
        lines = [line for line in (RECIPES / "fig3c.cfg").read_text().splitlines() if not line.startswith(key)]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}", ""]))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not out.exists()


class TestLapackFailureExitCodes:
    # only a failing LAPACK call reaches these two exit codes
    @staticmethod
    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError("simulated LAPACK failure")

    def test_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eig", self.raising)
        out = tmp_path / "x.csv"
        assert main(["skin", "--config", str(RECIPES / "fig1g.cfg"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: QR iteration did not converge") and err.count("\n") == 1
        assert not out.exists()

    def test_uninvertible_network_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "inv", self.raising)
        out = tmp_path / "x.csv"
        assert main(["measure", "--config", str(RECIPES / "fig4abc.cfg"), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("singular network: admittance matrix is near-singular (1-norm condition number inf)")
        assert err.count("\n") == 1
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, text", [("spectrum", MODEL_CFG), ("skin", OPEN_CFG)], ids=["spectrum", "skin"])
    @pytest.mark.parametrize("where", ["directory", "under-file"])
    def test_config_error(self, tmp_path, command, text, where, capsys):
        regular = tmp_path / "file"
        regular.write_text("")
        out = tmp_path if where == "directory" else regular / "x.csv"
        assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output file ")


class TestNanofaradConversion:
    # above drive = 1/NF rad/s the factor 1/(drive NF) is below 1, and multiplying
    # by it gives a part that underflows to zero the other sign of zero
    @pytest.mark.parametrize("drive", [2 * np.pi * 1e4, 1e5, 3.7e5, 1.234567e6, 8.9e8, 1e10, 1e12])
    def test_equals_division_bit_for_bit(self, drive):
        # the golden hashes that would see a changed last digit skip on other
        # numpy/BLAS builds, so this holds the conversion there
        rng = np.random.default_rng(int(drive))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0])
        pool = np.concatenate([special, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
        # parts set one by one: re + 1j * im would turn an imaginary -0.0 into +0.0
        z = np.empty(len(special) ** 2 + 20000, complex)
        z.real = np.concatenate([np.repeat(special, len(special)), rng.choice(pool, 20000)])
        z.imag = np.concatenate([np.tile(special, len(special)), rng.choice(pool, 20000)])
        expected = z / (1j * drive * NF)
        assert np.array_equal(cli._in_nF(z, drive).view(np.int64), expected.view(np.int64))
        if drive < 1 / NF:
            # the loci, open-chain spectrum and measure goldens were written by multiplying
            assert np.array_equal((z * (1.0 / (1j * drive * NF))).view(np.int64), expected.view(np.int64))


class TestDeterminismAndEntryPoint:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["spectrum", "--config", str(cfg), "--out", str(out1)])
        main(["spectrum", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG)
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["k", "band", "re_E", "im_E"]
        assert len(doc["rows"]) == 512
        assert doc["header"]["nu"] == -2

    def test_module_entry_point(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG)
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nahn", "spectrum", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_cli_module_entry_point(self, tmp_path):
        # runs only through cli.py's __main__ guard; without it this exits 0 and writes nothing
        out = tmp_path / "fig1c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nahn.cli", "spectrum", "--config", str(RECIPES / "fig1c.cfg"), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "absent.cfg")]) == 2

