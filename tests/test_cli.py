"""Config parsing, output files, CLI commands and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nahn
from nahn.cli import main
from nahn.config import config_hash, load_config, parse_kv_text
from nahn.errors import ConfigError
from nahn.eigensolve import _openblas_thread_controls
from nahn.output import write_table

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


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
        with pytest.raises(ConfigError, match="tl"):
            load_config(cfg)

    def test_mixed_blocks_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, MODEL_CFG + "C0_nF = 10\n")
        with pytest.raises(ConfigError, match="C0_nF"):
            load_config(cfg)

    def test_incomplete_block_names_missing(self, tmp_path):
        cfg = write_cfg(tmp_path, "t0 = 1\ntL = 1\ntR = 3\ndL = [0,0,1]\n")
        with pytest.raises(ConfigError, match="dR"):
            load_config(cfg)

    def test_json_equivalent(self, tmp_path):
        kv = load_config(write_cfg(tmp_path, MODEL_CFG))
        as_json = tmp_path / "run.json"
        as_json.write_text(json.dumps(parse_kv_text(MODEL_CFG)))
        assert load_config(as_json).model == kv.model

    def test_duplicate_key_line_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3"):
            load_config(write_cfg(tmp_path, "t0 = 1\ntL = 2\ntL = 3\n"))

    @pytest.mark.parametrize("line", [
        "kpoints = 64.9", "chain_N = 10.7", "resolution = 8.5", "kpoints = true", "chain_N = false", "threads = true",
    ])
    def test_integer_key_must_be_integral(self, tmp_path, line):
        # these used to truncate (64.9 -> 64) or read true as 1
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(write_cfg(tmp_path, MODEL_CFG.replace("kpoints = 256", line)))

    @pytest.mark.parametrize("old, new", [
        ("tL = 1.0", 'tL = "abc"'), ("tL = 1.0", "tL = [1]"), ("tL = 1.0", "tL = null"), ("tL = 1.0", "tL = true"),
        ("dL = [0, 0, 1]", "dL = 5"), ("dL = [0, 0, 1]", 'dL = [0, 0, "a"]'), ("dL = [0, 0, 1]", "dL = [true, 0, 0]"),
    ])
    def test_malformed_model_value_is_config_error(self, tmp_path, old, new, capsys):
        # these used to exit 1 with a traceback, or read true as 1.0
        cfg = write_cfg(tmp_path, MODEL_CFG.replace(old, new))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: key {new.split()[0]!r}")

    @pytest.mark.parametrize("line", ['C0_nF = "x"', "C0_nF = true"])
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
    ROWS = [(0, 1.5, float("nan")), (1, -0.0, float("inf")), (2, 0.1, float("-inf"))]

    def test_csv_writes_nan_inf_and_signed_zero(self, tmp_path):
        path = write_table(tmp_path / "new" / "t.csv", "csv", self.HEADER, ["i", "x", "y"], self.ROWS)
        assert path.read_text() == (
            '# {"gamma": null, "n": 3}\ni,x,y\n0,1.5,nan\n1,-0,inf\n2,0.10000000000000001,-inf\n'
        )

    def test_json_writes_null_for_non_finite(self, tmp_path):
        path = write_table(tmp_path / "new" / "t.json", "json", self.HEADER, ["i", "x", "y"], self.ROWS)
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
            write_table(tmp_path / "t.txt", "txt", {}, ["i"], [(0,)])
        assert not (tmp_path / "t.txt").exists()


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
    # squares of the amplitudes overflow, turn subnormal, or lie so far apart
    # that the quartic's companion matrix overflows
    @pytest.mark.parametrize("command, text", [
        ("spectrum", MODEL_CFG.replace("tL = 1.0", "tL = 1e160")),
        ("spectrum", MODEL_CFG.replace("tL = 1.0", "tL = 1e-160")),
        ("spectrum", MODEL_CFG.replace("t0 = 1.0", "t0 = 1e10").replace("tL = 1.0", "tL = 1e-150")),
        ("phase-diagram", SWEEP_CFG + "t_max = 1e160\n"),
        ("spectrum", OPEN_CFG.replace("tL = 1.0", "tL = 1e160")),
        ("skin", OPEN_CFG.replace("tL = 1.0", "tL = 1e160")),
    ], ids=["tL-1e160", "tL-1e-160", "t0-1e10-tL-1e-150", "sweep-t_max-1e160", "open-tL-1e160", "skin-tL-1e160"])
    def test_config_error(self, tmp_path, command, text, capsys):
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: amplitudes too ")
        assert not out.exists()


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

    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "absent.cfg")]) == 2

