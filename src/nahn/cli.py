"""Command-line front end.

Four subcommands cover the analyses: ``spectrum`` (momentum-space band
loci or open-chain eigenvalues), ``phase-diagram`` (braiding degree,
boundary-density contrast and boundary residual over the hopping plane),
``skin`` (open-chain eigenstate densities and localization report) and
``measure`` (simulated admittance measurement with optional component
tolerances). Exit codes: 0 success, 2 config error, 3 numerical failure,
4 singular network.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import circuit as cct
from . import skin as sk
from . import topology as topo
from .config import SETTINGS, RunConfig, load_config
from .errors import (
    ConfigError,
    NumericalError,
    SingularNetworkError,
    ValidationError,
)
from .eigensolve import chain_eig, eig_dense, eigvals2x2, sort_bands_by_continuity
from .model import BoundaryCondition, analytic_eigenvalues, chain_blocks
from .output import build_header, write_report, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SINGULAR = 4


def _effective(cfg: RunConfig, command: str) -> dict:
    """Resolved run parameters that define the output (hashed for provenance)."""
    d: dict = {"command": command, "kpoints": cfg.kpoints, "boundary": cfg.boundary.value}
    if cfg.model is not None:
        d["model"] = cfg.model.to_dict()
    if cfg.circuit is not None:
        d["circuit"] = cfg.circuit.to_dict()
        d["zero_r0"] = cfg.zero_r0
    if cfg.chain_N is not None:
        d["chain_N"] = cfg.chain_N
    if command == "phase-diagram":
        d.update(t_min=cfg.t_min, t_max=cfg.t_max, resolution=cfg.resolution)
    if command in ("skin", "measure"):
        d.update(window_fraction=cfg.window_fraction, loc_threshold=cfg.loc_threshold)
    if command == "measure":
        d.update(noise_sigma=cfg.noise_sigma, seed=cfg.seed)
    if command == "spectrum":
        d["ep_tol"] = cfg.ep_tol
    return d


def _require_chain(cfg: RunConfig) -> int:
    if cfg.chain_N is None:
        raise ConfigError("key 'chain_N' is required for this command")
    return cfg.chain_N


BAND_COLUMNS = ["k", "band", "re_E", "im_E"]
EIGENVALUE_COLUMNS = ["index", "re_E", "im_E"]
RAW_COLUMNS = ["re_j_S", "im_j_S"]
STATE_COLUMNS = ["state_index", "re_E", "im_E", "site", "density"]
PHASE_COLUMNS = ["tL", "tR", "nu", "gamma", "boundary_residual"]


def _canonical_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def _rows(*columns):
    """Row tuples of plain Python ints and floats from equal-length numpy columns."""
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _nu(invariant, *args) -> dict:
    """Header fields for the braiding degree, or for the reason it failed."""
    try:
        return {"nu": invariant(*args)}
    except NumericalError as exc:
        return {"nu": None, "nu_error": str(exc)}


def _write_bands(out: Path, fmt: str, command: str, eff: dict, grid, pairs, raw_scale=None, **extra) -> None:
    """Continuity-sort band pairs and write them k-major as (k, band, re_E, im_E).

    With ``raw_scale`` each row also carries the eigenvalue times that
    scale as (re_j_S, im_j_S).
    """
    traj = sort_bands_by_continuity(grid.values, pairs)
    header = build_header(
        command, eff, kpoints=grid.n_points, band_swap=traj.band_swap, **extra,
    )
    e = traj.bands.T.ravel()
    columns = [np.repeat(grid.values, 2), np.tile([0, 1], grid.n_points), e.real, e.imag]
    if raw_scale is not None:
        raw = e * raw_scale
        columns += [raw.real, raw.imag]
    names = BAND_COLUMNS if raw_scale is None else BAND_COLUMNS + RAW_COLUMNS
    write_table(out, fmt, header, names, _rows(*columns))


def _write_loci(out: Path, fmt: str, command: str, eff: dict, grid, loci, drive: float, **extra) -> None:
    """Band table of admittance loci (siemens), shown in nF through 1/(i omega NF)."""
    pairs = eigvals2x2(loci * (1.0 / (1j * drive * cct.NF)))
    _write_bands(
        out, fmt, command, eff, grid, pairs, 1j * drive * cct.NF,
        omega_rad_s=drive, eigenvalue_units="nF", tolerances={"det_zero": topo.DET_ZERO_TOL},
        **_nu(topo.braiding_degree_of_samples, loci), **extra,
    )


def _eigenvalue_rows(shown: np.ndarray, raw: np.ndarray | None = None):
    """Rows (index, re_E, im_E[, re_j_S, im_j_S]) in canonical order of ``shown``."""
    order = _canonical_order(shown)
    columns = [np.arange(len(order)), shown[order].real, shown[order].imag]
    if raw is not None:
        columns += [raw[order].real, raw[order].imag]
    return _rows(*columns)


def run_spectrum(cfg: RunConfig, out: Path, fmt: str) -> None:
    eff = _effective(cfg, "spectrum")
    grid = topo.KGrid(cfg.kpoints)
    if cfg.model is not None:
        if cfg.boundary is BoundaryCondition.PBC:
            nu = _nu(topo.braiding_degree, cfg.model)  # first: it rejects amplitudes that overflow the bands
            e_plus, e_minus = analytic_eigenvalues(cfg.model, grid.values)
            _write_bands(
                out, fmt, "spectrum", eff, grid, np.column_stack([e_plus, e_minus]),
                ep_tol=cfg.ep_tol, tolerances={"root_circle": topo.ROOT_CIRCLE_TOL},
                exceptional_k=[float(k) for k in topo.exceptional_scan(cfg.model, grid, cfg.ep_tol)],
                **nu,
            )
        else:
            N = _require_chain(cfg)
            spec = chain_eig(*chain_blocks(cfg.model), N, eigenvectors=False)
            header = build_header("spectrum", eff, chain_N=N, solver=spec.solver)
            write_table(out, fmt, header, EIGENVALUE_COLUMNS, _eigenvalue_rows(spec.eigenvalues))
        return

    c = cfg.circuit
    drive = c.drive_frequency()
    include_r0 = not cfg.zero_r0
    if cfg.boundary is BoundaryCondition.PBC:
        loci = cct.admittance_bloch(c, drive, grid.values, include_r0=include_r0)
        _write_loci(out, fmt, "spectrum", eff, grid, loci, drive)
    else:
        N = _require_chain(cfg)
        spec = chain_eig(*cct.circuit_blocks(c, drive, include_r0), N, eigenvectors=False)
        raw = spec.eigenvalues
        header = build_header(
            "spectrum", eff, chain_N=N, omega_rad_s=drive, eigenvalue_units="nF", solver=spec.solver,
        )
        rows = _eigenvalue_rows(raw * (1.0 / (1j * drive * cct.NF)), raw)
        write_table(out, fmt, header, EIGENVALUE_COLUMNS + RAW_COLUMNS, rows)


def run_phase_diagram(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.model is None:
        raise ConfigError("phase-diagram needs a model block (the sweep varies tL and tR)")
    if cfg.model.t0 != 1.0:
        raise ConfigError("phase-diagram sweeps fix t0 = 1; set t0 = 1 in the config")
    chain_N = cfg.chain_N if cfg.chain_N is not None else 100
    eff = _effective(cfg, "phase-diagram")
    eff["chain_N"] = chain_N

    def progress(done: int, total: int) -> None:
        print(f"phase-diagram: row {done}/{total}", file=sys.stderr, flush=True)

    diagram = topo.compute_phase_diagram(
        (cfg.t_min, cfg.t_max),
        cfg.resolution,
        chain_N,
        dL=cfg.model.dL,
        dR=cfg.model.dR,
        threads=cfg.threads,
        progress=progress,
    )
    rows = _rows(
        np.repeat(diagram.tL_axis, len(diagram.tR_axis)),
        np.tile(diagram.tR_axis, len(diagram.tL_axis)),
        diagram.nu.ravel(),
        diagram.gamma.ravel(),
        diagram.boundary_residual.ravel(),
    )
    header = build_header(
        "phase-diagram",
        eff,
        resolution=cfg.resolution,
        chain_N=chain_N,
        nu_sentinel=topo.NU_SENTINEL,
        tolerances={"root_circle": topo.ROOT_CIRCLE_TOL},
    )
    write_table(out, fmt, header, PHASE_COLUMNS, rows)


def _states_rows(densities: np.ndarray, eigenvalues: np.ndarray, order: np.ndarray):
    """Rows (state_index, re_E, im_E, site, density), state-major in ``order``, sites from 1."""
    n_sites = densities.shape[1]
    e = np.repeat(eigenvalues[order], n_sites)
    return _rows(
        np.repeat(np.arange(len(order)), n_sites),
        e.real,
        e.imag,
        np.tile(np.arange(1, n_sites + 1), len(order)),
        densities[order].ravel(),
    )


def run_skin(cfg: RunConfig, out: Path, fmt: str) -> None:
    N = _require_chain(cfg)
    eff = _effective(cfg, "skin")
    if cfg.model is not None:
        spec = sk.obc_eigenstates(cfg.model, N)
        shown = spec.eigenvalues
        units = "dimensionless"
    else:
        drive = cfg.circuit.drive_frequency()
        spec = chain_eig(*cct.circuit_blocks(cfg.circuit, drive, not cfg.zero_r0), N)
        shown = spec.eigenvalues / (1j * drive * cct.NF)
        units = "nF"
    densities = sk.densities_from_eigenvectors(spec.right_eigenvectors)
    report = sk.classify_localization(densities, cfg.window_fraction, cfg.loc_threshold)
    order = _canonical_order(shown)
    header = build_header(
        "skin",
        eff,
        chain_N=N,
        eigenvalue_units=units,
        gamma=report.gamma,
        bipolar=report.bipolar,
        window_fraction=cfg.window_fraction,
        loc_threshold=cfg.loc_threshold,
        solver=spec.solver,
    )
    write_table(out, fmt, header, STATE_COLUMNS, _states_rows(densities, shown, order))
    payload = {
        "header": header,
        "gamma": report.gamma,
        "bipolar": report.bipolar,
        "counts": report.counts(),
        "states": [
            dict(zip(("state_index", "re_E", "im_E", "class", "w_left", "w_right"), row))
            for row in _rows(
                np.arange(len(order)), shown[order].real, shown[order].imag,
                np.asarray(report.classes)[order], report.w_left[order], report.w_right[order],
            )
        ],
    }
    write_report(out.with_name(f"{out.stem}.report.json"), payload)


def run_measure(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.circuit is None:
        raise ConfigError("measure needs a circuit block")
    N = _require_chain(cfg)
    eff = _effective(cfg, "measure")
    noise = None
    if cfg.noise_sigma is not None:
        noise = cct.MeasurementNoise(cfg.noise_sigma, cfg.seed if cfg.seed is not None else 0)
    drive = cfg.circuit.drive_frequency()
    try:
        J_rec = cct.simulated_measurement(
            cfg.circuit, N, cfg.boundary, noise=noise, include_r0=not cfg.zero_r0
        )
    except SingularNetworkError as exc:
        raise SingularNetworkError(f"{exc} (omega = {drive:.9e} rad/s)") from exc
    noise_meta = {
        "sigma": None if noise is None else noise.component_rel_sigma,
        "seed": None if noise is None else noise.seed,
    }
    spec = eig_dense(J_rec)
    densities = sk.densities_from_eigenvectors(spec.right_eigenvectors)
    shown = spec.eigenvalues * (1.0 / (1j * drive * cct.NF))
    protocol = cct.PROTOCOLS[cfg.boundary]
    meta = {"omega_rad_s": drive, "noise": noise_meta, "protocol": protocol, "eigenvalue_units": "nF"}
    if cfg.boundary is BoundaryCondition.PBC:
        grid = topo.KGrid(cfg.kpoints)
        loci = cct.bloch_samples_from_chain(J_rec, grid.values)
        _write_loci(out, fmt, "measure", eff, grid, loci, drive, noise=noise_meta, protocol=protocol)
        header = build_header("measure", eff, chain_N=N, **meta)
    else:
        report = sk.classify_localization(densities, cfg.window_fraction, cfg.loc_threshold)
        header = build_header("measure", eff, chain_N=N, **meta, gamma=report.gamma, bipolar=report.bipolar)
        write_table(out, fmt, header, EIGENVALUE_COLUMNS + RAW_COLUMNS, _eigenvalue_rows(shown, spec.eigenvalues))
    rows = _states_rows(densities, shown, _canonical_order(shown))
    write_table(out.with_name(f"{out.stem}.states.{fmt}"), fmt, header, STATE_COLUMNS, rows)


COMMANDS = {
    "spectrum": run_spectrum,
    "phase-diagram": run_phase_diagram,
    "skin": run_skin,
    "measure": run_measure,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nahn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # flags without a default are config-key overrides, absent unless given
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", required=True, help="key-value or JSON config file")
        p.add_argument("--out", default=None, help="output path (default: <command>.<format>)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--threads", type=int, help="sweep worker threads")
        p.add_argument("--seed", type=int, help="noise seed override")
        p.add_argument("--kpoints", type=int, help="momentum grid override")
        p.add_argument("--ep-tol", type=float, help="exceptional-point tolerance override")
        p.add_argument("--zero-r0", action="store_true", help="drop the resistive on-site shift")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in SETTINGS})
        out = Path(args.out) if args.out else Path(f"{args.command}.{args.format}")
        COMMANDS[args.command](cfg, out, args.format)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularNetworkError as exc:
        print(f"singular network: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
