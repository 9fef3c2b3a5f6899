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
import functools
import sys
from pathlib import Path

import numpy as np

from . import circuit as cct
from . import skin as sk
from . import topology as topo
from .config import SETTINGS, RunConfig, load_config
from .errors import NumericalError, SingularNetworkError, ValidationError
from .eigensolve import Spectrum, chain_eig, eig_dense, eigvals2x2, sort_bands_by_continuity
from .model import BoundaryCondition, analytic_eigenvalues, chain_blocks
from .output import build_header, write_report, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SINGULAR = 4


#: Run settings each command adds to the parameters ``_effective`` hashes.
HASHED = {
    "spectrum": ("ep_tol",),
    "phase-diagram": ("t_min", "t_max", "resolution"),
    "skin": ("window_fraction", "loc_threshold"),
    "measure": ("window_fraction", "loc_threshold", "noise_sigma", "seed"),
}


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
    d.update((key, getattr(cfg, key)) for key in HASHED[command])
    return d


def _require_chain(cfg: RunConfig) -> int:
    if cfg.chain_N is None:
        raise ValidationError("key 'chain_N' is required for this command")
    return cfg.chain_N


def _open_chain(cfg: RunConfig, eigenvectors: bool) -> tuple[int, Spectrum, float | None]:
    """``(N, spectrum, drive)`` of the open chain; ``drive`` is None for a model."""
    N = _require_chain(cfg)
    if cfg.model is not None:
        return N, chain_eig(*chain_blocks(cfg.model), N, eigenvectors=eigenvectors), None
    drive = cfg.circuit.drive_frequency()
    blocks = cct.circuit_blocks(cfg.circuit, drive, not cfg.zero_r0)
    return N, chain_eig(*blocks, N, eigenvectors=eigenvectors), drive


def _table(**columns) -> np.recarray:
    """The structured array with one field per keyword, named by it, in keyword order."""
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def _in_nF(admittance, drive: float):
    """Admittance (siemens) at angular frequency ``drive`` shown in nF, divided by i omega NF."""
    return admittance / (1j * drive * cct.NF)


def _canonical_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def _nu(invariant, *args) -> dict:
    """Header fields for the braiding degree, or for the reason it failed."""
    try:
        return {"nu": invariant(*args)}
    except NumericalError as exc:
        return {"nu": None, "nu_error": str(exc)}


def _write_bands(out: Path, fmt: str, eff: dict, grid, pairs, raw_scale=None, **extra) -> None:
    """Continuity-sort band pairs and write them k-major as (k, band, re_E, im_E).

    With ``raw_scale`` each row also carries the eigenvalue times that
    scale as (re_j_S, im_j_S).
    """
    traj = sort_bands_by_continuity(grid.values, pairs)
    header = build_header(eff, kpoints=grid.n_points, band_swap=traj.band_swap, **extra)
    e = traj.bands.T.ravel()
    siemens = {}
    if raw_scale is not None:
        raw = e * raw_scale
        siemens = {"re_j_S": raw.real, "im_j_S": raw.imag}
    rows = _table(k=np.repeat(grid.values, 2), band=np.tile([0, 1], grid.n_points), re_E=e.real, im_E=e.imag, **siemens)
    write_table(out, fmt, header, rows=rows)


def _write_loci(out: Path, fmt: str, eff: dict, grid, loci, drive: float, **extra) -> None:
    """Band table of admittance loci (siemens), shown in nF (divided by i omega NF)."""
    pairs = eigvals2x2(_in_nF(loci, drive))
    _write_bands(
        out, fmt, eff, grid, pairs, 1j * drive * cct.NF,
        omega_rad_s=drive, eigenvalue_units="nF", tolerances={"det_zero": topo.DET_ZERO_TOL},
        **_nu(topo.braiding_degree_of_samples, loci), **extra,
    )


def _write_eigenvalues(out: Path, fmt: str, header: dict, raw: np.ndarray, drive: float | None) -> None:
    """Write (index, re_E, im_E) in canonical order; with a circuit's ``drive``, ``raw`` (siemens) shown in nF.

    A circuit's rows also carry ``raw`` as (re_j_S, im_j_S).
    """
    shown = raw if drive is None else _in_nF(raw, drive)
    order = _canonical_order(shown)
    siemens = {} if drive is None else {"re_j_S": raw[order].real, "im_j_S": raw[order].imag}
    rows = _table(index=np.arange(len(order)), re_E=shown[order].real, im_E=shown[order].imag, **siemens)
    write_table(out, fmt, header, rows=rows)


def run_spectrum(cfg: RunConfig, out: Path, fmt: str) -> None:
    eff = _effective(cfg, "spectrum")
    grid = topo.KGrid(cfg.kpoints)
    if cfg.boundary is BoundaryCondition.OBC:
        N, spec, drive = _open_chain(cfg, eigenvectors=False)
        units = {} if drive is None else {"omega_rad_s": drive, "eigenvalue_units": "nF"}
        header = build_header(eff, chain_N=N, solver=spec.solver, **units)
        _write_eigenvalues(out, fmt, header, spec.eigenvalues, drive)
    elif cfg.model is not None:
        nu = _nu(topo.braiding_degree, cfg.model)  # first: it rejects amplitudes that overflow the bands
        e_plus, e_minus = analytic_eigenvalues(cfg.model, grid.values)
        _write_bands(
            out, fmt, eff, grid, np.column_stack([e_plus, e_minus]),
            ep_tol=cfg.ep_tol, tolerances={"root_circle": topo.ROOT_CIRCLE_TOL},
            exceptional_k=[float(k) for k in topo.exceptional_scan(cfg.model, grid, cfg.ep_tol)],
            **nu,
        )
    else:
        drive = cfg.circuit.drive_frequency()
        loci = cct.admittance_bloch(cfg.circuit, drive, grid.values, include_r0=not cfg.zero_r0)
        _write_loci(out, fmt, eff, grid, loci, drive)


def run_phase_diagram(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.model is None:
        raise ValidationError("phase-diagram needs a model block (the sweep varies tL and tR)")
    if cfg.model.t0 != 1.0:
        raise ValidationError("phase-diagram sweeps fix t0 = 1; set t0 = 1 in the config")
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
    rows = _table(
        tL=np.repeat(diagram.tL_axis, len(diagram.tR_axis)),
        tR=np.tile(diagram.tR_axis, len(diagram.tL_axis)),
        nu=diagram.nu.ravel(),
        gamma=diagram.gamma.ravel(),
        boundary_residual=diagram.boundary_residual.ravel(),
    )
    header = build_header(
        eff,
        resolution=cfg.resolution,
        chain_N=chain_N,
        nu_sentinel=topo.NU_SENTINEL,
        tolerances={"root_circle": topo.ROOT_CIRCLE_TOL},
    )
    write_table(out, fmt, header, rows=rows)


def _states_table(densities: np.ndarray, eigenvalues: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Table (state_index, re_E, im_E, site, density), state-major in ``order``, sites from 1.

    Each field is written into one preallocated array, so no column is
    built on its own and then copied.
    """
    n_states, n_sites = len(order), densities.shape[1]
    fields = [("state_index", int), ("re_E", float), ("im_E", float), ("site", int), ("density", float)]
    rows = np.empty(n_states * n_sites, dtype=fields)
    grid = rows.reshape(n_states, n_sites)
    e = eigenvalues[order]
    grid["state_index"] = np.arange(n_states)[:, np.newaxis]
    grid["re_E"] = e.real[:, np.newaxis]
    grid["im_E"] = e.imag[:, np.newaxis]
    grid["site"] = np.arange(1, n_sites + 1)
    grid["density"] = densities[order]
    return rows


def run_skin(cfg: RunConfig, out: Path, fmt: str) -> None:
    N, spec, drive = _open_chain(cfg, eigenvectors=True)
    eff = _effective(cfg, "skin")
    shown = spec.eigenvalues if drive is None else _in_nF(spec.eigenvalues, drive)
    densities = sk.densities_from_eigenvectors(spec.right_eigenvectors)
    solver = spec.solver
    del spec  # its 2N x 2N eigenvectors are not needed past the densities
    report = sk.classify_localization(densities, cfg.window_fraction, cfg.loc_threshold)
    order = _canonical_order(shown)
    units = {"eigenvalue_units": "dimensionless"} if drive is None else {"omega_rad_s": drive, "eigenvalue_units": "nF"}
    header = build_header(
        eff,
        chain_N=N,
        **units,
        gamma=report.gamma,
        bipolar=report.bipolar,
        window_fraction=cfg.window_fraction,
        loc_threshold=cfg.loc_threshold,
        solver=solver,
    )
    write_table(out, fmt, header, rows=_states_table(densities, shown, order))
    payload = {"header": header, "gamma": report.gamma, "bipolar": report.bipolar, "counts": report.counts()}
    states = _table(
        state_index=np.arange(len(order)), re_E=shown[order].real, im_E=shown[order].imag,
        **{"class": report.classes[order]}, w_left=report.w_left[order], w_right=report.w_right[order],
    )
    write_report(out.with_name(f"{out.stem}.report.json"), payload, states)


def run_measure(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.circuit is None:
        raise ValidationError("measure needs a circuit block")
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
    grid = topo.KGrid(cfg.kpoints) if cfg.boundary is BoundaryCondition.PBC else None
    loci = None if grid is None else cct.bloch_samples_from_chain(J_rec, grid.values)
    del J_rec  # the ring's loci are taken; the writers need only the spectrum
    eigenvalues, densities = spec.eigenvalues, sk.densities_from_eigenvectors(spec.right_eigenvectors)
    del spec  # its 2N x 2N eigenvectors are not needed past the densities
    shown = _in_nF(eigenvalues, drive)
    protocol = cct.PROTOCOLS[cfg.boundary]
    meta = {"omega_rad_s": drive, "noise": noise_meta, "protocol": protocol, "eigenvalue_units": "nF"}
    if loci is not None:
        _write_loci(out, fmt, eff, grid, loci, drive, noise=noise_meta, protocol=protocol)
        header = build_header(eff, chain_N=N, **meta)
    else:
        report = sk.classify_localization(densities, cfg.window_fraction, cfg.loc_threshold)
        header = build_header(eff, chain_N=N, **meta, gamma=report.gamma, bipolar=report.bipolar)
        _write_eigenvalues(out, fmt, header, eigenvalues, drive)
    rows = _states_table(densities, shown, _canonical_order(shown))
    write_table(out.with_name(f"{out.stem}.states.{fmt}"), fmt, header, rows=rows)


COMMANDS = {
    "spectrum": run_spectrum,
    "phase-diagram": run_phase_diagram,
    "skin": run_skin,
    "measure": run_measure,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nahn`` argument parser, built on first use and shared by later ``main`` calls."""
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
    except ValidationError as exc:
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
