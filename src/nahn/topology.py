"""Spectral-topology invariants of the chain.

The braiding degree is the winding of ``det(H(k) - Tr H(k)/2)`` around the
origin over one momentum cycle; the point-gap winding number w(E0) is the
winding of ``det(H(k) - E0)``. For model parameters both are counted
exactly, without a k grid: ``H(k)`` is traceless, so with ``z = e^{ik}``
``z^2 det(H - E0) = E0^2 z^2 - P(z)`` for a quartic ``P``, and by the
argument principle each winding is the number of roots inside ``|z| < 1``
minus the double pole at ``z = 0``. Loops given as samples (measured or
circuit loci) are wound by accumulating the phase differences of their
determinants, each step bounded by pi in magnitude.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import skin
from .errors import (
    NumericalError,
    OpenTrajectoryError,
    PhaseBoundaryError,
    ReferenceOnSpectrumError,
    ValidationError,
)
from .eigensolve import BandTrajectories, _single_threaded_blas
from .model import GaugeVector, ModelParams, analytic_eigenvalues

DEFAULT_KPOINTS = 1024

#: Distance from ``|z| = 1`` within which a root puts a determinant zero on the loop.
ROOT_CIRCLE_TOL = 1e-9

#: Relative floor below which a determinant sample counts as a zero hit.
DET_ZERO_TOL = 1e-12

#: Minimum distance of a reference energy from the spectral curve.
SPECTRUM_DISTANCE_TOL = 1e-9

#: Default relative tolerance for exceptional-point detection.
EP_TOL = 1e-3

#: Sentinel stored in phase-diagram cells where the braiding degree rejects.
NU_SENTINEL = 127

STANDARD_DL = GaugeVector(0.0, 0.0, 1.0)
STANDARD_DR = GaugeVector(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class KGrid:
    """Uniform closed momentum grid: n points over [0, 2*pi), first point 0."""

    n_points: int = DEFAULT_KPOINTS

    def __post_init__(self):
        if self.n_points < 1:
            raise ValidationError(f"k grid needs at least 1 point, got {self.n_points}")

    @property
    def values(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_points) / self.n_points


def winding_number(values) -> float:
    """Raw winding of a closed loop of complex samples around the origin.

    Sums the phase increments between consecutive samples including the
    wrap-around step; every increment lies in (-pi, pi], so the loop must
    be sampled finely enough that the true phase never advances by more
    than pi per step.
    """
    v = np.asarray(values, dtype=complex)
    steps = np.angle(np.roll(v, -1) / v)
    return float(np.sum(steps) / (2.0 * np.pi))


def braiding_degree_of_samples(H_samples) -> int:
    """Braiding degree from 2x2 matrix samples over one closed k loop.

    The trace is subtracted pointwise before taking the determinant, so any
    multiple of the identity added to the samples cancels. Useful when the
    loop comes from measured data rather than model parameters; the loop
    must be sampled finely enough that the determinant's phase never
    advances by more than pi per step.
    """
    H = np.asarray(H_samples, dtype=complex)
    if H.ndim != 3 or H.shape[1:] != (2, 2):
        raise ValidationError(f"expected samples of shape (n, 2, 2), got {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("samples contain non-finite entries")
    half_tr = 0.5 * (H[:, 0, 0] + H[:, 1, 1])
    shifted = H - half_tr[:, None, None] * np.eye(2)
    det = shifted[:, 0, 0] * shifted[:, 1, 1] - shifted[:, 0, 1] * shifted[:, 1, 0]
    mags = np.abs(det)
    peak = mags.max()
    if peak == 0.0 or mags.min() < DET_ZERO_TOL * peak:
        raise PhaseBoundaryError(
            "braiding degree: determinant vanishes on the grid (exceptional point hit)"
        )
    return int(round(winding_number(det)))


def _quartic(p: ModelParams) -> np.ndarray:
    """Coefficients, highest power first, of ``P(z) = -z^2 det H(k)`` at ``z = e^{ik}``."""
    c = p.dL.dot(p.dR)
    return np.array([
        p.tL * p.tL,
        2.0 * c * p.tL * p.t0,
        p.t0 * p.t0 + 2.0 * c * p.tL * p.tR,
        2.0 * p.t0 * p.tR,
        p.tR * p.tR,
    ])


def _root_radii(coeffs: np.ndarray) -> np.ndarray:
    """``|z|`` of the roots of a polynomial, coefficients highest power first.

    Raises ``ValidationError`` when the coefficients are not finite (an
    amplitude near ``1e154`` or above squares to ``inf``) or ``np.roots``
    cannot form a finite companion matrix (a leading coefficient so small
    against the others that their ratio overflows).
    """
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError(f"amplitudes too large: polynomial coefficients {coeffs.tolist()} are not finite")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow here ends in LinAlgError
            return np.abs(np.roots(coeffs))
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            f"amplitudes too far apart in scale for a root count: coefficients {coeffs.tolist()}"
        ) from exc


def _zeros_inside(coeffs: np.ndarray, error: type, what: str) -> int:
    """Roots inside ``|z| < 1`` minus 2: the winding of ``poly(z) / z^2`` on ``|z| = 1``.

    Raises ``error`` when a root lies within ``ROOT_CIRCLE_TOL`` of the unit
    circle or the polynomial vanishes identically, since the determinant
    then vanishes on the loop.
    """
    if not np.any(coeffs):
        raise error(f"{what}: determinant vanishes identically")
    radii = _root_radii(coeffs)
    if np.any(np.abs(radii - 1.0) < ROOT_CIRCLE_TOL):
        raise error(f"{what}: determinant vanishes on the momentum loop (root on |z| = 1)")
    return int(np.sum(radii < 1.0)) - 2


def braiding_degree(p: ModelParams, grid: KGrid | None = None) -> int:
    """Integer braiding degree of the two Bloch bands, by exact root count.

    ``grid`` is unused; it is accepted so that callers passing one keep
    working. A determinant zero on the loop signals a phase boundary and
    raises ``PhaseBoundaryError``.
    """
    return _zeros_inside(_quartic(p), PhaseBoundaryError, "braiding degree")


def spectral_winding(p: ModelParams, E0: complex, grid: KGrid | None = None) -> int:
    """Point-gap winding number of the Bloch spectrum around ``E0``, by exact root count.

    ``grid`` is unused; it is accepted so that callers passing one keep
    working. A reference energy on the spectrum raises
    ``ReferenceOnSpectrumError``.
    """
    coeffs = _quartic(p).astype(complex)
    coeffs[2] -= complex(E0) ** 2
    return _zeros_inside(coeffs, ReferenceOnSpectrumError, f"spectral winding at {E0}")


def spectral_winding_profile(
    p: ModelParams,
    n_re: int = 20,
    n_im: int = 20,
    pad: float = 0.0,
    grid: KGrid | None = None,
    min_distance: float = 1e-6,
):
    """Winding numbers on a rectangular grid of reference energies.

    The grid spans the bounding box of the Bloch spectrum inflated by
    ``pad`` (a fraction of each box dimension). Probes closer than
    ``min_distance`` to the spectral curve are skipped. Returns a list of
    ``(E0, w)`` pairs with ``w = None`` for skipped probes.

    ``grid`` samples the spectrum for the box and the skip rule; each
    evaluated probe's ``w`` comes from :func:`spectral_winding`.
    """
    grid = grid or KGrid()
    e_plus, e_minus = analytic_eigenvalues(p, grid.values)
    spectrum = np.concatenate([e_plus, e_minus])
    re_lo, re_hi = spectrum.real.min(), spectrum.real.max()
    im_lo, im_hi = spectrum.imag.min(), spectrum.imag.max()
    re_pad = pad * (re_hi - re_lo)
    im_pad = pad * (im_hi - im_lo)
    out = []
    for re in np.linspace(re_lo - re_pad, re_hi + re_pad, n_re):
        for im in np.linspace(im_lo - im_pad, im_hi + im_pad, n_im):
            E0 = complex(re, im)
            if np.min(np.abs(spectrum - E0)) < max(min_distance, SPECTRUM_DISTANCE_TOL):
                out.append((E0, None))
                continue
            out.append((E0, spectral_winding(p, E0)))
    return out


def band_resolved_winding(traj: BandTrajectories, E0: complex) -> list:
    """Winding of each closed band loop around ``E0``.

    Without a band swap each of the two trajectories is its own loop; with
    a swap the two trajectories concatenate into a single loop of period
    4 pi. The loop windings sum to the determinant-based spectral winding.
    """
    bands = np.asarray(traj.bands, dtype=complex)
    if traj.band_swap:
        loops = [np.concatenate([bands[0], bands[1]])]
    else:
        loops = [bands[0], bands[1]]
    out = []
    for loop in loops:
        gap = abs(loop[0] - loop[-1])
        steps = np.abs(np.diff(loop))
        tol = max(20.0 * np.median(steps), 1e-8 * np.max(np.abs(loop)))
        if gap > tol:
            raise OpenTrajectoryError(
                f"band trajectory does not close (gap {gap:.3e} vs step scale {np.median(steps):.3e})"
            )
        if np.min(np.abs(loop - E0)) < SPECTRUM_DISTANCE_TOL:
            raise ReferenceOnSpectrumError(f"reference energy {E0} lies on a band loop")
        out.append(int(round(winding_number(loop - E0))))
    return out


def _boundary_residual(p: ModelParams) -> float:
    """Signed residual ``-(|z_(2)| - 1)(|z_(3)| - 1)`` of ``P``'s sorted root radii.

    The middle pair is the one that defines the generalized Brillouin zone
    (Yokomizo & Murakami, PRL 123, 066404 (2019)). For any ``dL``, ``dR``
    and ``t0`` the residual is positive exactly where ``nu = 0`` (two roots
    inside ``|z| < 1``) and changes sign wherever a root crosses the circle.
    """
    r = np.sort(_root_radii(_quartic(p)))
    return float(-(r[1] - 1.0) * (r[2] - 1.0))


def exceptional_scan(p: ModelParams, grid: KGrid | None = None, tol: float = EP_TOL) -> np.ndarray:
    """Momentum points where the two eigenvalues nearly coalesce.

    A point qualifies when |E+ - E-| < tol * max_k |E+ - E-|, with
    ``0 < tol < 1``. Inside an open phase region the scan comes back empty.
    """
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"exceptional-point tolerance must satisfy 0 < tol < 1, got {tol}")
    grid = grid or KGrid()
    e_plus, e_minus = analytic_eigenvalues(p, grid.values)
    gap = np.abs(e_plus - e_minus)
    scale = gap.max()
    if scale == 0.0:
        return grid.values.copy()
    return grid.values[gap < tol * scale]


@dataclass
class PhaseDiagram:
    """Braiding degree, boundary-density contrast and boundary residual on a grid.

    ``nu[i, j]`` belongs to ``(tL_axis[i], tR_axis[j])``; rejected cells
    carry ``NU_SENTINEL``. ``boundary_residual`` is finite in every cell:
    positive where ``nu = 0``, negative elsewhere (see
    :func:`_boundary_residual`).
    """

    tL_axis: np.ndarray
    tR_axis: np.ndarray
    nu: np.ndarray
    gamma: np.ndarray
    boundary_residual: np.ndarray


def compute_phase_diagram(
    t_range: tuple,
    resolution: int,
    chain_N: int,
    dL: GaugeVector = STANDARD_DL,
    dR: GaugeVector = STANDARD_DR,
    threads: int | None = None,
    progress=None,
) -> PhaseDiagram:
    """Sweep the (tL, tR) plane at t0 = 1.

    Each cell gets the braiding degree (sentinel on rejection), the
    boundary-density contrast of an open chain with ``chain_N`` sites, and
    the signed boundary residual of :func:`_boundary_residual`, whose sign
    changes across every ``nu`` transition. Cells are independent; they are
    dispatched to a thread pool of ``threads`` workers and written back by
    index. The loaded OpenBLAS runs on one thread for the length of the
    sweep, so the pool is its only parallelism and the output does not
    depend on the pool width or the BLAS thread setting.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo >= 0.0 or hi <= lo:
        raise ValidationError(f"t range must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    if resolution < 8:
        raise ValidationError(f"resolution must be >= 8, got {resolution}")
    axis = lo + (hi - lo) * (np.arange(resolution) + 1) / resolution
    # smaller hoppings square to subnormals, which _root_radii rejects, or to
    # 0, which drops roots of P that _boundary_residual indexes
    floor = np.sqrt(np.finfo(float).tiny)
    if axis[0] < floor:
        raise ValidationError(f"sweep hoppings must be >= {floor:.1e}, the first is {axis[0]}")

    nu = np.full((resolution, resolution), NU_SENTINEL, dtype=int)
    gam = np.full((resolution, resolution), np.nan)
    res = np.full((resolution, resolution), np.nan)

    def cell(idx):
        i, j = idx
        p = ModelParams(t0=1.0, tL=float(axis[i]), tR=float(axis[j]), dL=dL, dR=dR)
        try:
            nu_ij = braiding_degree(p)
        except NumericalError:
            nu_ij = NU_SENTINEL
        try:
            V = skin.obc_eigenstates(p, chain_N).right_eigenvectors
            gam_ij = skin.gamma(skin.densities_from_eigenvectors(V))
        except NumericalError:
            gam_ij = np.nan
        return i, j, nu_ij, gam_ij, _boundary_residual(p)

    indices = [(i, j) for i in range(resolution) for j in range(resolution)]
    if threads is not None and threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    done = 0
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=threads) as pool:
        for i, j, nu_ij, gam_ij, res_ij in pool.map(cell, indices):
            nu[i, j] = nu_ij
            gam[i, j] = gam_ij
            res[i, j] = res_ij
            done += 1
            if progress is not None and done % resolution == 0:
                progress(done // resolution, resolution)
    return PhaseDiagram(tL_axis=axis, tR_axis=axis.copy(), nu=nu, gamma=gam, boundary_residual=res)
