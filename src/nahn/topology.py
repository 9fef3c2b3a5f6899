"""Spectral-topology invariants of the chain.

The braiding degree is the winding of ``det(H(k) - Tr H(k)/2)`` around the
origin over one momentum cycle; the point-gap winding number w(E0) is the
winding of ``det(H(k) - E0)``. For model parameters both are counted
exactly, without a k grid: ``H(k)`` is traceless, so with ``z = e^{ik}``
``z^2 det(H - E0) = E0^2 z^2 - P(z)`` for a quartic ``P``, and by the
argument principle each winding is the number of roots inside ``|z| < 1``
minus the double pole at ``z = 0``.

The model's ``P`` factors: with ``cos(theta) = dL.dR`` it is ``q+ q-``,
``q+-(z) = tL z^2 + e^{+-i theta} (t0 z + tR)``. The amplitudes are real, so
the roots of ``q-`` are the conjugates of those of ``q+``, and the braiding
degree is ``nu = 2 n+ - 2``, where ``n+`` counts the roots of ``q+`` inside
the circle (:func:`_qplus_radii`). The same two radii give the phase
diagram's boundary residual. ``E0^2 z^2 - P(z)`` does not factor, so
``w(E0)`` counts the zeros of quartics inside the circle by the Schur-Cohn
test, without finding them (:func:`_zeros_inside`). Loops given as samples
(measured or circuit loci) are wound by accumulating the phase differences
of their determinants, each step bounded by pi in magnitude.
"""

from __future__ import annotations

import math
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
    steps = np.angle(np.concatenate((v[1:], v[:1])) / v)  # np.roll(v, -1) / v, without np.roll's overhead
    return float(steps.sum() / (2.0 * np.pi))


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


def _quartic(t0, tL, tR, c: float) -> np.ndarray:
    """Coefficients, highest power first, of ``P(z) = -z^2 det H(k)`` at ``z = e^{ik}``, ``c = dL.dR``."""
    return np.array([
        tL * tL,
        2.0 * c * tL * t0,
        t0 * t0 + 2.0 * c * tL * tR,
        2.0 * t0 * tR,
        tR * tR,
    ])


def _require_finite(coeffs: np.ndarray) -> None:
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError(f"amplitudes too large: polynomial coefficients {coeffs.tolist()} are not finite")


def _qplus_radii(t0: float, tL, tR, c: float) -> np.ndarray:
    """``|z|`` of the two roots of ``q+(z) = tL z^2 + e^{i theta} (t0 z + tR)``, ``cos(theta) = c``, on the last axis.

    ``t0`` and ``c`` are scalars (``c`` clipped to [-1, 1]); scalar ``tL``,
    ``tR`` give shape ``(2,)``, arrays one pair of radii per pair of
    amplitudes. The quadratic is scaled by its largest amplitude, so its
    discriminant cannot overflow, and its larger root comes from the formula
    that avoids cancellation, the smaller from the product of the roots. A
    root that a zero leading coefficient sends to infinity reads ``inf``;
    both read NaN where ``q+`` vanishes identically.
    """
    c = min(1.0, max(-1.0, c))
    phase = complex(c, -math.sqrt(1.0 - c * c))  # e^{-i theta}; q+ e^{-i theta} / scale = a z^2 + b z + c0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # roots at infinity; vanishing q+
        if t0 == 0.0:
            r = np.sqrt(np.abs(tR) / np.abs(tL))
            return np.array([r, r]).T
        scale = np.maximum(np.maximum(abs(tL), abs(t0)), abs(tR))
        a, b, c0 = tL / scale * phase, t0 / scale, tR / scale
        d = np.sqrt(b * b - 4.0 * a * c0)
        q = -0.5 * (b + d) if t0 > 0.0 else -0.5 * (b - d)  # Re d >= 0, so |q| >= |b| / 2 > 0
        return np.array([np.abs(q) / np.abs(a), abs(c0) / np.abs(q)]).T


def _root_count(radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of root radii (the last axis): whether none lies within ``ROOT_CIRCLE_TOL`` of ``|z| = 1``
    (False where a radius is NaN), and how many lie inside ``|z| < 1``."""
    return np.abs(radii - 1.0).min(axis=-1) >= ROOT_CIRCLE_TOL, (radii < 1.0).sum(axis=-1)


def _zeros_inside(rows: np.ndarray, error: type, what) -> np.ndarray:
    """Roots inside ``|z| < 1`` minus 2 of each quartic row: the winding of ``poly(z) / z^2`` on ``|z| = 1``.

    All rows at once, by the Schur-Cohn test (Schur 1917; Cohn 1922; Marden,
    *Geometry of Polynomials*, ch. X): for ``p`` of formal degree ``m``,
    ``a_k`` its coefficient of ``z^k`` and ``p*(z) = z^m conj(p(1/conj z))``,
    ``Tp = conj(a_0) p - a_m p*`` has degree ``m - 1`` and the constant
    ``|a_0|^2 - |a_m|^2``. As ``|p*| = |p|`` on the circle, ``p`` has as many
    zeros inside as ``Tp`` where that constant is positive, and ``m`` minus
    as many where it is negative. So after four steps, each divided by its
    largest coefficient, a zero lies inside for each step after an odd
    number of negative constants. A row counts at ``p(rz)``,
    ``r = 1 -+ ROOT_CIRCLE_TOL``, when every constant exceeds a bound on its
    rounding error and the two counts agree: no root then lies within
    ``ROOT_CIRCLE_TOL`` of the circle. Other rows are counted again exactly
    (:func:`_exact_zeros_inside`): with ``tL = tR`` a constant can be second
    order in ``ROOT_CIRCLE_TOL``, and with ``tL = tR = 0`` one is 0. The
    first row, in order, that is still not counted raises, as a loop would:
    ``error`` when it vanishes identically or has a root near the circle,
    ``ValidationError`` when it is not finite. ``what(i)`` names row ``i``.
    """
    radii = 1.0 + np.array([-ROOT_CIRCLE_TOL, ROOT_CIRCLE_TOL])
    constants, err = np.empty((4, 2, len(rows))), 0.0  # each constant in units of its rounding-error bound
    # a row that vanishes or is not finite reads NaN, and one whose error bound overflows 0: undecided
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.multiply(rows[:, ::-1], radii[:, None, None] ** np.arange(5), dtype=complex)
        for m in range(4, 0, -1):
            scale = np.abs(a.view(float)).max(axis=-1)
            a /= scale[..., None]
            a = a[..., :1].conj() * a[..., :m] - a[..., m:] * a[..., m:0:-1].conj()
            err = 16.0 * (err / scale + np.finfo(float).eps)  # first order; the coefficients have |a_k| <= sqrt(2)
            constants[4 - m] = a[..., 0].real / err
    inside = np.logical_xor.accumulate(constants < 0).sum(axis=0)
    for i in np.flatnonzero(~(np.abs(constants) > 1.0).all(axis=(0, 1)) | (inside[0] != inside[1])).tolist():
        if not rows[i].any():
            raise error(f"{what(i)}: determinant vanishes identically")
        _require_finite(rows[i])
        exact = [_exact_zeros_inside(rows[i, ::-1].tolist(), r) for r in radii.tolist()]
        if None in exact or exact[0] != exact[1]:
            raise error(f"{what(i)}: determinant vanishes on the momentum loop (root on |z| = 1)")
        inside[0, i] = exact[0]
    return inside[0] - 2


def _exact_zeros_inside(p: list, r: float) -> int | None:
    """Zeros of ``p(rz)`` inside ``|z| < 1`` by the Schur-Cohn test of :func:`_zeros_inside`, in exact arithmetic.

    ``p``: five coefficients, lowest power first, not all zero. Each exact zero
    constant term is a root at ``z = 0``, counted and divided out. They and ``r``
    are binary fractions, so scaled to integers no step rounds. None where a constant is 0.
    """
    inside, odd = next(k for k, c in enumerate(p) if c), 0
    nr, dr = r.as_integer_ratio()
    parts = [(n * nr ** k, d * dr ** k) for k, c in enumerate(p[inside:] + [0] * inside)
             for n, d in (c.real.as_integer_ratio(), c.imag.as_integer_ratio())]
    scale = max(d for _, d in parts)  # a power of 2, as each denominator
    a = [(x * (scale // dx), y * (scale // dy)) for (x, dx), (y, dy) in zip(parts[::2], parts[1::2])]
    for m in range(4, 0, -1):
        (x0, y0), (xm, ym) = a[0], a[m]
        a = [(x0 * xk + y0 * yk - xm * xj - ym * yj, x0 * yk - y0 * xk - ym * xj + xm * yj)
             for (xk, yk), (xj, yj) in zip(a[:m], a[m:0:-1])]
        if a[0][0] == 0:
            return None
        odd ^= a[0][0] < 0
        inside += odd
    return inside


def _windings(p: ModelParams, E0: np.ndarray) -> np.ndarray:
    """Point-gap windings around each reference energy of the complex array ``E0``, by one root count.

    Row ``i`` is ``P(z) - E0[i]^2 z^2``. The energies are checked in order,
    and the first that cannot be counted raises what
    :func:`spectral_winding` raises for it; one that is not finite, or whose
    square overflows, raises ``ValidationError``.
    """
    rows = np.empty((len(E0), 5), dtype=complex)
    rows[:] = _quartic(p.t0, p.tL, p.tR, p.dL.dot(p.dR))
    re, im = E0.real, E0.imag
    square = np.empty_like(E0)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        # Python's complex(E0) ** 2 bit for bit, which numpy's complex product is not
        square.real = re * re - im * im
        square.imag = 2.0 * (re * im)
        rows[:, 2] -= square
    finite = np.isfinite(square)
    n = len(E0) if finite.all() else finite.argmin()
    w = _zeros_inside(rows[:n], ReferenceOnSpectrumError, lambda i: f"spectral winding at {complex(E0[i])}")
    if n < len(E0):
        raise ValidationError(f"reference energy E0 = {complex(E0[n])} is not finite or its square overflows")
    return w


def braiding_degree(p: ModelParams, grid: KGrid | None = None) -> int:
    """Integer braiding degree of the two Bloch bands, ``2 n+ - 2`` from the roots of ``q+`` (see the module).

    ``grid`` is unused; it is accepted so that callers passing one keep
    working. A root of ``q+`` within ``ROOT_CIRCLE_TOL`` of ``|z| = 1`` (a
    determinant zero on the loop) signals a phase boundary and raises
    ``PhaseBoundaryError``, as does a ``q+`` that vanishes identically (all
    three amplitudes 0). ``P``'s coefficients must be finite, as for
    :func:`spectral_winding`, or ``ValidationError`` is raised: amplitudes
    whose squares overflow also overflow the Bloch bands.
    """
    c = p.dL.dot(p.dR)
    _require_finite(_quartic(p.t0, p.tL, p.tR, c))
    radii = _qplus_radii(p.t0, p.tL, p.tR, c)
    counted, inside = _root_count(radii)
    if not counted:
        where = "identically" if np.isnan(radii[0]) else "on the momentum loop (root on |z| = 1)"
        raise PhaseBoundaryError(f"braiding degree: determinant vanishes {where}")
    return 2 * int(inside) - 2


def spectral_winding(p: ModelParams, E0: complex, grid: KGrid | None = None) -> int:
    """Point-gap winding number of the Bloch spectrum around ``E0``, by exact root count.

    ``grid`` is unused; it is accepted so that callers passing one keep
    working. A reference energy on the spectrum raises
    ``ReferenceOnSpectrumError``; one that is not finite, or whose square
    overflows, raises ``ValidationError``.
    """
    return int(_windings(p, np.array([E0], dtype=complex))[0])


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
    ``(E0, w)`` pairs, real part major, with ``w = None`` for skipped probes.

    ``grid`` samples the spectrum for the box and the skip rule: a probe is
    skipped when its nearest sample is closer than
    ``tol = max(min_distance, SPECTRUM_DISTANCE_TOL)``. Only the samples whose
    real and imaginary parts both lie within ``tol`` of the probe's are
    measured, since no other can be that close (``|d| >= |Re d|, |Im d|``),
    so the decisions equal those of measuring every sample. All probes are
    measured in one pass, whose memory grows with ``n_re`` times the number
    of samples, and with ``n_im`` times those within ``tol`` of a column's
    real part. The windings of all evaluated probes come from one count of
    their rows (:func:`_zeros_inside`) and equal :func:`spectral_winding`'s;
    the first evaluated probe, real part major, that it rejects raises the
    same error. Negative ``n_re`` or ``n_im``, a ``pad`` that is not finite
    or stretches the grid past the float range, a NaN or negative
    ``min_distance`` and a quartic or sampled spectrum that is not finite
    raise ``ValidationError``.
    """
    if n_re < 0 or n_im < 0:
        raise ValidationError(f"profile needs n_re, n_im >= 0, got {n_re}, {n_im}")
    if not np.isfinite(pad):
        raise ValidationError(f"pad must be finite, got {pad}")
    if not min_distance >= 0.0:
        raise ValidationError(f"min_distance must be >= 0, got {min_distance}")
    _require_finite(_quartic(p.t0, p.tL, p.tR, p.dL.dot(p.dR)))
    grid = grid or KGrid()
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        spectrum = np.concatenate(analytic_eigenvalues(p, grid.values))
        if not np.all(np.isfinite(spectrum)):
            raise ValidationError("amplitudes too large: the sampled Bloch spectrum is not finite")
        re_lo, re_hi = spectrum.real.min(), spectrum.real.max()
        im_lo, im_hi = spectrum.imag.min(), spectrum.imag.max()
        re_pad = pad * (re_hi - re_lo)
        im_pad = pad * (im_hi - im_lo)
        re_axis = np.linspace(re_lo - re_pad, re_hi + re_pad, n_re)
        im_axis = np.linspace(im_lo - im_pad, im_hi + im_pad, n_im)
        if not (np.all(np.isfinite(re_axis)) and np.all(np.isfinite(im_axis))):
            raise ValidationError(f"pad {pad} stretches the probe grid beyond the float range")
    tol = max(min_distance, SPECTRUM_DISTANCE_TOL)
    probes = np.empty((n_re, n_im), dtype=complex)
    probes.real = re_axis[:, None]
    probes.imag = im_axis
    # the pairs of a column i and a sample s with |Re d| < tol, then of those
    # and a row j the ones with |Im d| < tol: no other pair can have |d| < tol
    i, s = np.divmod(np.flatnonzero(np.abs(np.subtract.outer(re_axis, spectrum.real)) < tol), len(spectrum))
    j, k = np.divmod(np.flatnonzero(np.abs(np.subtract.outer(im_axis, spectrum.imag[s])) < tol), len(s))
    pair = i[k] * n_im + j  # the probe's index in the flat grid
    probes = probes.ravel()
    skip = np.zeros(len(probes), dtype=bool)
    skip[pair[np.abs(spectrum[s[k]] - probes[pair]) < tol]] = True
    w = iter(_windings(p, probes[~skip]).tolist())
    return [(E0, None if s else next(w)) for E0, s in zip(probes.tolist(), skip.tolist())]


def band_resolved_winding(traj: BandTrajectories, E0: complex) -> list:
    """Winding of each closed band loop around ``E0``.

    Without a band swap each of the two trajectories is its own loop; with
    a swap the two trajectories concatenate into a single loop of period
    4 pi. The loop windings sum to the determinant-based spectral winding.
    """
    if not np.isfinite(E0):
        raise ValidationError(f"reference energy E0 = {E0} is not finite")
    bands = np.asarray(traj.bands, dtype=complex)
    if traj.band_swap:
        loops = [np.concatenate([bands[0], bands[1]])]
    else:
        loops = [bands[0], bands[1]]
    out = []
    for loop in loops:
        gap = abs(loop[0] - loop[-1])
        step = _median(np.abs(np.diff(loop)))
        tol = max(20.0 * step, 1e-8 * np.abs(loop).max())
        if gap > tol:
            raise OpenTrajectoryError(f"band trajectory does not close (gap {gap:.3e} vs step scale {step:.3e})")
        shifted = loop - E0
        if np.abs(shifted).min() < SPECTRUM_DISTANCE_TOL:
            raise ReferenceOnSpectrumError(f"reference energy {E0} lies on a band loop")
        out.append(int(round(winding_number(shifted))))
    return out


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty real vector, bit for bit, by one partition: NaN if any entry is NaN."""
    h = len(x) // 2
    part = np.partition(x, (h - 1, h, -1) if len(x) % 2 == 0 else (h, -1))
    if np.isnan(part[-1]):
        return part[-1]
    return part[h] if len(x) % 2 else (part[h - 1] + part[h]) / 2.0


def exceptional_scan(p: ModelParams, grid: KGrid | None = None, tol: float = EP_TOL) -> np.ndarray:
    """Momentum points where the two eigenvalues nearly coalesce.

    A point qualifies when |E+ - E-| < tol * max_k |E+ - E-|, with
    ``0 < tol < 1``. Inside an open phase region the scan comes back empty.
    """
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"exceptional-point tolerance must satisfy 0 < tol < 1, got {tol}")
    k = (grid or KGrid()).values
    e_plus, e_minus = analytic_eigenvalues(p, k)
    gap = np.abs(e_plus - e_minus)
    scale = gap.max()
    if scale == 0.0:
        return k
    return k[gap < tol * scale]


@dataclass
class PhaseDiagram:
    """Braiding degree, boundary-density contrast and boundary residual on a grid.

    ``nu[i, j]`` belongs to ``(tL_axis[i], tR_axis[j])``; rejected cells
    carry ``NU_SENTINEL``. ``boundary_residual`` is finite in every cell:
    positive where ``nu = 0``, negative elsewhere (see
    :func:`compute_phase_diagram`).
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

    The two root radii of the plane's ``q+`` give every cell's ``nu``
    (sentinel where :func:`braiding_degree` rejects) and its boundary
    residual. A cell is only the boundary-density contrast of an open chain
    with ``chain_N`` sites. Cells go to a thread pool of ``threads``
    workers. The loaded OpenBLAS runs on one thread for the length of the
    sweep, so the pool is its only parallelism and the output does not
    depend on the pool width or the BLAS thread setting.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not 0.0 <= lo < hi < np.inf:
        raise ValidationError(f"t range must satisfy 0 <= lo < hi < inf, got ({lo}, {hi})")
    if resolution < 8:
        raise ValidationError(f"resolution must be >= 8, got {resolution}")
    axis = lo + (hi - lo) * (np.arange(resolution) + 1) / resolution
    # q+'s larger root is about 1 / tL: it overflows near tL = 5e-309, and is
    # infinite at tL = 0, where the residual would not be finite; the floor
    # keeps well above that
    floor = np.sqrt(np.finfo(float).tiny)
    if axis[0] < floor:
        raise ValidationError(f"sweep hoppings must be >= {floor:.1e}, the first is {axis[0]}")
    if threads is not None and threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")

    tL, tR = np.repeat(axis, resolution), np.tile(axis, resolution)

    def cell(tL, tR):
        p = ModelParams(t0=1.0, tL=tL, tR=tR, dL=dL, dR=dR)
        try:
            return skin.gamma(skin.densities_from_eigenvectors(skin.obc_eigenstates(p, chain_N).right_eigenvectors))
        except NumericalError:
            return np.nan

    gamma = []
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=threads) as pool:
        for g in pool.map(cell, tL.tolist(), tR.tolist()):
            gamma.append(g)
            if progress is not None and len(gamma) % resolution == 0:
                progress(len(gamma) // resolution, resolution)
    radii = _qplus_radii(1.0, tL, tR, dL.dot(dR))
    counted, inside = _root_count(radii)
    # P's sorted radii are q+'s two, each twice, so its middle pair, which
    # defines the generalized Brillouin zone (Yokomizo & Murakami, PRL 123,
    # 066404 (2019)), is q+'s pair: for any dL and dR the residual is
    # positive exactly where nu = 0 (one root of q+ inside |z| < 1) and
    # changes sign wherever a root crosses the circle
    res = -(radii.min(axis=1) - 1.0) * (radii.max(axis=1) - 1.0)
    shape = (resolution, resolution)
    nu = np.where(counted, 2 * inside - 2, NU_SENTINEL)
    return PhaseDiagram(tL_axis=axis, tR_axis=axis.copy(), nu=nu.reshape(shape),
                        gamma=np.array(gamma).reshape(shape), boundary_residual=res.reshape(shape))
