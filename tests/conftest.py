"""Shared fixtures/helpers, the tests' reference oracles and the acceptance-criteria summary hook."""

import math

import numpy as np
import pytest

from nahn import (
    CircuitParams,
    GaugeVector,
    KGrid,
    ModelParams,
    PhaseBoundaryError,
    analytic_eigenvalues,
    classify_localization,
    densities_from_eigenvectors,
    m_coefficients,
    obc_eigenstates,
    resonance_frequency,
    spectral_winding,
)
from nahn.circuit import NF
from nahn.eigensolve import NEAR_DEGENERACY_TOL
from nahn.topology import SPECTRUM_DISTANCE_TOL

DL = GaugeVector(0.0, 0.0, 1.0)
DR = GaugeVector(1.0, 0.0, 0.0)


def params(t0, tL, tR, dL=DL, dR=DR):
    return ModelParams(t0=t0, tL=tL, tR=tR, dL=dL, dR=dR)


def densities(spec):
    """Per-site densities of a spectrum's right eigenvectors, as localization reads them."""
    return densities_from_eigenvectors(spec.right_eigenvectors)


def multiset_match(a, b):
    """Worst pairwise distance under greedy nearest matching of two multisets."""
    a = list(np.asarray(a).ravel())
    b = list(np.asarray(b).ravel())
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        b.pop(i)
    return worst


def greedy_continuity_sort(pairs):
    """``(bands, band_swap, near_degenerate)`` of ``sort_bands_by_continuity``, one k point at a time.

    The loop the vectorized sort replaced: at each step keep the raw
    ordering of the pair or swap it, whichever costs less total |Delta E|
    against the previous sorted pair, and keep it on a tie.
    """
    E = np.asarray(pairs, dtype=complex)
    bands = np.empty_like(E)
    bands[0] = E[0]
    near = []
    for j in range(1, len(E)):
        a, b = E[j]
        prev = bands[j - 1]
        cost_keep = abs(a - prev[0]) + abs(b - prev[1])
        cost_swap = abs(b - prev[0]) + abs(a - prev[1])
        if abs(cost_keep - cost_swap) < NEAR_DEGENERACY_TOL:
            near.append(j)
            bands[j] = (a, b)
        elif cost_keep <= cost_swap:
            bands[j] = (a, b)
        else:
            bands[j] = (b, a)
    cost_keep = abs(bands[0, 0] - bands[-1, 0]) + abs(bands[0, 1] - bands[-1, 1])
    cost_swap = abs(bands[0, 1] - bands[-1, 0]) + abs(bands[0, 0] - bands[-1, 1])
    if abs(cost_keep - cost_swap) < NEAR_DEGENERACY_TOL:
        near.append(0)
        swap = False
    else:
        swap = cost_swap < cost_keep
    return bands.T.copy(), bool(swap), near


def profile_axes(p, n_re, n_im, pad, grid):
    """The sampled spectrum and the probe axes of ``spectral_winding_profile``."""
    grid = grid or KGrid()
    e_plus, e_minus = analytic_eigenvalues(p, grid.values)
    spectrum = np.concatenate([e_plus, e_minus])
    re_lo, re_hi = spectrum.real.min(), spectrum.real.max()
    im_lo, im_hi = spectrum.imag.min(), spectrum.imag.max()
    re_pad = pad * (re_hi - re_lo)
    im_pad = pad * (im_hi - im_lo)
    re_axis = np.linspace(re_lo - re_pad, re_hi + re_pad, n_re)
    return spectrum, re_axis, np.linspace(im_lo - im_pad, im_hi + im_pad, n_im)


def winding_profile_loop(p, n_re=20, n_im=20, pad=0.0, grid=None, min_distance=1e-6):
    """``spectral_winding_profile``, one probe at a time.

    The loop the stacked root count replaced: real part major, a probe
    closer than ``max(min_distance, SPECTRUM_DISTANCE_TOL)`` to a spectrum
    sample is skipped, measured against every sample, and every other probe
    gets its own :func:`spectral_winding` call, so the first probe that
    call rejects raises.
    """
    spectrum, re_axis, im_axis = profile_axes(p, n_re, n_im, pad, grid)
    out = []
    for re in re_axis:
        for im in im_axis:
            E0 = complex(re, im)
            if np.min(np.abs(spectrum - E0)) < max(min_distance, SPECTRUM_DISTANCE_TOL):
                out.append((E0, None))
                continue
            out.append((E0, spectral_winding(p, E0)))
    return out


def profile_skips_by_column(p, n_re=20, n_im=20, pad=0.0, grid=None, min_distance=1e-6):
    """Which probes ``spectral_winding_profile`` skips, flat and real part major, one column at a time.

    The loop the one-pass skip rule replaced: the samples whose real part
    lies within ``2 tol`` of a column's are each measured against every
    probe of that column, ``tol = max(min_distance, SPECTRUM_DISTANCE_TOL)``.
    """
    spectrum, re_axis, im_axis = profile_axes(p, n_re, n_im, pad, grid)
    tol = max(min_distance, SPECTRUM_DISTANCE_TOL)
    spectrum = spectrum[np.argsort(spectrum.real)]
    first = np.searchsorted(spectrum.real, re_axis - 2.0 * tol, side="left")
    stop = np.searchsorted(spectrum.real, re_axis + 2.0 * tol, side="right")
    probes = np.empty((n_re, n_im), dtype=complex)
    probes.real = re_axis[:, None]
    probes.imag = im_axis
    skip = np.zeros((n_re, n_im), dtype=bool)
    for i in np.flatnonzero(first < stop):
        near = spectrum[first[i]:stop[i], None]
        skip[i] = np.min(np.abs(near - probes[i]), axis=0) < tol
    return skip.ravel()


def two_exponential_eigenvalues(p, k):
    """``analytic_eigenvalues`` as it was before it took ``e^{-ik}`` as the conjugate of ``e^{ik}``."""
    k = np.asarray(k, dtype=float)
    a = p.t0 + p.tR * np.exp(-1j * k)
    b = p.tL * np.exp(1j * k)
    e_plus = np.sqrt(a * a + b * b + 2.0 * a * b * p.dL.dot(p.dR))
    return e_plus, -e_plus


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return GaugeVector(*v)


def is_nonabelian(dL: GaugeVector, dR: GaugeVector, tol: float = 1e-12) -> bool:
    """True when the two coupling matrices fail to commute.

    Since ``[a.sigma, b.sigma] = 2i (a x b).sigma``, the commutator vanishes
    exactly when the cross product does, so the check reduces to
    ``||dL x dR|| > tol``.
    """
    cx = dL.y * dR.z - dL.z * dR.y
    cy = dL.z * dR.x - dL.x * dR.z
    cz = dL.x * dR.y - dL.y * dR.x
    return math.sqrt(cx * cx + cy * cy + cz * cz) > tol


def phase_boundary_residual(tL: float, tR: float) -> float:
    """Closed-form residual of the exceptional-point boundary condition at t0 = 1.

    Zero crossings along a parameter path locate braiding phase
    boundaries. The closed form holds only for orthogonal directions
    (``dL . dR = 0``); phase diagrams write the residual of the braiding
    quartic's middle root radii, which holds for every direction and has
    this one's sign there. At ``tL**2 == tR**2`` the expression
    degenerates and raises ``PhaseBoundaryError``.
    """
    denom = tL * tL - tR * tR
    if denom == 0.0:
        raise PhaseBoundaryError(f"degenerate denominator: tL^2 == tR^2 at ({tL}, {tR})")
    s = tL * tL + tR * tR
    return 1.0 + s * (2.0 * tR * tR / denom**2 - 1.0) + 2.0 * tR * tR / denom


#: The lattice directions realized by the circuit layout.
CIRCUIT_DL = GaugeVector(0.0, 0.0, 1.0)
CIRCUIT_DR = GaugeVector(1.0, 0.0, 0.0)


def circuit_to_model(c: CircuitParams, include_r0: bool = True):
    """Lattice parameters realized by the circuit at resonance.

    Returns ``(params, shift, scale)`` with amplitudes in nF units
    (t0 = C0, tL = C1, tR = C2) and the directions this layout realizes, so
    ``admittance_bloch(c, w0, k) == scale * (H(k) + shift * I)`` where H is
    the Bloch matrix of ``params``; ``shift`` is m0 in nF and ``scale``
    converts an nF-valued matrix to siemens.
    """
    omega0 = resonance_frequency(c)
    params = ModelParams(t0=c.C0, tL=c.C1, tR=c.C2, dL=CIRCUIT_DL, dR=CIRCUIT_DR)
    m0, _ = m_coefficients(c, omega0, include_r0)
    return params, m0 / NF, 1j * omega0 * NF


ABELIAN_D = GaugeVector(1.0, 0.0, 0.0)


def abelian_control(t_samples, N: int) -> bool:
    """True when no sampled (tL, tR) point is bipolar with commuting couplings.

    Runs the localization classifier at t0 = 1 with dL = dR = (1, 0, 0),
    for which the two coupling matrices commute. Samples should stay off
    the Hermitian line tL = tR, where states are extended rather than
    skin-localized.
    """
    for tL, tR in t_samples:
        p = ModelParams(t0=1.0, tL=float(tL), tR=float(tR), dL=ABELIAN_D, dR=ABELIAN_D)
        densities = densities_from_eigenvectors(obc_eigenstates(p, N).right_eigenvectors)
        if classify_localization(densities).bipolar:
            return False
    return True


@pytest.fixture
def p1():
    return params(1.0, 1.0, 3.0)


@pytest.fixture
def p2():
    return params(1.0, 3.0, 1.0)


@pytest.fixture
def p3():
    return params(1.0, 1.2, 0.9)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1].replace("test_", "", 1)
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
