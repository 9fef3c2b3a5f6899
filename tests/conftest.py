"""Shared fixtures/helpers, the tests' reference oracles and the acceptance-criteria summary hook."""

import math

import numpy as np
import pytest

from nahn import (
    CircuitParams,
    GaugeVector,
    ModelParams,
    PhaseBoundaryError,
    classify_localization,
    densities_from_eigenvectors,
    m_coefficients,
    obc_eigenstates,
    resonance_frequency,
)
from nahn.circuit import NF

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
    (``dL . dR = 0``); phase diagrams write ``topology._boundary_residual``,
    which holds for every direction and has this one's sign there. At
    ``tL**2 == tR**2`` the expression degenerates and raises
    ``PhaseBoundaryError``.
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
