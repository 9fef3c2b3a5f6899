"""Admittance-network realization of the chain and its measurement protocol.

The two pseudospin components of each site map onto two circuit nodes; the
on-site, leftward and rightward coupling matrices become capacitor and
inductor link configurations, and every node carries an LCR ground so all
on-site terms stay equal. Internally everything is computed in SI units
(farads, henries, ohms, rad/s); the public parameter container speaks the
nF / uH / Ohm units of component datasheets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import _single_threaded_blas
from .errors import SingularNetworkError, ValidationError
from .model import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Z,
    BoundaryCondition,
    chain_matrix,
)

NF = 1e-9
UH = 1e-6

#: 1-norm condition-number bound beyond which a network counts as unmeasurable.
CONDITION_LIMIT = 1e12

#: Each component field of ``CircuitParams`` and its config key in datasheet
#: units; noise draws go to the components in this order.
COMPONENT_KEYS = {"C0": "C0_nF", "C1": "C1_nF", "C2": "C2_nF", "L0": "L0_uH", "L1": "L1_uH", "R0": "R0_ohm"}

#: Header name of the measurement each boundary condition runs: the ring
#: excites one unit cell, the open chain every node.
PROTOCOLS = {BoundaryCondition.PBC: "PBC_unit_cell", BoundaryCondition.OBC: "OBC_all_nodes"}


@dataclass(frozen=True)
class CircuitParams:
    """Component values in datasheet units plus an optional drive frequency.

    ``C0``, ``C1``, ``C2`` in nF, ``L0``, ``L1`` in uH, ``R0`` in Ohm.
    ``omega`` (rad/s) defaults to the resonance frequency when left None.
    """

    C0: float
    C1: float
    C2: float
    L0: float
    L1: float
    R0: float
    omega: float | None = None

    def __post_init__(self):
        for name in COMPONENT_KEYS:
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"component {name} must be positive and finite, got {v!r}")
        if self.omega is not None and not (math.isfinite(self.omega) and self.omega > 0):
            raise ValidationError(f"omega must be positive and finite, got {self.omega!r}")

    def drive_frequency(self) -> float:
        return self.omega if self.omega is not None else resonance_frequency(self)

    def to_dict(self) -> dict:
        d = {key: getattr(self, name) for name, key in COMPONENT_KEYS.items()}
        if self.omega is not None:
            d["omega_rad_s"] = self.omega
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CircuitParams":
        try:
            values = {name: float(d[key]) for name, key in COMPONENT_KEYS.items()}
        except KeyError as exc:
            raise ValidationError(f"missing circuit parameter key: {exc.args[0]!r}") from exc
        omega = d.get("omega_rad_s")
        return cls(omega=None if omega is None else float(omega), **values)


@dataclass(frozen=True)
class MeasurementNoise:
    """Relative Gaussian tolerance applied to each component value."""

    component_rel_sigma: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.component_rel_sigma) and self.component_rel_sigma >= 0.0):
            raise ValidationError(f"noise sigma must be finite and >= 0, got {self.component_rel_sigma!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"noise seed must be a non-negative integer, got {self.seed!r}")


def _invertible(value: float, what: str) -> float:
    """``value`` of the quantity ``what`` derived from the components; a ``ValidationError``
    naming it unless it is finite and non-zero with a finite reciprocal."""
    if value != 0.0 and math.isfinite(value) and math.isfinite(1.0 / value):
        return value
    raise ValidationError(f"{what} is {value!r}; it must be finite and non-zero with a finite reciprocal")


def resonance_frequency(c: CircuitParams) -> float:
    """Drive frequency 1/sqrt(L1 C1) at which the off-resonance term vanishes."""
    return 1.0 / math.sqrt(_invertible(c.L1 * UH * c.C1 * NF, f"L1 C1 (s^2) of L1_uH = {c.L1!r}, C1_nF = {c.C1!r}"))


def m_coefficients(c: CircuitParams, omega: float, include_r0: bool = True):
    """On-site coefficients (m0, m1) of the admittance matrix, in farads.

    ``m0 = -C2 - 2 C0 + 1/(w^2 L0) - 1/(i w R0) - C1 + 1/(w^2 L1)`` only
    shifts the admittance spectrum; ``m1 = (C1 - 1/(w^2 L1)) / 2`` is the
    off-resonance mismatch of the capacitor/inductor link and vanishes at
    the resonance frequency. ``include_r0=False`` drops the resistive
    (imaginary) part of m0. ``w^2 L0``, ``w^2 L1`` and ``w R0`` must be
    finite with finite reciprocals, and m0 finite; m1 then is too. Every
    admittance entry, in siemens or nF, is at most ``s = (|m0| + 2|m1| +
    C0 + C1 + C2) max(w, 1/NF)``, and ``8 s^2`` must be finite.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be positive, got {omega}")
    c0, c1, c2 = c.C0 * NF, c.C1 * NF, c.C2 * NF
    l0, l1 = c.L0 * UH, c.L1 * UH
    try:
        w2 = omega**2
    except OverflowError:  # Python's float power raises where a product would read inf
        w2 = math.inf
    at = f"at omega = {omega!r} rad/s"
    w2l0 = _invertible(w2 * l0, f"omega^2 L0 (1/F) of L0_uH = {c.L0!r} {at}")
    w2l1 = _invertible(w2 * l1, f"omega^2 L1 (1/F) of L1_uH = {c.L1!r} {at}")
    m0 = complex(-c2 - 2.0 * c0 + 1.0 / w2l0 - c1 + 1.0 / w2l1, 0.0)
    if include_r0:
        m0 = m0 - 1.0 / (1j * _invertible(omega * c.R0, f"omega R0 (Ohm/s) of R0_ohm = {c.R0!r} {at}"))
    if not cmath.isfinite(m0):
        raise ValidationError(f"on-site term m0 (F) of the six components {at} is {m0!r}; it must be finite")
    m1 = (c1 - 1.0 / w2l1) / 2.0
    # eigvals2x2 forms determinants and discriminants of at most 3 s^2, and
    # braiding_degree_of_blocks quartic coefficients of at most 6 s^2 (a block's Pauli
    # vector has norm at most sqrt(2) s); 8 s^2 leaves room for measured ring blocks, which
    # CONDITION_LIMIT keeps close to the nominal ones. |Re m0| + |Im m0| bounds |m0|, and unlike abs cannot raise
    s = (abs(m0.real) + abs(m0.imag) + 2.0 * abs(m1) + c0 + c1 + c2) * max(omega, 1.0 / NF)
    if not math.isfinite(8.0 * s * s):
        keys = ", ".join(COMPONENT_KEYS.values())
        raise ValidationError(f"admittances up to {s!r} S or nF {at} overflow their determinants; {keys} are out of range")
    return m0, m1


def admittance_bloch(c: CircuitParams, omega: float, k, include_r0: bool = True) -> np.ndarray:
    """Momentum-space admittance matrix in siemens.

    ``i w [m0 s0 + m1 (s0 - sz) e^{ik} + C0 sx + C1 e^{ik} sz + C2 e^{-ik} sx]``
    with capacitances in farads. ``k`` may be scalar or an array.
    """
    m0, m1 = m_coefficients(c, omega, include_r0)
    k = np.asarray(k, dtype=float)
    phase = np.exp(1j * k)
    mat = (
        m0 * SIGMA_0
        + np.multiply.outer(m1 * phase, SIGMA_0 - SIGMA_Z)
        + c.C0 * NF * SIGMA_X
        + np.multiply.outer(c.C1 * NF * phase, SIGMA_Z)
        + np.multiply.outer(c.C2 * NF / phase, SIGMA_X)
    )
    return 1j * omega * mat


def circuit_blocks(c: CircuitParams, omega: float | None = None, include_r0: bool = True):
    """On-site, leftward and rightward 2x2 admittance blocks, in siemens.

    On-site ``i w [m0 s0 + C0 sx]``, leftward ``i w [m1 (s0 - sz) + C1 sz]``,
    rightward ``i w C2 sx``, at the drive frequency unless ``omega`` is given.
    """
    w = c.drive_frequency() if omega is None else float(omega)
    m0, m1 = m_coefficients(c, w, include_r0)
    on = 1j * w * (m0 * SIGMA_0 + c.C0 * NF * SIGMA_X)
    left = 1j * w * (m1 * (SIGMA_0 - SIGMA_Z) + c.C1 * NF * SIGMA_Z)
    right = 1j * w * (c.C2 * NF * SIGMA_X)
    return on, left, right


def circuit_chain(
    c: CircuitParams,
    N: int,
    bc: BoundaryCondition,
    omega: float | None = None,
    include_r0: bool = True,
) -> np.ndarray:
    """Assemble the 2N x 2N admittance matrix of the chain, in siemens.

    The blocks are :func:`circuit_blocks`; periodic boundaries add the wrap
    blocks. Open boundaries keep the on-site block uniform at every site
    (the per-node LCR grounding compensates the missing neighbors of the
    edge sites).
    """
    return chain_matrix(*circuit_blocks(c, omega, include_r0), N, bc)


def measure_admittance(J: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Reconstruct an admittance matrix from its simulated voltage response.

    Unit currents are injected node by node; the response matrix is
    ``G = J^{-1}`` and the reconstruction inverts it back. On a ring
    (``bc`` PBC) only the two nodes of the first cell are excited and the
    remaining response columns follow from translational symmetry, so
    ``J`` must be block-circulant. Runs at one BLAS thread, like every
    solve.
    """
    J = np.asarray(J, dtype=complex)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2 != 0:
        raise ValidationError(f"expected a 2N x 2N admittance matrix, got {J.shape}")
    n = J.shape[0]
    with _single_threaded_blas():
        try:
            G = np.linalg.inv(J)
            cond = float(np.linalg.norm(J, 1)) * float(np.linalg.norm(G, 1))
        except np.linalg.LinAlgError:
            cond = np.inf
        if not cond <= CONDITION_LIMIT:
            raise SingularNetworkError(
                f"admittance matrix is near-singular (1-norm condition number {cond:.3e}); "
                "the drive sits on a resonance of the grounded network"
            )
        if bc is BoundaryCondition.PBC:
            n_sites = n // 2
            if n_sites < 3:
                raise ValidationError("unit-cell protocol needs at least 3 sites")
            i = np.arange(n_sites)
            cells = (i[:, None] - i[None, :]) % n_sites
            # block (i, j) of the ring response is the first block column's block i - j
            blocks = G[:, 0:2].reshape(n_sites, 2, 2)[cells]
            G = blocks.transpose(0, 2, 1, 3).reshape(n, n)
        return np.linalg.inv(G)


def perturbed_components(c: CircuitParams, noise: MeasurementNoise) -> CircuitParams:
    """Apply one multiplicative Gaussian draw per component value.

    A single draw per value keeps every admittance entry fed by the same
    component coherently perturbed. The drive frequency is not touched:
    the instrument is set from the nominal design values. A draw that
    leaves a component non-positive or non-finite raises ``ValidationError``
    naming the component, the draw, the sigma and the seed.
    """
    rng = np.random.default_rng(noise.seed)
    sigma = float(noise.component_rel_sigma)
    values = {}
    for name, draw in zip(COMPONENT_KEYS, rng.standard_normal(len(COMPONENT_KEYS)).tolist()):
        nominal = float(getattr(c, name))
        values[name] = nominal * (1.0 + sigma * draw)
        if not (math.isfinite(values[name]) and values[name] > 0):
            raise ValidationError(
                f"noise draw {draw!r} makes component {name} {values[name]!r} (nominal {nominal!r}) "
                f"at noise_sigma = {sigma!r}, seed = {int(noise.seed)}; components must stay positive and finite"
            )
    return CircuitParams(omega=c.omega, **values)


def simulated_measurement(
    c: CircuitParams,
    N: int,
    bc: BoundaryCondition,
    noise: MeasurementNoise | None = None,
    include_r0: bool = True,
) -> np.ndarray:
    """Assemble the chain (optionally with component tolerances) and measure it.

    Without noise the result is a numerical round trip of the nominal
    matrix; with noise the components are perturbed before assembly,
    deterministically under a fixed seed, and the drive stays at the
    nominal frequency.
    """
    actual = c if noise is None else perturbed_components(c, noise)
    J = circuit_chain(actual, N, bc, omega=c.drive_frequency(), include_r0=include_r0)
    return measure_admittance(J, bc)


def ring_blocks(J: np.ndarray):
    """On-site, leftward and rightward 2x2 blocks of a periodic chain, read from its first block row and column.

    Returns copies, so they do not keep ``J`` alive. Needs at least 3 sites
    so the neighbor blocks do not overlap the wrap blocks.
    """
    J = np.asarray(J, dtype=complex)
    if J.shape[0] < 6:
        raise ValidationError("block extraction needs a chain of at least 3 sites")
    return J[0:2, 0:2].copy(), J[0:2, 2:4].copy(), J[2:4, 0:2].copy()
