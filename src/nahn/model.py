"""Nonreciprocal two-component lattice chain.

Each site carries a two-component pseudospin. The on-site term and the two
hopping directions are 2x2 matrices obtained by contracting real unit
vectors with the Pauli matrices; the leftward and rightward hoppings differ
both in amplitude and in matrix direction, which makes the chain
non-Hermitian and, when the two direction vectors do not commute under the
Pauli algebra, endows it with a noncommuting matrix-valued coupling
structure.

Conventions: the wave number ``k`` is dimensionless (lattice constant 1),
and in real space the pseudospin is the fast index, ``global = 2*site + spin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Tolerance on | |d|^2 - 1 | for direction vectors.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class GaugeVector:
    """Real unit vector defining a direction in Pauli space."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"gauge vector component {name} is not finite: {v!r}")
        if abs(self.x**2 + self.y**2 + self.z**2 - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(
                f"gauge vector ({self.x}, {self.y}, {self.z}) is not unit length "
                f"(|d|^2 - 1 = {self.x**2 + self.y**2 + self.z**2 - 1:.3e})"
            )

    def dot(self, other: "GaugeVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    @classmethod
    def from_sequence(cls, seq) -> "GaugeVector":
        vals = list(seq)
        if len(vals) != 3:
            raise ValidationError(f"gauge vector needs 3 components, got {len(vals)}")
        return cls(float(vals[0]), float(vals[1]), float(vals[2]))


@dataclass(frozen=True)
class ModelParams:
    """Amplitudes and coupling directions of the chain.

    ``t0`` multiplies the on-site matrix ``dR . sigma``; ``tL`` and ``tR``
    multiply the leftward (``dL . sigma``) and rightward (``dR . sigma``)
    hoppings. Negative amplitudes are allowed; the sign folds into the
    matrix.
    """

    t0: float
    tL: float
    tR: float
    dL: GaugeVector
    dR: GaugeVector

    def __post_init__(self):
        for name in ("t0", "tL", "tR"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"amplitude {name} is not finite: {v!r}")

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "tL": self.tL,
            "tR": self.tR,
            "dL": [self.dL.x, self.dL.y, self.dL.z],
            "dR": [self.dR.x, self.dR.y, self.dR.z],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        try:
            return cls(
                t0=float(d["t0"]),
                tL=float(d["tL"]),
                tR=float(d["tR"]),
                dL=GaugeVector.from_sequence(d["dL"]),
                dR=GaugeVector.from_sequence(d["dR"]),
            )
        except KeyError as exc:
            raise ValidationError(f"missing model parameter key: {exc.args[0]!r}") from exc


class BoundaryCondition(Enum):
    PBC = "PBC"
    OBC = "OBC"


def pauli_combination(d: GaugeVector) -> np.ndarray:
    """Return ``d . sigma`` for a unit vector d.

    The result is the 2x2 Hermitian, traceless matrix
    ``d_x sigma_x + d_y sigma_y + d_z sigma_z`` with determinant -1.
    """
    return d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z


def bloch_hamiltonian(p: ModelParams, k) -> np.ndarray:
    """Momentum-space 2x2 matrix ``t0 dR.s + tL e^{ik} dL.s + tR e^{-ik} dR.s``.

    ``k`` may be a scalar (returns shape ``(2, 2)``) or an array of shape
    ``(n,)`` (returns ``(n, 2, 2)``).
    """
    k = np.asarray(k, dtype=float)
    mL = pauli_combination(p.dL)
    mR = pauli_combination(p.dR)
    phase = np.exp(1j * k)
    return (
        p.t0 * mR
        + p.tL * np.multiply.outer(phase, mL)
        + p.tR * np.multiply.outer(1.0 / phase, mR)
    )


def analytic_eigenvalues(p: ModelParams, k):
    """Closed-form eigenvalue pair ``(E+, E-)`` of the Bloch matrix.

    ``E+`` is the principal square root of
    ``(t0 + tR e^{-ik})^2 + tL^2 e^{2ik} + 2 (t0 + tR e^{-ik}) tL e^{ik} (dL . dR)``
    and ``E- = -E+`` exactly. Which root belongs to which band is not
    decided here; continuity sorting downstream resolves the identity.
    Accepts scalar or array ``k``.
    """
    k = np.asarray(k, dtype=float)
    a = p.t0 + p.tR * np.exp(-1j * k)
    b = p.tL * np.exp(1j * k)
    e_plus = np.sqrt(a * a + b * b + 2.0 * a * b * p.dL.dot(p.dR))
    return e_plus, -e_plus


def chain_matrix(on, left, right, N: int, bc: BoundaryCondition) -> np.ndarray:
    """Assemble the 2N x 2N block-tridiagonal matrix of a chain of 2x2 blocks.

    ``on`` fills the diagonal, ``left`` the super-diagonal (site n -> n+1)
    and ``right`` the sub-diagonal; periodic boundaries add ``left`` in the
    bottom-left and ``right`` in the top-right corner. A ring needs at
    least 3 sites, since with 2 the wrap blocks would land on the
    neighbour blocks.
    """
    if N < 2:
        raise ValidationError(f"chain needs at least 2 sites, got N={N}")
    if bc is BoundaryCondition.PBC and N < 3:
        raise ValidationError(f"periodic chain needs at least 3 sites, got N={N}")
    M = np.zeros((N, 2, N, 2), dtype=complex)
    n = np.arange(N)
    M[n, :, n, :] = on
    M[n[:-1], :, n[1:], :] = left
    M[n[1:], :, n[:-1], :] = right
    if bc is BoundaryCondition.PBC:
        M[N - 1, :, 0, :] = left
        M[0, :, N - 1, :] = right
    return M.reshape(2 * N, 2 * N)


def chain_blocks(p: ModelParams):
    """On-site ``t0 dR.s``, leftward ``tL dL.s`` and rightward ``tR dR.s`` 2x2 blocks."""
    return p.t0 * pauli_combination(p.dR), p.tL * pauli_combination(p.dL), p.tR * pauli_combination(p.dR)


def real_space_hamiltonian(p: ModelParams, N: int, bc: BoundaryCondition) -> np.ndarray:
    """Assemble the 2N x 2N chain matrix.

    Block structure: on-site ``t0 dR.s`` on the diagonal, leftward hopping
    ``tL dL.s`` on the super-diagonal (site n -> n+1), rightward hopping
    ``tR dR.s`` on the sub-diagonal; periodic boundaries add the two
    wrap-around blocks.
    """
    return chain_matrix(*chain_blocks(p), N, bc)
