"""Open-chain eigenstate analysis: spatial densities and boundary localization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .eigensolve import Spectrum, chain_eig, eig_dense
from .model import GaugeVector, ModelParams, chain_blocks

#: Fraction of the chain counted as each boundary window.
DEFAULT_WINDOW_FRACTION = 0.2

#: Majority-density threshold for calling a state boundary-localized.
DEFAULT_THRESHOLD = 0.5

#: Minimum fraction of states on each side for the bipolar verdict.
BIPOLAR_STATE_FRACTION = 0.1


@dataclass
class EigenstateSet:
    """Eigenvalues and per-site densities of a two-component chain.

    ``densities[n, x]`` is the weight of state n on site x, summed over the
    two pseudospin components and normalized so each state's site densities
    add up to 1. ``solver`` is the eigensolver route (see ``Spectrum``).
    """

    n_sites: int
    eigenvalues: np.ndarray
    densities: np.ndarray
    solver: str = "dense"


@dataclass
class LocalizationReport:
    """Per-state localization classes plus the chain-level summary."""

    classes: list
    w_left: np.ndarray
    w_right: np.ndarray
    gamma: float
    bipolar: bool

    def counts(self) -> dict:
        return {c: self.classes.count(c) for c in ("Left", "Right", "Extended")}


def densities_from_eigenvectors(V: np.ndarray) -> np.ndarray:
    """Collapse eigenvector components to normalized per-site densities.

    ``V`` holds one state per column over ``2 N`` components with the
    pseudospin as the fast index. Global phases and normalization of the
    columns drop out.
    """
    if V.ndim != 2 or V.shape[0] % 2 != 0:
        raise ValidationError(f"expected (2N, n_states) eigenvector array, got {V.shape}")
    n_sites = V.shape[0] // 2
    dens = np.abs(V) ** 2
    site_dens = dens.reshape(n_sites, 2, V.shape[1]).sum(axis=1)
    return (site_dens / site_dens.sum(axis=0, keepdims=True)).T


def _eigenstates(spec: Spectrum) -> EigenstateSet:
    V = spec.right_eigenvectors
    return EigenstateSet(
        n_sites=V.shape[0] // 2,
        eigenvalues=spec.eigenvalues,
        densities=densities_from_eigenvectors(V),
        solver=spec.solver,
    )


def eigenstates_from_matrix(M: np.ndarray) -> EigenstateSet:
    """Diagonalize a 2N x 2N chain operator densely and collect site densities.

    For matrices with no block structure to exploit, such as measured ones,
    whose noise breaks the chiral symmetry ``chain_eig`` uses.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise ValidationError(f"expected a square 2N x 2N matrix, got {M.shape}")
    return _eigenstates(eig_dense(M))


def chain_eigenstates(on, left, right, N: int) -> EigenstateSet:
    """Eigenpairs and site densities of the open chain of 2x2 blocks (``chain_eig``)."""
    return _eigenstates(chain_eig(on, left, right, N))


def obc_eigenstates(p: ModelParams, N: int) -> EigenstateSet:
    """Eigenpairs of the open chain with per-site densities."""
    if N < 4:
        raise ValidationError(f"localization analysis needs N >= 4 sites, got {N}")
    return chain_eigenstates(*chain_blocks(p), N)


def _window(n_sites: int, fraction: float) -> int:
    if not 0.0 < fraction < 0.5:
        raise ValidationError(f"window fraction must lie in (0, 0.5), got {fraction}")
    w = int(np.ceil(fraction * n_sites))
    if 2 * w > n_sites:
        raise ValidationError(f"window fraction {fraction} makes the two {w}-site windows overlap on {n_sites} sites")
    return w


def gamma(states: EigenstateSet, window_fraction: float = DEFAULT_WINDOW_FRACTION) -> float:
    """Boundary-density contrast (D_L - D_R) / (D_L + D_R) in [-1, 1].

    D_L and D_R aggregate the normalized densities of all states over the
    first and last ``ceil(window_fraction * N)`` sites; +1 means fully
    left-localized, -1 fully right-localized, near 0 either extended or
    balanced between the two edges.
    """
    w = _window(states.n_sites, window_fraction)
    # exactly rounded sums make the mirror relabeling negate gamma exactly
    d_left = math.fsum(states.densities[:, :w].ravel())
    d_right = math.fsum(states.densities[:, states.n_sites - w :].ravel())
    return (d_left - d_right) / (d_left + d_right)


def classify_localization(
    states: EigenstateSet,
    boundary_fraction: float = DEFAULT_WINDOW_FRACTION,
    threshold: float = DEFAULT_THRESHOLD,
) -> LocalizationReport:
    """Label each state Left / Right / Extended by boundary-window weight.

    A state is boundary-localized when one window holds more than
    ``threshold`` of its density. The chain is bipolar when at least
    ``BIPOLAR_STATE_FRACTION`` of the states sit on each side.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    w = _window(states.n_sites, boundary_fraction)
    w_left = states.densities[:, :w].sum(axis=1)
    w_right = states.densities[:, states.n_sites - w :].sum(axis=1)
    classes = [
        "Left" if wl > threshold else "Right" if wr > threshold else "Extended"
        for wl, wr in zip(w_left, w_right)
    ]
    n_states = len(classes)
    bipolar = (
        classes.count("Left") >= BIPOLAR_STATE_FRACTION * n_states
        and classes.count("Right") >= BIPOLAR_STATE_FRACTION * n_states
    )
    return LocalizationReport(
        classes=classes,
        w_left=w_left,
        w_right=w_right,
        gamma=gamma(states, boundary_fraction),
        bipolar=bipolar,
    )


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
        if classify_localization(obc_eigenstates(p, N)).bipolar:
            return False
    return True
