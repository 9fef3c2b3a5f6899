"""Open-chain eigenstate analysis: spatial densities and boundary localization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .eigensolve import Spectrum, chain_eig
from .model import ModelParams, chain_blocks

#: Fraction of the chain counted as each boundary window.
DEFAULT_WINDOW_FRACTION = 0.2

#: Majority-density threshold for calling a state boundary-localized.
DEFAULT_THRESHOLD = 0.5

#: Minimum fraction of states on each side for the bipolar verdict.
BIPOLAR_STATE_FRACTION = 0.1


@dataclass
class LocalizationReport:
    """Per-state localization classes plus the chain-level summary."""

    classes: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    gamma: float
    bipolar: bool

    def counts(self) -> dict:
        return {c: np.count_nonzero(self.classes == c) for c in ("Left", "Right", "Extended")}


def densities_from_eigenvectors(V: np.ndarray) -> np.ndarray:
    """Collapse eigenvector components to normalized per-site densities.

    ``V`` holds one state per column over ``2 N`` components with the
    pseudospin as the fast index. Global phases and normalization of the
    columns drop out.
    """
    if V.ndim != 2 or V.shape[0] % 2 != 0:
        raise ValidationError(f"expected (2N, n_states) eigenvector array, got {V.shape}")
    # |v|^2 of each site's two components, summed in place: no 2N-row temporary
    site_dens = np.square(np.abs(V[0::2]))
    site_dens += np.square(np.abs(V[1::2]))
    site_dens /= site_dens.sum(axis=0, keepdims=True)
    return site_dens.T


def obc_eigenstates(p: ModelParams, N: int) -> Spectrum:
    """Eigenpairs of the open chain (``chain_eig`` of ``chain_blocks(p)``)."""
    return chain_eig(*chain_blocks(p), N)


def _window(densities: np.ndarray, fraction: float) -> int:
    """Sites in each boundary window of ``(n_states, n_sites)`` densities."""
    n_sites = densities.shape[1]
    if n_sites < 4:
        raise ValidationError(f"localization analysis needs N >= 4 sites, got {n_sites}")
    if not 0.0 < fraction < 0.5:
        raise ValidationError(f"window fraction must lie in (0, 0.5), got {fraction}")
    w = int(np.ceil(fraction * n_sites))
    if 2 * w > n_sites:
        raise ValidationError(f"window fraction {fraction} makes the two {w}-site windows overlap on {n_sites} sites")
    return w


def gamma(densities: np.ndarray, window_fraction: float = DEFAULT_WINDOW_FRACTION) -> float:
    """Boundary-density contrast (D_L - D_R) / (D_L + D_R) in [-1, 1].

    ``densities`` is the ``(n_states, n_sites)`` array of
    :func:`densities_from_eigenvectors`. D_L and D_R aggregate it over the
    first and last ``ceil(window_fraction * N)`` sites; +1 means fully
    left-localized, -1 fully right-localized, near 0 either extended or
    balanced between the two edges.
    """
    w = _window(densities, window_fraction)
    # exactly rounded sums make the mirror relabeling negate gamma exactly
    d_left = math.fsum(densities[:, :w].ravel())
    d_right = math.fsum(densities[:, -w:].ravel())
    return (d_left - d_right) / (d_left + d_right)


def classify_localization(
    densities: np.ndarray,
    boundary_fraction: float = DEFAULT_WINDOW_FRACTION,
    threshold: float = DEFAULT_THRESHOLD,
) -> LocalizationReport:
    """Label each state Left / Right / Extended by boundary-window weight.

    ``densities`` is as for :func:`gamma`. A state is boundary-localized
    when one window holds more than ``threshold`` of its density. The chain
    is bipolar when at least ``BIPOLAR_STATE_FRACTION`` of the states sit
    on each side.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    w = _window(densities, boundary_fraction)
    w_left = densities[:, :w].sum(axis=1)
    w_right = densities[:, -w:].sum(axis=1)
    classes = np.where(w_left > threshold, "Left", np.where(w_right > threshold, "Right", "Extended"))
    bipolar = (
        np.count_nonzero(classes == "Left") >= BIPOLAR_STATE_FRACTION * len(classes)
        and np.count_nonzero(classes == "Right") >= BIPOLAR_STATE_FRACTION * len(classes)
    )
    return LocalizationReport(
        classes=classes,
        w_left=w_left,
        w_right=w_right,
        gamma=gamma(densities, boundary_fraction),
        bipolar=bipolar,
    )
