"""Dense complex eigendecomposition and band-continuity tracking.

``eig_dense`` wraps the standard dense non-symmetric path (balancing,
Hessenberg reduction, shifted QR with deflation, back-substitution for the
right eigenvectors) as provided by LAPACK through numpy, and adds the
residual bookkeeping and eigenvector gauge required by the rest of the
package. ``eig2x2`` implements the 2x2 closed form independently so that
the two routes can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolverError, ValidationError

#: Pairing ambiguity threshold for continuity sorting.
NEAR_DEGENERACY_TOL = 1e-12


@dataclass
class Spectrum:
    """Eigenvalues with optional right eigenvectors and their residuals.

    ``right_eigenvectors`` holds one unit-norm column per eigenvalue, with
    the largest-magnitude component rotated to be real and positive so that
    output files are reproducible. ``residuals`` are
    ``||M v - lambda v||_2 / max(1, ||M||_F)``; an infinite entry marks a
    duplicated eigenvector returned for a defective matrix.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None = None
    residuals: np.ndarray | None = None


def _check_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return M


def _fix_gauge(V: np.ndarray) -> np.ndarray:
    """Normalize columns and rotate the largest component real-positive."""
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    idx = np.argmax(np.abs(V), axis=0)
    pivots = V[idx, np.arange(V.shape[1])]
    phases = pivots / np.abs(pivots)
    return V / phases[np.newaxis, :]


def _residuals(M: np.ndarray, lams: np.ndarray, V: np.ndarray) -> np.ndarray:
    scale = max(1.0, np.linalg.norm(M))
    return np.linalg.norm(M @ V - V * lams[np.newaxis, :], axis=0) / scale


def eig2x2(M) -> Spectrum:
    """Closed-form eigendecomposition of a 2x2 complex matrix.

    Eigenvalues are ``Tr/2 +- sqrt((Tr/2)^2 - det)`` with the principal
    square root; eigenvectors come from the null space of ``M - lambda I``
    using the numerically larger row as the constraint. A defective input
    yields a repeated eigenvalue and the same eigenvector twice, with the
    duplicate's residual set to ``inf``.
    """
    M = _check_square(M)
    if M.shape != (2, 2):
        raise ValidationError(f"eig2x2 needs a 2x2 matrix, got {M.shape}")
    half_tr = 0.5 * (M[0, 0] + M[1, 1])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = np.sqrt(half_tr * half_tr - det)
    lams = np.array([half_tr + disc, half_tr - disc])

    vecs = []
    for lam in lams:
        r1 = np.array([M[0, 0] - lam, M[0, 1]])
        r2 = np.array([M[1, 0], M[1, 1] - lam])
        row = r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2
        if np.linalg.norm(row) == 0.0:
            # M is lam * I; any basis works
            vecs.append(np.array([1.0 + 0j, 0.0]))
            continue
        v = np.array([-row[1], row[0]])
        vecs.append(v / np.linalg.norm(v))
    V = _fix_gauge(np.column_stack(vecs))
    res = _residuals(M, lams, V)
    if lams[0] == lams[1] and abs(np.vdot(V[:, 0], V[:, 1])) > 1.0 - 1e-10:
        if np.linalg.norm(M - half_tr * np.eye(2)) > 0.0:
            # defective: only one independent eigenvector exists
            res[1] = np.inf
        else:
            V = np.eye(2, dtype=complex)
            res = _residuals(M, lams, V)
    return Spectrum(eigenvalues=lams, right_eigenvectors=V, residuals=res)


def eig_dense(M, eigenvectors: bool = True) -> Spectrum:
    """Full spectrum of a dense complex matrix, right eigenvectors on request.

    Delegates to LAPACK's non-symmetric solver; a non-converged QR
    iteration surfaces as :class:`EigensolverError` instead of a silent
    partial result.
    """
    M = _check_square(M)
    try:
        if eigenvectors:
            lams, V = np.linalg.eig(M)
        else:
            lams = np.linalg.eigvals(M)
            V = None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"QR iteration did not converge for a {M.shape[0]}x{M.shape[0]} matrix "
            f"(LAPACK: {exc})"
        ) from exc
    if V is None:
        return Spectrum(eigenvalues=lams)
    V = _fix_gauge(V)
    return Spectrum(eigenvalues=lams, right_eigenvectors=V, residuals=_residuals(M, lams, V))


@dataclass
class BandTrajectories:
    """Continuity-sorted eigenvalue curves over a closed momentum loop.

    ``bands[b, j]`` is band ``b`` at ``k_grid[j]``. ``band_swap`` records
    whether the loop closes band-to-band (period 2 pi) or only after the
    two bands exchange (period 4 pi). ``near_degenerate`` lists grid
    indices where the two pairings were numerically indistinguishable and
    the previous ordering was kept.
    """

    k_grid: np.ndarray
    bands: np.ndarray
    band_swap: bool
    near_degenerate: list = field(default_factory=list)


def sort_bands_by_continuity(k_values, pairs) -> BandTrajectories:
    """Greedy nearest-neighbor matching of eigenvalue pairs along k.

    ``k_values`` must be a uniform, ordered grid over [0, 2 pi) with at
    least 16 points; ``pairs`` has shape ``(n, 2)`` holding the raw
    eigenvalues at each grid point. At every step the pairing minimizing
    the total |Delta E| is chosen; ties within ``NEAR_DEGENERACY_TOL`` keep
    the previous ordering.
    """
    k = np.asarray(k_values, dtype=float)
    E = np.asarray(pairs, dtype=complex)
    if k.ndim != 1 or len(k) < 16:
        raise ValidationError(f"need a 1-d k grid with >= 16 points, got {k.shape}")
    if E.shape != (len(k), 2):
        raise ValidationError(f"pairs must have shape ({len(k)}, 2), got {E.shape}")
    spacing = np.diff(k)
    expected = 2.0 * np.pi / len(k)
    if k[0] != 0.0 or not np.allclose(spacing, expected, rtol=0, atol=1e-9):
        raise ValidationError("k grid must be uniform over [0, 2*pi) starting at 0")

    bands = np.empty_like(E)
    bands[0] = E[0]
    near = []
    for j in range(1, len(k)):
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
    # closure across the wrap step decides whether the bands exchanged
    cost_keep = abs(bands[0, 0] - bands[-1, 0]) + abs(bands[0, 1] - bands[-1, 1])
    cost_swap = abs(bands[0, 1] - bands[-1, 0]) + abs(bands[0, 0] - bands[-1, 1])
    if abs(cost_keep - cost_swap) < NEAR_DEGENERACY_TOL:
        near.append(0)
        swap = False
    else:
        swap = cost_swap < cost_keep
    return BandTrajectories(k_grid=k, bands=bands.T.copy(), band_swap=bool(swap), near_degenerate=near)
