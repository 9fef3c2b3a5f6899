"""Dense complex eigendecomposition and band-continuity tracking.

``eig_dense`` wraps the standard dense non-symmetric path (balancing,
Hessenberg reduction, shifted QR with deflation, back-substitution for the
right eigenvectors) as provided by LAPACK through numpy, and adds the
residual bookkeeping and eigenvector gauge required by the rest of the
package. ``eigvals2x2`` is the stacked 2x2 closed form.

``chain_eig`` solves an open chain of 2x2 blocks at half the size when the
chain is chiral: once the on-site identity part (a common shift) is
removed, a real unit ``n`` orthogonal to every block's Pauli vector makes
``Gamma = n . sigma`` anticommute with the chain (chiral, or sublattice,
symmetry; Kawabata, Shiozaki, Ueda & Sato, PRX 9, 041015 (2019)). In
Gamma's eigenbasis the 2N x 2N chain is ``[[0, A], [B, 0]]`` with
tridiagonal N x N blocks; with ``A B u = mu u`` its eigenpairs are
``+-sqrt(mu)`` with vectors ``(u, +-B u / sqrt(mu))``, rotated back site
by site. It falls back to ``eig_dense`` of the assembled chain when no
such ``n`` exists (a circuit off resonance, whose ``m1 (s0 - sz)`` hopping
has an identity part), when ``min |mu|`` is tiny against ``||A B||`` (a
zero mode or an exceptional point at the shift, where squaring loses
half the digits and ``B u / sqrt(mu)`` is unstable), and when a residual
against the assembled chain exceeds ``CHIRAL_RESIDUAL_BOUND``.

Every LAPACK call here runs with the loaded OpenBLAS held at one thread,
so results do not depend on ``OPENBLAS_NUM_THREADS``. Past LAPACK, the
eigenvector gauge, the chiral eigenvectors and the residuals work in
place, a block of about ``TEMP_BYTES`` at a time, with the bits of the
whole-array expressions: a chiral solve holds its eigenvectors and a
quarter-size ``u`` and ``B u``, and no other 2N x 2N array.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolverError, ValidationError
from .model import BoundaryCondition, chain_matrix

#: Pairing ambiguity threshold for continuity sorting.
NEAR_DEGENERACY_TOL = 1e-12

#: Largest symmetry-breaking part of a rotated block, relative to the largest
#: block, that ``chain_eig`` still treats as chiral.
CHIRAL_TOL = 1e-13

#: ``min |mu| / ||A B||_F`` at or below which ``chain_eig`` falls back.
ZERO_MODE_TOL = 1e-8

#: Largest relative residual of a chiral eigenpair; a larger one makes ``chain_eig`` fall back.
CHIRAL_RESIDUAL_BOUND = 1e-12

#: About the size of each temporary array of the eigenvector gauge, the
#: chiral eigenvectors and the residuals, which work a block of columns,
#: rows or chain sites at a time.
TEMP_BYTES = 2**18

#: Thread-count getter and setter of each OpenBLAS build: numpy's 64-bit-integer
#: scipy-openblas, the 32-bit-integer scipy-openblas, and a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> list:
    """``(get, set)`` thread-count functions of the OpenBLAS that ``np.linalg`` calls.

    Looked up through numpy's linalg extension, which links that BLAS. Empty
    where none is found: another BLAS (MKL, Accelerate).
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return []
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get_n, set_n = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get_n is not None and set_n is not None:
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            set_n.argtypes, set_n.restype = [ctypes.c_int], None
            return [(get_n, set_n)]
    return []


# The BLAS thread count is process-wide, so overlapping holds share one:
# the first to enter pins the count and the last to leave restores it.
_blas_hold_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list = []


@contextmanager
def _single_threaded_blas():
    """Hold the loaded OpenBLAS at one thread, then restore its previous count.

    The last digits of LAPACK's eigensolvers depend on the BLAS thread
    count, so every solve runs inside this hold; a phase-diagram sweep
    holds it for its whole pool, whose threads would otherwise stack on
    BLAS threads. Without OpenBLAS this does nothing.
    """
    global _blas_holders, _blas_saved
    with _blas_hold_lock:
        if _blas_holders == 0:
            _blas_saved = [(set_n, get_n()) for get_n, set_n in _openblas_thread_controls()]
            for set_n, _ in _blas_saved:
                set_n(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_hold_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_n, count in _blas_saved:
                    set_n(count)


@dataclass
class Spectrum:
    """Eigenvalues with optional right eigenvectors and their residuals.

    ``right_eigenvectors`` holds one unit-norm column per eigenvalue, with
    the largest-magnitude component rotated to be real and positive so that
    output files are reproducible. ``residuals`` are the relative
    ``||M v - lambda v||_2 / ||M||_F`` (0 for a zero matrix), computed on
    ``M`` scaled by a power of two so that they neither underflow nor
    overflow. ``solver`` names the route: ``"dense"`` (LAPACK on the full
    matrix) or ``"chiral"`` (``chain_eig``'s half-size solve).
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    solver: str = "dense"


def _check_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return M


def _blocks(n: int, item_bytes: int) -> list:
    """Slices of ``range(n)`` whose items take about ``TEMP_BYTES`` together.

    No slice holds a single item unless ``n`` is 1: numpy sums a lone
    column pairwise, and not row after row as it sums a wider block,
    which would change the last bits of its norm.
    """
    starts = list(range(0, n, max(2, TEMP_BYTES // item_bytes)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _add_squares(total, rows: np.ndarray) -> np.ndarray:
    """``total`` (None at first) plus ``|rows|^2`` summed over rows, in the order ``np.linalg.norm`` sums them.

    ``np.linalg.norm(R, axis=0)`` adds the squares of ``R``'s rows one
    after another, so the square root of the total over consecutive row
    blocks of ``R`` is that norm bit for bit.
    """
    squares = (rows.conj() * rows).real
    return np.add.reduce(squares if total is None else np.vstack([total, squares]), axis=0)


def _fix_gauge(V: np.ndarray) -> np.ndarray:
    """Normalize ``V``'s columns and rotate each one's largest component real-positive, in place."""
    for cols in _blocks(V.shape[1], V.shape[0] * V.itemsize):
        block = V[:, cols]
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        pivots = block[np.argmax(np.abs(block), axis=0), np.arange(block.shape[1])]
        block /= pivots / np.abs(pivots)
    return V


def _residuals(M: np.ndarray, lams: np.ndarray, V: np.ndarray) -> np.ndarray:
    s = _power_of_two_below(M)
    Ms = M * s
    # a zero matrix has zero residuals, so its norm may stand in as 1
    scale = np.linalg.norm(Ms) or 1.0
    R = Ms @ V
    del Ms
    scaled = lams * s
    total = None
    for rows in _blocks(R.shape[0], R.shape[1] * R.itemsize):
        R[rows] -= V[rows] * scaled
        total = _add_squares(total, R[rows])
    return np.sqrt(total) / scale


def eigvals2x2(M: np.ndarray) -> np.ndarray:
    """Closed-form pairs ``Tr/2 +- sqrt((Tr/2)^2 - det)``, shape ``(n, 2)``, of ``(n, 2, 2)`` matrices."""
    half_tr = 0.5 * (M[:, 0, 0] + M[:, 1, 1])
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    disc = np.sqrt(half_tr * half_tr - det)
    return np.column_stack([half_tr + disc, half_tr - disc])


def _lapack_eig(M: np.ndarray, eigenvectors: bool):
    """``(eigenvalues, vectors or None)`` from LAPACK's non-symmetric solver."""
    try:
        if eigenvectors:
            return np.linalg.eig(M)
        return np.linalg.eigvals(M), None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"QR iteration did not converge for a {M.shape[0]}x{M.shape[0]} matrix "
            f"(LAPACK: {exc})"
        ) from exc


def eig_dense(M, eigenvectors: bool = True) -> Spectrum:
    """Full spectrum of a dense complex matrix, right eigenvectors on request.

    Delegates to LAPACK's non-symmetric solver; a non-converged QR
    iteration surfaces as :class:`EigensolverError` instead of a silent
    partial result.
    """
    M = _check_square(M)
    with _single_threaded_blas():
        lams, V = _lapack_eig(M, eigenvectors)
        if V is None:
            return Spectrum(eigenvalues=lams)
        V = _fix_gauge(V)
        return Spectrum(eigenvalues=lams, right_eigenvectors=V, residuals=_residuals(M, lams, V))


def _power_of_two_below(x: np.ndarray) -> float:
    """``2**-e`` with ``2**(e-1) <= max |x| < 2**e``: an exact scale taking ``x`` below 1 in magnitude.

    Capped at ``2**1023`` for subnormal ``x``, whose ``2**-e`` would overflow.
    """
    return np.ldexp(1.0, min(-np.frexp(np.max(np.abs(x)))[1], 1023))


def _chiral_blocks(blocks: np.ndarray):
    """Unitary ``U`` and the blocks ``U^H b U``, off-diagonal for every block, or None.

    ``blocks`` are the traceless on-site block and the two hoppings. ``n``
    is normal to the plane of their Pauli vectors' real and imaginary
    parts: the largest cross product with the longest of them, or, when
    they are all parallel to it, any unit vector orthogonal to it. ``U``'s
    columns are the ``+1`` and ``-1`` eigenvectors of ``n . sigma``. An
    identity part in a hopping or a Pauli vector off the plane leaves a
    diagonal entry above ``CHIRAL_TOL``, and the chain is not chiral.
    The tests run on the blocks scaled by a power of two near their largest
    entry, so that no square overflows and the result does not depend on
    the scale.
    """
    scaled = blocks * _power_of_two_below(blocks)
    pauli = np.stack([
        scaled[:, 0, 1] + scaled[:, 1, 0],
        1j * (scaled[:, 0, 1] - scaled[:, 1, 0]),
        scaled[:, 0, 0] - scaled[:, 1, 1],
    ], axis=1)
    vectors = np.concatenate([pauli.real, pauli.imag])
    a = vectors[np.argmax(np.linalg.norm(vectors, axis=1))]
    cross = np.cross(a, vectors)
    n = cross[np.argmax(np.linalg.norm(cross, axis=1))]
    if np.linalg.norm(n) <= CHIRAL_TOL * np.dot(a, a):
        n = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
    if not np.linalg.norm(n) > 0.0:
        return None  # no Pauli part at all: the chain is its shift
    n = n / np.linalg.norm(n)
    if n[2] < 0.0:
        n = -n
    U = np.array([[1.0 + n[2], -(n[0] - 1j * n[1])], [n[0] + 1j * n[1], 1.0 + n[2]]])
    U /= np.sqrt(2.0 * (1.0 + n[2]))
    diagonal = (U.conj().T @ scaled @ U)[:, [0, 1], [0, 1]]
    if np.max(np.abs(diagonal)) > CHIRAL_TOL * np.max(np.linalg.norm(scaled, axis=(1, 2))):
        return None
    return U, U.conj().T @ blocks @ U


def _tridiagonal_product(a, b, N: int) -> np.ndarray:
    """Dense ``A B`` of tridiagonal Toeplitz ``A``, ``B`` given as (diag, super, sub)."""
    (a0, ap, am), (b0, bp, bm) = a, b
    P = np.zeros((N, N), dtype=complex)
    n = np.arange(N)
    diag = np.full(N, a0 * b0 + ap * bm + am * bp)
    diag[0] = a0 * b0 + ap * bm
    diag[-1] = a0 * b0 + am * bp
    P[n, n] = diag
    P[n[:-1], n[1:]] = a0 * bp + ap * b0
    P[n[1:], n[:-1]] = a0 * bm + am * b0
    P[n[:-2], n[2:]] = ap * bp
    P[n[2:], n[:-2]] = am * bm
    return P


def _chain_norm(on, left, right, N: int) -> float:
    """Frobenius norm of ``chain_matrix(on, left, right, N, OBC)``."""
    return np.sqrt(N * np.vdot(on, on).real + (N - 1) * (np.vdot(left, left).real + np.vdot(right, right).real))


def _chiral_solve(on, left, right, N, shift, U, rotated, eigenvectors):
    """The chiral spectrum, or None where ``chain_eig`` must fall back."""
    a = rotated[:, 0, 1]  # A: the (+, -) entries of on-site, leftward, rightward blocks
    b = rotated[:, 1, 0]
    AB = _tridiagonal_product(a, b, N)
    mu, u = _lapack_eig(AB, eigenvectors)
    s = _power_of_two_below(AB)
    if np.min(np.abs(mu)) * s <= ZERO_MODE_TOL * np.linalg.norm(AB * s):
        return None
    root = np.sqrt(mu)
    lams = np.concatenate([shift + root, shift - root])
    if u is None:
        return Spectrum(eigenvalues=lams, solver="chiral")
    del AB
    w = b[0] * u
    w[:-1] += b[1] * u[1:]
    w[1:] += b[2] * u[:-1]
    w /= root
    # V = U @ rot, where rot's rows at site n are (u_n, u_n) and (w_n, -w_n),
    # a few sites at a time
    sites = _blocks(N, 2 * 2 * N * u.itemsize)
    Vs = np.empty((N, 2, 2 * N), dtype=complex)
    for block in sites:
        rot = np.empty(Vs[block].shape, dtype=complex)
        rot[:, 0, :N] = rot[:, 0, N:] = u[block]
        rot[:, 1, :N] = w[block]
        rot[:, 1, N:] = -w[block]
        np.matmul(U, rot, out=Vs[block])
    del u, w, rot
    V = _fix_gauge(Vs.reshape(2 * N, 2 * N))
    # residuals against the assembled chain, applied block by block to the
    # blocks scaled by a power of two, so that they neither underflow nor
    # overflow, for a few sites at a time
    s = _power_of_two_below(np.stack([on, left, right]))
    on, left, right, scaled = on * s, left * s, right * s, lams * s
    total = None
    for block in sites:
        lo, hi = block.start, block.stop
        R = on @ Vs[block] - Vs[block] * scaled
        R[:min(hi, N - 1) - lo] += left @ Vs[lo + 1:hi + 1]
        R[max(lo, 1) - lo:] += right @ Vs[max(lo, 1) - 1:hi - 1]
        total = _add_squares(total, R.reshape(-1, 2 * N))
    res = np.sqrt(total) / _chain_norm(on, left, right, N)
    if not np.all(res <= CHIRAL_RESIDUAL_BOUND):
        return None
    return Spectrum(eigenvalues=lams, right_eigenvectors=V, residuals=res, solver="chiral")


def chain_eig(on, left, right, N: int, eigenvectors: bool = True) -> Spectrum:
    """Spectrum of the open chain ``chain_matrix(on, left, right, N, OBC)``.

    Solves the chiral N x N problem ``A B u = mu u`` when the chain allows
    it and otherwise the full chain with :func:`eig_dense`; ``solver`` on
    the result says which (see the module docstring for the fallbacks).
    The chiral eigenvalues come as ``shift + sqrt(mu)`` followed by
    ``shift - sqrt(mu)``. Residuals are taken against the assembled chain.
    Amplitudes whose squares overflow, so that the chain's squared
    Frobenius norm is not finite, raise ``ValidationError``.
    """
    if N < 2:
        raise ValidationError(f"chain needs at least 2 sites, got N={N}")
    on, left, right = (_check_square(b) for b in (on, left, right))
    if on.shape != (2, 2) or left.shape != (2, 2) or right.shape != (2, 2):
        raise ValidationError("chain blocks must be 2x2")
    with np.errstate(over="ignore"):
        norm = _chain_norm(on, left, right, N)
    if not np.isfinite(norm):
        raise ValidationError(
            f"amplitudes too large: the squared norm of the {2 * N}x{2 * N} open chain is not finite"
        )
    with _single_threaded_blas():
        shift = 0.5 * (on[0, 0] + on[1, 1])
        chiral = _chiral_blocks(np.stack([on - shift * np.eye(2), left, right]))
        if chiral is not None:
            spec = _chiral_solve(on, left, right, N, shift, *chiral, eigenvectors)
            if spec is not None:
                return spec
        return eig_dense(chain_matrix(on, left, right, N, BoundaryCondition.OBC), eigenvectors)


@dataclass
class BandTrajectories:
    """Continuity-sorted eigenvalue curves over a closed momentum loop.

    ``bands[b, j]`` is band ``b`` at the ``j``-th momentum of the loop.
    ``band_swap`` records whether the loop closes band-to-band (period
    2 pi) or only after the two bands exchange (period 4 pi).
    ``near_degenerate`` lists grid indices where the two pairings were
    numerically indistinguishable and the previous ordering was kept.
    """

    bands: np.ndarray
    band_swap: bool
    near_degenerate: list = field(default_factory=list)


def sort_bands_by_continuity(k_values, pairs) -> BandTrajectories:
    """Greedy nearest-neighbor matching of eigenvalue pairs along k.

    ``k_values`` must be a uniform, ordered grid over [0, 2 pi) with at
    least 16 points; ``pairs`` has shape ``(n, 2)`` holding the raw
    eigenvalues at each grid point, all finite. At every step the pairing
    minimizing the total |Delta E| is chosen; ties within
    ``NEAR_DEGENERACY_TOL`` keep the previous ordering.

    Whether row ``j`` is swapped against the raw pairs depends only on row
    ``j - 1`` and the raw costs between them: it flips where the raw swap
    costs less, and a tie (or two infinite costs) resets it to the raw
    order. The swaps are thus a cumulative XOR of the raw comparisons,
    restarted at every tie, and need no loop over k.
    """
    k = np.asarray(k_values, dtype=float)
    E = np.asarray(pairs, dtype=complex)
    if k.ndim != 1 or len(k) < 16:
        raise ValidationError(f"need a 1-d k grid with >= 16 points, got {k.shape}")
    if E.shape != (len(k), 2):
        raise ValidationError(f"pairs must have shape ({len(k)}, 2), got {E.shape}")
    if not np.all(np.isfinite(E)):
        raise ValidationError("band pairs contain non-finite eigenvalues")
    spacing = np.diff(k)
    expected = 2.0 * np.pi / len(k)
    if k[0] != 0.0 or not np.allclose(spacing, expected, rtol=0, atol=1e-9):
        raise ValidationError("k grid must be uniform over [0, 2*pi) starting at 0")

    raw_keep = np.abs(E[1:, 0] - E[:-1, 0]) + np.abs(E[1:, 1] - E[:-1, 1])
    raw_swap = np.abs(E[1:, 1] - E[:-1, 0]) + np.abs(E[1:, 0] - E[:-1, 1])
    gap = np.abs(raw_keep - raw_swap)
    restart = np.concatenate([[True], ~(gap >= NEAR_DEGENERACY_TOL)])  # NaN: both costs infinite
    flips = np.cumsum(np.concatenate([[False], raw_swap < raw_keep]))
    last_restart = np.maximum.accumulate(np.where(restart, np.arange(len(k)), 0))
    swapped = (flips - flips[last_restart]) % 2 == 1
    bands = np.where(swapped[:, None], E[:, ::-1], E)
    near = (np.flatnonzero(gap < NEAR_DEGENERACY_TOL) + 1).tolist()
    # closure across the wrap step decides whether the bands exchanged
    cost_keep = abs(bands[0, 0] - bands[-1, 0]) + abs(bands[0, 1] - bands[-1, 1])
    cost_swap = abs(bands[0, 1] - bands[-1, 0]) + abs(bands[0, 0] - bands[-1, 1])
    if abs(cost_keep - cost_swap) < NEAR_DEGENERACY_TOL:
        near.append(0)
        swap = False
    else:
        swap = cost_swap < cost_keep
    return BandTrajectories(bands=bands.T.copy(), band_swap=bool(swap), near_degenerate=near)
