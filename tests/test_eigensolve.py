"""Eigensolver contracts and band-continuity tracking."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import DL, densities, greedy_continuity_sort, multiset_match, params, random_unit_vector
from nahn import (
    BoundaryCondition,
    CircuitParams,
    GaugeVector,
    ValidationError,
    analytic_eigenvalues,
    chain_eig,
    eig_dense,
    gamma,
    sort_bands_by_continuity,
)
from nahn import eigensolve
from nahn.circuit import NF, circuit_blocks
from nahn.eigensolve import eigvals2x2
from nahn.model import chain_blocks, chain_matrix


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestEigDense:
    def test_diagonal(self):
        spec = eig_dense(np.diag([2 + 1j, -3.0]))
        assert multiset_match(spec.eigenvalues, [2 + 1j, -3.0]) < 1e-14

    def test_companion_cube_roots(self):
        # companion matrix of z^3 - 1
        C = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        roots = [np.exp(2j * np.pi * m / 3) for m in range(3)]
        spec = eig_dense(C)
        assert multiset_match(spec.eigenvalues, roots) < 1e-10

    def test_trace_and_determinant_oracles(self):
        rng = np.random.default_rng(7)
        M = random_complex(rng, 50)
        spec = eig_dense(M, eigenvectors=False)
        assert abs(np.sum(spec.eigenvalues) - np.trace(M)) < 1e-9 * abs(np.trace(M))
        # LU route for the determinant, independent of the eigensolver
        lu, piv = scipy.linalg.lu_factor(M)
        det_lu = np.prod(np.diag(lu)) * (-1.0) ** np.count_nonzero(piv != np.arange(50))
        det_eig = np.prod(spec.eigenvalues)
        assert abs(det_eig - det_lu) < 1e-6 * abs(det_lu)

    def test_trace_determinant_large(self):
        rng = np.random.default_rng(8)
        M = random_complex(rng, 400) / 20.0
        spec = eig_dense(M, eigenvectors=False)
        assert abs(np.sum(spec.eigenvalues) - np.trace(M)) < 1e-9 * max(1.0, abs(np.trace(M)))
        sign, logdet = np.linalg.slogdet(M)
        log_eig = np.sum(np.log(spec.eigenvalues.astype(complex)))
        assert abs(np.exp(log_eig - logdet) - sign) < 1e-6

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        for n in (5, 60, 200):
            spec = eig_dense(random_complex(rng, n))
            assert np.all(spec.residuals <= 1e-10)

    def test_hermitian_input_real_eigenvalues(self):
        rng = np.random.default_rng(10)
        A = random_complex(rng, 40)
        H = A + A.conj().T
        spec = eig_dense(H, eigenvectors=False)
        assert np.max(np.abs(spec.eigenvalues.imag)) <= 1e-10 * np.linalg.norm(H)

    def test_agrees_with_eigvals2x2(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            M = random_complex(rng, 2)
            assert multiset_match(eig_dense(M).eigenvalues, eigvals2x2(M[np.newaxis])[0]) < 1e-11

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            eig_dense(np.array([[1.0, np.inf], [0.0, 1.0]]))


def full_chain_residuals(M, spec):
    V, lams = spec.right_eigenvectors, spec.eigenvalues
    return np.linalg.norm(M @ V - V * lams, axis=0) / max(1.0, np.linalg.norm(M))


def fig4def_blocks(include_r0):
    c = CircuitParams(C0=10.0, C1=12.0, C2=9.0, L0=0.95, L1=4.4, R0=3.9)
    return circuit_blocks(c, c.drive_frequency(), include_r0), 1.0 / (1j * c.drive_frequency() * NF)


class TestChainEigOracle:
    """The chiral solve against the full dense solve of the assembled chain."""

    def check(self, blocks, N, scale=1.0):
        M = chain_matrix(*blocks, N, BoundaryCondition.OBC)
        spec, dense = chain_eig(*blocks, N), eig_dense(M)
        assert spec.solver == "chiral"
        assert abs(gamma(densities(spec)) - gamma(densities(dense))) <= 1e-12
        assert np.max(full_chain_residuals(M, spec)) <= 1e-10
        # eigenvalues come as shift + sqrt(mu), then shift - sqrt(mu), also without vectors
        shift = 0.5 * (blocks[0][0, 0] + blocks[0][1, 1])
        values = chain_eig(*blocks, N, eigenvectors=False)
        assert values.solver == "chiral"
        for E in (spec.eigenvalues, values.eigenvalues):
            upper, lower = E[:N] - shift, E[N:] - shift
            if shift == 0:
                assert np.array_equal(upper, -lower)
            else:
                assert np.max(np.abs(upper + lower)) <= 1e-15 * np.max(np.abs(E))
        return spec.eigenvalues * scale, dense.eigenvalues * scale

    @pytest.mark.parametrize("dL", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.6, 0.8)])
    def test_fig1b_plane(self, dL):
        axis = 4.0 * np.arange(1, 9) / 8
        for tL in axis:
            for tR in axis:
                self.check(chain_blocks(params(1.0, tL, tR, dL=GaugeVector(*dL))), 40)

    def test_general_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            t0, tL, tR = rng.uniform(0.5, 2.0), *rng.uniform(0.3, 3.0, 2)
            self.check(chain_blocks(params(t0, tL, tR, random_unit_vector(rng), random_unit_vector(rng))), 40)

    # Eigenvalue sets are compared only on well-conditioned chains. On a
    # monopolar chain the eigenvalues are exponentially ill-conditioned, and
    # even eig(H) and eig(H^T) differ at O(1) (by 1.1 at (tL, tR) = (1, 3),
    # N = 100), so the two solves need not agree there; forward-accurate
    # open-chain eigenvalues are a separate open problem.
    def test_fig1g_eigenvalues(self):
        chiral, dense = self.check(chain_blocks(params(1.0, 1.2, 0.9)), 100)
        assert multiset_match(chiral, dense) <= 1e-10

    @pytest.mark.parametrize("include_r0", [True, False])
    def test_fig4def_eigenvalues(self, include_r0):
        blocks, to_nF = fig4def_blocks(include_r0)
        chiral, dense = self.check(blocks, 47, to_nF)
        assert multiset_match(chiral, dense) <= 1e-10


class TestChainEigFallback:
    def test_zero_mode_takes_dense_path(self):
        # t0 = 0 on an odd chain: the bipartite hopping chain has an exact zero mode, mu = 0
        blocks = chain_blocks(params(0.0, 1.3, 0.7))
        M = chain_matrix(*blocks, 21, BoundaryCondition.OBC)
        for vectors in (True, False):
            spec, dense = chain_eig(*blocks, 21, eigenvectors=vectors), eig_dense(M, eigenvectors=vectors)
            assert spec.solver == "dense"
            assert np.array_equal(spec.eigenvalues, dense.eigenvalues)
        assert np.min(np.abs(spec.eigenvalues)) < 1e-12
        assert np.array_equal(chain_eig(*blocks, 21).right_eigenvectors, eig_dense(M).right_eigenvectors)

    def test_off_resonance_circuit_takes_dense_path(self):
        c = CircuitParams(C0=10.0, C1=12.0, C2=9.0, L0=0.95, L1=4.4, R0=3.9)
        blocks = circuit_blocks(c, 1.2 * c.drive_frequency())
        M = chain_matrix(*blocks, 20, BoundaryCondition.OBC)
        for vectors in (True, False):
            spec = chain_eig(*blocks, 20, eigenvectors=vectors)
            assert spec.solver == "dense"
            assert np.array_equal(spec.eigenvalues, eig_dense(M, eigenvectors=vectors).eigenvalues)

    @pytest.mark.parametrize("d", [(1.0, 0.0, 0.0), (0.6, 0.0, 0.8)])
    def test_parallel_directions_take_chiral_path(self, d):
        # dL = dR, as in criterion 08's abelian control (d = x): any n
        # orthogonal to dR works; the cross products are zero or rounding noise
        d = GaugeVector(*d)
        blocks = chain_blocks(params(1.0, 2.0, 0.5, dL=d, dR=d))
        M = chain_matrix(*blocks, 30, BoundaryCondition.OBC)
        spec = chain_eig(*blocks, 30)
        assert spec.solver == "chiral"
        assert np.max(full_chain_residuals(M, spec)) <= 1e-12
        assert abs(gamma(densities(spec)) - gamma(densities(eig_dense(M)))) <= 1e-12

    @pytest.mark.parametrize("dL", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (1.0, 0.0, 0.0)])
    def test_scaled_chain_takes_chiral_path(self, dL):
        # the scaled amplitudes square to 2**600, whose squares would overflow
        blocks = chain_blocks(params(1.0, 1.2, 0.9, dL=GaugeVector(*dL)))
        reference = chain_eig(*blocks, 30).eigenvalues * 2.0**300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = chain_eig(*(b * 2.0**300 for b in blocks), 30)
            chain_eig(*(b * 2.0**-520 for b in blocks), 30)  # A B in subnormals: the scale stays finite
        assert spec.solver == "chiral"
        assert np.max(np.abs(spec.eigenvalues - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_scaled_chain_residuals_are_relative(self):
        # at 2**-200 the residuals used to read 1e-75; at 2**-520 A B is subnormal
        # and the chiral eigenvalues lose digits, which only a relative residual shows
        blocks = chain_blocks(params(1.0, 1.2, 0.9))
        reference = np.max(chain_eig(*blocks, 30).residuals)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = chain_eig(*(b * 2.0**-200 for b in blocks), 30)
            tiny = chain_eig(*(b * 2.0**-520 for b in blocks), 30)
        assert reference / 2 <= np.max(small.residuals) <= 2 * reference
        assert tiny.solver == "dense"

    def test_zero_chain_has_zero_residuals(self):
        spec = eig_dense(np.zeros((4, 4)))
        assert np.array_equal(spec.residuals, np.zeros(4))

    def test_shift_only_chain_takes_dense_path(self):
        on = 0.5j * np.eye(2)
        spec = chain_eig(on, np.zeros((2, 2)), np.zeros((2, 2)), 6)
        assert spec.solver == "dense" and np.array_equal(spec.eigenvalues, np.full(12, 0.5j))

    def test_residual_bound_failure_takes_dense_path(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "CHIRAL_RESIDUAL_BOUND", 0.0)
        blocks = chain_blocks(params(1.0, 1.2, 0.9))
        assert chain_eig(*blocks, 20).solver == "dense"
        assert chain_eig(*blocks, 20, eigenvectors=False).solver == "chiral"

    def test_validation(self):
        blocks = chain_blocks(params(1.0, 1.2, 0.9))
        with pytest.raises(ValidationError):
            chain_eig(*blocks, 1)
        with pytest.raises(ValidationError):
            chain_eig(np.eye(3), *blocks[1:], 10)
        with pytest.raises(ValidationError):
            chain_eig(np.full((2, 2), np.nan), *blocks[1:], 10)
        with pytest.raises(ValidationError, match="amplitudes too large"):
            chain_eig(*chain_blocks(params(1.0, 1e154, 1.0)), 10)  # 2 * 9 * 1e308 overflows


def tracked(p, n):
    ks = 2 * np.pi * np.arange(n) / n
    e_plus, e_minus = analytic_eigenvalues(p, ks)
    return sort_bands_by_continuity(ks, np.column_stack([e_plus, e_minus]))


class TestBlockedArithmetic:
    """The gauge and residuals work in blocks of about ``TEMP_BYTES``; no block size changes a bit.

    A ``TEMP_BYTES`` larger than any array makes each step one block,
    which is the whole-array expression.
    """

    WHOLE = 2**62

    def solve(self, monkeypatch, temp_bytes, solver, *args):
        monkeypatch.setattr(eigensolve, "TEMP_BYTES", temp_bytes)
        spec = solver(*args)
        return spec.eigenvalues, spec.right_eigenvectors, spec.residuals

    @pytest.mark.parametrize("n", [1, 2, 33, 300])
    def test_dense(self, monkeypatch, n):
        M = random_complex(np.random.default_rng(n), n)
        whole = self.solve(monkeypatch, self.WHOLE, eig_dense, M)
        for temp_bytes in (eigensolve.TEMP_BYTES, 4096, 1):
            assert all(map(np.array_equal, self.solve(monkeypatch, temp_bytes, eig_dense, M), whole))

    def test_dense_residuals_are_the_whole_array_expression(self):
        M = random_complex(np.random.default_rng(4), 300)
        spec = eig_dense(M)
        s = eigensolve._power_of_two_below(M)
        V, lams = spec.right_eigenvectors, spec.eigenvalues
        with eigensolve._single_threaded_blas():  # as eig_dense computes them
            whole = np.linalg.norm((M * s) @ V - V * (lams * s), axis=0) / np.linalg.norm(M * s)
        assert np.array_equal(spec.residuals, whole)

    @pytest.mark.parametrize("N", [2, 3, 60, 200])
    def test_chiral(self, monkeypatch, N):
        for blocks in (chain_blocks(params(1.0, 1.2, 0.9)), fig4def_blocks(True)[0]):
            whole = self.solve(monkeypatch, self.WHOLE, chain_eig, *blocks, N)
            for temp_bytes in (eigensolve.TEMP_BYTES, 4096, 1):
                spec = self.solve(monkeypatch, temp_bytes, chain_eig, *blocks, N)
                assert all(map(np.array_equal, spec, whole))

    def test_chiral_traced_peak_stays_under_three_chain_sized_arrays(self):
        # numpy reports its data buffers to tracemalloc; the eigenvectors
        # returned are one 2N x 2N complex array
        N = 200
        blocks = chain_blocks(params(1.0, 1.2, 0.9))
        chain_eig(*blocks, 20)  # the one-time OpenBLAS lookup, outside the trace
        tracemalloc.start()
        try:
            spec = chain_eig(*blocks, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.solver == "chiral"
        assert peak < 3 * (2 * N) ** 2 * np.dtype(complex).itemsize


class TestBandSorting:
    def test_constant_bands(self):
        ks = 2 * np.pi * np.arange(64) / 64
        pairs = np.tile([1.0 + 0j, -1.0 + 0j], (64, 1))
        traj = sort_bands_by_continuity(ks, pairs)
        assert not traj.band_swap
        assert np.all(traj.bands[0] == 1.0) and np.all(traj.bands[1] == -1.0)

    def test_linked_regime_bands_close_individually(self):
        # fine-grid tracking oracle: each band is a closed 2*pi loop, no swap
        traj = tracked(params(1.0, 1.0, 3.0), 4096)
        assert not traj.band_swap
        for b in range(2):
            gap = abs(traj.bands[b, 0] - traj.bands[b, -1])
            steps = np.abs(np.diff(traj.bands[b]))
            assert gap < 5 * np.max(steps)

    def test_hermitian_bands_real_no_swap(self):
        traj = tracked(params(1.0, 1.1, 1.1, dL=DL, dR=DL), 256)
        assert not traj.band_swap
        assert np.max(np.abs(traj.bands.imag)) < 1e-12

    def test_synthetic_swap_detected(self):
        # half-period loops: the pair exchanges after one full cycle
        n = 256
        ks = 2 * np.pi * np.arange(n) / n
        a = np.exp(1j * ks / 2)
        pairs = np.column_stack([a, -a])
        traj = sort_bands_by_continuity(ks, pairs)
        assert traj.band_swap

    def test_permutation_consistent(self):
        p = params(1.0, 1.2, 0.9)
        n = 128
        ks = 2 * np.pi * np.arange(n) / n
        e_plus, e_minus = analytic_eigenvalues(p, ks)
        raw = np.column_stack([e_plus, e_minus])
        traj = sort_bands_by_continuity(ks, raw)
        for j in range(n):
            assert multiset_match(traj.bands[:, j], raw[j]) == 0.0

    def test_swap_verdict_stable_under_refinement(self):
        for p in (params(1.0, 1.0, 3.0), params(1.0, 1.2, 0.9)):
            verdicts = {tracked(p, n).band_swap for n in (512, 1024)}
            assert len(verdicts) == 1

    def test_near_degenerate_keeps_order(self):
        n = 64
        ks = 2 * np.pi * np.arange(n) / n
        pairs = np.tile([0.5 + 0j, 0.5 + 0j], (n, 1))
        traj = sort_bands_by_continuity(ks, pairs)
        assert not traj.band_swap
        assert len(traj.near_degenerate) == n

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_matches_greedy_loop(self, n):
        rng = np.random.default_rng(n)
        ks = 2 * np.pi * np.arange(n) / n
        for trial in range(40):
            p = params(*rng.uniform(-3.0, 3.0, 3), dL=random_unit_vector(rng), dR=random_unit_vector(rng))
            pairs = np.column_stack(analytic_eigenvalues(p, ks))
            pairs = np.where(rng.random((n, 1)) < 0.5, pairs[:, ::-1], pairs)  # scrambled raw order
            if trial % 4 == 1:  # degenerate pairs: the two costs tie exactly
                rows = rng.choice(n, n // 4)
                pairs[rows, 1] = pairs[rows, 0]
            if trial % 4 == 2:  # costs within NEAR_DEGENERACY_TOL of each other
                pairs[:, 1] = pairs[:, 0] + rng.choice([0.0, 1e-14, 1e-11], (n,))
            if trial % 4 == 3:  # both costs overflow to inf
                rows = rng.choice(n, n // 8)
                pairs[rows] = rng.choice([-1.0, 1.0], (len(rows), 1)) * np.array([1.0e308, 0.9e308])
            with np.errstate(over="ignore", invalid="ignore"):
                traj = sort_bands_by_continuity(ks, pairs)
                bands, band_swap, near = greedy_continuity_sort(pairs)
            assert traj.bands.tobytes() == bands.tobytes()  # bit for bit
            assert traj.band_swap is band_swap
            assert traj.near_degenerate == near

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            sort_bands_by_continuity(np.linspace(0, 1, 8), np.zeros((8, 2)))
        with pytest.raises(ValidationError):
            sort_bands_by_continuity(np.linspace(0.1, 2 * np.pi, 64), np.zeros((64, 2)))
        pairs = np.zeros((64, 2), dtype=complex)
        pairs[3, 1] = complex(np.inf, 0.0)
        with pytest.raises(ValidationError, match="non-finite"):
            sort_bands_by_continuity(2 * np.pi * np.arange(64) / 64, pairs)
