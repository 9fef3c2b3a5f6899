"""Construction of the Bloch and real-space operators."""

import numpy as np
import pytest

from conftest import DL, DR, is_nonabelian, multiset_match, params, random_unit_vector, two_exponential_eigenvalues
from nahn import (
    BoundaryCondition,
    GaugeVector,
    KGrid,
    ModelParams,
    ValidationError,
    analytic_eigenvalues,
    bloch_hamiltonian,
    pauli_combination,
    real_space_hamiltonian,
)
from nahn.eigensolve import eigvals2x2
from nahn.model import SIGMA_X, SIGMA_Z

SQ2 = 1.0 / np.sqrt(2.0)


class TestGaugeVector:
    def test_unit_vectors_accepted(self):
        GaugeVector(0, 0, 1)
        GaugeVector(SQ2, 0, SQ2)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            GaugeVector(0, 0, 1.1)
        with pytest.raises(ValidationError):
            GaugeVector(1, 1, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            GaugeVector(np.nan, 0, 1)

    def test_dict_round_trip(self):
        p = params(1.0, -0.5, 2.5)
        assert ModelParams.from_dict(p.to_dict()) == p


class TestPauliCombination:
    def test_z_axis(self):
        assert np.array_equal(pauli_combination(GaugeVector(0, 0, 1)), SIGMA_Z)

    def test_x_axis(self):
        assert np.array_equal(pauli_combination(GaugeVector(1, 0, 0)), SIGMA_X)

    def test_tilted_vector_eigenvalues(self):
        # closed-form 2x2 oracle: any unit direction gives eigenvalues +-1
        m = pauli_combination(GaugeVector(SQ2, 0, SQ2))
        lams = eigvals2x2(m[np.newaxis])[0]
        assert multiset_match(lams, [1.0, -1.0]) < 1e-12

    def test_hermitian_traceless_det(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = pauli_combination(random_unit_vector(rng))
            assert np.allclose(m, m.conj().T, atol=1e-14)
            assert abs(np.trace(m)) < 1e-14
            assert abs(np.linalg.det(m) + 1.0) < 1e-12


class TestNonabelian:
    def test_orthogonal_directions(self):
        assert is_nonabelian(GaugeVector(0, 0, 1), GaugeVector(1, 0, 0))

    def test_parallel_commute(self):
        assert not is_nonabelian(GaugeVector(1, 0, 0), GaugeVector(1, 0, 0))

    def test_antiparallel_commute(self):
        assert not is_nonabelian(GaugeVector(0, 0, 1), GaugeVector(0, 0, -1))

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            assert is_nonabelian(a, b) == is_nonabelian(b, a)

    def test_matches_commutator(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            comm = pauli_combination(a) @ pauli_combination(b) - pauli_combination(b) @ pauli_combination(a)
            assert is_nonabelian(a, b, tol=1e-9) == (np.linalg.norm(comm) > 2e-9)


class TestBlochHamiltonian:
    def test_onsite_only(self):
        p = params(1.0, 0.0, 0.0)
        for k in (0.0, 1.3, np.pi):
            assert np.allclose(bloch_hamiltonian(p, k), SIGMA_X, atol=1e-15)

    def test_k0_explicit(self):
        H = bloch_hamiltonian(params(1.0, 1.0, 3.0), 0.0)
        assert np.allclose(H, np.array([[1, 4], [4, -1]]), atol=1e-15)

    def test_matches_closed_form_eigenvalues(self):
        p = params(1.0, 1.2, 0.9)
        lams = eigvals2x2(bloch_hamiltonian(p, [np.pi / 3]))[0]
        e_plus, e_minus = analytic_eigenvalues(p, np.pi / 3)
        assert multiset_match(lams, [e_plus, e_minus]) < 1e-12

    def test_periodic_in_k(self):
        p = params(0.7, -1.1, 2.3)
        for k in (0.0, 0.4, 2.0):
            assert np.allclose(bloch_hamiltonian(p, k), bloch_hamiltonian(p, k + 2 * np.pi), atol=1e-13)

    def test_vectorized_matches_scalar(self):
        p = params(1.0, 1.2, 0.9)
        ks = np.linspace(0, 2 * np.pi, 7)
        stacked = bloch_hamiltonian(p, ks)
        for j, k in enumerate(ks):
            assert np.array_equal(stacked[j], bloch_hamiltonian(p, k))


class TestAnalyticEigenvalues:
    def test_onsite_only(self):
        e_plus, e_minus = analytic_eigenvalues(params(1.0, 0.0, 0.0), 0.77)
        assert abs(e_plus - 1.0) < 1e-15 and abs(e_minus + 1.0) < 1e-15

    def test_orthogonal_directions_k0(self):
        e_plus, _ = analytic_eigenvalues(params(1.0, 1.0, 3.0), 0.0)
        assert abs(e_plus - np.sqrt(17.0)) < 1e-14

    def test_opposite_roots_exact(self):
        e_plus, e_minus = analytic_eigenvalues(params(1.0, 1.2, 0.9), 1.1)
        assert e_plus == -e_minus

    def test_against_eigensolver(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            p = params(
                rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                random_unit_vector(rng), random_unit_vector(rng),
            )
            for k in 2 * np.pi * np.arange(64) / 64:
                lams = eigvals2x2(bloch_hamiltonian(p, [k]))[0]
                e_plus, e_minus = analytic_eigenvalues(p, k)
                assert multiset_match(lams, [e_plus, e_minus]) < 1e-12

    @pytest.mark.parametrize("n", [16, 1023, 1024, 4096])
    def test_equal_to_two_exponentials(self, n):
        # e^{-ik} as the conjugate of e^{ik} has the bits of the exponential of -ik
        rng = np.random.default_rng(n)
        ks = KGrid(n).values
        for k in (ks, rng.uniform(-40.0, 40.0, n), float(ks[n // 3])):
            for _ in range(4):
                p = params(*rng.uniform(-3, 3, 3), random_unit_vector(rng), random_unit_vector(rng))
                for got, ref in zip(analytic_eigenvalues(p, k), two_exponential_eigenvalues(p, k)):
                    assert type(got) is type(ref)
                    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestRealSpaceHamiltonian:
    def test_small_chain_blocks(self):
        H = real_space_hamiltonian(params(1.0, 1.0, 3.0), 2, BoundaryCondition.OBC)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 0:2] = SIGMA_X
        expected[2:4, 2:4] = SIGMA_X
        expected[0:2, 2:4] = SIGMA_Z
        expected[2:4, 0:2] = 3 * SIGMA_X
        assert np.array_equal(H, expected)
        # ring of 3: on-site 2 sx, leftward sz above the diagonal, rightward
        # 3 sx below it, and the two wrap blocks in the corners
        X, Z = SIGMA_X, SIGMA_Z
        H = real_space_hamiltonian(params(2.0, 1.0, 3.0), 3, BoundaryCondition.PBC)
        expected = np.block([
            [2 * X, Z, 3 * X],
            [3 * X, 2 * X, Z],
            [Z, 3 * X, 2 * X],
        ])
        assert np.array_equal(H, expected)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            real_space_hamiltonian(params(1, 1, 1), 1, BoundaryCondition.OBC)

    def test_two_site_ring_rejected(self):
        # with 2 sites the wrap blocks would land on the neighbour blocks
        with pytest.raises(ValidationError, match="at least 3 sites"):
            real_space_hamiltonian(params(1.0, 1.0, 3.0), 2, BoundaryCondition.PBC)

    def test_pbc_spectrum_equals_bloch_sampling(self):
        p = params(1.0, 1.0, 3.0)
        N = 12
        H = real_space_hamiltonian(p, N, BoundaryCondition.PBC)
        chain_eigs = np.linalg.eigvals(H)
        bloch_eigs = []
        for m in range(N):
            e_plus, e_minus = analytic_eigenvalues(p, 2 * np.pi * m / N)
            bloch_eigs += [e_plus, e_minus]
        assert multiset_match(chain_eigs, bloch_eigs) < 1e-8

    def test_pbc_sampling_random_params(self):
        rng = np.random.default_rng(21)
        p = params(
            rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
            random_unit_vector(rng), random_unit_vector(rng),
        )
        N = 7
        chain_eigs = np.linalg.eigvals(real_space_hamiltonian(p, N, BoundaryCondition.PBC))
        bloch_eigs = []
        for m in range(N):
            e_plus, e_minus = analytic_eigenvalues(p, 2 * np.pi * m / N)
            bloch_eigs += [e_plus, e_minus]
        assert multiset_match(chain_eigs, bloch_eigs) < 1e-8

    def test_hermitian_limit_real_spectrum(self):
        p = params(1.0, 1.3, 1.3, dL=DL, dR=DL)
        H = real_space_hamiltonian(p, 100, BoundaryCondition.OBC)
        assert np.linalg.norm(H - H.conj().T) == 0.0
        assert np.max(np.abs(np.linalg.eigvals(H).imag)) < 1e-9

    def test_hermitian_iff_matched_couplings(self):
        def herm_defect(p):
            H = real_space_hamiltonian(p, 6, BoundaryCondition.OBC)
            return np.linalg.norm(H - H.conj().T)

        assert herm_defect(params(1.0, 1.3, 1.3, dL=DR, dR=DR)) == 0.0
        assert herm_defect(params(1.0, 1.3, 1.4, dL=DR, dR=DR)) > 0.01
        assert herm_defect(params(1.0, 1.3, 1.3, dL=DL, dR=DR)) > 0.01
