"""Admittance mapping: coefficients, chain assembly, simulated measurement."""

import numpy as np
import pytest

from conftest import circuit_to_model, densities, multiset_match
from nahn import (
    BoundaryCondition,
    CircuitParams,
    KGrid,
    MeasurementNoise,
    SingularNetworkError,
    ValidationError,
    admittance_bloch,
    analytic_eigenvalues,
    bloch_samples_from_chain,
    braiding_degree,
    braiding_degree_of_samples,
    circuit_chain,
    classify_localization,
    eig_dense,
    m_coefficients,
    measure_admittance,
    resonance_frequency,
    simulated_measurement,
)
from nahn.circuit import NF, perturbed_components
from nahn.model import SIGMA_0, SIGMA_X, SIGMA_Z

PBC = BoundaryCondition.PBC
OBC = BoundaryCondition.OBC


def reference_circuit(C1, C2, omega=None):
    return CircuitParams(C0=10.0, C1=C1, C2=C2, L0=0.95, L1=4.4, R0=3.9, omega=omega)


class TestCircuitParams:
    def test_positive_components_required(self):
        with pytest.raises(ValidationError):
            reference_circuit(-1.0, 30.0)
        with pytest.raises(ValidationError):
            CircuitParams(10, 20, 30, 0.95, 0.0, 3.9)

    def test_dict_round_trip(self):
        c = reference_circuit(20.0, 30.0, omega=1e6)
        assert CircuitParams.from_dict(c.to_dict()) == c
        assert "omega_rad_s" not in reference_circuit(20.0, 30.0).to_dict()


class TestResonance:
    def test_reference_value(self):
        # direct arithmetic: 1/sqrt(4.4 uH * 20 nF)
        assert resonance_frequency(reference_circuit(20.0, 30.0)) == pytest.approx(3.371e6, abs=1e3)

    def test_sqrt_scaling(self):
        c = reference_circuit(20.0, 30.0)
        doubled = CircuitParams(c.C0, 2 * c.C1, c.C2, c.L0, 2 * c.L1, c.R0)
        assert resonance_frequency(doubled) == pytest.approx(resonance_frequency(c) / 2.0, rel=1e-14)

    def test_mismatch_term_vanishes_at_resonance(self):
        c = reference_circuit(12.0, 9.0)
        _, m1 = m_coefficients(c, resonance_frequency(c))
        assert abs(m1) < 1e-15 * c.C1 * NF


class TestMCoefficients:
    def test_resistive_part(self):
        c = reference_circuit(20.0, 30.0)
        w = resonance_frequency(c)
        m0, _ = m_coefficients(c, w)
        assert m0.imag == pytest.approx(1.0 / (w * c.R0), rel=1e-12)
        m0_zeroed, _ = m_coefficients(c, w, include_r0=False)
        assert m0_zeroed.imag == 0.0
        assert m0_zeroed.real == m0.real

    def test_unlinked_set_value(self):
        # independent unit conversion: 1/(w0^2 L0) = L1 C1 / L0 in farads,
        # so Re(m0) = (4.4 * 12 / 0.95 - 9 - 20 - 12 + 12) nF
        c = reference_circuit(12.0, 9.0)
        m0, _ = m_coefficients(c, resonance_frequency(c))
        assert m0.real / NF == pytest.approx(4.4 * 12.0 / 0.95 - 29.0, rel=1e-12)

    def test_omega_validation(self):
        with pytest.raises(ValidationError):
            m_coefficients(reference_circuit(20.0, 30.0), -1.0)


class TestAdmittanceBloch:
    def test_resonance_identity(self):
        for C1, C2 in ((20.0, 30.0), (12.0, 9.0), (39.0, 30.0), (10.0, 30.0)):
            c = reference_circuit(C1, C2)
            w0 = resonance_frequency(c)
            m0, _ = m_coefficients(c, w0)
            ks = KGrid(64).values
            J = admittance_bloch(c, w0, ks)
            lattice = (
                c.C0 * SIGMA_X
                + np.multiply.outer(c.C1 * np.exp(1j * ks), SIGMA_Z)
                + np.multiply.outer(c.C2 * np.exp(-1j * ks), SIGMA_X)
            )
            diff = J / (1j * w0 * NF) - (m0 / NF) * SIGMA_0 - lattice
            assert np.max(np.abs(diff)) < 1e-12

    def test_generic_frequency_hand_assembled(self):
        c = reference_circuit(20.0, 30.0)
        w = 2.5e6
        m0, m1 = m_coefficients(c, w)
        expected = 1j * w * (
            m0 * SIGMA_0
            + m1 * (SIGMA_0 - SIGMA_Z)
            + c.C0 * NF * SIGMA_X
            + c.C1 * NF * SIGMA_Z
            + c.C2 * NF * SIGMA_X
        )
        assert np.allclose(admittance_bloch(c, w, 0.0), expected, rtol=0, atol=1e-20)

    def test_loci_match_lattice_eigenvalues(self):
        # cross-module oracle: admittance eigenvalues at resonance equal
        # i*w0*(lattice eigenvalues + m0)
        c = reference_circuit(20.0, 30.0)
        w0 = resonance_frequency(c)
        p, shift, scale = circuit_to_model(c)
        for k in KGrid(64).values:
            J = admittance_bloch(c, w0, k)
            j_eigs = np.linalg.eigvals(J)
            e_plus, e_minus = analytic_eigenvalues(p, k)
            expected = [scale * (e_plus + shift), scale * (e_minus + shift)]
            assert multiset_match(j_eigs, expected) < 1e-12 * abs(scale * shift)


class TestCircuitToModel:
    def test_linked_verdicts(self):
        for C1, C2, nu in ((20.0, 30.0, -2), (12.0, 9.0, 0), (39.0, 30.0, 2)):
            p, _, _ = circuit_to_model(reference_circuit(C1, C2))
            assert (p.t0, p.tL, p.tR) == (10.0, C1, C2)
            assert braiding_degree(p) == nu

    def test_affine_relation(self):
        c = reference_circuit(12.0, 9.0)
        p, shift, scale = circuit_to_model(c)
        w0 = resonance_frequency(c)
        from nahn import bloch_hamiltonian

        for k in (0.0, 1.0, 4.0):
            J = admittance_bloch(c, w0, k)
            H = bloch_hamiltonian(p, k)
            assert np.max(np.abs(J - scale * (H + shift * SIGMA_0))) < 1e-12 * abs(scale)


class TestCircuitChain:
    def test_ring_spectrum_equals_bloch_sampling(self):
        c = reference_circuit(20.0, 30.0)
        w0 = resonance_frequency(c)
        J = circuit_chain(c, 19, PBC, omega=w0)
        ring = np.linalg.eigvals(J)
        sampled = np.concatenate(
            [np.linalg.eigvals(admittance_bloch(c, w0, 2 * np.pi * m / 19)) for m in range(19)]
        )
        assert multiset_match(ring, sampled) < 1e-8 * np.max(np.abs(ring))

    def test_ring_blocks(self):
        c = reference_circuit(20.0, 30.0)
        w = 1.1 * resonance_frequency(c)
        m0, m1 = m_coefficients(c, w)
        on = 1j * w * (m0 * SIGMA_0 + c.C0 * NF * SIGMA_X)
        left = 1j * w * (m1 * (SIGMA_0 - SIGMA_Z) + c.C1 * NF * SIGMA_Z)
        right = 1j * w * (c.C2 * NF * SIGMA_X)
        expected = np.block([
            [on, left, right],
            [right, on, left],
            [left, right, on],
        ])
        assert np.array_equal(circuit_chain(c, 3, PBC, omega=w), expected)

    def test_two_site_ring_rejected(self):
        c = reference_circuit(20.0, 30.0)
        with pytest.raises(ValidationError, match="at least 3 sites"):
            circuit_chain(c, 2, PBC)
        assert circuit_chain(c, 2, OBC).shape == (4, 4)

    def test_open_chain_keeps_uniform_grounding(self):
        J = circuit_chain(reference_circuit(12.0, 9.0), 5, OBC)
        for n in range(5):
            assert np.array_equal(J[2 * n : 2 * n + 2, 2 * n : 2 * n + 2], J[0:2, 0:2])

    def test_nonreciprocal_blocks(self):
        J = circuit_chain(reference_circuit(20.0, 30.0), 4, OBC)
        left = J[0:2, 2:4]
        right = J[2:4, 0:2]
        assert np.linalg.norm(left - right.conj().T) > 1e-6 * np.linalg.norm(left)

    def test_matches_scaled_lattice_chain_at_resonance(self):
        from nahn import real_space_hamiltonian

        c = reference_circuit(10.0, 30.0)
        p, shift, scale = circuit_to_model(c)
        N = 8
        J = circuit_chain(c, N, OBC)
        H = real_space_hamiltonian(p, N, OBC)
        expected = scale * (H + shift * np.eye(2 * N))
        assert np.max(np.abs(J - expected)) < 1e-12 * abs(scale)

    def test_monopolar_regime(self):
        dens = densities(eig_dense(circuit_chain(reference_circuit(10.0, 30.0), 47, OBC)))
        report = classify_localization(dens)
        assert report.counts()["Left"] == 0 and report.counts()["Right"] > 0
        assert not report.bipolar
        assert report.gamma < -0.8

    def test_bipolar_regime(self):
        dens = densities(eig_dense(circuit_chain(reference_circuit(12.0, 9.0), 47, OBC)))
        assert classify_localization(dens).bipolar

    def test_braiding_from_loci_matches_model(self):
        c = reference_circuit(39.0, 30.0)
        loci = admittance_bloch(c, resonance_frequency(c), KGrid(1024).values)
        p, _, _ = circuit_to_model(c)
        assert braiding_degree_of_samples(loci) == braiding_degree(p)


class TestMeasurement:
    def test_noiseless_round_trip_ring(self):
        c = reference_circuit(20.0, 30.0)
        J = circuit_chain(c, 19, PBC)
        J_rec = simulated_measurement(c, 19, PBC)
        assert np.linalg.norm(J_rec - J) < 1e-9 * np.linalg.norm(J)

    def test_unit_cell_response_matches_loop_reference(self):
        # an open chain is not block-circulant, so only the first block
        # column of its response survives and the placement of every
        # other block is pinned
        J = circuit_chain(reference_circuit(20.0, 30.0), 5, OBC)
        col = np.linalg.inv(J)[:, 0:2]
        G = np.zeros((10, 10), dtype=complex)
        for i in range(5):
            for j in range(5):
                src = 2 * ((i - j) % 5)
                G[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = col[src : src + 2, :]
        rec = measure_admittance(J, PBC)
        assert np.array_equal(rec, np.linalg.inv(G))

    def test_noiseless_round_trip_open(self):
        c = reference_circuit(12.0, 9.0)
        J = circuit_chain(c, 47, OBC)
        J_rec = simulated_measurement(c, 47, OBC)
        assert np.linalg.norm(J_rec - J) < 1e-9 * np.linalg.norm(J)

    def test_block_extraction_matches_bloch(self):
        c = reference_circuit(20.0, 30.0)
        w0 = resonance_frequency(c)
        J_rec = simulated_measurement(c, 19, PBC)
        ks = KGrid(128).values
        assert np.max(np.abs(bloch_samples_from_chain(J_rec, ks) - admittance_bloch(c, w0, ks))) \
            < 1e-9 * np.max(np.abs(admittance_bloch(c, w0, ks)))

    def test_seeded_noise_deterministic(self):
        c = reference_circuit(20.0, 30.0)
        noise = MeasurementNoise(0.01, seed=7)
        a = simulated_measurement(c, 19, PBC, noise=noise)
        b = simulated_measurement(c, 19, PBC, noise=noise)
        assert np.array_equal(a, b)
        other = simulated_measurement(
            c, 19, PBC, noise=MeasurementNoise(0.01, seed=8)
        )
        assert not np.array_equal(a, other)

    def test_component_perturbation_is_per_value(self):
        c = reference_circuit(20.0, 30.0)
        noisy = perturbed_components(c, MeasurementNoise(0.05, seed=3))
        for name in ("C0", "C1", "C2", "L0", "L1", "R0"):
            rel = abs(getattr(noisy, name) / getattr(c, name) - 1.0)
            assert 0.0 < rel < 0.5

    def test_topology_verdicts_stable_under_tolerance(self):
        c_ring = reference_circuit(20.0, 30.0)
        for seed in range(10):
            J_rec = simulated_measurement(
                c_ring, 19, PBC, noise=MeasurementNoise(0.01, seed)
            )
            loci = bloch_samples_from_chain(J_rec, KGrid(1024).values)
            assert braiding_degree_of_samples(loci) == -2

    @pytest.mark.parametrize("sigma, seed", [
        (0.01, -1), (0.01, 1.5), (0.01, True), (-0.01, 0), (float("nan"), 0), (float("inf"), 0),
    ])
    def test_invalid_noise_rejected(self, sigma, seed):
        with pytest.raises(ValidationError):
            MeasurementNoise(sigma, seed)

    def test_singular_network_rejected(self):
        J = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(SingularNetworkError):
            measure_admittance(J, OBC)

    def test_unit_cell_protocol_needs_ring(self):
        with pytest.raises(ValidationError):
            measure_admittance(np.eye(4, dtype=complex), PBC)
