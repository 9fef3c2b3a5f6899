"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS/FAIL line in the terminal summary (see conftest).
Criterion 3's contrast threshold |gamma| < 0.2 was fixed by an oracle run
of the dense eigensolver route at N = 100, which gives gamma = +0.176 at
(t0, tL, tR) = (1, 1.2, 0.9); the band-winding signs were fixed by the
determinant-winding oracle on the same parameters.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import abelian_control, circuit_to_model, densities, multiset_match, params
from nahn import (
    BoundaryCondition,
    CircuitParams,
    KGrid,
    MeasurementNoise,
    admittance_bloch,
    analytic_eigenvalues,
    band_resolved_winding,
    braiding_degree,
    braiding_degree_of_blocks,
    braiding_degree_of_samples,
    circuit_chain,
    classify_localization,
    compute_phase_diagram,
    eig_dense,
    gamma,
    m_coefficients,
    obc_eigenstates,
    real_space_hamiltonian,
    resonance_frequency,
    ring_blocks,
    simulated_measurement,
    sort_bands_by_continuity,
    spectral_winding_profile,
    winding_number,
)
from nahn.circuit import NF
from nahn.cli import main
from nahn.model import SIGMA_0, SIGMA_X, SIGMA_Z, bloch_sum
from nahn.topology import NU_SENTINEL

PBC = BoundaryCondition.PBC
OBC = BoundaryCondition.OBC

COMPONENT_SETS = {
    "ring_linked_cw": (20.0, 30.0),
    "ring_unlinked": (12.0, 9.0),
    "ring_linked_ccw": (39.0, 30.0),
    "open_monopolar": (10.0, 30.0),
}


def reference_circuit(C1, C2):
    return CircuitParams(C0=10.0, C1=C1, C2=C2, L0=0.95, L1=4.4, R0=3.9)


def tracked_bands(p, n=1024):
    ks = KGrid(n).values
    e_plus, e_minus = analytic_eigenvalues(p, ks)
    return sort_bands_by_continuity(ks, np.column_stack([e_plus, e_minus]))


def test_criterion_01_braiding_phases():
    grid = KGrid(1024)
    braiding_degree(params(1.0, 1.0, 3.0), grid)  # warm-up before timing

    start = time.monotonic()
    nu1 = braiding_degree(params(1.0, 1.0, 3.0), grid)
    t1 = time.monotonic() - start
    start = time.monotonic()
    nu2 = braiding_degree(params(1.0, 3.0, 1.0), grid)
    t2 = time.monotonic() - start

    assert nu1 == -2
    assert nu2 == 2
    # integer-exact: the accumulated phase itself sits on the integer
    from nahn import bloch_hamiltonian

    for p, nu in ((params(1.0, 1.0, 3.0), -2), (params(1.0, 3.0, 1.0), 2)):
        H = bloch_hamiltonian(p, grid.values)
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        assert abs(winding_number(det) - nu) < 1e-9
    assert t1 < 0.1 and t2 < 0.1


def test_criterion_02_phase_diagram_consistency():
    start = time.monotonic()
    diagram = compute_phase_diagram((0.0, 4.0), 50, chain_N=40)
    elapsed = time.monotonic() - start

    accepted = diagram.nu[diagram.nu != NU_SENTINEL]
    assert set(np.unique(accepted)) <= {-2, 0, 2}

    axis = diagram.tL_axis

    def bracketed(i1, j1, i2, j2):
        r1 = diagram.boundary_residual[i1, j1]
        r2 = diagram.boundary_residual[i2, j2]
        if np.isnan(r1) or np.isnan(r2):
            return True  # degenerate denominator inside the cell pair
        if np.sign(r1) != np.sign(r2):
            return True
        d1 = axis[i1] ** 2 - axis[j1] ** 2
        d2 = axis[i2] ** 2 - axis[j2] ** 2
        return np.sign(d1) != np.sign(d2)  # residual pole crossed between the cells

    unbracketed = []
    for i in range(50):
        for j in range(49):
            a, b = diagram.nu[i, j], diagram.nu[i, j + 1]
            if NU_SENTINEL not in (a, b) and a != b and not bracketed(i, j, i, j + 1):
                unbracketed.append(((i, j), (i, j + 1)))
    for j in range(50):
        for i in range(49):
            a, b = diagram.nu[i, j], diagram.nu[i + 1, j]
            if NU_SENTINEL not in (a, b) and a != b and not bracketed(i, j, i + 1, j):
                unbracketed.append(((i, j), (i + 1, j)))
    assert unbracketed == []
    assert elapsed < 60.0


def test_criterion_03_bipolar_regime():
    p = params(1.0, 1.2, 0.9)
    traj = tracked_bands(p)
    loop_windings = set()
    for E0, w in spectral_winding_profile(p, 16, 16, grid=KGrid(512)):
        if w is None:
            continue
        loop_windings.update(band_resolved_winding(traj, E0))
    assert {1, -1} <= loop_windings

    dens = densities(obc_eigenstates(p, 100))
    report = classify_localization(dens)
    assert report.bipolar
    assert abs(gamma(dens)) < 0.2


@pytest.mark.parametrize("N", [47, 100])
def test_criterion_04_monopolar_regime(N):
    p = params(1.0, 1.0, 3.0)
    ws = [w for _, w in spectral_winding_profile(p, 20, 20) if w is not None]
    nonzero = [w for w in ws if w != 0]
    assert nonzero and all(w < 0 for w in nonzero)

    dens = densities(obc_eigenstates(p, N))
    report = classify_localization(dens)
    counts = report.counts()
    assert counts["Left"] == 0 and counts["Extended"] == 0
    assert counts["Right"] == 2 * N
    assert gamma(dens) < -0.8


def test_criterion_05_circuit_equivalence():
    ks = KGrid(1024).values
    for C1, C2 in COMPONENT_SETS.values():
        c = reference_circuit(C1, C2)
        w0 = resonance_frequency(c)
        m0, m1 = m_coefficients(c, w0)
        assert abs(m1) < 1e-15 * c.C1 * NF
        J = admittance_bloch(c, w0, ks)
        lattice = (
            c.C0 * SIGMA_X
            + np.multiply.outer(c.C1 * np.exp(1j * ks), SIGMA_Z)
            + np.multiply.outer(c.C2 * np.exp(-1j * ks), SIGMA_X)
        )
        diff = J / (1j * w0 * NF) - (m0 / NF) * SIGMA_0 - lattice
        assert np.max(np.abs(diff)) < 1e-12


def test_criterion_06_circuit_figure_verdicts():
    expected = {"ring_linked_cw": -2, "ring_unlinked": 0, "ring_linked_ccw": 2}
    for name, nu in expected.items():
        c = reference_circuit(*COMPONENT_SETS[name])
        p, _, _ = circuit_to_model(c)
        assert braiding_degree(p) == nu
        blocks = ring_blocks(circuit_chain(c, 19, PBC))
        assert braiding_degree_of_blocks(*blocks) == nu
        assert braiding_degree_of_samples(bloch_sum(*blocks, KGrid(1024).values)) == nu

    mono = densities(eig_dense(circuit_chain(reference_circuit(10.0, 30.0), 47, OBC)))
    report = classify_localization(mono)
    assert not report.bipolar
    assert report.counts()["Left"] == 0 and report.counts()["Right"] > 0
    assert report.gamma < -0.8

    bipolar = densities(eig_dense(circuit_chain(reference_circuit(12.0, 9.0), 47, OBC)))
    assert classify_localization(bipolar).bipolar


def test_criterion_07_solver_quality():
    p1 = params(1.0, 1.0, 3.0)
    p3 = params(1.0, 1.2, 0.9)
    matrices = [
        real_space_hamiltonian(p1, 100, OBC),
        real_space_hamiltonian(p3, 100, PBC),
        real_space_hamiltonian(p3, 200, OBC),  # 400 x 400
        circuit_chain(reference_circuit(12.0, 9.0), 47, OBC),
    ]
    for M in matrices:
        spec = eig_dense(M)
        assert np.all(spec.residuals <= 1e-10)

    for N in (12, 19, 100):
        chain_eigs = eig_dense(real_space_hamiltonian(p1, N, PBC), eigenvectors=False).eigenvalues
        sampled = []
        for m in range(N):
            e_plus, e_minus = analytic_eigenvalues(p1, 2 * np.pi * m / N)
            sampled += [e_plus, e_minus]
        assert multiset_match(chain_eigs, sampled) < 1e-8


def test_criterion_08_abelian_control_property():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    samples = []
    while len(samples) < 100:
        tL, tR = rng.uniform(0.0, 4.0, 2)
        if tL > 0.0 and tR > 0.0 and abs(tL - tR) >= 0.1:
            samples.append((float(tL), float(tR)))

    assert abelian_control(samples, 60) is True

    bipolar_hits = 0
    for tL, tR in samples:
        p = params(1.0, tL, tR)  # noncommuting directions dL=(0,0,1), dR=(1,0,0)
        if classify_localization(densities(obc_eigenstates(p, 60))).bipolar:
            bipolar_hits += 1
    assert bipolar_hits >= 1
    assert time.monotonic() - start < 300.0


def test_criterion_09_measurement_round_trip():
    ring = reference_circuit(20.0, 30.0)
    J_ring = circuit_chain(ring, 19, PBC)
    rec = simulated_measurement(ring, 19, PBC)
    assert np.linalg.norm(rec - J_ring) < 1e-9 * np.linalg.norm(J_ring)

    open_chain = reference_circuit(12.0, 9.0)
    J_open = circuit_chain(open_chain, 47, OBC)
    rec = simulated_measurement(open_chain, 47, OBC)
    assert np.linalg.norm(rec - J_open) < 1e-9 * np.linalg.norm(J_open)

    ks = KGrid(1024).values
    nu_hits = 0
    for seed in range(50):
        J_rec = simulated_measurement(
            ring, 19, PBC, noise=MeasurementNoise(0.01, seed)
        )
        try:
            if braiding_degree_of_samples(bloch_sum(*ring_blocks(J_rec), ks)) == -2:
                nu_hits += 1
        except Exception:
            pass
    assert nu_hits >= 48  # 95% of 50 seeds

    bipolar_hits = 0
    for seed in range(50):
        J_rec = simulated_measurement(
            open_chain, 47, OBC, noise=MeasurementNoise(0.01, seed)
        )
        if classify_localization(densities(eig_dense(J_rec))).bipolar:
            bipolar_hits += 1
    assert bipolar_hits >= 48


def test_criterion_10_determinism(tmp_path):
    recipes = Path(__file__).resolve().parent.parent / "recipes"
    pairs = []
    for run in ("a", "b"):
        spec_out = tmp_path / f"spec_{run}.csv"
        meas_out = tmp_path / f"meas_{run}.csv"
        assert main(["spectrum", "--config", str(recipes / "fig1c.cfg"), "--out", str(spec_out)]) == 0
        assert main([
            "measure", "--config", str(recipes / "fig3b.cfg"), "--out", str(meas_out),
            "--seed", "5", "--kpoints", "256",
        ]) == 0
        pairs.append((spec_out.read_bytes(), meas_out.read_bytes(),
                      (tmp_path / f"meas_{run}.states.csv").read_bytes()))
    assert pairs[0] == pairs[1]
