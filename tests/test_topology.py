"""Braiding degree, point-gap windings, phase boundaries and the diagram sweep."""

import threading

import numpy as np
import pytest

from conftest import DR, params, phase_boundary_residual, random_unit_vector
from nahn import (
    GaugeVector,
    KGrid,
    PhaseBoundaryError,
    ReferenceOnSpectrumError,
    ValidationError,
    analytic_eigenvalues,
    band_resolved_winding,
    bloch_hamiltonian,
    braiding_degree,
    braiding_degree_of_samples,
    compute_phase_diagram,
    exceptional_scan,
    sort_bands_by_continuity,
    spectral_winding,
    spectral_winding_profile,
    winding_number,
)
from nahn.errors import NumericalError
from nahn.eigensolve import _openblas_thread_controls
from nahn.topology import NU_SENTINEL, _boundary_residual


def bisect_boundary(tL, lo, hi, iterations=60):
    f_lo = phase_boundary_residual(tL, lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if np.sign(phase_boundary_residual(tL, mid)) == np.sign(f_lo):
            lo = mid
            f_lo = phase_boundary_residual(tL, mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tracked(p, n=1024):
    ks = KGrid(n).values
    e_plus, e_minus = analytic_eigenvalues(p, ks)
    return sort_bands_by_continuity(ks, np.column_stack([e_plus, e_minus]))


def random_general(rng):
    """Model parameters with random t0, amplitudes and directions."""
    return params(rng.uniform(0.5, 2.0), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                  random_unit_vector(rng), random_unit_vector(rng))


def loop_matrices(f_values):
    """Traceless 2x2 loop whose shifted determinant is -f (same winding as f)."""
    n = len(f_values)
    H = np.zeros((n, 2, 2), dtype=complex)
    H[:, 0, 1] = 1.0
    H[:, 1, 0] = np.asarray(f_values, dtype=complex)
    return H


class TestBraidingDegree:
    def test_linked_clockwise(self, p1):
        assert braiding_degree(p1) == -2

    def test_linked_counterclockwise(self, p2):
        assert braiding_degree(p2) == 2

    def test_unbraided(self):
        assert braiding_degree(params(1.0, 0.0, 0.5)) == 0

    def test_unlinked_point(self, p3):
        assert braiding_degree(p3) == 0

    def test_zero_hit_raises(self):
        f = np.exp(1j * KGrid(128).values) - 1.0  # circle through the origin
        assert f[0] == 0.0
        with pytest.raises(PhaseBoundaryError):
            braiding_degree_of_samples(loop_matrices(f))

    def test_closed_loops_give_exact_integers(self):
        # principal phase steps around a closed loop sum to a multiple of
        # 2 pi, so any finite closed loop comes out integer to rounding noise
        rng = np.random.default_rng(4)
        ks = KGrid(256).values
        for _ in range(10):
            f = np.exp(1j * rng.integers(-3, 4) * ks) * (1.5 + np.cos(ks) * rng.uniform(0, 1.4))
            raw = winding_number(f)
            assert abs(raw - round(raw)) < 1e-10

    def test_non_finite_samples_rejected(self, p1):
        H = bloch_hamiltonian(p1, KGrid(256).values)
        for bad in (np.nan, np.inf):
            samples = H.copy()
            samples[17, 1, 0] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                braiding_degree_of_samples(samples)

    def test_matches_finely_sampled_loop(self, p1, p2, p3):
        # the sampled path on measured loci stays an independent oracle of
        # the root count, on the three reference points and on general
        # directions and t0
        rng = np.random.default_rng(5)
        ks = KGrid(65536).values
        for p in (p1, p2, p3, *(random_general(rng) for _ in range(12))):
            assert braiding_degree(p) == braiding_degree_of_samples(bloch_hamiltonian(p, ks))

    def test_vanishing_polynomial_rejected(self):
        with pytest.raises(PhaseBoundaryError):
            braiding_degree(params(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("t0, tL", [(1.0, 1e160), (1.0, 1e-160), (1e10, 1e-150)])
    def test_out_of_range_amplitudes_rejected(self, t0, tL):
        # the quartic's coefficients overflow, or np.roots's companion matrix does
        p = params(t0, tL, 3.0)
        for count in (lambda: braiding_degree(p), lambda: spectral_winding(p, 0.5j), lambda: _boundary_residual(p)):
            with pytest.raises(ValidationError, match="amplitudes too"):
                count()

    def test_identity_shift_invariance(self, p1):
        rng = np.random.default_rng(31)
        H = bloch_hamiltonian(p1, KGrid(256).values)
        nu = braiding_degree_of_samples(H)
        for _ in range(5):
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert braiding_degree_of_samples(H + c * np.eye(2)) == nu

    def test_direction_reversal_negates(self, p1):
        H = bloch_hamiltonian(p1, KGrid(256).values)
        assert braiding_degree_of_samples(H[::-1]) == -braiding_degree_of_samples(H)


class TestSpectralWinding:
    def test_far_reference_zero(self, p1):
        scale = 1.0 + 1.0 + 3.0 + np.max(np.abs(analytic_eigenvalues(p1, KGrid(256).values)[0]))
        for E0 in (2 * scale, -2 * scale, 2j * scale, scale * (1 + 1j)):
            assert spectral_winding(p1, E0) == 0

    def test_outside_inflated_hull_zero(self, p3):
        e_plus, e_minus = analytic_eigenvalues(p3, KGrid(512).values)
        spec = np.concatenate([e_plus, e_minus])
        for corner in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
            E0 = complex(
                1.25 * (spec.real.max() if corner.real > 0 else spec.real.min()),
                1.25 * (spec.imag.max() if corner.imag > 0 else spec.imag.min()),
            )
            assert spectral_winding(p3, E0) == 0

    def test_bipolar_point_has_both_signs(self, p3):
        ws = {w for _, w in spectral_winding_profile(p3, 24, 24) if w not in (None, 0)}
        assert 1 in ws and -1 in ws

    def test_monopolar_point_all_negative(self, p1):
        ws = {w for _, w in spectral_winding_profile(p1, 20, 20) if w is not None}
        assert ws - {0} and all(w < 0 for w in ws - {0})

    def test_on_spectrum_rejected(self, p1):
        e_plus, _ = analytic_eigenvalues(p1, 0.0)
        with pytest.raises(ReferenceOnSpectrumError):
            spectral_winding(p1, complex(e_plus))

    def test_on_site_only_chain(self):
        # tL = tR = 0: det(H - E0) = E0^2 - t0^2 for every k, so the
        # polynomial either vanishes identically or has only z = 0 roots
        p = params(1.3, 0.0, 0.0)
        with pytest.raises(ReferenceOnSpectrumError):
            spectral_winding(p, 1.3)
        assert spectral_winding(p, 0.65) == 0

    def test_profile_exact_on_coarse_grid(self):
        # 64 k points are too few to wind the sampled determinant at every
        # probe of the first sets; the count must not depend on the grid and
        # must match the roots of E0^2 z^2 - P(z) inside |z| < 1
        rng, rng_fine = np.random.default_rng(0), np.random.default_rng(31)
        cases = [(random_general(rng), 30, KGrid(64)) for _ in range(12)]
        cases += [(random_general(rng_fine), 12, KGrid(256)) for _ in range(6)]
        evaluated = 0
        for p, n, grid in cases:
            c = p.dL.dot(p.dR)
            for E0, w in spectral_winding_profile(p, n, n, pad=0.1, grid=grid):
                if w is None:
                    continue
                poly = [-p.tL**2, -2 * c * p.tL * p.t0, E0**2 - p.t0**2 - 2 * c * p.tL * p.tR,
                        -2 * p.t0 * p.tR, -p.tR**2]
                assert w == np.sum(np.abs(np.roots(poly)) < 1.0) - 2
                evaluated += 1
        assert evaluated > 10000

    def test_direction_reversal_negates(self, p3):
        E0 = -2.0 + 0.0j
        H = bloch_hamiltonian(p3, KGrid(512).values) - E0 * np.eye(2)
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        w = round(winding_number(det))
        assert round(winding_number(det[::-1])) == -w
        assert spectral_winding(p3, E0) == w


class TestBandResolvedWinding:
    def test_constant_bands_zero(self):
        ks = KGrid(64).values
        traj = sort_bands_by_continuity(ks, np.tile([1.0 + 0j, -1.0 + 0j], (64, 1)))
        assert band_resolved_winding(traj, 0.3 + 0.1j) == [0, 0]

    def test_positive_lobe_contains_plus_one(self, p3):
        # det-route oracle picks a reference with total winding +1; the
        # band-route must see it on one of the two loops
        traj = tracked(p3)
        hit = None
        for E0, w in spectral_winding_profile(p3, 16, 16):
            if w == 1:
                hit = E0
                break
        assert hit is not None
        assert 1 in band_resolved_winding(traj, hit)

    def test_sum_rule_random_samples(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            p = params(1.0, rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0))
            traj = tracked(p, 512)
            spec = traj.bands.ravel()
            E0 = complex(
                rng.uniform(1.3 * spec.real.min(), 1.3 * spec.real.max()),
                rng.uniform(1.3 * spec.imag.min() - 0.1, 1.3 * spec.imag.max() + 0.1),
            )
            if np.min(np.abs(spec - E0)) < 1e-2:
                continue
            loops = band_resolved_winding(traj, E0)
            assert sum(loops) == spectral_winding(p, E0, KGrid(512))
            checked += 1

    def test_open_trajectory_rejected(self):
        ks = KGrid(64).values
        drift = np.exp(1j * ks) + np.linspace(0, 3.0, 64)  # spirals away, never closes
        traj = sort_bands_by_continuity(ks, np.column_stack([drift, drift - 5.0]))
        from nahn import OpenTrajectoryError

        with pytest.raises(OpenTrajectoryError):
            band_resolved_winding(traj, 100.0 + 0.0j)


class TestPhaseBoundaryResidual:
    def test_known_values(self):
        # independent arithmetic: s=10, d=-8 gives 1 + 10*(18/64 - 1) - 18/8
        assert phase_boundary_residual(1.0, 3.0) == pytest.approx(-8.4375, abs=1e-12)
        assert phase_boundary_residual(3.0, 1.0) == pytest.approx(-8.4375, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(PhaseBoundaryError):
            phase_boundary_residual(1.3, 1.3)
        with pytest.raises(PhaseBoundaryError):
            phase_boundary_residual(1.3, -1.3)

    def test_smooth_and_constant_degree_near_linked_point(self, p1):
        rng = np.random.default_rng(8)
        r0 = phase_boundary_residual(1.0, 3.0)
        for _ in range(12):
            dt = 0.05 * rng.standard_normal(2)
            assert np.sign(phase_boundary_residual(1.0 + dt[0], 3.0 + dt[1])) == np.sign(r0)
            assert braiding_degree(params(1.0, 1.0 + dt[0], 3.0 + dt[1])) == -2

    def test_bisection_brackets_degree_transition(self):
        # along tL = 1 the degree switches 0 -> -2 somewhere in tR in [0.5, 3]
        tRs = np.linspace(0.5, 3.0, 51)
        nus = [braiding_degree(params(1.0, 1.0, tR)) for tR in tRs]
        transitions = [j for j in range(50) if nus[j] != nus[j + 1]]
        assert transitions
        for j in transitions:
            tR_star = bisect_boundary(1.0, tRs[j], tRs[j + 1])
            assert tRs[j] <= tR_star <= tRs[j + 1]
            assert abs(phase_boundary_residual(1.0, tR_star)) < 1e-9

    def test_segment_between_linked_phases(self):
        # straight path between the two linked phases: the degree passes
        # through the unbraided wedge, so the residual crosses zero an even
        # number of times and the endpoint signs coincide
        svals = np.linspace(0.0, 1.0, 81)
        nus = []
        for s in svals:
            tL, tR = 1.0 + 2.0 * s, 3.0 - 2.0 * s
            try:
                nus.append(braiding_degree(params(1.0, tL, tR)))
            except NumericalError:
                nus.append(None)
        assert nus[0] == -2 and nus[-1] == 2 and 0 in nus
        changes = [j for j in range(80) if nus[j] != nus[j + 1] and None not in (nus[j], nus[j + 1])]
        assert len(changes) >= 2
        for j in changes:
            t_a = (1.0 + 2.0 * svals[j], 3.0 - 2.0 * svals[j])
            t_b = (1.0 + 2.0 * svals[j + 1], 3.0 - 2.0 * svals[j + 1])
            r_a = phase_boundary_residual(*t_a)
            r_b = phase_boundary_residual(*t_b)
            crosses_pole = np.sign(t_a[0] - t_a[1]) != np.sign(t_b[0] - t_b[1])
            assert np.sign(r_a) != np.sign(r_b) or crosses_pole


class TestBoundaryResidual:
    def test_sign_matches_closed_form_for_orthogonal_directions(self):
        axis = np.linspace(0.05, 4.0, 80)
        for tL in axis:
            for tR in axis[axis != tL]:
                rho = _boundary_residual(params(1.0, tL, tR))
                assert np.sign(rho) == np.sign(phase_boundary_residual(tL, tR)), (tL, tR)

    def test_positive_exactly_where_nu_zero_for_general_parameters(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(300):
            t0, tL, tR = rng.uniform(0.1, 3.0, 3)
            p = params(t0, tL, tR, dL=random_unit_vector(rng), dR=random_unit_vector(rng))
            try:
                nu = braiding_degree(p)
            except PhaseBoundaryError:
                continue
            seen.add(nu)
            assert (_boundary_residual(p) > 0) == (nu == 0)
        assert {-2, 0, 2} <= seen

    @pytest.mark.parametrize(
        "dL", [GaugeVector(0.6, 0.0, 0.8), GaugeVector(-0.95, 0.0, np.sqrt(0.0975))], ids=["c=0.6", "c=-0.95"]
    )
    def test_sweep_column_brackets_every_transition(self, dL):
        diagram = compute_phase_diagram((0.0, 4.0), 50, chain_N=4, dL=dL)
        nu, rho = diagram.nu, diagram.boundary_residual
        accepted = nu != NU_SENTINEL
        assert np.all(np.isfinite(rho))
        assert np.array_equal((rho > 0)[accepted], (nu == 0)[accepted])
        sign = np.sign(rho)
        # adjacent accepted cells along tR (rows of nu), then along tL (rows of nu.T)
        for n, s in ((nu, sign), (nu.T, sign.T)):
            changed = (n[:, :-1] != n[:, 1:]) & (n[:, :-1] != NU_SENTINEL) & (n[:, 1:] != NU_SENTINEL)
            assert changed.any()
            assert np.all(s[:, :-1][changed] != s[:, 1:][changed])


class TestExceptionalScan:
    def test_linked_point_clean(self, p1):
        assert len(exceptional_scan(p1, KGrid(1024), tol=1e-3)) == 0

    def test_hermitian_gapped_clean(self):
        p = params(1.0, 0.3, 0.3, dL=DR, dR=DR)
        assert len(exceptional_scan(p, KGrid(1024), tol=1e-3)) == 0

    def test_bisected_boundary_point_detected(self):
        tR_star = bisect_boundary(1.0, 1.7, 1.8)
        p_boundary = params(1.0, 1.0, tR_star)
        # the eigenvalue gap closes as a square-root cusp, so a finite grid
        # only approaches it; at 4096 points a 5e-2 relative tolerance
        # separates the boundary point from the open phases
        tol, grid = 5e-2, KGrid(4096)
        assert len(exceptional_scan(p_boundary, grid, tol)) > 0
        assert len(exceptional_scan(params(1.0, 1.0, 3.0), grid, tol)) == 0


class TestPhaseDiagram:
    def test_linked_cells_and_layers(self):
        # grid samples 0.5, 1.0, ..., 4.0 hit both linked points exactly
        diagram = compute_phase_diagram((0.0, 4.0), 8, chain_N=40)
        i1, j1 = np.argmin(np.abs(diagram.tL_axis - 1.0)), np.argmin(np.abs(diagram.tR_axis - 3.0))
        i2, j2 = np.argmin(np.abs(diagram.tL_axis - 3.0)), np.argmin(np.abs(diagram.tR_axis - 1.0))
        assert diagram.tL_axis[i1] == 1.0 and diagram.tR_axis[j1] == 3.0
        assert diagram.nu[i1, j1] == -2
        assert diagram.nu[i2, j2] == 2
        assert diagram.gamma[i1, j1] < -0.8
        assert diagram.gamma[i2, j2] > 0.8
        accepted = diagram.nu[diagram.nu != NU_SENTINEL]
        assert set(np.unique(accepted)) <= {-2, 0, 2}
        # the residual is finite on the diagonal too, where the closed form has its pole
        assert np.all(np.isfinite(diagram.boundary_residual))
        assert diagram.boundary_residual[i1, j1] < 0 and diagram.boundary_residual[i2, j2] < 0

    def test_balanced_cell_gamma_small(self):
        # samples 0.3, 0.6, ..., 2.4 include the bipolar point (1.2, 0.9)
        diagram = compute_phase_diagram((0.0, 2.4), 8, chain_N=100)
        i, j = np.argmin(np.abs(diagram.tL_axis - 1.2)), np.argmin(np.abs(diagram.tR_axis - 0.9))
        assert diagram.tL_axis[i] == pytest.approx(1.2) and diagram.tR_axis[j] == pytest.approx(0.9)
        assert abs(diagram.gamma[i, j]) < 0.2
        assert diagram.nu[i, j] == 0

    def test_thread_count_does_not_change_result(self):
        a = compute_phase_diagram((0.0, 2.0), 8, chain_N=10, threads=1)
        b = compute_phase_diagram((0.0, 2.0), 8, chain_N=10, threads=4)
        assert np.array_equal(a.nu, b.nu)
        assert np.array_equal(a.gamma, b.gamma)

    def test_progress_reported_per_row(self):
        seen = []
        compute_phase_diagram(
            (0.0, 2.0), 8, chain_N=10,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(r, 8) for r in range(1, 9)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            compute_phase_diagram((2.0, 1.0), 8, chain_N=10)
        with pytest.raises(ValidationError):
            compute_phase_diagram((0.0, 4.0), 4, chain_N=10)
        with pytest.raises(ValidationError):
            compute_phase_diagram((0.0, 1e-160), 8, chain_N=10)


@pytest.fixture
def blas_threads():
    """Reader of the loaded OpenBLAS thread counts, each set to 2 for the test."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS with thread-count symbols is loaded in this process")
    saved = [get_n() for get_n, _ in controls]
    for _, set_n in controls:
        set_n(2)
    yield lambda: [get_n() for get_n, _ in controls]
    for (_, set_n), count in zip(controls, saved):
        set_n(count)


class TestSweepBlasThreads:
    SWEEP = dict(t_range=(0.0, 2.0), resolution=8, chain_N=10, threads=2)

    def test_single_threaded_during_sweep_then_restored(self, blas_threads):
        assert set(blas_threads()) == {2}
        seen = []
        compute_phase_diagram(**self.SWEEP, progress=lambda done, total: seen.append(blas_threads()))
        assert len(seen) == 8 and all(set(counts) == {1} for counts in seen)
        assert set(blas_threads()) == {2}

    def test_restored_when_sweep_raises(self, blas_threads):
        def fail(done, total):
            raise RuntimeError("stop after the first row")

        with pytest.raises(RuntimeError):
            compute_phase_diagram(**self.SWEEP, progress=fail)
        assert set(blas_threads()) == {2}

    def test_overlapping_sweeps_restore_once_both_end(self, blas_threads):
        # first sweep ends while the second still runs: the second must stay
        # pinned, and the count returns to 2 only when it ends too
        second_inside, first_done = threading.Event(), threading.Event()
        seen_by_second, errors = [], []

        def second_progress(done, total):
            if done == 1:
                second_inside.set()
                assert first_done.wait(30)
            seen_by_second.append(blas_threads())

        def second():
            try:
                compute_phase_diagram(**self.SWEEP, progress=second_progress)
            except BaseException as exc:  # reported by the main thread below
                errors.append(exc)

        worker = threading.Thread(target=second)

        def first_progress(done, total):
            if done == 1:
                worker.start()
                assert second_inside.wait(30)

        compute_phase_diagram(**self.SWEEP, progress=first_progress)
        after_first = blas_threads()
        first_done.set()
        worker.join(30)
        assert not worker.is_alive() and not errors
        assert set(after_first) == {1}
        assert all(set(counts) == {1} for counts in seen_by_second)
        assert set(blas_threads()) == {2}
