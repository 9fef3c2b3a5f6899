"""Braiding degree, point-gap windings, phase boundaries and the diagram sweep."""

import math
import threading

import numpy as np
import pytest

from conftest import (
    DL,
    DR,
    params,
    phase_boundary_residual,
    profile_axes,
    profile_skips_by_column,
    random_unit_vector,
    winding_profile_loop,
)
from nahn import (
    EigensolverError,
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
from nahn import topology
from nahn.errors import NumericalError
from nahn.eigensolve import _openblas_thread_controls
from nahn.topology import NU_SENTINEL, _exact_zeros_inside, _median, _qplus_radii, _quartic, _zeros_inside


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


def boundary_residual(p):
    """The sweep's boundary residual of one model: ``-(r_min - 1)(r_max - 1)`` of the root radii of its ``q+``."""
    r = _qplus_radii(p.t0, p.tL, p.tR, p.dL.dot(p.dR))
    return -(r.min() - 1.0) * (r.max() - 1.0)


def quartic_boundary_residual(p):
    """The same residual from ``np.roots``: ``-(r_(2) - 1)(r_(3) - 1)`` of the sorted root radii of ``P``."""
    r = np.sort(np.abs(np.roots(_quartic(p.t0, p.tL, p.tR, p.dL.dot(p.dR)))))
    return -(r[1] - 1.0) * (r[2] - 1.0)


def sampled_winding(p, E0, n=65536):
    """Winding of ``det(H(k) - E0)`` sampled at ``n`` momenta: an oracle of the root count."""
    H = bloch_hamiltonian(p, KGrid(n).values) - E0 * np.eye(2)
    return round(winding_number(H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]))


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

    def test_winding_number_equal_to_rolled_loop(self):
        # the steps v[j+1] / v[j] by concatenation, against np.roll, bit for bit
        rng = np.random.default_rng(9)
        for n in (1, 2, 17, 1024):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert winding_number(v) == float(np.sum(np.angle(np.roll(v, -1) / v)) / (2.0 * np.pi))

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
        # the quartic's coefficients overflow at the large amplitude; the small ones are
        # counted as the sampled loop winds, by q+ for nu and by the Schur-Cohn count for w
        p = params(t0, tL, 3.0)
        counts = [lambda: spectral_winding(p, 0.5j), lambda: spectral_winding_profile(p, 3, 3)]
        if tL > 1.0:
            for count in (*counts, lambda: braiding_degree(p)):
                with pytest.raises(ValidationError, match="amplitudes too"):
                    count()
            return
        assert braiding_degree(p) == braiding_degree_of_samples(bloch_hamiltonian(p, KGrid(65536).values))
        assert spectral_winding(p, 0.5j) == sampled_winding(p, 0.5j)
        probes = [(E0, w) for E0, w in spectral_winding_profile(p, 3, 3) if w is not None]
        assert len(probes) >= 5
        assert [w for _, w in probes] == [sampled_winding(p, E0) for E0, _ in probes]

    @pytest.mark.parametrize("tL, tR", [(0.5, 0.5), (1.5, 1.5), (2.0, 2.0)])
    def test_parallel_directions_on_boundary_rejected(self, tL, tR):
        # dL = dR: P = q+^2, and q+ = tL z^2 + z + tR has its roots on |z| = 1 (a double root
        # z = -1 at 0.5); a root count of the quartic read the odd -1 at 0.5 and 0 at the others
        with pytest.raises(PhaseBoundaryError, match="root on"):
            braiding_degree(params(1.0, tL, tR, dL=DR, dR=DR))

    @pytest.mark.parametrize("t0, tL, tR, dL", [
        (0.3, 1e-150, 1.0, DL), (0.3, 1e-170, 1.0, DR), (-1.0, 1e-170, 1e10, DR),
        (1.0, 1e-160, 3.0, DL), (1e10, 1e-150, 1.0, DL),
    ])
    def test_amplitudes_far_apart_in_scale(self, t0, tL, tR, dL):
        # q+'s small root, near -tR / t0, is exact; the quartic's companion matrix loses it
        # (the first three read 0, -1 and -1; the last two were rejected as too far apart
        # in scale). It lies inside |z| < 1 only at t0 = 1e10. The sampled loop agrees
        p = params(t0, tL, tR, dL=dL)
        nu = 0 if t0 == 1e10 else -2
        assert braiding_degree(p) == nu == braiding_degree_of_samples(bloch_hamiltonian(p, KGrid(65536).values))

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

    @pytest.mark.parametrize("E0", [np.nan, np.inf, complex(0.0, -np.inf), 1e200, complex(1e155, 1e155)])
    def test_non_finite_or_overflowing_reference_rejected(self, p3, E0):
        with pytest.raises(ValidationError, match="E0"):
            spectral_winding(p3, E0)

    @pytest.mark.parametrize("E0", [0.0, 0.1j, 0.5 + 0.2j])
    def test_amplitudes_far_apart_in_scale_rejected(self, E0):
        # tL^2 = 1e-300 against coefficients near 1: the roots near |z| = 3.33, which a
        # companion matrix of E0^2 z^2 - P loses, are counted outside, as the sampled
        # determinant winds
        p = params(0.3, 1e-150, 1.0)
        assert spectral_winding(p, E0) == sampled_winding(p, E0) == -2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_lapack_call(self, monkeypatch):
        # w(E0) counts zeros without finding them: with LAPACK's eigensolvers patched to
        # raise, every winding and refusal is unchanged, also on the rows that vanish or
        # lose their first or last coefficients (tL or tR = 0), and none warns
        rng = np.random.default_rng(23)
        on_site = params(1.3, 0.0, 0.0)
        models = [random_general(rng) for _ in range(3)] + [on_site, params(0.8, 0.0, 1.1), params(0.8, 1.1, 0.0)]
        profiles = [spectral_winding_profile(p, 6, 6, pad=0.1) for p in models]

        def raising(*args, **kwargs):
            raise AssertionError("w(E0) called LAPACK")

        monkeypatch.setattr(np.linalg, "eigvals", raising)
        monkeypatch.setattr(np.linalg, "eig", raising)
        for p, profile in zip(models, profiles):
            assert spectral_winding_profile(p, 6, 6, pad=0.1) == profile
            counted = [(E0, w) for E0, w in profile if w is not None]
            assert [spectral_winding(p, E0) for E0, _ in counted] == [w for _, w in counted]
        assert any(w for profile in profiles[4:] for _, w in profile)  # the zero-hopping loops wind
        assert spectral_winding(on_site, 0.65) == 0
        with pytest.raises(ReferenceOnSpectrumError, match="identically"):
            spectral_winding(on_site, 1.3)

    def test_direction_reversal_negates(self, p3):
        E0 = -2.0 + 0.0j
        H = bloch_hamiltonian(p3, KGrid(512).values) - E0 * np.eye(2)
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        w = round(winding_number(det))
        assert round(winding_number(det[::-1])) == -w
        assert spectral_winding(p3, E0) == w


def outcome(call):
    """``repr`` of what ``call()`` returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestStackedRootRadii:
    def test_decisions_equal_to_np_roots(self):
        # one stack mixes every zero trimming; each row whose roots all lie 1e-6 or more from
        # |z| = 1 gets np.roots's count, in the stack and alone
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((3000, 5)) * 10.0 ** rng.uniform(-3, 3, (3000, 5))
        rows[rng.random(rows.shape) < 0.15] = 0.0
        rows = np.vstack([rows[rows.any(axis=1)], [[0, 0, 1, 2, 3], [1, 2, 3, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 5]]])
        complex_rows = rows + 1j * rng.standard_normal(rows.shape) * (rows != 0)
        for stack in (rows, complex_rows):
            radii = [np.abs(np.roots(row)) for row in stack]
            clear = np.array([np.all(np.abs(r - 1.0) >= 1e-6) for r in radii])
            assert clear.sum() > 0.99 * len(stack)
            expected = [np.sum(r < 1.0) - 2 for r, c in zip(radii, clear) if c]
            count = _zeros_inside(stack[clear], PhaseBoundaryError, lambda i: f"row {i}")
            assert count.tolist() == expected
            for i in range(0, len(expected), 100):
                assert _zeros_inside(stack[clear][i:i + 1], PhaseBoundaryError, str).tolist() == [expected[i]]
            for i in range(0, len(expected), 300):
                p = stack[clear][i, ::-1].tolist()
                assert [_exact_zeros_inside(p, r) - 2 for r in (1.0 - 1e-9, 1.0 + 1e-9)] == [expected[i]] * 2
        # coefficients far apart in scale: np.roots loses the roots near |z| = 3.33, the count does not
        assert _zeros_inside(np.array([[1e-300, 0, 0.09, 0.6, 1]]), PhaseBoundaryError, str).tolist() == [-2]

    def test_rounded_recursion_undecided_rows_counted_exactly(self, monkeypatch):
        # tL = tR puts |a_0| = |a_4|, so a constant is only first order in the radii's offset
        # from 1; with dL = -dR a later one is second order, and with dL = dR and E0 = 0
        # (P = q+^2, q+ palindromic with roots r and 1 / r) so is one of a double root. The
        # rounded recursion cannot sign those constants, and exact arithmetic settles them
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(40):
            t0, t = rng.uniform(0.05, 3.0, 2)
            anti = _quartic(t0, t, t, -1.0).astype(complex)
            anti[2] -= complex(*rng.uniform(-4.0, 4.0, 2)) ** 2
            rows += [anti, -_quartic(2.0 * t * rng.uniform(1.2, 3.0), t, t, 1.0)]
        for row in rows:
            expected = int(np.sum(np.abs(np.roots(row)) < 1.0)) - 2
            assert _zeros_inside(row[None], PhaseBoundaryError, str).tolist() == [expected]
        monkeypatch.setattr(topology, "_exact_zeros_inside", lambda p, r: None)
        for row in rows:
            with pytest.raises(PhaseBoundaryError, match="root on"):
                _zeros_inside(row[None], PhaseBoundaryError, str)

    @pytest.mark.parametrize("rows, error, message", [
        ([[1, 0, -4.25, 0, 1], [1, 0, -5, 0, 4], [np.inf, 0, 1, 0, 1]], PhaseBoundaryError, "row 1: .*root on"),
        ([[1, 0, -4.25, 0, 1], [np.inf, 0, 1, 0, 1], [1, 0, -5, 0, 4]], ValidationError, "amplitudes too large"),
        # z^2 + 1 and two roots near 1e160
        ([[1, 0, -4.25, 0, 1], [1e-320, 0, 1, 0, 1], [0, 0, 0, 0, 0]], PhaseBoundaryError, "row 1: .*root on"),
        ([[1, 0, -4.25, 0, 1], [0, 0, 0, 0, 0], [1e-320, 0, 1, 0, 1]], PhaseBoundaryError, "row 1: .* identically"),
        # the second row is counted (roots near -3.33 and 1e150), so the third raises
        ([[1, 0, -4.25, 0, 1], [1e-300, 0, 0.09, 0.6, 1], [0, 0, 0, 0, 0]], PhaseBoundaryError, "row 2: .* identically"),
    ])
    def test_first_failing_row_raises(self, rows, error, message):
        # the first row has roots at |z| = 2 and 1/2, (z^2 - 1)(z^2 - 4) has two on the circle
        with pytest.raises(error, match=message):
            _zeros_inside(np.array(rows, dtype=float), PhaseBoundaryError, lambda i: f"row {i}")


class TestQuadraticFactor:
    def test_equal_to_quartic_root_count(self):
        # the braiding degree from q+ against the Schur-Cohn count of P = q+ q-: equal nu
        # or equal rejection, and q+'s radii, each twice, equal to np.roots's of P
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(2000):
            t0, tL, tR = rng.uniform(0.05, 3.0, 3)
            p = params(t0, tL, tR, random_unit_vector(rng), random_unit_vector(rng))
            row = _quartic(t0, tL, tR, p.dL.dot(p.dR))
            count = outcome(lambda: int(_zeros_inside(row[None], PhaseBoundaryError, lambda i: "braiding degree")[0]))
            assert outcome(lambda: braiding_degree(p)) == count
            radii = np.sort(np.repeat(_qplus_radii(t0, tL, tR, p.dL.dot(p.dR)), 2))
            worst = max(worst, np.max(np.abs(radii - np.sort(np.abs(np.roots(row))))))
        assert worst <= 1e-13

    def test_arrays_equal_to_scalars(self):
        rng = np.random.default_rng(2)
        tL, tR = rng.uniform(0.0, 3.0, (2, 200))
        tL[:5] = 0.0
        tR[3:8] = 0.0
        for t0, c in ((1.0, 0.3), (-0.7, -1.0), (0.0, 1.0), (2.0, 1.0 + 1e-15)):
            radii = _qplus_radii(t0, tL, tR, c)
            assert radii.shape == (200, 2)
            for i in range(200):
                assert radii[i].tobytes() == _qplus_radii(t0, float(tL[i]), float(tR[i]), c).tobytes()

    @pytest.mark.parametrize("t0, tL, tR, c, radii", [
        (1.0, 0.0, 0.5, 0.0, [np.inf, 0.5]),  # one root at infinity
        (1.0, 2.0, 0.0, 0.0, [0.5, 0.0]),  # a root at 0
        (0.0, 0.0, 1.0, 0.0, [np.inf, np.inf]),  # q+ is constant
        (0.0, 4.0, 1.0, 0.6, [0.5, 0.5]),  # tL z^2 + tR e^{i theta}
        (0.0, 0.0, 0.0, 0.0, [np.nan, np.nan]),  # q+ vanishes identically
        # z^2 + z + 1, whose roots are the cube roots of unity other than 1: the
        # discriminant of the unscaled quadratic overflows
        (1e154, 1e154, 1e154, 1.0, [1.0, 1.0]),
    ])
    def test_degenerate_quadratics(self, t0, tL, tR, c, radii):
        np.testing.assert_allclose(_qplus_radii(t0, tL, tR, c), radii, rtol=1e-15)


def random_profile_arguments(rng, cases=60):
    """Arguments of ``spectral_winding_profile``: random models, some with a zero hopping, and random grids."""
    shapes = [(1, 1), (0, 6), (6, 0), (9, 7), (4, 11)]
    for case in range(cases):
        p = random_general(rng)
        if case % 5 == 1:
            p = params(p.t0, 0.0, p.tR, p.dL, p.dR)
        elif case % 5 == 2:
            p = params(p.t0, p.tL, 0.0, p.dL, p.dR)
        n_re, n_im = shapes[case % len(shapes)]
        yield (p, n_re, n_im, float(rng.choice([0.0, 0.1, -0.2, 0.5])), KGrid(int(rng.choice([16, 256]))),
               float(10.0 ** rng.uniform(-9, 0)))


class TestWindingProfile:
    def test_equal_to_per_probe_loop_on_random_models(self):
        counted = 0
        for args in random_profile_arguments(np.random.default_rng(17)):
            got = outcome(lambda: spectral_winding_profile(*args))
            assert got == outcome(lambda: winding_profile_loop(*args))
            counted += isinstance(got, str)
        assert counted > 50

    def test_skip_rule_equal_to_per_column_loop(self, monkeypatch):
        # the one-pass skip rule against the per-column loop it replaced; with the windings
        # stubbed no probe raises, so every case shows its skips
        monkeypatch.setattr(topology, "_windings", lambda p, E0: np.zeros(len(E0), dtype=int))
        cases = list(random_profile_arguments(np.random.default_rng(17)))
        rng = np.random.default_rng(43)
        for _ in range(8):
            p, grid = random_general(rng), KGrid(int(rng.choice([16, 128])))
            spectrum, re_axis, im_axis = profile_axes(p, 7, 5, 0.1, grid)
            d = float(np.min(np.abs(spectrum - complex(re_axis[3], im_axis[2]))))
            for min_distance in (0.0, d, np.nextafter(d, np.inf), 1e300, np.inf):
                cases.append((p, 7, 5, 0.1, grid, min_distance))
            for n_re, n_im, pad in ((1, 1, 0.0), (3, 1, -0.2), (1, 4, 1e-3), (5, 5, -1.0)):
                cases.append((p, n_re, n_im, pad, grid, 0.3))
        skipped = 0
        for args in cases:
            got = [w is None for _, w in spectral_winding_profile(*args)]
            assert got == profile_skips_by_column(*args).tolist()
            skipped += sum(got)
        assert skipped > 100

    def test_probe_exactly_at_tolerance(self):
        # min_distance equal to a probe's nearest-sample distance evaluates it,
        # the next float above skips it
        rng = np.random.default_rng(41)
        grid = KGrid(128)
        for _ in range(12):
            p = random_general(rng)
            spectrum = np.concatenate(analytic_eigenvalues(p, grid.values))
            probes = [E0 for E0, _ in winding_profile_loop(p, 7, 7, 0.1, grid, np.inf)]
            E0 = probes[rng.integers(len(probes))]
            d = float(np.min(np.abs(spectrum - E0)))
            for min_distance, skipped in ((d, False), (np.nextafter(d, np.inf), True)):
                got = spectral_winding_profile(p, 7, 7, 0.1, grid, min_distance)
                assert repr(got) == repr(winding_profile_loop(p, 7, 7, 0.1, grid, min_distance))
                assert (dict(got)[E0] is None) == skipped

    @pytest.mark.parametrize("p, pad", [
        # real spectrum: probes on the segment between samples have a root on |z| = 1
        (params(1.0, 0.7, 0.7, DR, DR), 0.25),
        # dL = -dR and tL = tR: the spectrum is two vertical segments on the box's left and right
        # edges, where probes between samples have a root on |z| = 1; the rows of the probes
        # inside are left undecided by the rounded recursion and counted exactly
        (params(1.0, 0.8, 0.8, GaugeVector(-1.0, 0.0, 0.0), DR), 0.0),
        # probes so far out that their squares overflow
        (params(1.0, 1.2, 0.9), 1e160),
    ])
    def test_first_failing_probe_raises_as_the_loop(self, p, pad):
        grid = KGrid(64)
        rejected = {outcome(lambda: spectral_winding(p, E0)) for E0, w in winding_profile_loop(p, 9, 5, pad, grid, np.inf)}
        assert len([r for r in rejected if not isinstance(r, str)]) > 1  # which probe fails first matters
        got = outcome(lambda: spectral_winding_profile(p, 9, 5, pad, grid, 1e-9))
        assert not isinstance(got, str)
        assert got == outcome(lambda: winding_profile_loop(p, 9, 5, pad, grid, 1e-9))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_re": -1}, "n_re"), ({"n_im": -3}, "n_im"),
        ({"pad": np.inf}, "pad"), ({"pad": np.nan}, "pad"), ({"pad": 1e308}, "pad"),
        ({"min_distance": np.nan}, "min_distance"), ({"min_distance": -1e-3}, "min_distance"),
    ])
    def test_bad_arguments_rejected(self, p3, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            spectral_winding_profile(p3, **kwargs)

    def test_overflowing_amplitude_rejected_before_sampling(self):
        # no RuntimeWarning (an error in this suite) comes before the ValidationError
        with pytest.raises(ValidationError, match="amplitudes too large"):
            spectral_winding_profile(params(1.0, 1e160, 3.0))


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

    @pytest.mark.parametrize("E0", [np.nan, complex(np.inf, 0.0)])
    def test_non_finite_reference_rejected(self, p3, E0):
        with pytest.raises(ValidationError, match="E0"):
            band_resolved_winding(tracked(p3, 64), E0)

    @pytest.mark.parametrize("n", [16, 17, 1024, 1025])
    def test_step_median_equal_to_numpy(self, n):
        # a loop of n points has n - 1 steps: odd and even counts, also with ties, inf and NaN
        rng = np.random.default_rng(n)
        steps = [np.abs(np.diff(band)) for band in tracked(random_general(rng), n).bands]
        steps += [np.round(rng.uniform(0, 3, n - 1), 1), rng.standard_normal(n - 1), rng.standard_normal(n)]
        for x in steps[-3:]:
            for bad in (np.inf, -np.inf, np.nan):
                y = x.copy()
                y[rng.integers(len(y), size=2)] = bad
                steps.append(y)
        for x in steps:
            got, ref = _median(x), np.median(x)
            assert type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_open_trajectory_rejected(self):
        ks = KGrid(64).values
        drift = np.exp(1j * ks) + np.linspace(0, 3.0, 64)  # spirals away, never closes
        traj = sort_bands_by_continuity(ks, np.column_stack([drift, drift - 5.0]))
        from nahn import OpenTrajectoryError

        with pytest.raises(OpenTrajectoryError):
            band_resolved_winding(traj, 100.0 + 0.0j)

    def test_reference_on_loop_rejected(self, p3):
        traj = tracked(p3, 64)
        with pytest.raises(ReferenceOnSpectrumError, match="lies on a band loop"):
            band_resolved_winding(traj, complex(traj.bands[1, 5]))

    @pytest.mark.parametrize("E0, winding", [(0.0, 1), (0.3 + 0.1j, 1), (2.0, 0)])
    def test_swapped_bands_wind_as_one_loop(self, E0, winding):
        # E+- = +-e^{ik/2} closes only after the bands exchange: one loop of period
        # 4 pi, whose winding is that of det(H - E0) = E0^2 - e^{ik}
        ks = KGrid(64).values
        half = np.exp(0.5j * ks)
        traj = sort_bands_by_continuity(ks, np.column_stack([half, -half]))
        assert traj.band_swap
        assert band_resolved_winding(traj, E0) == [winding]
        assert round(winding_number((half - E0) * (-half - E0))) == winding


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
                rho = boundary_residual(params(1.0, tL, tR))
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
            assert (boundary_residual(p) > 0) == (nu == 0)
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

    def test_zero_gap_everywhere(self):
        # with every amplitude 0 the two bands coincide at each k
        grid = KGrid(16)
        assert np.array_equal(exceptional_scan(params(0.0, 0.0, 0.0), grid), grid.values)


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

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "dL", [GaugeVector(0.0, 0.0, 1.0), GaugeVector(0.6, 0.0, 0.8), DR], ids=["c=0", "c=0.6", "dL=dR"]
    )
    def test_equal_to_per_cell_invariants(self, dL, threads):
        # the plane's q+ radii against each cell's own braiding_degree and scalar q+ residual,
        # bit for bit; np.roots's residual of P is an independent oracle
        diagram = compute_phase_diagram((0.0, 4.0), 8, chain_N=4, dL=dL, dR=DR, threads=threads)
        nu, residual, quartic = [], [], []
        for tL in diagram.tL_axis.tolist():
            for tR in diagram.tR_axis.tolist():
                p = params(1.0, tL, tR, dL, DR)
                try:
                    nu.append(braiding_degree(p))
                except PhaseBoundaryError:
                    nu.append(NU_SENTINEL)
                residual.append(boundary_residual(p))
                quartic.append(quartic_boundary_residual(p))
        assert diagram.nu.tolist() == np.reshape(nu, (8, 8)).tolist()
        assert diagram.boundary_residual.tobytes() == np.array(residual).tobytes()
        quartic = np.reshape(quartic, (8, 8))
        # a sentinel cell has a root on |z| = 1 and a residual of rounding size, whose sign neither solve fixes
        accepted = diagram.nu != NU_SENTINEL
        assert np.array_equal(np.sign(diagram.boundary_residual[accepted]), np.sign(quartic[accepted]))
        assert np.max(np.abs(diagram.boundary_residual - quartic)) <= 1e-12
        if dL == DR:
            assert diagram.nu[1, 1] == NU_SENTINEL

    def test_parallel_directions_sentinel_on_diagonal(self):
        # dL = dR: q+ = tL z^2 + z + tR has roots on |z| = 1 where tL = tR >= 1/2 or tL + tR = 1,
        # on this plane the diagonal; a root count of the quartic read -1 at cell (0, 0) and 0
        # further along it
        diagram = compute_phase_diagram((0.0, 4.0), 8, chain_N=4, dL=DR, dR=DR)
        diagonal = np.eye(8, dtype=bool)
        assert np.array_equal(diagram.nu == NU_SENTINEL, diagonal)
        assert set(diagram.nu[~diagonal].tolist()) <= {-2, 0, 2}

    def test_failed_cell_solve_reads_nan(self, monkeypatch):
        # a cell whose open-chain solve raises a NumericalError gets gamma NaN; no other value changes
        sweep = dict(t_range=(0.0, 2.0), resolution=8, chain_N=10, threads=2)
        reference = compute_phase_diagram(**sweep)
        solve = topology.skin.obc_eigenstates

        def failing(p, N):
            if (p.tL, p.tR) == (0.75, 1.5):
                raise EigensolverError("QR iteration did not converge")
            return solve(p, N)

        monkeypatch.setattr(topology.skin, "obc_eigenstates", failing)
        diagram = compute_phase_diagram(**sweep)
        expected = reference.gamma.copy()
        expected[2, 5] = np.nan
        assert np.array_equal(diagram.gamma, expected, equal_nan=True)
        assert diagram.nu.tobytes() == reference.nu.tobytes()
        assert diagram.boundary_residual.tobytes() == reference.boundary_residual.tobytes()

    def test_one_stacked_root_count_per_plane(self, monkeypatch):
        # one solve of the plane's q+ gives nu and the residual; no quartic is counted
        calls = []

        def counted(t0, tL, tR, c):
            calls.append(np.shape(tL))
            return _qplus_radii(t0, tL, tR, c)

        def not_called(*args):
            raise AssertionError("the sweep counts no single cell and solves no quartic")

        monkeypatch.setattr(topology, "_qplus_radii", counted)
        monkeypatch.setattr(topology, "_zeros_inside", not_called)
        monkeypatch.setattr(topology, "braiding_degree", not_called)
        compute_phase_diagram((0.0, 2.0), 9, chain_N=4, threads=2)
        assert calls == [(81,)]

    @pytest.mark.parametrize("resolution, t_max, message", [
        (8, 8e154, "the squared norm of the 12x12 open chain is not finite"),
        (8, 1.2e155, "the squared norm of the 12x12 open chain is not finite"),
        (8, 1e160, "the squared norm of the 12x12 open chain is not finite"),
        (50, 8e154, "the squared norm of the 12x12 open chain is not finite"),
        (50, 1.2e155, "the squared norm of the 12x12 open chain is not finite"),
        (50, 1e160, "the squared norm of the 12x12 open chain is not finite"),
    ])
    def test_unsolvable_cell_raises_before_its_chain(self, resolution, t_max, message):
        # the sweep builds no quartic: a cell whose amplitudes overflow raises its
        # chain's overflow; the first cell of the plane fails, so no row is reported
        # before the error
        seen = []
        with pytest.raises(ValidationError) as info:
            compute_phase_diagram((0.0, t_max), resolution, chain_N=6, progress=lambda done, total: seen.append(done))
        assert str(info.value) == "amplitudes too large: " + message
        assert seen == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            compute_phase_diagram((2.0, 1.0), 8, chain_N=10)
        with pytest.raises(ValidationError):
            compute_phase_diagram((0.0, 4.0), 4, chain_N=10)
        with pytest.raises(ValidationError):
            compute_phase_diagram((0.0, 1e-160), 8, chain_N=10)
        with pytest.raises(ValidationError, match="t range"):
            compute_phase_diagram((0.0, math.inf), 8, 10)
        with pytest.raises(ValidationError, match="threads must be >= 1, got 0"):
            compute_phase_diagram((0.0, 4.0), 8, 10, threads=0)


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
