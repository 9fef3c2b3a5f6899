"""Open-chain localization: densities, contrast function, classification."""

import numpy as np
import pytest

from conftest import DL, DR, abelian_control, densities, params
from nahn import (
    KGrid,
    ValidationError,
    classify_localization,
    densities_from_eigenvectors,
    gamma,
    obc_eigenstates,
    spectral_winding_profile,
)


class TestEigenstates:
    def test_density_normalization(self, p3):
        dens = densities(obc_eigenstates(p3, 40))
        assert dens.shape == (80, 40)
        assert np.all(dens >= 0)
        assert np.max(np.abs(dens.sum(axis=1) - 1.0)) < 1e-10

    def test_hermitian_limit_extended(self):
        assert densities(obc_eigenstates(params(1.0, 1.3, 1.3, dL=DL, dR=DL), 100)).max() < 5.0 / 100.0

    def test_short_chain_rejected(self, p3):
        dens = densities(obc_eigenstates(p3, 3))
        with pytest.raises(ValidationError, match="N >= 4"):
            gamma(dens)
        with pytest.raises(ValidationError, match="N >= 4"):
            classify_localization(dens)

    def test_phase_and_normalization_invariance(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
        scrambled = V * np.exp(2j * np.pi * rng.random(8)) * rng.uniform(0.5, 2.0, 8)
        assert np.allclose(
            densities_from_eigenvectors(V), densities_from_eigenvectors(scrambled), atol=1e-13
        )

    def test_whole_array_expression(self):
        # the two components of each site are squared and summed in place,
        # with the bits of the whole-array |V|^2 summed over pseudospin
        rng = np.random.default_rng(4)
        V = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        site = (np.abs(V) ** 2).reshape(20, 2, 30).sum(axis=1)
        assert np.array_equal(densities_from_eigenvectors(V), (site / site.sum(axis=0, keepdims=True)).T)


class TestGamma:
    def test_right_localized_regime(self, p1):
        assert gamma(densities(obc_eigenstates(p1, 100))) < -0.8

    def test_left_localized_mirror(self, p2):
        g_right = gamma(densities(obc_eigenstates(params(1.0, 1.0, 3.0), 100)))
        g_left = gamma(densities(obc_eigenstates(p2, 100)))
        assert g_left > 0.8
        assert g_left == pytest.approx(-g_right, abs=1e-6)

    def test_balanced_regime(self, p3):
        assert abs(gamma(densities(obc_eigenstates(p3, 100)))) < 0.2

    def test_bounds_and_window(self):
        dens = densities(obc_eigenstates(params(1.0, 0.7, 2.1), 50))
        for frac in (0.1, 0.2, 0.4):
            assert -1.0 <= gamma(dens, frac) <= 1.0
        with pytest.raises(ValidationError):
            gamma(dens, 0.6)

    def test_overlapping_windows_rejected(self):
        # ceil(0.45 * 5) = 3: the windows [0, 3) and [2, 5) would share site 2
        dens = densities(obc_eigenstates(params(1.0, 1.0, 3.0), 5))
        with pytest.raises(ValidationError, match="overlap"):
            gamma(dens, 0.45)
        with pytest.raises(ValidationError, match="overlap"):
            classify_localization(dens, 0.45)
        # ceil(0.4 * 5) = 2 leaves site 2 to neither window
        report = classify_localization(dens, 0.4)
        assert np.all(report.w_left + report.w_right <= 1.0 + 1e-12)

    def test_symmetric_profile_exactly_zero(self):
        dens = np.zeros((3, 10))
        dens[:, [0, 9]] = 0.3
        dens[:, [4, 5]] = 0.2
        assert gamma(dens) == 0.0

    def test_mirror_negates_exactly(self, p3):
        dens = densities(obc_eigenstates(p3, 60))
        assert gamma(dens[:, ::-1]) == -gamma(dens)


class TestClassification:
    def test_uniform_state_extended(self):
        report = classify_localization(np.full((1, 100), 0.01))
        assert report.classes == ["Extended"]
        assert report.w_left[0] == pytest.approx(0.2)

    def test_delta_state_left(self):
        dens = np.zeros((1, 100))
        dens[0, 0] = 1.0
        report = classify_localization(dens)
        assert report.classes == ["Left"]

    def test_monopolar_regime_all_right(self, p1):
        report = classify_localization(densities(obc_eigenstates(p1, 100)))
        assert report.counts() == {"Left": 0, "Right": 200, "Extended": 0}
        assert not report.bipolar

    def test_balanced_regime_bipolar(self, p3):
        report = classify_localization(densities(obc_eigenstates(p3, 100)))
        counts = report.counts()
        assert counts["Left"] >= 20 and counts["Right"] >= 20
        assert report.bipolar

    def test_bipolar_verdict_size_stable(self, p3):
        verdicts = {classify_localization(densities(obc_eigenstates(p3, N))).bipolar for N in (60, 100, 140)}
        assert verdicts == {True}

    def test_threshold_validation(self, p3):
        with pytest.raises(ValidationError):
            classify_localization(densities(obc_eigenstates(p3, 20)), threshold=1.5)


class TestWindingLocalizationCorrespondence:
    def test_single_sign_predicts_side(self):
        # wherever the nonzero point-gap windings share one sign, every
        # boundary-localized state sits on the side that sign predicts
        rng = np.random.default_rng(42)
        grid = KGrid(256)
        checked = 0
        while checked < 20:
            tL, tR = rng.uniform(0.2, 4.0, 2)
            if abs(tL - tR) < 0.3:
                continue
            p = params(1.0, float(tL), float(tR))
            signs = {np.sign(w) for _, w in spectral_winding_profile(p, 20, 20, grid=grid) if w}
            if len(signs) != 1:
                continue
            side = "Right" if signs == {-1} else "Left"
            report = classify_localization(densities(obc_eigenstates(p, 60)))
            localized = [c for c in report.classes if c != "Extended"]
            assert localized and all(c == side for c in localized)
            checked += 1


class TestAbelianControl:
    def test_standard_imbalanced_sample(self):
        # commuting couplings with imbalanced hopping: single-sided only
        p = params(1.0, 1.0, 3.0, dL=DR, dR=DR)
        report = classify_localization(densities(obc_eigenstates(p, 60)))
        assert not report.bipolar
        assert report.counts()["Left"] == 0

    def test_small_sample_control(self):
        rng = np.random.default_rng(12345)
        samples = []
        while len(samples) < 12:
            tL, tR = rng.uniform(0.0, 4.0, 2)
            if tL > 0.05 and tR > 0.05 and abs(tL - tR) >= 0.1:
                samples.append((float(tL), float(tR)))
        assert abelian_control(samples, 40) is True

    def test_hermitian_diagonal_is_extended_not_bipolar(self):
        p = params(1.0, 2.0, 2.0, dL=DL, dR=DL)
        report = classify_localization(densities(obc_eigenstates(p, 100)))
        assert report.counts() == {"Left": 0, "Right": 0, "Extended": 200}
        assert abs(report.gamma) < 1e-10
