import math
import re

import mpmath
import pytest

from matterwave import (
    Resonator,
    accel_from_shift,
    accel_resolution,
    accel_scale_factor,
    airy_transmission,
    effective_length,
    effective_length_first_order,
    finesse,
    nearest_mode,
    reflectance_for_finesse,
    resonance_frequency,
)


@pytest.fixture
def res(std_mode):
    # 1 cm cavity locked on its N = 2000 line at omega0 = 2*pi*1 kHz,
    # mirrors chosen for a finesse of exactly 100
    return Resonator(std_mode, 0.01, reflectance_for_finesse(100.0))


class TestFinesse:
    def test_worked_value(self):
        assert finesse(0.9) == pytest.approx(29.803764797388308, rel=1e-14, abs=0)

    def test_inverse_round_trip(self):
        for F in (5.0, 30.0, 100.0, 1e4):
            assert finesse(reflectance_for_finesse(F)) == pytest.approx(F, rel=1e-12, abs=0)

    def test_range_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                finesse(bad)
        with pytest.raises(ValueError):
            reflectance_for_finesse(0.0)


class TestResonanceComb:
    def test_locked_line(self, res, std_mode):
        assert resonance_frequency(res, 2000) == pytest.approx(
            std_mode.omega0, rel=1e-14, abs=0)

    def test_fsr(self, res, std_mode):
        assert res.fsr == pytest.approx(math.pi * std_mode.v_v / 0.01, rel=1e-15, abs=0)
        assert resonance_frequency(res, 2001) - resonance_frequency(res, 2000) \
            == pytest.approx(res.fsr, rel=1e-12, abs=0)

    def test_comb_satisfies_phase_condition(self, res, std_mode):
        # k(omega_N)*L = pi*N with k = omega/v_v
        for N in (1, 7, 2000, 12345):
            omega_N = resonance_frequency(res, N)
            assert (omega_N / std_mode.v_v) * res.length == pytest.approx(
                math.pi * N, rel=1e-12, abs=0)

    def test_nearest_mode(self, res, std_mode):
        assert nearest_mode(res, std_mode.omega0) == 2000
        assert nearest_mode(res, std_mode.omega0 + 0.4 * res.fsr) == 2000
        assert nearest_mode(res, std_mode.omega0 + 0.6 * res.fsr) == 2001

    def test_invalid_index(self, res):
        with pytest.raises(ValueError):
            resonance_frequency(res, 0)


class TestAiryLineshape:
    def test_peak(self, res, std_mode):
        assert airy_transmission(res, std_mode.omega0) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_half_maximum_at_half_linewidth(self, res, std_mode):
        t = airy_transmission(res, std_mode.omega0 + 0.5 * res.linewidth)
        assert t == pytest.approx(0.5, rel=5e-3, abs=0)

    def test_antiresonance_floor(self, res, std_mode):
        t = airy_transmission(res, std_mode.omega0 + 0.5 * res.fsr)
        floor = 1.0 / (1.0 + (2.0 * res.finesse / math.pi) ** 2)
        assert t == pytest.approx(floor, rel=1e-10, abs=0)

    def test_fwhm_matches_linewidth(self, std_mode):
        # numeric FWHM of the lineshape vs fsr/F, within 0.5% for F >= 30
        for F in (30.0, 100.0, 300.0):
            res = Resonator(std_mode, 0.01, reflectance_for_finesse(F))
            center = resonance_frequency(res, 2000)
            lo, hi = center, center + res.fsr / 2
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if airy_transmission(res, mid) > 0.5:
                    lo = mid
                else:
                    hi = mid
            fwhm = 2.0 * (0.5 * (lo + hi) - center)
            assert fwhm == pytest.approx(res.linewidth, rel=5e-3, abs=0)


class TestEffectiveLength:
    def test_zero_acceleration(self, res, std_mode):
        assert effective_length(res, 0.0) == std_mode.n * res.length
        assert effective_length_first_order(res, 0.0) == pytest.approx(
            std_mode.n * res.length, rel=1e-15, abs=0)

    def test_worked_value(self, res, std_mode):
        nl = std_mode.n * res.length
        assert effective_length(res, 1e-3) == pytest.approx(
            0.9544511501033215 * nl, rel=1e-13, abs=0)
        assert effective_length_first_order(res, 1e-3) == pytest.approx(
            0.95 * nl, rel=1e-14, abs=0)

    def test_first_order_gap_bound(self, res, std_mode):
        scale = std_mode.v_v**2 / 2.0
        nl = std_mode.n * res.length
        for a in (1e-6, 1e-5, 1e-4, 1e-3):
            x = a * res.length / scale
            gap = abs(effective_length(res, a) - effective_length_first_order(res, a))
            assert gap <= x**2 * nl

    def test_shift_against_50_digits_down_to_subnormal(self, res, std_mode):
        """L_eff - nL, the small shift an accelerometer reads, over a log sweep of a.

        Every |a| = 10^e from the subnormal 5e-324 up, of both signs short of
        the singular deceleration, against mpmath on the same float inputs:
        the shift is off by at most 2 ulp of nL, L_eff by at most 2 of its own.
        """
        nl = std_mode.n * res.length
        scale = std_mode.hbar * std_mode.omega_v / std_mode.species.mass
        magnitudes = [5e-324] + [10.0**e for e in range(-323, 309)]
        with mpmath.workdps(50):
            n, length, s = (mpmath.mpf(v) for v in (std_mode.n, res.length, scale))
            for a in magnitudes + [-a for a in magnitudes if a * res.length / scale < 1.0]:
                exact = n * length * 2 / (1 + mpmath.sqrt(1 + mpmath.mpf(a) * length / s))
                L_eff = effective_length(res, a)
                assert abs((L_eff - nl) - (exact - n * length)) <= 2 * math.ulp(nl), a
                if a * res.length / scale < 1e300:  # beyond it the ratio overflows to inf
                    assert abs(L_eff - exact) <= 2 * math.ulp(L_eff), a
                assert (L_eff - nl) * a <= 0.0, a

    def test_singular_deceleration_rejected(self, res, std_mode):
        a_sing = -(std_mode.v_v**2 / 2.0) / res.length
        with pytest.raises(ValueError):
            effective_length(res, 1.01 * a_sing)


class TestAccelerometer:
    def test_scale_factor(self, res, std_mode):
        assert accel_scale_factor(res, 2000) == pytest.approx(
            1e5 * math.pi, rel=1e-14, abs=0)
        assert accel_scale_factor(res, 2000) == pytest.approx(
            math.pi * 2000 / (2.0 * std_mode.v_v), rel=1e-15, abs=0)

    def test_resolution_worked_value(self, res):
        assert accel_resolution(res) == pytest.approx(1e-7, rel=1e-12, abs=0)

    def test_resolution_is_linewidth_over_kappa(self, res):
        assert accel_resolution(res) * accel_scale_factor(res, 2000) \
            == pytest.approx(res.linewidth, rel=1e-12, abs=0)

    def test_round_trip(self, res):
        kappa = accel_scale_factor(res, 2000)
        a_true = 3.7e-6
        reading = accel_from_shift(res, 2000, kappa * a_true)
        assert reading.acceleration == pytest.approx(a_true, rel=1e-14, abs=0)
        assert not reading.mode_ambiguous

    def test_mode_ambiguity_flag(self, res):
        reading = accel_from_shift(res, 2000, 0.6 * res.fsr)
        assert reading.mode_ambiguous
        ok = accel_from_shift(res, 2000, 0.4 * res.fsr)
        assert not ok.mode_ambiguous

    def test_invalid_mode_index(self, res):
        with pytest.raises(ValueError):
            accel_scale_factor(res, 0)


def test_resonator_validation(std_mode):
    with pytest.raises(ValueError):
        Resonator(std_mode, 0.0, 0.9)
    with pytest.raises(ValueError):
        Resonator(std_mode, 0.01, 1.2)


@pytest.mark.parametrize("length", [1e300, 1e-300])
def test_resonator_rejects_length_without_finite_square(std_mode, length):
    message = "cavity length %r m has no finite nonzero square" % length
    with pytest.raises(ValueError, match=re.escape(message)):
        Resonator(std_mode, length, 0.9)
