import decimal
import math
import random
from decimal import Decimal

import mpmath
import pytest

from matterwave import (
    CounterPropPair,
    Resonator,
    energy_density,
    index_shift,
    make_mode,
    mean_field_energy,
    nearest_mode,
    parametric_branch,
    reflectance_for_finesse,
    resonance_pull,
    resonance_pull_first_order,
)
from matterwave.quantities import ParticleSpecies

HBAR = 1.054571817e-34


@pytest.fixture
def pair(std_mode):
    # flux 1e3 /s over 1e-10 m^2 with a 5 nm scattering length
    return CounterPropPair(std_mode, 1e3, 1e-10, 5e-9)


@pytest.fixture
def res(std_mode):
    return Resonator(std_mode, 0.01, reflectance_for_finesse(100.0))


class TestMeanField:
    def test_energy_density_worked_value(self, pair):
        assert energy_density(pair) == pytest.approx(6.626070145940079e-16, rel=1e-14, abs=0)

    def test_mean_field_worked_value(self, pair):
        assert mean_field_energy(pair) == pytest.approx(2.7950667333493933e-35, rel=1e-14, abs=0)

    def test_linear_in_flux(self, std_mode, pair):
        double = CounterPropPair(std_mode, 2e3, 1e-10, 5e-9)
        assert mean_field_energy(double) == pytest.approx(
            2.0 * mean_field_energy(pair), rel=1e-14, abs=0)

    def test_zero_scattering_length(self, std_mode, res):
        quiet = CounterPropPair(std_mode, 1e3, 1e-10, 0.0)
        assert mean_field_energy(quiet) == 0.0
        shift = index_shift(quiet)
        assert shift.value == 0.0 and shift.first_order == 0.0
        # +0.0, so that `interact` prints 0, not -0
        assert math.copysign(1.0, resonance_pull(res, quiet)) == 1.0


class TestIndexShift:
    def test_worked_values(self, pair):
        shift = index_shift(pair)
        assert shift.first_order == pytest.approx(1.0175018176566603e-6, rel=1e-13, abs=0)
        assert shift.value == pytest.approx(1.017506083654756e-6, rel=1e-13, abs=0)
        # the literal small-signal expression carries units of 1/s and is
        # reported only for comparison
        assert shift.paper_form == pytest.approx(6.393152470728852e-3, rel=1e-13, abs=0)

    def test_second_order_consistency(self, std_mode):
        # exact minus first order stays below x^2 relative to n for
        # x = H_int/(hbar*omega_v)
        energy = HBAR * std_mode.omega_v
        base = mean_field_energy(CounterPropPair(std_mode, 1e3, 1e-10, 5e-9))
        for x in (1e-4, 1e-3, 1e-2):
            flux = 1e3 * x * energy / base
            shift = index_shift(CounterPropPair(std_mode, flux, 1e-10, 5e-9))
            assert abs(shift.value - shift.first_order) <= x**2 * std_mode.n
            assert shift.value == pytest.approx(shift.first_order, rel=2.0 * x, abs=0)

    def test_against_50_digits_down_to_subnormal(self, std_mode):
        """n(H) - n over a log sweep of H: every scattering length 10^e,
        of both signs, from the subnormal 5e-324 up to the perturbative
        bound |H| < 0.1*E, against mpmath's n*expm1(-log1p(-x)/2) on the
        same float H and E, to 4 ulp of the shift."""
        energy = std_mode.hbar * std_mode.omega_v
        swept = 0
        with mpmath.workdps(50):
            n, e = mpmath.mpf(std_mode.n), mpmath.mpf(energy)
            for a in [5e-324] + [10.0**k for k in range(-323, 1)]:
                for pair in (CounterPropPair(std_mode, 1e3, 1e-10, a),
                             CounterPropPair(std_mode, 1e3, 1e-10, -a)):
                    h_int = mean_field_energy(pair)
                    if abs(h_int) >= 0.1 * energy:
                        continue
                    dn = index_shift(pair).value
                    exact = n * mpmath.expm1(-mpmath.log1p(-mpmath.mpf(h_int) / e) / 2)
                    assert abs(dn - exact) <= 4 * math.ulp(dn), a
                    assert (dn > 0) == (h_int > 0) and (dn < 0) == (h_int < 0), a
                    swept += h_int != 0.0
        assert swept > 500

    def test_attractive_interaction_sign(self, std_mode):
        shift = index_shift(CounterPropPair(std_mode, 1e3, 1e-10, -5e-9))
        assert shift.value < 0 and shift.first_order < 0

    def test_non_perturbative_rejected(self, std_mode):
        energy = HBAR * std_mode.omega_v
        base = mean_field_energy(CounterPropPair(std_mode, 1e3, 1e-10, 5e-9))
        flux = 1e3 * 0.2 * energy / base
        with pytest.raises(ValueError):
            index_shift(CounterPropPair(std_mode, flux, 1e-10, 5e-9))


class TestResonancePull:
    def test_worked_value(self, res, pair):
        assert resonance_pull(res, pair) == pytest.approx(-0.0175619713184663, rel=1e-13, abs=0)
        assert resonance_pull_first_order(res, pair) == pytest.approx(
            -0.01756199586202726, rel=1e-13, abs=0)

    def test_first_order_against_50_digits(self, res, pair, std_mode):
        """-omega_N*delta_n/n on the same float H, E, n and FSR, with
        delta_n = n*expm1(-log1p(-H/E)/2) at 50 digits, to 2 ulp."""
        energy = std_mode.hbar * std_mode.omega_v
        pull = resonance_pull_first_order(res, pair)
        with mpmath.workdps(50):
            n = mpmath.mpf(std_mode.n)
            dn = n * mpmath.expm1(-mpmath.log1p(-mpmath.mpf(mean_field_energy(pair)) / energy) / 2)
            exact = -nearest_mode(res, std_mode.omega0) * mpmath.mpf(res.fsr) * dn / n
            assert abs(pull - exact) <= 2 * math.ulp(pull)

    def test_sign_and_first_order_form(self, res, pair, std_mode):
        pull = resonance_pull_first_order(res, pair)
        dn = index_shift(pair).value
        assert pull == pytest.approx(-std_mode.omega0 * dn / std_mode.n, rel=1e-12, abs=0)

    def test_exact_vs_first_order_bound(self, res, std_mode):
        energy = HBAR * std_mode.omega_v
        base = mean_field_energy(CounterPropPair(std_mode, 1e3, 1e-10, 5e-9))
        for x in (1e-4, 1e-3, 1e-2):
            flux = 1e3 * x * energy / base
            pr = CounterPropPair(std_mode, flux, 1e-10, 5e-9)
            exact = resonance_pull(res, pr)
            first = resonance_pull_first_order(res, pr)
            eps = abs(index_shift(pr).value / std_mode.n)
            assert abs(exact - first) <= eps**2 * std_mode.omega0

    def test_pull_linear_in_flux_at_small_signal(self, res, std_mode):
        p1 = resonance_pull(res, CounterPropPair(std_mode, 1e3, 1e-10, 5e-9))
        p2 = resonance_pull(res, CounterPropPair(std_mode, 2e3, 1e-10, 5e-9))
        assert p2 == pytest.approx(2.0 * p1, rel=1e-2, abs=0)

    def test_mode_mismatch_rejected(self, res, species):
        other = make_mode(species, 2.0 * math.pi * 900.0, velocity=0.01)
        with pytest.raises(ValueError):
            resonance_pull(res, CounterPropPair(other, 1e3, 1e-10, 5e-9))


class TestParametricBranch:
    def test_worked_values(self, std_mode):
        branch = parametric_branch(std_mode)
        assert branch.n_plus == pytest.approx(0.34207379303727015, rel=1e-13, abs=0)
        assert branch.n_minus == pytest.approx(0.39085316060402375, rel=1e-13, abs=0)
        assert branch.delta_p_approx == pytest.approx(
            2.0 * 1.054571817e-34 * std_mode.k, rel=1e-14, abs=0)

    def test_momentum_gap_scales_as_n_fourth(self):
        for n_target in (0.05, 0.1, 0.2, 0.3, 0.5):
            sp = ParticleSpecies("t", 1e-25)
            omega_v = sp.mass * 0.01**2 / (2.0 * HBAR)
            mode = make_mode(sp, n_target**2 * omega_v, velocity=0.01)
            branch = parametric_branch(mode)
            rel_gap = branch.delta_p_exact / branch.delta_p_approx - 1.0
            assert 0.0 < rel_gap <= mode.n**4
            assert rel_gap == pytest.approx(mode.n**4 / 8.0, rel=0.1, abs=0)

    def test_momentum_gap_against_50_digits_down_to_subnormal(self, species):
        """delta_p_exact over a log sweep of omega0 = 10^e from the
        subnormal range up to n < 1, where n reaches 4e-162 and delta_p
        the subnormal range, against mpmath's expm1/log1p form of
        2*(sqrt(1 + n^2) - sqrt(1 - n^2))/n*hbar*k0 on the same float n,
        hbar and k0, to 3 ulp."""
        swept = 0
        with mpmath.workdps(50):
            for omega0 in [10.0**k for k in range(-318, 5)]:
                mode = make_mode(species, omega0, velocity=0.01)
                n = mpmath.mpf(mode.n)
                gap = (mpmath.expm1(mpmath.log1p(n**2) / 2)
                       - mpmath.expm1(mpmath.log1p(-n**2) / 2)) / n
                exact = 2 * gap * mpmath.mpf(mode.hbar) * mpmath.mpf(mode.k0)
                dp = parametric_branch(mode).delta_p_exact
                assert abs(dp - exact) <= 3 * math.ulp(dp), omega0
                swept += dp < 2.2250738585072014e-308  # subnormal
        assert swept > 0

    def test_branch_ordering(self, std_mode):
        branch = parametric_branch(std_mode)
        assert branch.n_plus < std_mode.n < branch.n_minus

    def test_index_above_one_rejected(self, species):
        omega_v = species.mass * 0.01**2 / (2.0 * HBAR)
        fast = make_mode(species, 4.0 * omega_v, velocity=0.01)
        with pytest.raises(ValueError):
            parametric_branch(fast)


def test_pair_validation(std_mode):
    with pytest.raises(ValueError):
        CounterPropPair(std_mode, 0.0, 1e-10, 5e-9)
    with pytest.raises(ValueError):
        CounterPropPair(std_mode, 1e3, -1e-10, 5e-9)
    with pytest.raises(ValueError):
        CounterPropPair(std_mode, 1e3, 1e-10, math.nan)


# --- independent 50-digit reference for the resonance pull ---------------

def _decimal_pi():
    """pi to the current decimal precision (the decimal-module recipe)."""
    decimal.getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _reference_pull(res, pair):
    """omega'(dn) - omega'(0) from (sqrt(omega/omega_v) + dn)*k0(omega)*L = pi*N,
    each root found by bisection on omega in 50-digit decimal arithmetic."""
    mode = res.mode
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        omega_v, mass, hbar = Decimal(mode.omega_v), Decimal(mode.species.mass), Decimal(mode.hbar)
        length, dn = Decimal(res.length), Decimal(index_shift(pair).value)
        target = _decimal_pi() * nearest_mode(res, mode.omega0)

        def root(shift):
            def phase(omega):
                return ((omega / omega_v).sqrt() + shift) * (mass * omega / (2 * hbar)).sqrt() * length

            guess = target / length * (2 * hbar * omega_v / mass).sqrt()  # the dn = 0 root
            lo, hi = guess / 4, guess * 4
            assert phase(lo) < target < phase(hi)
            while hi - lo > guess * Decimal("1e-48"):
                mid = (lo + hi) / 2
                if phase(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        return float(root(dn) - root(Decimal(0)))


def _seeded_cases(count, seed=20220409):
    rng = random.Random(seed)
    for _ in range(count):
        mass = 10.0 ** rng.uniform(-27, -24)
        v = 10.0 ** rng.uniform(-3, 0)
        omega_v = mass * v**2 / (2.0 * HBAR)
        mode = make_mode(ParticleSpecies("r", mass), omega_v * rng.uniform(0.01, 4.0), velocity=v)
        # locked comb index N ~ omega0*L/(pi*v) between 1 and 1e4
        length = math.pi * v / mode.omega0 * 10.0 ** rng.uniform(0.0, 4.0)
        area = 10.0 ** rng.uniform(-12, -8)
        a_s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10, -8)
        # flux set so that H_int is a fraction x of the particle energy
        x = 10.0 ** rng.uniform(-9, -2)
        per_unit_flux = mean_field_energy(CounterPropPair(mode, 1.0, area, a_s))
        flux = x * HBAR * omega_v / abs(per_unit_flux)
        res = Resonator(mode, length, 0.9)
        yield res, CounterPropPair(mode, flux, area, a_s)


def test_resonance_pull_matches_decimal_reference(res, pair):
    assert _reference_pull(res, pair) == pytest.approx(-0.017561971318466305, rel=1e-15, abs=0)
    cases = [(res, pair)] + list(_seeded_cases(60))
    worst = max(abs(resonance_pull(r, p) / _reference_pull(r, p) - 1.0) for r, p in cases)
    assert worst <= 1e-12
