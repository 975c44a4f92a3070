import ast
import math
import random
import sys
import threading

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import complex_march
from matterwave import (
    DEBROGLIE,
    MAXWELL,
    DomainError,
    GridResolutionError,
    Layer,
    LayerStack,
    OpacityError,
    ParticleSpecies,
    SingularPotentialError,
    generalized_index,
    make_mode,
    numerov_oracle,
    scattering,
    step_coefficients,
    transfer_matrix,
)
from matterwave.quantities import FLOAT_MAX

HBAR = 1.054571817e-34
# an oracle grid whose truncation error, O(ppw^-2), sits at the double-precision floor
FINE_PPW = 40_000


@pytest.fixture
def E(std_mode):
    return HBAR * std_mode.omega_v


class TestGeneralizedIndex:
    def test_zero_potential(self, std_mode):
        gi = generalized_index(std_mode, 0.0)
        assert gi == pytest.approx(std_mode.n, rel=1e-15, abs=0)
        assert gi.imag == 0.0

    def test_three_quarters_doubles_index(self, std_mode, E):
        gi = generalized_index(std_mode, 0.75 * E)
        assert gi == pytest.approx(2.0 * std_mode.n, rel=1e-14, abs=0)

    def test_evanescent_branch(self, std_mode, E):
        """The Maxwell index goes as 1/q, and on the decaying branch
        1/(i*kappa) = -i/kappa: negative imaginary."""
        gi = generalized_index(std_mode, 2.0 * E)
        assert gi.imag < 0
        assert gi.real == 0.0
        assert gi.imag == pytest.approx(-std_mode.n, rel=1e-14, abs=0)

    def test_debroglie_reciprocal(self, std_mode, E):
        # in every region, barriers included, which makes the duality exact
        for U in (0.0, 0.5 * E, -1.0 * E, 2.0 * E):
            gm = generalized_index(std_mode, U, MAXWELL)
            gd = generalized_index(std_mode, U, DEBROGLIE)
            assert gd == pytest.approx(1.0 / gm, rel=1e-14, abs=0)

    def test_debroglie_evanescent_decaying_sign(self, std_mode, E):
        gm = generalized_index(std_mode, 2.0 * E, MAXWELL)
        gd = generalized_index(std_mode, 2.0 * E, DEBROGLIE)
        assert gd.imag > 0
        assert gd == pytest.approx(1j / abs(gm), rel=1e-14, abs=0)

    def test_singular_at_particle_energy(self, std_mode, E):
        with pytest.raises(SingularPotentialError):
            generalized_index(std_mode, E)
        with pytest.raises(SingularPotentialError):
            generalized_index(std_mode, E * (1.0 + 1e-13))

    def test_unknown_convention(self, std_mode):
        with pytest.raises(ValueError):
            generalized_index(std_mode, 0.0, "fresnel")


class TestStepCoefficients:
    def test_exact_fractions(self):
        res = step_coefficients(1.0, 2.0)
        assert res.r == pytest.approx(-1.0 / 3.0, rel=1e-14, abs=0)
        assert res.t == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0)
        assert res.R == pytest.approx(1.0 / 9.0, rel=1e-14, abs=0)
        assert res.T == pytest.approx(8.0 / 9.0, rel=1e-14, abs=0)

    def test_flux_conservation(self):
        res = step_coefficients(0.36, 1.7)
        assert res.R + res.T == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_convention_duality(self):
        # de Broglie amplitudes from reciprocal indices: r flips sign,
        # t picks up n2/n1, fluxes match
        n1, n2 = 0.4, 0.9
        mx = step_coefficients(n1, n2)
        db = step_coefficients(1.0 / n1, 1.0 / n2)
        assert db.r == pytest.approx(-mx.r, rel=1e-14, abs=0)
        assert db.t == pytest.approx((n2 / n1) * mx.t, rel=1e-14, abs=0)
        assert db.R == pytest.approx(mx.R, rel=1e-14, abs=0)
        assert db.T == pytest.approx(mx.T, rel=1e-14, abs=0)

    def test_evanescent_exit_total_reflection(self):
        res = step_coefficients(1.0, 0.5j)
        assert res.T == 0.0
        assert res.R == pytest.approx(1.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("convention", [MAXWELL, DEBROGLIE])
    def test_barrier_index_of_either_convention(self, std_mode, E, convention):
        """An evanescent n2 of either sign, as generalized_index gives it."""
        res = step_coefficients(generalized_index(std_mode, 0.0, convention),
                                generalized_index(std_mode, 2.0 * E, convention))
        assert res.T == 0.0
        assert res.R == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_evanescent_incident_rejected(self):
        with pytest.raises(ValueError):
            step_coefficients(1j, 1.0)


class TestTransferMatrix:
    def test_bare_step_matches_fresnel(self, std_mode, E):
        stack = LayerStack(layers=(), exit_potential=-3.0 * E)
        res = transfer_matrix(stack, std_mode)
        n1 = generalized_index(std_mode, 0.0)
        n2 = generalized_index(std_mode, -3.0 * E)
        direct = step_coefficients(n1, n2)
        assert res.R == pytest.approx(direct.R, rel=1e-14, abs=0)
        assert res.T == pytest.approx(direct.T, rel=1e-14, abs=0)

    def test_step_one_ninth(self, std_mode, E):
        # n2/n1 = 2 needs U = -3E on the exit side
        res = transfer_matrix(LayerStack(exit_potential=-3.0 * E), std_mode)
        assert res.R == pytest.approx(1.0 / 9.0, rel=1e-14, abs=0)

    def test_half_wave_window(self, std_mode, E):
        # a layer of optical thickness pi is transparent at any contrast
        U = -3.0 * E
        q = std_mode.k_v * math.sqrt(1.0 - U / E)
        stack = LayerStack(layers=(Layer(U, math.pi / q),))
        res = transfer_matrix(stack, std_mode)
        assert res.R == pytest.approx(0.0, abs=1e-12)
        assert res.T == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_tunneling_vs_oracle(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(1.5 * E, 0.3 * lam),))
        tm = transfer_matrix(stack, std_mode)
        oracle = numerov_oracle(stack, std_mode, points_per_wavelength=FINE_PPW)
        assert tm.T == pytest.approx(oracle["T"], rel=1e-12, abs=0)
        assert tm.R + tm.T == pytest.approx(1.0, rel=1e-10, abs=0)

    def test_conventions_agree_on_flux(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(0.4 * E, 0.7 * lam),
                                   Layer(-0.8 * E, 1.3 * lam),
                                   Layer(0.9 * E, 0.2 * lam)))
        mx = transfer_matrix(stack, std_mode, MAXWELL)
        db = transfer_matrix(stack, std_mode, DEBROGLIE)
        assert db.R == pytest.approx(mx.R, rel=1e-12, abs=0)
        assert db.T == pytest.approx(mx.T, rel=1e-12, abs=0)

    def test_opaque_barrier_rejected(self, std_mode, E):
        stack = LayerStack(layers=(Layer(2.0 * E, 1.0),))
        with pytest.raises(OpacityError):
            transfer_matrix(stack, std_mode)

    def test_evanescent_exit_rejected(self, std_mode, E):
        with pytest.raises(ValueError):
            transfer_matrix(LayerStack(exit_potential=2.0 * E), std_mode)


class TestNumerovOracle:
    def test_free_propagation(self, std_mode):
        res = numerov_oracle(LayerStack(), std_mode)
        assert res["R"] == pytest.approx(0.0, abs=1e-10)
        assert res["T"] == pytest.approx(1.0, rel=1e-10, abs=0)

    def test_step_exact(self, std_mode, E):
        res = numerov_oracle(LayerStack(exit_potential=-3.0 * E), std_mode)
        assert res["R"] == pytest.approx(1.0 / 9.0, rel=1e-8, abs=0)
        assert res["T"] == pytest.approx(8.0 / 9.0, rel=1e-8, abs=0)

    def test_unitarity(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(0.6 * E, 0.9 * lam),
                                   Layer(-0.3 * E, 0.4 * lam)))
        res = numerov_oracle(stack, std_mode)
        assert res["R"] + res["T"] == pytest.approx(1.0, rel=1e-8, abs=0)

    def test_under_resolved_rejected(self, std_mode):
        with pytest.raises(GridResolutionError):
            numerov_oracle(LayerStack(), std_mode, points_per_wavelength=40)

    def test_evanescent_exit_rejected(self, std_mode, E):
        with pytest.raises(ValueError):
            numerov_oracle(LayerStack(exit_potential=1.5 * E), std_mode)

    def test_underflowing_incident_wavenumber_refused_by_name(self):
        """sqrt(2mE)/hbar underflows to 0, which the incident pad's length
        divides by; the matrix answers for the same stack."""
        mode = make_mode(ParticleSpecies("light", 1.781785538525392e-133),
                         1.748942449622043e-139, energy=6.208261470226108e-195)
        stack = LayerStack(layers=(Layer(6.54263489163481e-192, 7.419606749449599e-29),
                                   Layer(8.562040538779659e-195, 1.1759038826941688e-136)),
                           exit_potential=-4.4862469842246125e-195)
        transfer_matrix(stack, mode)
        with pytest.raises(ValueError, match=r"^mass 1\.781785538525392e-133 kg and energy "
                           r"6\.208261470226108e-195 J give an incident wavenumber "
                           r"sqrt\(2\*m\*E\)/hbar that underflows to 0$"):
            numerov_oracle(stack, mode)

    def test_incident_region_overflow_named(self):
        """The incident pad's f = -2mE/hbar^2 overflows: the message names
        the incident region, not a potential U = 0 of a layer."""
        mode = make_mode(ParticleSpecies("heavy", 1e100), 1.0, energy=1e150)
        transfer_matrix(LayerStack(), mode)
        with pytest.raises(ValueError,
                           match="^the incident region overflows the Schrodinger equation$"):
            numerov_oracle(LayerStack(), mode)
        # a layer at U = 0 overflows first, under its own potential
        with pytest.raises(ValueError, match=r"^potential U = 0 J overflows"):
            numerov_oracle(LayerStack(layers=(Layer(0.0, 1e-200),)), mode)

    def test_opaque_barrier_rejected(self, std_mode, E):
        """U = 2E over 120 wavelengths, sum kappa*L = 754: the growing
        solution would overflow, so the oracle refuses the stack with the
        bound and the error transfer_matrix uses, before it jumps."""
        stack = LayerStack(layers=(Layer(2.0 * E, 120.0 * 2.0 * math.pi / std_mode.k_v),))
        with pytest.raises(OpacityError, match=r"sum kappa\*L = 754"):
            numerov_oracle(stack, std_mode)

    @pytest.mark.parametrize("wavelengths", [100, 104, 108, 110, 110.5, 111, 111.3])
    def test_near_opacity_limit_matches_matrix(self, std_mode, E, wavelengths):
        """U = 2E up to 111.3 wavelengths, sum kappa*L up to 699: dpsi
        would overflow near the limit, so psi and dpsi shrink by a power
        of two before the barrier.  R stays finite and on the matrix's
        R = 1; T, below exp(-1250), underflows to 0 in both."""
        stack = LayerStack(layers=(Layer(2.0 * E, wavelengths * 2.0 * math.pi / std_mode.k_v),))
        res = numerov_oracle(stack, std_mode)
        tm = transfer_matrix(stack, std_mode)
        assert math.isfinite(res["R"]) and abs(res["R"] - tm.R) < 1e-10
        assert res["T"] == tm.T

    @pytest.mark.parametrize("case", ["barrier", "deep100", "fine800", "mixed10", "parity"])
    def test_rescaling_is_exact(self, std_mode, E, monkeypatch, case):
        """A power-of-two rescale before every barrier keeps every pinned
        bit of R and of T, whose exponent the oracle carries back."""
        monkeypatch.setattr(scattering, "_TOP_EXPONENT", -40)
        stack, ppw = pinned_case(case, E, 2.0 * math.pi / std_mode.k_v)
        res = numerov_oracle(stack, std_mode, points_per_wavelength=ppw)
        assert (res["R"], res["T"]) == self.PINNED[case]

    # repr of R and T per stack, so that the oracle's last bits move only
    # on purpose; each is settled against mp_oracle below.  "parity" holds
    # regions at and near the 20-step minimum.
    PINNED = {
        "free": (9.93152142286395e-25, 0.9999999999999867),
        "step": (0.11111111111111502, 0.8888888888888731),
        "barrier": (0.7778269711853478, 0.22217302881465237),
        "mixed10": (0.6223549679184374, 0.3776450320815235),
        "deep100": (0.9999999585272121, 4.1472787665152876e-08),
        "fine800": (0.622354967090835, 0.3776450329091641),
        "parity": (0.38593470286355736, 0.6140652971364273),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_bit_for_bit(self, std_mode, E, case):
        """The oracle runs on Python floats and complex numbers, so the
        pins hold wherever CPython rounds to nearest in IEEE double."""
        stack, ppw = pinned_case(case, E, 2.0 * math.pi / std_mode.k_v)
        res = numerov_oracle(stack, std_mode, points_per_wavelength=ppw)
        assert (res["R"], res["T"]) == self.PINNED[case]

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_oracle_matches_50_digit_recurrence(self, std_mode, E, case):
        stack, ppw = pinned_case(case, E, 2.0 * math.pi / std_mode.k_v)
        assert_matches_mp_oracle(stack, std_mode, ppw)

    @pytest.mark.parametrize("case", ["barrier", "mixed10", "parity", "step"])
    def test_fine_grid_meets_matrix(self, std_mode, E, case):
        """At 1e6 points per wavelength the Numerov truncation is far below
        double precision, so the oracle must meet the exact matrix to
        rounding; a slope taken by differencing psi on the grid would lose
        digits as eps/(k*h) and miss it."""
        stack, _ = pinned_case(case, E, 2.0 * math.pi / std_mode.k_v)
        res = numerov_oracle(stack, std_mode, points_per_wavelength=10 ** 6)
        tm = transfer_matrix(stack, std_mode)
        assert abs(res["R"] - tm.R) < 1e-13
        assert abs(res["T"] - tm.T) < 1e-13

    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_seeded_stacks_match_50_digit_recurrence(self, std_mode, E, depth):
        """The closed-form jump against the recurrence marched step by step
        at 50 digits, over seeded stacks with barriers.  Every other stack
        gains a layer at exactly U = E, where sigma = 0 and the jump is a
        straight line."""
        assert E == std_mode.hbar * std_mode.omega_v  # so that f is exactly 0
        lam = 2.0 * math.pi / std_mode.k_v
        for seed in range(14):
            stack = seeded_stack(100 * depth + seed, depth, E, lam)
            if seed % 2:
                layers = list(stack.layers)
                layers.insert(seed % (depth + 1), Layer(E, 0.1 * lam))
                stack = LayerStack(layers=tuple(layers), exit_potential=stack.exit_potential)
            assert_matches_mp_oracle(stack, std_mode, 400)

    def test_rescaling_is_exact_at_the_particle_energy(self, std_mode, E, monkeypatch):
        """The power-of-two rescale before a straight-line region at U = E
        keeps every bit of R and of T."""
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(E, 0.1 * lam), Layer(1.5 * E, 0.3 * lam),
                                   Layer(E, 0.2 * lam), Layer(0.5 * E, 0.1 * lam)))
        expected = numerov_oracle(stack, std_mode)
        monkeypatch.setattr(scattering, "_TOP_EXPONENT", -40)
        assert numerov_oracle(stack, std_mode) == expected

    @pytest.mark.parametrize("layers", [
        ((1.0, 1e160),), ((1.0, 1e300),), ((1.0, 1.7e308),), ((1.0, 1e308), (1.0, 1e308)),
        ((1.0, 1e300), (2.0, 1e-5)), ((1.0, 1e250), (2.0, 3e-5), (1.0, 1e250))])
    def test_at_the_particle_energy_finite_or_refused(self, std_mode, E, layers):
        """A region at U = E is a straight line, psi + dpsi*x.  Over a long
        one h*h leaves the float range, and after a barrier (the exit side
        comes last) so does |dpsi|*length, unless psi and dpsi shrink by a
        power of two first; a total length whose exit phase q*x overflows
        is refused by name."""
        stack = LayerStack(layers=tuple(Layer(u * E, length) for u, length in layers))
        assert_finite_or_named_refusal(stack, std_mode)

    def test_near_the_particle_energy_finite_or_refused(self, std_mode, E):
        """Seeded stacks of one or two layers at and next to U = E, up to
        FLOAT_MAX long: each gives finite R and T or a named refusal."""
        rng = random.Random(2501)
        for _ in range(3000):
            layers = tuple(
                Layer(E * rng.choice((1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 - 1e-12, 1.0 + 1e-9)),
                      rng.choice((FLOAT_MAX, 10.0 ** rng.uniform(-300.0, 308.25))))
                for _ in range(rng.randint(1, 2)))
            assert_finite_or_named_refusal(LayerStack(layers=layers), std_mode)


def assert_finite_or_named_refusal(stack, mode):
    """R and T are finite, or the oracle refuses the stack by its grid, its
    opacity or its overflowing exit phase."""
    try:
        res = numerov_oracle(stack, mode)
    except (GridResolutionError, OpacityError):
        return
    except ValueError as exc:
        assert "overflow the exit phase q*x" in str(exc), (stack, exc)
        return
    assert math.isfinite(res["R"]) and math.isfinite(res["T"]), (stack, res)


def assert_matches_mp_oracle(stack, mode, ppw):
    """The oracle's float arithmetic against its own recurrence at 50
    digits: T, and R where above 1e-6, to 1e-12 relative; a smaller R,
    such as the free-space R of about 1e-24, to 1e-20 absolute."""
    res = numerov_oracle(stack, mode, points_per_wavelength=ppw)
    R, T = mp_oracle(stack, mode, ppw)
    if R > 1e-6:
        assert abs(res["R"] / R - 1) < 1e-12
    else:
        assert abs(res["R"] - R) < 1e-20
    assert abs(res["T"] / T - 1) < 1e-12


class TestTransferMatrixPinned:
    # repr of (r, t, R, T) per stack and convention, so that a leaner
    # product keeps every bit and every sign of zero.  "defect" is a
    # barrier next to a propagating layer, where a Maxwell index on the
    # growing branch once gave R = 0.47440915493979097; every value here
    # is within 1e-14 of mp_schrodinger's at 50 digits.
    PINNED = {
        ("d1", MAXWELL): "((0.24928577765324136+0.054189603000314904j), "
                         "(-0.11433024777321942+0.8288968976700535j), "
                         "0.06507991201351303, 0.9349200879864871)",
        ("d1", DEBROGLIE): "((-0.24928577765324136-0.054189603000314904j), "
                           "(-0.15266863841458161+1.1068511021192764j), "
                           "0.06507991201351303, 0.9349200879864871)",
        ("d10", MAXWELL): "((0.42607409363953647-0.3432473022653264j), "
                          "(0.24208325959444332-0.8085273613875688j), "
                          "0.29935784378317687, 0.7006421562168229)",
        ("d10", DEBROGLIE): "((-0.42607409363953647+0.3432473022653264j), "
                            "(0.2381142559624854-0.7952713930101574j), "
                            "0.29935784378317687, 0.7006421562168229)",
        ("d100", MAXWELL): "((0.7559080136473944+0.6546778405397332j), "
                           "(1.5994685070007796e-06-2.337026976949899e-06j), "
                           "0.9999999999901177, 9.881996571476444e-12)",
        ("d100", DEBROGLIE): "((-0.7559080136473944-0.6546778405397332j), "
                             "(1.970817076421499e-06-2.87961448072971e-06j), "
                             "0.9999999999901177, 9.881996571476444e-12)",
        ("defect", MAXWELL): "((-0.21124670814130997+0.731181633496574j), "
                             "(0.48126823301563826+0.43488979641599684j), "
                             "0.579251752863258, 0.42074824713674186)",
        ("defect", DEBROGLIE): "((0.21124670814130997-0.731181633496574j), "
                               "(0.48126823301563826+0.43488979641599684j), "
                               "0.579251752863258, 0.42074824713674186)",
    }

    @staticmethod
    def stack(case, E, lam):
        return {
            "d1": seeded_stack(101, 1, E, lam),
            "d10": seeded_stack(102, 10, E, lam),
            "d100": seeded_stack(103, 100, E, lam),
            "defect": LayerStack(layers=(Layer(1.5 * E, 0.2 * lam), Layer(0.3 * E, 0.1 * lam))),
        }[case]

    @pytest.mark.parametrize("case,convention", sorted(PINNED))
    def test_pinned_bit_for_bit(self, std_mode, E, case, convention):
        res = transfer_matrix(self.stack(case, E, 2.0 * math.pi / std_mode.k_v), std_mode,
                              convention)
        assert repr((res.r, res.t, res.R, res.T)) == self.PINNED[case, convention]

    @pytest.mark.parametrize("case,convention", sorted(PINNED))
    def test_pinned_against_50_digits(self, std_mode, E, case, convention):
        stack = self.stack(case, E, 2.0 * math.pi / std_mode.k_v)
        got = ast.literal_eval(self.PINNED[case, convention])
        for value, exact in zip(got, mp_schrodinger(stack, std_mode, convention)):
            assert abs(value - exact) <= 1e-14 * abs(exact)

    def test_defect_reproducer(self, std_mode, E):
        """A barrier then a propagating layer: R in both conventions is
        the double nearest the 50-digit R = 0.57925175286325807..."""
        stack = self.stack("defect", E, 2.0 * math.pi / std_mode.k_v)
        exact = mp_schrodinger(stack, std_mode, MAXWELL)[2]
        assert mpmath.nstr(exact, 17) == "0.57925175286325807"
        for convention in (MAXWELL, DEBROGLIE):
            R = transfer_matrix(stack, std_mode, convention).R
            assert R == 0.579251752863258
            assert abs(R - exact) <= math.ulp(R) / 2


def march_outcome(kernel, *args):
    """repr((r, t, R, T)) of one call, or the type and message it raised."""
    try:
        res = kernel(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr((res.r, res.t, res.R, res.T))


def hostile_stack(rng, E, lam):
    """A stack of depth 0-100 drawn from ordinary layers and hostile values:
    U = E and U within 1e-13 of it, U = +-1e300, lengths up to 1e308 and
    down to the smallest subnormal, and sometimes a barrier exit."""
    def potential():
        k = rng.random()
        if k < 0.04:
            return E
        if k < 0.06:
            return E * (1.0 + rng.choice((-1e-13, 1e-13)))
        if k < 0.09:
            return rng.choice((-1e300, 1e300))
        if k < 0.40:
            return rng.uniform(1.05, 3.0) * E
        return rng.uniform(-2.0, 0.95) * E

    def length():
        k = rng.random()
        if k < 0.03:
            return 10.0 ** rng.uniform(0.0, 308.0)
        if k < 0.05:
            return 5e-324
        if k < 0.10:
            return rng.uniform(1.0, 200.0) * lam
        return rng.uniform(0.01, 0.5) * lam

    depth = rng.choice((0, 1, 2, 3, 5, 10, 30, 100))
    layers = tuple(Layer(potential(), length()) for _ in range(depth))
    exit_potential = potential() if rng.random() < 0.3 else rng.uniform(-0.5, 0.9) * E
    return LayerStack(layers=layers, exit_potential=exit_potential)


# each kind of outcome the seeded draw must reach, by a piece of its message
MARCH_ERRORS = {
    "singular": "equals the particle energy",
    "overflow": "overflows against the particle energy",
    "exit": "incident and exit regions must be propagating",
    "opacity": "tunneling product saturates double precision",
    "phase": "a layer length overflows its transit phase",
}


def dual_outcome(stack, mode):
    """march_outcome of the Maxwell call by the duality from the de Broglie
    call: r = -r_D, t = t_D*s_out with s_out = sqrt|1 - U_exit/E|, the same
    R and T, or the same error."""
    try:
        db = transfer_matrix(stack, mode, DEBROGLIE)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    s_out = math.sqrt(abs(1.0 - stack.exit_potential / (mode.hbar * mode.omega_v)))
    return repr((-db.r, db.t * s_out, db.R, db.T))


def test_real_march_matches_complex_march(std_mode, species, E):
    """The real cos/sin and cosh/sinh march against the complex de Broglie
    march it replaced, kept in tests/complex_march.py: over seeded hostile
    stacks, the same repr of (r, t, R, T), or the same error type and
    message, so the order of the refusals holds too.  The Maxwell call is
    the exact duality of the de Broglie one, result for result and error
    for error."""
    modes = [std_mode] + [make_mode(species, 2.0 * math.pi * 1000.0, energy=s * E)
                          for s in (0.3, 1.7)]
    reached = set()
    for seed in range(600):
        rng = random.Random(seed)
        mode = modes[seed % len(modes)]
        stack = hostile_stack(rng, mode.hbar * mode.omega_v, 2.0 * math.pi / mode.k_v)
        got = march_outcome(transfer_matrix, stack, mode, DEBROGLIE)
        assert got == march_outcome(complex_march.transfer_matrix, stack, mode), seed
        assert march_outcome(transfer_matrix, stack, mode, MAXWELL) == dual_outcome(
            stack, mode), seed
        if isinstance(got, str):
            reached.add("result")
        else:
            reached.update(kind for kind, text in MARCH_ERRORS.items() if text in got[1])
    assert reached == {"result"} | set(MARCH_ERRORS)


@pytest.mark.parametrize("case,error", [
    ("singular-then-phase", SingularPotentialError),
    ("phase-then-overflow", ValueError),
    ("phase-and-barrier-exit", DomainError),
    ("phase-and-opacity", OpacityError),
    ("phase", ValueError),
    ("singular-then-deep", SingularPotentialError),
    ("overflow-then-deep", ValueError),
    ("deep-and-barrier-exit", DomainError),
    ("deep", OpacityError),
    ("near", OpacityError),
    ("phase-then-deep", OpacityError),
    ("deep-then-phase", OpacityError),
])
def test_march_refusal_order(std_mode, E, case, error):
    """Every region check, then the exit, then the opacity, then the phase
    overflow, as the complex march raised them, wherever in the one
    backward pass the march meets the first of them."""
    long = Layer(0.5 * E, 1e305)  # its transit phase overflows
    # barriers of kappa*d = 800, where cosh overflows, and 705, where it does
    # not but the opacity passes its limit of 700
    deep = Layer(2.0 * E, 800.0 / std_mode.k_v)
    near = Layer(2.0 * E, 705.0 / std_mode.k_v)
    stacks = {
        "singular-then-phase": LayerStack(layers=(Layer(E, 1.0), long)),
        "phase-then-overflow": LayerStack(layers=(long, Layer(1e300, 1.0))),
        "phase-and-barrier-exit": LayerStack(layers=(long,), exit_potential=2.0 * E),
        "phase-and-opacity": LayerStack(layers=(long, Layer(2.0 * E, 1.0))),
        "phase": LayerStack(layers=(long,)),
        "singular-then-deep": LayerStack(layers=(Layer(E, 1.0), deep)),
        "overflow-then-deep": LayerStack(layers=(Layer(1e300, 1.0), deep)),
        "deep-and-barrier-exit": LayerStack(layers=(deep,), exit_potential=2.0 * E),
        "deep": LayerStack(layers=(deep,)),
        "near": LayerStack(layers=(near,)),
        "phase-then-deep": LayerStack(layers=(long, deep)),
        "deep-then-phase": LayerStack(layers=(deep, long)),
    }
    for convention in (MAXWELL, DEBROGLIE):
        with pytest.raises(error) as raised:
            transfer_matrix(stacks[case], std_mode, convention)
        assert march_outcome(complex_march.transfer_matrix, stacks[case], std_mode) == (
            type(raised.value).__name__, str(raised.value))


def test_opacity_limit_is_read_on_the_stack_order_sum(std_mode, E):
    """The one-pass march sums kappa*L from the exit side, the refusal in
    stack order, and the two sums can fall on either side of the limit.
    Over seeded barrier stacks that sum to within a few ulps of 700, the
    outcome is the complex march's, which sums in stack order, and both
    orders of disagreement are met."""
    def total(layers):
        opacity = 0.0
        for layer in layers:
            opacity += std_mode.k_v * layer.length
        return opacity

    met = set()
    for seed in range(400):
        rng = random.Random(seed)
        shares = [rng.random() for _ in range(rng.choice((3, 7, 30, 100)))]
        target = 700.0 * (1.0 + rng.uniform(-3e-15, 3e-15))
        # U = 2E, so kappa = k_v
        layers = tuple(Layer(2.0 * E, share / sum(shares) * target / std_mode.k_v)
                       for share in shares)
        forward, backward = total(layers) > 700.0, total(reversed(layers)) > 700.0
        if forward != backward:
            met.add(forward)
            stack = LayerStack(layers=layers)
            assert march_outcome(transfer_matrix, stack, std_mode, DEBROGLIE) == march_outcome(
                complex_march.transfer_matrix, stack, std_mode), seed
    assert met == {False, True}


class TestMarchSlot:
    """transfer_matrix keeps its last march for the other convention of the
    same stack and mode objects.  The slot must not show: every call gives
    the outcome of a call that finds it empty."""

    @staticmethod
    def fresh(monkeypatch, stack, mode, convention):
        monkeypatch.setattr(scattering, "_last", (None, None, None))
        return march_outcome(transfer_matrix, stack, mode, convention)

    def assert_invisible(self, monkeypatch, calls):
        expected = [self.fresh(monkeypatch, *call) for call in calls]
        monkeypatch.setattr(scattering, "_last", (None, None, None))
        assert [march_outcome(transfer_matrix, *call) for call in calls] == expected

    @pytest.fixture
    def stacks(self, E, std_mode):
        lam = 2.0 * math.pi / std_mode.k_v
        return seeded_stack(7, 10, E, lam), seeded_stack(8, 3, E, lam)

    @pytest.fixture
    def modes(self, std_mode, species, E):
        return std_mode, make_mode(species, std_mode.omega0, energy=0.9 * E)

    def test_interleaved_stacks_and_modes(self, monkeypatch, stacks, modes):
        (a, b), (m, p) = stacks, modes
        self.assert_invisible(monkeypatch, [
            (a, m, MAXWELL), (b, m, DEBROGLIE), (a, m, DEBROGLIE), (a, p, MAXWELL),
            (a, m, MAXWELL), (b, p, DEBROGLIE), (b, m, MAXWELL), (a, p, DEBROGLIE)])

    def test_equal_but_distinct_objects(self, monkeypatch, stacks, modes, species):
        (a, _), (m, _) = stacks, modes
        a2 = LayerStack(layers=a.layers, exit_potential=a.exit_potential)
        m2 = make_mode(species, m.omega0, velocity=0.01)
        assert a2 == a and a2 is not a and m2 == m and m2 is not m
        self.assert_invisible(monkeypatch, [
            (a, m, MAXWELL), (a2, m, DEBROGLIE), (a, m2, MAXWELL), (a2, m2, DEBROGLIE),
            (a, m, DEBROGLIE)])

    def test_same_convention_twice(self, monkeypatch, stacks, modes):
        (a, b), (m, _) = stacks, modes
        self.assert_invisible(monkeypatch, [
            (a, m, MAXWELL), (a, m, MAXWELL), (a, m, DEBROGLIE), (a, m, DEBROGLIE),
            (b, m, DEBROGLIE), (b, m, DEBROGLIE), (b, m, MAXWELL), (b, m, MAXWELL)])

    @pytest.mark.parametrize("case", sorted(MARCH_ERRORS) + ["convention"])
    def test_refusal_leaves_the_slot(self, monkeypatch, stacks, std_mode, E, case):
        """A stack that raises raises the same in both conventions, and the
        slot still holds the march before it."""
        bad = {
            "singular": LayerStack(layers=(Layer(E, 1.0),)),
            "overflow": LayerStack(layers=(Layer(1e300, 1.0),)),
            "exit": LayerStack(exit_potential=2.0 * E),
            "opacity": LayerStack(layers=(Layer(2.0 * E, 1.0),)),
            "phase": LayerStack(layers=(Layer(0.5 * E, 1e305),)),
            "convention": stacks[1],
        }[case]
        good = stacks[0]
        expected = self.fresh(monkeypatch, good, std_mode, DEBROGLIE)
        slot = scattering._last
        outcomes = []
        for convention in ((MAXWELL, DEBROGLIE) if case != "convention" else ("fresnel",)):
            outcomes.append(march_outcome(transfer_matrix, bad, std_mode, convention))
            assert scattering._last is slot
        assert all(isinstance(o, tuple) and o == outcomes[0] for o in outcomes)
        assert MARCH_ERRORS.get(case, "unknown convention") in outcomes[0][1]
        assert march_outcome(transfer_matrix, good, std_mode, DEBROGLIE) == expected

    def test_threads_see_no_torn_slot(self, monkeypatch, stacks, modes):
        """Four threads, more than the cores, call over one another with a
        short switch interval; each result is still its fresh outcome."""
        calls = [(a, m, c) for a in stacks for m in modes for c in (MAXWELL, DEBROGLIE)]
        expected = {call: self.fresh(monkeypatch, *call) for call in calls}
        wrong = []
        start = threading.Barrier(4)

        def worker(seed):
            rng = random.Random(seed)
            start.wait(timeout=60)
            for _ in range(2000):
                call = rng.choice(calls)
                if march_outcome(transfer_matrix, *call) != expected[call]:
                    wrong.append(call)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def pinned_case(case, E, lam):
    """(stack, points per wavelength) of one pinned oracle case."""
    stacks = {
        "free": LayerStack(),
        "step": LayerStack(exit_potential=-3.0 * E),
        "barrier": LayerStack(layers=(Layer(1.5 * E, 0.3 * lam),)),
        "mixed10": seeded_stack(10, 10, E, lam, barrier=(1.2, 2.0)),
        "deep100": seeded_stack(100, 100, E, lam, barrier=(1.2, 2.0)),
        "fine800": seeded_stack(10, 10, E, lam, barrier=(1.2, 2.0)),
        "parity": LayerStack(layers=(Layer(0.4 * E, 0.01 * lam), Layer(0.0, 0.0525 * lam),
                                     Layer(1.3 * E, 0.2 * lam), Layer(-0.2 * E, 0.055 * lam)),
                             exit_potential=0.2 * E),
    }
    return stacks[case], 800 if case == "fine800" else 400


def mp_oracle(stack, mode, ppw):
    """R, T of numerov_oracle's recurrence at 50 digits: the same regions,
    step counts, Taylor starter and projection, marched step by step.  The
    slope is the discrete solution's own, psi_j = A*cos(j*theta) +
    B*sin(j*theta) (cosh and sinh where a/2 > 1), taken from its last two
    values: dpsi/dj = theta*(psi_N*cos(theta) - psi_{N-1})/sin(theta), with
    cos(theta) = a/2, and psi_N - psi_{N-1} where sigma = 0.  Only the step
    counts are taken in floats, as the oracle takes them."""
    mass, hbar_f, E = mode.species.mass, mode.hbar, mode.hbar * mode.omega_v
    steps = oracle_steps(stack, mode, ppw)
    with mpmath.workdps(50):
        m, hbar, energy = mpmath.mpf(mass), mpmath.mpf(hbar_f), mpmath.mpf(E)
        k_in = mpmath.sqrt(2 * m * energy) / hbar
        q_exit = mpmath.sqrt(2 * m * (energy - stack.exit_potential)) / hbar
        pad = 4 * mpmath.pi / k_in
        regions = [(layer.potential, mpmath.mpf(layer.length))
                   for layer in reversed(stack.layers)] + [(0.0, pad)]
        psi = mpmath.expj(q_exit * mpmath.fsum(layer.length for layer in stack.layers))
        dpsi = 1j * q_exit * psi
        for (U, length), n in zip(regions, steps):
            h = length / n
            sig = h * h * 2 * m * (U - energy) / hbar ** 2
            seq = [psi, psi * (1 + sig / 2 + sig ** 2 / 24 + sig ** 3 / 720)
                   - h * dpsi * (1 + sig / 6 + sig ** 2 / 120)]
            a = 2 * (1 + 5 * sig / 12) / (1 - sig / 12)
            for _ in range(n - 1):
                seq.append(a * seq[-1] - seq[-2])
            psi = seq[-1]
            if sig == 0:
                dpsi_dj = psi - seq[-2]
            else:
                cos_t = a / 2
                if cos_t > 1:
                    theta = mpmath.acosh(cos_t)
                    dpsi_dj = theta * (psi * cos_t - seq[-2]) / mpmath.sinh(theta)
                else:
                    theta = mpmath.acos(cos_t)
                    dpsi_dj = theta * (psi * cos_t - seq[-2]) / mpmath.sin(theta)
            dpsi = -dpsi_dj / h  # x falls by h per step
        A_in = (psi + dpsi / (1j * k_in)) / 2 * mpmath.expj(k_in * pad)
        B_in = (psi - dpsi / (1j * k_in)) / 2 * mpmath.expj(-k_in * pad)
        return abs(B_in / A_in) ** 2, q_exit / k_in * abs(1 / A_in) ** 2


def oracle_steps(stack, mode, ppw):
    """Numerov steps per region in numerov_oracle's marching order (the
    layers from the exit side inward, then the incident-side pad), taken
    in floats as the oracle takes them."""
    mass, hbar, E = mode.species.mass, mode.hbar, mode.hbar * mode.omega_v

    def n_steps(U, length):
        f = 2.0 * mass * (U - E) / hbar ** 2
        scale = 2.0 * math.pi / math.sqrt(abs(f)) if f != 0.0 else length
        return max(math.ceil(length / min(scale / ppw, length / 20.0)), 20)

    pad = 4.0 * math.pi / (math.sqrt(2.0 * mass * E) / hbar)
    return ([n_steps(layer.potential, layer.length) for layer in reversed(stack.layers)]
            + [n_steps(0.0, pad)])


def seeded_stack(seed, depth, E, lam, barrier=(1.3, 2.0)):
    """Barriers (probability 0.3) and propagating layers, 0.02-0.25 lam
    thick, and a propagating exit region, all drawn from the seed."""
    rng = random.Random(seed)
    layers = []
    for _ in range(depth):
        u = rng.uniform(*barrier) if rng.random() < 0.3 else rng.uniform(-0.5, 0.7)
        layers.append(Layer(u * E, rng.uniform(0.02, 0.25) * lam))
    return LayerStack(layers=tuple(layers), exit_potential=rng.uniform(-0.3, 0.5) * E)


def mp_schrodinger(stack, mode, convention):
    """r, t, R, T of the stack at 50 digits from the Schrodinger equation
    alone.  (psi, psi') starts as a unit outgoing wave at the exit interface
    and is carried back across each layer by cos(q*d), sin(q*d)/q and
    q*sin(q*d), which are even in q, so no index and no branch enters.
    r and t are the amplitudes of psi, which the de Broglie convention
    uses, on the first and the last interface.  The Maxwell convention's
    field goes as psi'/q, whose backward wave flips sign against the
    forward one: its amplitudes are -r and t*q_out/q_in."""
    with mpmath.workdps(50):
        E = mpmath.mpf(mode.hbar * mode.omega_v)
        k_in = mpmath.mpf(mode.k_v)

        def q(U):
            return k_in * mpmath.sqrt(1 - mpmath.mpf(U) / E)

        q_out = q(stack.exit_potential)
        psi, dpsi = mpmath.mpc(1), 1j * q_out
        for layer in reversed(stack.layers):
            k, d = q(layer.potential), mpmath.mpf(layer.length)
            c, s = mpmath.cos(k * d), mpmath.sin(k * d)
            psi, dpsi = psi * c - dpsi * s / k, psi * k * s + dpsi * c
        a = (psi + dpsi / (1j * k_in)) / 2
        b = (psi - dpsi / (1j * k_in)) / 2
        r, t = b / a, 1 / a
        R, T = abs(r) ** 2, q_out / k_in * abs(t) ** 2
        return (-r, t * q_out / k_in, R, T) if convention == MAXWELL else (r, t, R, T)


@pytest.mark.parametrize("convention", [MAXWELL, DEBROGLIE])
@pytest.mark.parametrize("depth,count", [(1, 24), (10, 8), (100, 2)])
def test_transfer_matrix_matches_50_digit_reference(depth, count, convention, species):
    worst = 0.0
    for seed in range(count):
        rng = random.Random(1000 * depth + seed)
        omega0 = 2.0 * math.pi * 1000.0 * rng.uniform(0.5, 2.0)
        reference = make_mode(species, omega0, velocity=0.01 * rng.uniform(0.5, 2.0))
        E0 = HBAR * reference.omega_v
        stack = seeded_stack(rng.randrange(2 ** 32), depth, E0, 2.0 * math.pi / reference.k_v)
        for scale in (0.8, 1.0, 1.2):
            mode = make_mode(species, omega0, energy=scale * E0)
            res = transfer_matrix(stack, mode, convention)
            for value, exact in zip((res.r, res.t, res.R, res.T),
                                    mp_schrodinger(stack, mode, convention)):
                worst = max(worst, float(abs(value - exact) / abs(exact)))
    assert worst < 1e-12


def adjacency(stack, E):
    """The adjacency classes a stack holds at particle energy E: each pair
    of neighbouring finite layers by kind, and a barrier next to the exit."""
    kinds = ["barrier" if layer.potential > E else "propagating" for layer in stack.layers]
    classes = {"-".join(sorted(pair)) for pair in zip(kinds, kinds[1:])}
    if kinds and kinds[-1] == "barrier":
        classes.add("barrier-exit")
    return classes


ADJACENCY = {"barrier-barrier", "barrier-propagating", "propagating-propagating",
             "barrier-exit"}


def cross_method_stacks(species):
    """(mode, stack) pairs from one seeded draw: two modes, 1-8 layers with
    U in [-E, 2.5E], 0.02-0.25 wavelengths thick, and a propagating exit."""
    modes = (make_mode(species, 2.0 * math.pi * 1000.0, velocity=0.01),
             make_mode(species, 2.0 * math.pi * 3700.0, velocity=0.0031))
    rng = random.Random(2023)
    for i in range(40):
        mode = modes[i % 2]
        E, lam = mode.hbar * mode.omega_v, 2.0 * math.pi / mode.k_v
        layers = tuple(Layer(rng.uniform(-1.0, 2.5) * E, rng.uniform(0.02, 0.25) * lam)
                       for _ in range(rng.randint(1, 8)))
        yield mode, LayerStack(layers=layers, exit_potential=rng.uniform(-1.0, 0.9) * E)


def check_reference(res, stack, mode, convention):
    """The matrix against the convention-free 50-digit reference."""
    for value, exact in zip((res.r, res.t, res.R, res.T),
                            mp_schrodinger(stack, mode, convention)):
        assert abs(value - exact) <= 1e-12 * abs(exact)


def check_oracle(res, stack, mode, convention):
    """The matrix against the Numerov integration of the Schrodinger equation,
    on a grid fine enough that the oracle's truncation error is below 1e-14."""
    oracle = numerov_oracle(stack, mode, points_per_wavelength=FINE_PPW)
    assert abs(res.T - oracle["T"]) <= 1e-12 * oracle["T"]
    assert abs(res.R - oracle["R"]) <= 1e-12


def check_duality(res, stack, mode, convention):
    """r_D = -r_M and t_D = t_M*eta_out/eta_in, the Maxwell indices: exactly
    as t_M = t_D*s_out, and to four roundings through generalized_index;
    the same R and T."""
    assert march_outcome(transfer_matrix, stack, mode, MAXWELL) == dual_outcome(stack, mode)
    other = transfer_matrix(stack, mode, DEBROGLIE if convention == MAXWELL else MAXWELL)
    mx, db = (res, other) if convention == MAXWELL else (other, res)
    ratio = (generalized_index(mode, stack.exit_potential, MAXWELL)
             / generalized_index(mode, 0.0, MAXWELL))
    assert abs(mx.t * ratio - db.t) <= 4 * 2.0 ** -53 * abs(db.t)


CROSS_METHOD = {"reference": check_reference, "oracle": check_oracle, "duality": check_duality}


@pytest.mark.parametrize("convention", [MAXWELL, DEBROGLIE])
@pytest.mark.parametrize("relation", sorted(CROSS_METHOD))
def test_cross_method(species, relation, convention):
    """Each row holds the matrix to another method over one seeded draw
    that reaches every adjacency class, a barrier next to a propagating
    layer included, where a Maxwell index on the growing branch went wrong."""
    reached = set()
    for mode, stack in cross_method_stacks(species):
        res = transfer_matrix(stack, mode, convention)
        CROSS_METHOD[relation](res, stack, mode, convention)
        reached |= adjacency(stack, mode.hbar * mode.omega_v)
    assert reached == ADJACENCY


@st.composite
def random_stacks(draw, std_mode_lam):
    n_layers = draw(st.integers(min_value=1, max_value=8))
    layers = []
    for _ in range(n_layers):
        u_rel = draw(st.floats(min_value=0.0, max_value=0.9))
        d = draw(st.floats(min_value=0.05, max_value=2.0))
        layers.append((u_rel, d * std_mode_lam))
    return layers


class TestStackProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_unitarity_reciprocity_duality(self, data):
        mode = make_mode(ParticleSpecies("testium", 1.0e-25),
                         2.0 * math.pi * 1000.0, velocity=0.01)
        E = HBAR * mode.omega_v
        lam = 2.0 * math.pi / mode.k_v
        spec = data.draw(random_stacks(lam))
        stack = LayerStack(layers=tuple(Layer(u * E, d) for u, d in spec))
        mx = transfer_matrix(stack, mode, MAXWELL)
        db = transfer_matrix(stack, mode, DEBROGLIE)
        rev = transfer_matrix(stack.reversed(), mode, MAXWELL)
        assert mx.R + mx.T == pytest.approx(1.0, rel=1e-10, abs=0)
        assert db.R == pytest.approx(mx.R, rel=1e-12, abs=1e-14)
        assert db.T == pytest.approx(mx.T, rel=1e-12, abs=0)
        # time-reversal symmetry: flux is direction independent
        assert rev.T == pytest.approx(mx.T, rel=1e-10, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_barriers_unitarity_reciprocity(self, data):
        mode = make_mode(ParticleSpecies("testium", 1.0e-25),
                         2.0 * math.pi * 1000.0, velocity=0.01)
        E = HBAR * mode.omega_v
        lam = 2.0 * math.pi / mode.k_v
        u_rel = st.one_of(st.floats(min_value=-1.0, max_value=0.9),
                          st.floats(min_value=1.1, max_value=2.0))
        layer = st.tuples(u_rel, st.floats(min_value=0.02, max_value=0.5))
        spec = data.draw(st.lists(layer, min_size=1, max_size=12))
        stack = LayerStack(layers=tuple(Layer(u * E, d * lam) for u, d in spec))
        db = transfer_matrix(stack, mode, DEBROGLIE)
        rev = transfer_matrix(stack.reversed(), mode, DEBROGLIE)
        assert db.R + db.T == pytest.approx(1.0, rel=1e-10, abs=0)
        assert rev.T == pytest.approx(db.T, rel=1e-12, abs=0)
