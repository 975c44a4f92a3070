import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from matterwave import (
    DEBROGLIE,
    MAXWELL,
    GridResolutionError,
    Layer,
    LayerStack,
    OpacityError,
    ParticleSpecies,
    SingularPotentialError,
    generalized_index,
    make_mode,
    numerov_oracle,
    step_coefficients,
    transfer_matrix,
)

HBAR = 1.054571817e-34


@pytest.fixture
def E(std_mode):
    return HBAR * std_mode.omega_v


class TestGeneralizedIndex:
    def test_zero_potential(self, std_mode):
        gi = generalized_index(std_mode, 0.0)
        assert gi == pytest.approx(std_mode.n, rel=1e-15)
        assert gi.imag == 0.0

    def test_three_quarters_doubles_index(self, std_mode, E):
        gi = generalized_index(std_mode, 0.75 * E)
        assert gi == pytest.approx(2.0 * std_mode.n, rel=1e-14)

    def test_evanescent_branch(self, std_mode, E):
        gi = generalized_index(std_mode, 2.0 * E)
        assert gi.imag > 0
        assert gi.real == 0.0
        assert gi.imag == pytest.approx(std_mode.n, rel=1e-14)

    def test_debroglie_reciprocal(self, std_mode, E):
        for U in (0.0, 0.5 * E, -1.0 * E):
            gm = generalized_index(std_mode, U, MAXWELL)
            gd = generalized_index(std_mode, U, DEBROGLIE)
            assert gd == pytest.approx(1.0 / gm, rel=1e-14)

    def test_debroglie_evanescent_decaying_sign(self, std_mode, E):
        gm = generalized_index(std_mode, 2.0 * E, MAXWELL)
        gd = generalized_index(std_mode, 2.0 * E, DEBROGLIE)
        assert gd.imag > 0
        assert gd == pytest.approx(1j / abs(gm), rel=1e-14)

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
        assert res.r == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert res.t == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert res.R == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert res.T == pytest.approx(8.0 / 9.0, rel=1e-14)

    def test_flux_conservation(self):
        res = step_coefficients(0.36, 1.7)
        assert res.R + res.T == pytest.approx(1.0, rel=1e-14)

    def test_convention_duality(self):
        # de Broglie amplitudes from reciprocal indices: r flips sign,
        # t picks up n2/n1, fluxes match
        n1, n2 = 0.4, 0.9
        mx = step_coefficients(n1, n2)
        db = step_coefficients(1.0 / n1, 1.0 / n2)
        assert db.r == pytest.approx(-mx.r, rel=1e-14)
        assert db.t == pytest.approx((n2 / n1) * mx.t, rel=1e-14)
        assert db.R == pytest.approx(mx.R, rel=1e-14)
        assert db.T == pytest.approx(mx.T, rel=1e-14)

    def test_evanescent_exit_total_reflection(self):
        res = step_coefficients(1.0, 0.5j)
        assert res.T == 0.0
        assert res.R == pytest.approx(1.0, rel=1e-14)

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
        assert res.R == pytest.approx(direct.R, rel=1e-14)
        assert res.T == pytest.approx(direct.T, rel=1e-14)

    def test_step_one_ninth(self, std_mode, E):
        # n2/n1 = 2 needs U = -3E on the exit side
        res = transfer_matrix(LayerStack(exit_potential=-3.0 * E), std_mode)
        assert res.R == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_half_wave_window(self, std_mode, E):
        # a layer of optical thickness pi is transparent at any contrast
        U = -3.0 * E
        q = std_mode.k_v * math.sqrt(1.0 - U / E)
        stack = LayerStack(layers=(Layer(U, math.pi / q),))
        res = transfer_matrix(stack, std_mode)
        assert res.R == pytest.approx(0.0, abs=1e-12)
        assert res.T == pytest.approx(1.0, rel=1e-12)

    def test_tunneling_vs_oracle(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(1.5 * E, 0.3 * lam),))
        tm = transfer_matrix(stack, std_mode)
        oracle = numerov_oracle(stack, std_mode)
        assert tm.T == pytest.approx(oracle["T"], rel=1e-6)
        assert tm.R + tm.T == pytest.approx(1.0, rel=1e-10)

    def test_conventions_agree_on_flux(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(0.4 * E, 0.7 * lam),
                                   Layer(-0.8 * E, 1.3 * lam),
                                   Layer(0.9 * E, 0.2 * lam)))
        mx = transfer_matrix(stack, std_mode, MAXWELL)
        db = transfer_matrix(stack, std_mode, DEBROGLIE)
        assert db.R == pytest.approx(mx.R, rel=1e-12)
        assert db.T == pytest.approx(mx.T, rel=1e-12)

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
        assert res["T"] == pytest.approx(1.0, rel=1e-10)

    def test_step_exact(self, std_mode, E):
        res = numerov_oracle(LayerStack(exit_potential=-3.0 * E), std_mode)
        assert res["R"] == pytest.approx(1.0 / 9.0, rel=1e-8)
        assert res["T"] == pytest.approx(8.0 / 9.0, rel=1e-8)

    def test_unitarity(self, std_mode, E):
        lam = 2.0 * math.pi / std_mode.k_v
        stack = LayerStack(layers=(Layer(0.6 * E, 0.9 * lam),
                                   Layer(-0.3 * E, 0.4 * lam)))
        res = numerov_oracle(stack, std_mode)
        assert res["R"] + res["T"] == pytest.approx(1.0, rel=1e-8)

    def test_under_resolved_rejected(self, std_mode):
        with pytest.raises(GridResolutionError):
            numerov_oracle(LayerStack(), std_mode, points_per_wavelength=40)

    def test_evanescent_exit_rejected(self, std_mode, E):
        with pytest.raises(ValueError):
            numerov_oracle(LayerStack(exit_potential=1.5 * E), std_mode)

    def test_opaque_barrier_rejected(self, std_mode, E):
        """U = 2E over 120 wavelengths, sum kappa*L = 754: the growing
        solution would overflow, so the oracle refuses the stack with the
        bound and the error transfer_matrix uses, before it jumps."""
        stack = LayerStack(layers=(Layer(2.0 * E, 120.0 * 2.0 * math.pi / std_mode.k_v),))
        with pytest.raises(OpacityError, match=r"sum kappa\*L = 754"):
            numerov_oracle(stack, std_mode)

    # repr of R and T per stack, so that the oracle's last bits move only
    # on purpose; each is settled against mp_oracle below.  "parity" holds
    # regions at and near the 20-step minimum.
    PINNED = {
        "free": (2.376353567528373e-24, 0.9999999999978524),
        "step": (0.11111111111174474, 0.8888888888863465),
        "barrier": (0.777826971185357, 0.22217302881459586),
        "mixed10": (0.622354967917211, 0.37764503207661704),
        "deep100": (0.9999999585272465, 4.1472787658422816e-08),
        "fine800": (0.6223549670905872, 0.37764503290894547),
        "parity": (0.3859347028625938, 0.61406529713488),
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


def assert_matches_mp_oracle(stack, mode, ppw):
    """The oracle's float arithmetic against its own recurrence at 50
    digits: T, and R where above 1e-6, to 1e-10 relative; a smaller R,
    such as the free-space R of about 2e-24, to 1e-20 absolute."""
    res = numerov_oracle(stack, mode, points_per_wavelength=ppw)
    R, T = mp_oracle(stack, mode, ppw)
    if R > 1e-6:
        assert abs(res["R"] / R - 1) < 1e-10
    else:
        assert abs(res["R"] - R) < 1e-20
    assert abs(res["T"] / T - 1) < 1e-10


class TestTransferMatrixPinned:
    # repr of (r, t, R, T) per stack and convention, so that a leaner
    # product keeps every bit and every sign of zero.  "defect" is a
    # barrier next to a propagating layer, where the Maxwell flux is the
    # known wrong value; it is frozen here so it changes only on purpose.
    PINNED = {
        ("d1", MAXWELL): "((0.24928577765324147+0.05418960300031493j), "
                         "(-0.1143302477732194+0.8288968976700535j), "
                         "0.06507991201351308, 0.9349200879864868)",
        ("d1", DEBROGLIE): "((-0.24928577765324136-0.054189603000314904j), "
                           "(-0.15266863841458161+1.1068511021192764j), "
                           "0.06507991201351303, 0.9349200879864871)",
        ("d10", MAXWELL): "((-0.3317594562523746-0.5873713100864195j), "
                          "(-0.7264017467078995-0.16234000334326193j), "
                          "0.455069392725508, 0.5449306072744922)",
        ("d10", DEBROGLIE): "((-0.42607409363953647+0.3432473022653264j), "
                            "(0.2381142559624854-0.7952713930101574j), "
                            "0.29935784378317687, 0.7006421562168229)",
        ("d100", MAXWELL): "((-0.9213217269706563+0.3888010697346715j), "
                           "(-3.3356103980806716e-05+4.238935754136226e-05j), "
                           "0.9999999964150175, 3.584982911703215e-09)",
        ("d100", DEBROGLIE): "((-0.7559080136473944-0.6546778405397332j), "
                             "(1.970817076421499e-06-2.87961448072971e-06j), "
                             "0.9999999999901177, 9.881996571476444e-12)",
        ("defect", MAXWELL): "((-0.18082500337142587-0.6646137773891803j), "
                             "(0.6912643733599776+0.21850494544391166j), "
                             "0.47440915493979097, 0.5255908450602093)",
        ("defect", DEBROGLIE): "((0.21124670814130997-0.731181633496574j), "
                               "(0.48126823301563826+0.43488979641599684j), "
                               "0.579251752863258, 0.42074824713674186)",
    }

    @pytest.mark.parametrize("case,convention", sorted(PINNED))
    def test_pinned_bit_for_bit(self, std_mode, E, case, convention):
        lam = 2.0 * math.pi / std_mode.k_v
        stacks = {
            "d1": seeded_stack(101, 1, E, lam),
            "d10": seeded_stack(102, 10, E, lam),
            "d100": seeded_stack(103, 100, E, lam),
            "defect": LayerStack(layers=(Layer(1.5 * E, 0.2 * lam), Layer(0.3 * E, 0.1 * lam))),
        }
        res = transfer_matrix(stacks[case], std_mode, convention)
        assert repr((res.r, res.t, res.R, res.T)) == self.PINNED[case, convention]


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
    step counts, Taylor starter, march and projection, with the 7-point
    stencil as exact rationals.  Only the step counts are taken in
    floats, as the oracle takes them."""
    mass, hbar_f, E = mode.species.mass, mode.hbar, mode.hbar * mode.omega_v
    steps = oracle_steps(stack, mode, ppw)
    with mpmath.workdps(50):
        m, hbar, energy = mpmath.mpf(mass), mpmath.mpf(hbar_f), mpmath.mpf(E)
        d7 = [mpmath.mpf(p) / q for p, q in
              ((-49, 20), (6, 1), (-15, 2), (20, 3), (-15, 4), (6, 5), (-1, 6))]
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
            dpsi = sum(c * v for c, v in zip(d7, reversed(seq[-7:]))) / h
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


def mp_transfer(stack, mode, convention):
    """R, T of the same interface and phase product, left to right in full
    2x2 matrices at 50 digits."""
    with mpmath.workdps(50):
        E = mpmath.mpf(mode.hbar * mode.omega_v)

        def region(U):
            x = 1 - mpmath.mpf(U) / E
            s = mpmath.sqrt(abs(x))
            eta = mpmath.mpf(mode.n) / s if convention == MAXWELL else s / mode.n
            q = mpmath.mpf(mode.k_v) * s
            return (eta, q) if x > 0 else (1j * eta, 1j * q)

        potentials = [0.0] + [layer.potential for layer in stack.layers] + [stack.exit_potential]
        regions = [region(U) for U in potentials]
        m00, m01, m10, m11 = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
        for i in range(len(regions) - 1):
            e1, e2 = regions[i][0], regions[i + 1][0]
            r, t = (e1 - e2) / (e1 + e2), 2 * e1 / (e1 + e2)
            m00, m01, m10, m11 = ((m00 + m01 * r) / t, (m00 * r + m01) / t,
                                  (m10 + m11 * r) / t, (m10 * r + m11) / t)
            if i < len(stack.layers):
                phi = regions[i + 1][1] * mpmath.mpf(stack.layers[i].length)
                ep, em = mpmath.exp(1j * phi), mpmath.exp(-1j * phi)
                m00, m01, m10, m11 = m00 * em, m01 * ep, m10 * em, m11 * ep
        R = abs(m10 / m00) ** 2
        T = mpmath.re(regions[-1][0]) / mpmath.re(regions[0][0]) * abs(1 / m00) ** 2
        return R, T


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
            R, T = mp_transfer(stack, mode, convention)
            worst = max(worst, float(abs(res.R / R - 1)), float(abs(res.T / T - 1)))
    assert worst < 1e-12


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
        assert mx.R + mx.T == pytest.approx(1.0, rel=1e-10)
        assert db.R == pytest.approx(mx.R, rel=1e-12, abs=1e-14)
        assert db.T == pytest.approx(mx.T, rel=1e-12)
        # time-reversal symmetry: flux is direction independent
        assert rev.T == pytest.approx(mx.T, rel=1e-10)

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
        assert db.R + db.T == pytest.approx(1.0, rel=1e-10)
        assert rev.T == pytest.approx(db.T, rel=1e-12)
